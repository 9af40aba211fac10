"""Names of the per-layer spans and counts, shared by run.py and traced.py.

Each name is the module of orbefun whose public calls it times or counts.
"""

SPANS = (
    "invertible.parse_s",
    "symmetry.group_s",
    "symmetry.dual_s",
    "basis_engine.milnor_basis_s",
    "basis_engine.sectors_s",
    "basis_engine.efunction_s",
    "series_engine.efunction_s",
    "efunction.compare_s",
    "symmetry.dualdual_s",
    "basis_engine.psi_structure_s",
    "basis_engine.hodge_s",
    "corpus.battery_s",
    "cli.output_s",
)
COUNTS = (
    "symmetry.group_order",
    "symmetry.dual_order",
    "symmetry.gf_elements",
    "basis_engine.sectors",
    "basis_engine.fixed_loci",
    "basis_engine.monomials_tested",
    "basis_engine.monomials_kept",
    "efunction.terms",
    "corpus.entries",
)
