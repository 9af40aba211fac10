"""Bundled verification corpus and the per-entry check battery.

An entry is (name, polynomial text, group spec text, optional expectations).
The bundled corpus covers every subgroup of the full symmetry group for all
one- and two-variable entries, a spread of chain/loop mixtures in three and
four variables, and the five-variable Fermat quintic with its four standard
groups.  Expected E-functions frozen from hand computations ride along as
expectations on the golden entries.

`run_entry` executes the full battery: engine agreement, the duality
theorem against the transposed pair, double dual, order product, basis
count and degrees (the spectrum identity), psi structure, parity
disjointness (when a mode applies), and the variance identity (when the
grading operator is present).  Entries whose check does not apply report
"-" in that column.

File format (one entry per line, `#` comments):

    name ; polynomial ; group-spec [; expectations-json]
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .basis_engine import (
    efunction_basis,
    hodge_table,
    psi_structure_ok,
    spectrum_identity_holds,
)
from .efunction import (
    BiExpPolynomial,
    _json_int,
    _json_rational,
    central_charge,
    check_duality,
    exponent_mean,
    variance,
)
from .errors import InputSyntaxError, OrbefunError
from .invertible import InvertiblePolynomial, _Value, determinant, parse_polynomial, transpose
from .series_engine import efunction_series
from .symmetry import (
    AbelianSubgroup,
    dual_group,
    format_element,
    gf_group,
    grading_operator,
    grading_subgroup,
    is_in_sl,
    parse_group_spec,
    sl_subgroup,
    all_subgroups,
)

CHECKS = (
    "engines",
    "duality",
    "dualdual",
    "orders",
    "mu",
    "psi",
    "parity",
    "variance",
    "expect",
)


class CorpusEntry(_Value):
    """One line of a corpus file; equal only to itself.  The expectations are
    stored as their canonical JSON text (or None), which the battery reads
    when the entry runs, so no caller can change them after construction."""

    __slots__ = _fields = ("name", "poly", "group", "expectations")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name: str, poly: str, group: str, expectations: object = None):
        text = None if expectations is None else json.dumps(expectations, sort_keys=True)
        self._set(name=name, poly=poly, group=group, expectations=text)

    def to_line(self) -> str:
        base = f"{self.name} ; {self.poly} ; {self.group}"
        if self.expectations is not None:
            base += f" ; {self.expectations}"
        return base


class EntryResult(_Value):
    """The status of every check for one entry: PASS, FAIL, "-" (does not
    apply) or ERROR (the entry itself is invalid; `error` says why); equal
    only to itself; `statuses` is a read-only copy."""

    __slots__ = _fields = ("entry", "statuses", "error")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, entry: CorpusEntry, statuses: Mapping[str, str], error: str | None = None):
        self._set(entry=entry, statuses=MappingProxyType(dict(statuses)), error=error)

    @property
    def ok(self) -> bool:
        return all(v not in ("FAIL", "ERROR") for v in self.statuses.values())


def _pf(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# a run's `mu` and `psi` columns of each polynomial, which depend on it alone
_Verdicts = dict[InvertiblePolynomial, tuple[str, str]]


def run_entry(entry: CorpusEntry, verdicts: _Verdicts | None = None) -> EntryResult:
    """Run the battery on one entry; an entry that raises an OrbefunError, or
    whose expectations nest too deeply to read back, gets ERROR in every
    column, so the rest of the corpus still runs.  `run_corpus` passes one
    `verdicts` to all entries of a run, so those columns are computed once
    per polynomial; a lone call starts afresh."""
    try:
        return _run_checks(entry, {} if verdicts is None else verdicts)
    except (OrbefunError, RecursionError) as exc:
        return EntryResult(entry, dict.fromkeys(CHECKS, "ERROR"), str(exc))


def _run_checks(entry: CorpusEntry, verdicts: _Verdicts) -> EntryResult:
    f = parse_polynomial(entry.poly)
    G = parse_group_spec(f, entry.group)
    exp = _read_expectations(entry.expectations)
    st: dict[str, str] = {}

    Eb = efunction_basis(f, G)
    Es = efunction_series(f, G)
    st["engines"] = _pf(Eb == Es)

    ft = transpose(f)
    Gd = dual_group(f, G)
    Ebd = efunction_basis(ft, Gd)
    Esd = efunction_series(ft, Gd)
    st["duality"] = _pf(Ebd == Esd and check_duality(Eb, Ebd, f.n))

    st["dualdual"] = _pf(dual_group(ft, Gd) == G)
    st["orders"] = _pf(G.order * Gd.order == determinant(f))
    # degree_counts raises unless the atom bases multiply out to mu; the
    # spectrum identity checks their degrees against the weights
    if f not in verdicts:
        verdicts[f] = _pf(spectrum_identity_holds(f)), _pf(psi_structure_ok(f))
    st["mu"], st["psi"] = verdicts[f]

    g0 = grading_operator(f)
    in_sl = all(is_in_sl(g) for g in G.generators)
    has_g0 = g0 in G
    table = None
    if in_sl or has_g0 or "variance" in exp:
        table = hodge_table(f, G)
    if in_sl or has_g0:
        st["parity"] = _pf(
            all(de == 0 or do == 0 for de, do in table.nums.values())
        )
    else:
        st["parity"] = "-"
    if has_g0:
        ok = variance(table) == central_charge(f) * Eb.chi() / 12
        ok = ok and exponent_mean(table) == 0
        st["variance"] = _pf(ok)
    else:
        st["variance"] = "-"

    if exp:
        actual = {"efunction": Eb, "chi": Eb.chi()}
        if "variance" in exp:
            actual["variance"] = variance(table)
        st["expect"] = _pf(all(actual[key] == want for key, want in exp.items()))
    else:
        st["expect"] = "-"
    return EntryResult(entry, st)


def _read_expectations(text: str | None) -> dict[str, object]:
    """An entry's recorded expectations from their JSON text, read strictly:
    an object with keys among efunction (the JSON form), chi (an integer)
    and variance (an exact rational).  Anything else is an InputSyntaxError."""
    if text is None:
        return {}
    exp = json.loads(text)  # valid JSON: the entry wrote it
    if not isinstance(exp, dict):
        raise InputSyntaxError(f"expectations must be a JSON object, got {exp!r}", 0)
    out: dict[str, object] = {}
    for key, value in exp.items():
        if key == "efunction":
            out[key] = BiExpPolynomial.from_json_obj(value)
        elif key == "chi":
            out[key] = _json_int(value, "expectation chi")
        elif key == "variance":
            out[key] = _json_rational(value, "expectation variance")
        else:
            raise InputSyntaxError(
                f"unknown expectation {key!r}: expected efunction, chi or variance", 0
            )
    return out


def run_corpus(entries: Iterable[CorpusEntry]) -> list[EntryResult]:
    verdicts: _Verdicts = {}
    return [run_entry(e, verdicts) for e in entries]


# ---------------------------------------------------------------------------
# the bundled corpus


def _terms(*triples) -> list[dict]:
    return [{"t": t, "tbar": tb, "coeff": c} for t, tb, c in triples]


# Hand-derived golden values, keyed by (polynomial text, group spec) as the
# bundled entry gets them: _spec_name names a group G0 before Gf, so the full
# groups of x^3 and x^3*y + y^2, which are their grading subgroups, are "G0".
_GOLDEN = {
    ("x^3", "trivial"): {
        "efunction": _terms(("-1/6", "1/6", -1), ("1/6", "-1/6", -1)),
        "chi": -2,
    },
    ("x^3", "G0"): {
        "efunction": _terms(("-1/6", "-1/6", 1), ("1/6", "1/6", 1)),
        "chi": 2,
        "variance": "1/18",
    },
    ("x^3*y + y^2", "G0"): {
        "efunction": _terms(("-1/3", "-1/3", 1), ("0", "0", 2), ("1/3", "1/3", 1)),
        "chi": 4,
        "variance": "2/9",
    },
    ("x^4 + y^4", "G0"): {
        "efunction": _terms(("-1/2", "-1/2", 1), ("0", "0", 4), ("1/2", "1/2", 1)),
        "chi": 6,
        "variance": "1/2",
    },
    ("x^4 + y^4", "Gf"): {
        "efunction": _terms(
            ("-1/2", "-1/2", 1),
            ("-1/4", "-1/4", 2),
            ("0", "0", 3),
            ("1/4", "1/4", 2),
            ("1/2", "1/2", 1),
        ),
        "chi": 9,
        "variance": "3/4",
    },
    ("x^2*y + y^2*x", "trivial"): {
        "efunction": _terms(("-1/3", "1/3", 1), ("0", "0", 2), ("1/3", "-1/3", 1)),
        "chi": 4,
    },
}


def _spec_name(
    H: AbelianSubgroup, named: tuple[tuple[str, AbelianSubgroup], ...]
) -> tuple[str, str]:
    """(short name, group spec text) for a subgroup, preferring the tokens
    in the order of `named`."""
    if H.order == 1:
        return "trivial", "trivial"
    for name, K in named:
        if H == K:
            return name, name
    text = ", ".join(format_element(g) for g in H.generators)
    return "", text


def _all_subgroup_entries(label: str, poly_text: str) -> list[CorpusEntry]:
    f = parse_polynomial(poly_text)
    Gf = gf_group(f)
    named = (("G0", grading_subgroup(f)), ("SL", sl_subgroup(f)), ("Gf", Gf))
    out = []
    counter = 0
    for H in all_subgroups(Gf):
        name, spec = _spec_name(H, named)
        if not name:
            counter += 1
            name = f"s{counter:02d}"
        out.append(
            CorpusEntry(
                f"{label}/{name}", poly_text, spec, _GOLDEN.get((poly_text, spec))
            )
        )
    return out


def _named_entries(label: str, poly_text: str, specs: Iterable[str]) -> list[CorpusEntry]:
    f = parse_polynomial(poly_text)
    seen: list[AbelianSubgroup] = []
    out = []
    for spec in specs:
        H = parse_group_spec(f, spec)
        if any(H == old for old in seen):
            continue
        seen.append(H)
        out.append(
            CorpusEntry(
                f"{label}/{spec}", poly_text, spec, _GOLDEN.get((poly_text, spec))
            )
        )
    return out


def default_corpus() -> list[CorpusEntry]:
    """The bundled corpus: every subgroup for the small entries, the four
    standard groups for the larger ones."""
    entries: list[CorpusEntry] = []
    for label, poly in (
        ("fermat3", "x^3"),
        ("fermat4", "x^4"),
        ("fermat5", "x^5"),
        ("chain_3_2", "x^3*y + y^2"),
        ("chain_2_3", "x^2*y + y^3"),
        ("chain_4_2", "x^4*y + y^2"),
        ("loop_2_2", "x^2*y + y^2*x"),
        ("loop_3_3", "x^3*y + y^3*x"),
        ("diag_3_3", "x^3 + y^3"),
        ("diag_4_4", "x^4 + y^4"),
    ):
        entries.extend(_all_subgroup_entries(label, poly))
    standard = ("trivial", "G0", "SL", "Gf")
    for label, poly in (
        ("mix_chain_fermat", "x^3*y + y^2 + z^3"),
        ("chain_2_2_3", "x^2*y + y^2*z + z^3"),
        ("loop_2_2_3", "x^2*y + y^2*z + z^2*x"),
        ("loop_2x4", "x^2*y + y^2*z + z^2*w + w^2*x"),
        ("two_loops", "x^2*y + y^2*x + z^2*w + w^2*z"),
        ("quintic", "x1^5 + x2^5 + x3^5 + x4^5 + x5^5"),
    ):
        entries.extend(_named_entries(label, poly, standard))
    return entries


# ---------------------------------------------------------------------------
# file form


def parse_corpus(text: str) -> list[CorpusEntry]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(";", 3)]
        if len(parts) < 3:
            raise InputSyntaxError(
                f"corpus line {lineno}: expected 'name ; poly ; group-spec'", 0
            )
        try:
            expectations = json.loads(parts[3]) if len(parts) == 4 and parts[3] else None
            entries.append(CorpusEntry(parts[0], parts[1], parts[2], expectations))
        # JSONDecodeError, an integer beyond the digit limit, or a nesting too
        # deep to read or to write back as the entry's canonical text
        except (ValueError, RecursionError) as exc:
            raise InputSyntaxError(f"corpus line {lineno}: bad expectations JSON: {exc}", 0) from exc
    return entries


def format_corpus(entries: Iterable[CorpusEntry]) -> str:
    return "".join(e.to_line() + "\n" for e in entries)
