"""Acceptance battery: eleven exact checks over the bundled corpus.

Each test prints one [PASS]/[FAIL] line (visible with -s); every comparison
is exact rational arithmetic, tolerance zero.
"""

from fractions import Fraction

import pytest

from orbefun import (
    check_duality,
    dual_group,
    efunction_basis,
    efunction_series,
    parse_group_spec,
    parse_polynomial,
    transpose,
)
from orbefun.basis_engine import (
    hodge_table,
    milnor_basis,
    pair_table,
    psi_structure_ok,
    spectrum_identity_holds,
)
from orbefun.corpus import default_corpus
from orbefun.efunction import central_charge, exponent_mean, variance
from orbefun.invertible import determinant, milnor_number, weights
from orbefun.symmetry import (
    grading_operator,
    grading_subgroup,
    is_in_sl,
    sl_subgroup,
    sorted_elements,
)
from reference_engines import expected_multiplicity
from reference_parsers import parse_efunction


@pytest.fixture(scope="module")
def corpus():
    pairs = []
    for e in default_corpus():
        f = parse_polynomial(e.poly)
        pairs.append((e.name, f, parse_group_spec(f, e.group)))
    return pairs


def _distinct_polynomials(corpus):
    seen = {}
    for _, f, _ in corpus:
        seen.setdefault(f.exponents, f)
    return list(seen.values())


def _report(num, desc, failures):
    tag = "FAIL" if failures else "PASS"
    print(f"[{tag}] criterion {num}: {desc}")
    assert not failures, f"criterion {num} failed on: {failures[:5]}"


def test_criterion_01_duality(corpus):
    failures = []
    for name, f, G in corpus:
        P = efunction_basis(f, G)
        Q = efunction_basis(transpose(f), dual_group(f, G))
        if not check_duality(P, Q, f.n):
            failures.append(name)
    assert len(corpus) >= 25
    _report(1, "mirror duality on every corpus pair", failures)


def test_criterion_02_engine_equivalence(corpus):
    failures = [
        name
        for name, f, G in corpus
        if efunction_basis(f, G) != efunction_series(f, G)
    ]
    _report(2, "basis and series engines agree exactly", failures)


def test_criterion_03_golden_values():
    cases = (
        ("x^3", "trivial", "-(tb/t)^(-1/6) - (tb/t)^(1/6)", None),
        ("x^3", "Gf", "(t*tb)^(-1/6) + (t*tb)^(1/6)", None),
        ("x^3*y + y^2", "Gf", "(t*tb)^(-1/3) + 2 + (t*tb)^(1/3)", None),
        ("x^4 + y^4", "1/4(1,1)", "(t*tb)^(-1/2) + 4 + (t*tb)^(1/2)", 6),
    )
    failures = []
    for text, spec, golden, chi in cases:
        f = parse_polynomial(text)
        G = parse_group_spec(f, spec)
        E = efunction_basis(f, G)
        if E != parse_efunction(golden):
            failures.append((text, spec))
        if chi is not None and E.chi() != chi:
            failures.append((text, spec, "chi"))
    _report(3, "hand-derived golden E-functions reproduced", failures)


def test_criterion_04_poincare_identity(corpus):
    failures = [
        f.to_text() for f in _distinct_polynomials(corpus)
        if not spectrum_identity_holds(f)
    ]
    _report(4, "graded-basis generating function identity", failures)


def test_criterion_05_group_duality(corpus):
    failures = []
    for name, f, G in corpus:
        ft = transpose(f)
        Gd = dual_group(f, G)
        if dual_group(ft, Gd) != G:
            failures.append((name, "double dual"))
        if G.order * Gd.order != determinant(f):
            failures.append((name, "order product"))
    for f in _distinct_polynomials(corpus):
        if dual_group(f, grading_subgroup(f)) != sl_subgroup(transpose(f)):
            failures.append((f.to_text(), "grading dual"))
    _report(5, "group duality: double dual, orders, grading vs SL", failures)


def test_criterion_06_pairing_map_structure(corpus):
    failures = []
    for f in _distinct_polynomials(corpus):
        if not psi_structure_ok(f):
            failures.append(f.to_text())
    _report(6, "monomial-to-element map structure on every atom", failures)


def test_criterion_07_hodge_symmetry(corpus):
    failures = []
    for name, f, G in corpus:
        if not all(is_in_sl(g) for g in sorted_elements(G)):
            continue
        T = hodge_table(f, G)
        Td = hodge_table(transpose(f), dual_group(f, G))
        left = {pq: de + do for pq, (de, do) in T.entries.items()}
        right = {pq: de + do for pq, (de, do) in Td.entries.items()}
        if left != {(f.n - p, q): v for (p, q), v in right.items()}:
            failures.append(name)
    _report(7, "Hodge table symmetry (p,q) -> (n-p,q) for SL pairs", failures)


def test_criterion_08_variance(corpus):
    failures = []
    checked = 0
    for name, f, G in corpus:
        if grading_operator(f) not in G:
            continue
        checked += 1
        T = hodge_table(f, G)
        chi = efunction_basis(f, G).chi()
        if variance(T) != central_charge(f) * chi / 12:
            failures.append(name)
        if exponent_mean(T) != 0:
            failures.append((name, "mean"))
    assert checked > 0
    _report(8, "variance equals central charge times chi over 12", failures)


def test_criterion_09_pair_table_symmetry(corpus):
    failures = []
    for name, f, G in corpus:
        T = pair_table(f, G)
        Td = pair_table(transpose(f), dual_group(f, G))
        if Td.rows != {(b, a): v for (a, b), v in T.rows.items()}:
            failures.append(name)
        for (g, gt), m in T.rows.items():
            if (-1) ** g.n_fixed != (-1) ** (f.n - gt.n_fixed):
                failures.append((name, "parity"))
            if m != expected_multiplicity(f, g, gt):
                failures.append((name, "multiplicity"))
    _report(9, "pair table transposes; row parity identity", failures)


def test_criterion_10_counting(corpus):
    failures = []
    for f in _distinct_polynomials(corpus):
        basis = milnor_basis(f)
        product = 1
        for q in weights(f).q:
            product *= 1 / q - 1
        if len(basis) != product or len(basis) != milnor_number(f):
            failures.append((f.to_text(), "count"))
        q = weights(f).q
        degrees = sorted(sum(qi * (e + 1) for qi, e in zip(q, k)) for k in basis)
        mirrored = sorted(Fraction(f.n) - d for d in degrees)
        if degrees != mirrored:
            failures.append((f.to_text(), "palindrome"))
    _report(10, "basis size equals weight product; degrees palindromic", failures)


def test_criterion_11_mode_signs_name_the_parity(corpus):
    """Where g0 is in G, each Hodge-table entry has only the parity that
    (-1)^(q-p) names (even for +1, odd for -1); where G lies in SL, the one
    that (-1)^(p+q) names.  So the signed E-function, whose coefficients are
    even - odd, carries the table's dimensions under that sign."""
    failures = []
    checked = {"G0": 0, "SL": 0}
    for name, f, G in corpus:
        modes = []
        if grading_operator(f) in G:
            modes.append(("G0", lambda p, q: q - p))
        if all(is_in_sl(g) for g in G.generators):
            modes.append(("SL", lambda p, q: p + q))
        T = hodge_table(f, G)
        for mode, exponent in modes:
            checked[mode] += 1
            for (p, q), (de, do) in T.nums.items():
                k, r = divmod(exponent(p, q), T.den)
                if r or (do if k % 2 == 0 else de):
                    failures.append((name, mode, (p, q)))
    assert checked == {"G0": 28, "SL": 28}
    _report(11, "the mode's sign names each bidegree's parity", failures)
