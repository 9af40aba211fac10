"""Corpus plumbing: file format, battery checks, recorded expectations."""

import pytest

from orbefun import InputSyntaxError
from orbefun import basis_engine
from orbefun.basis_engine import psi_structure_ok, spectrum_identity_holds
from orbefun.corpus import (
    CHECKS,
    CorpusEntry,
    default_corpus,
    format_corpus,
    parse_corpus,
    run_corpus,
    run_entry,
)


def test_default_corpus_is_large_and_named():
    entries = default_corpus()
    assert len(entries) >= 25
    names = [e.name for e in entries]
    assert len(names) == len(set(names))
    assert any(n.startswith("quintic/") for n in names)
    assert any(n.startswith("diag_4_4/") for n in names)


def test_default_corpus_covers_all_small_subgroups():
    from orbefun import parse_group_spec, parse_polynomial
    from orbefun.symmetry import all_subgroups, gf_group

    entries = default_corpus()
    f = parse_polynomial("x^4 + y^4")
    seen = {
        parse_group_spec(parse_polynomial(e.poly), e.group)
        for e in entries
        if parse_polynomial(e.poly).exponents == f.exponents
    }
    assert set(all_subgroups(gf_group(f))) <= seen


def test_parse_corpus_round_trip():
    text = """# comment line
fermat3/Gf ; x^3 ; Gf
with_expect ; x^3 ; trivial ; {"chi": -2}
"""
    entries = parse_corpus(text)
    assert [e.name for e in entries] == ["fermat3/Gf", "with_expect"]
    assert entries[1].expectations == {"chi": -2}
    again = parse_corpus(format_corpus(entries))
    assert [e.name for e in again] == [e.name for e in entries]
    assert again[1].expectations == entries[1].expectations


def test_parse_corpus_rejects_bad_lines():
    with pytest.raises(InputSyntaxError):
        parse_corpus("only_a_name\n")
    with pytest.raises(InputSyntaxError):
        parse_corpus("name ; x^3 ; trivial ; {not json}\n")


def test_run_entry_all_checks_pass():
    r = run_entry(CorpusEntry("t", "x^3*y + y^2", "Gf"))
    assert r.ok
    assert set(r.statuses) == set(CHECKS)
    assert r.statuses["engines"] == "PASS"
    assert r.statuses["duality"] == "PASS"
    assert r.statuses["variance"] == "PASS"


def test_run_entry_skips_mode_checks_when_inapplicable():
    r = run_entry(CorpusEntry("t", "x^4 + y^4", "trivial"))
    assert r.ok
    assert r.statuses["variance"] == "-"  # grading element not in the group


def test_run_entry_detects_expectation_mismatch():
    r = run_entry(CorpusEntry("t", "x^3", "Gf", {"chi": 5}))
    assert not r.ok
    assert r.statuses["expect"] == "FAIL"


def test_run_entry_checks_recorded_efunction():
    good = {
        "efunction": [
            {"t": "-1/6", "tbar": "-1/6", "coeff": 1},
            {"t": "1/6", "tbar": "1/6", "coeff": 1},
        ]
    }
    assert run_entry(CorpusEntry("t", "x^3", "Gf", good)).ok
    bad = {"efunction": [{"t": "0", "tbar": "0", "coeff": 1}]}
    assert not run_entry(CorpusEntry("t", "x^3", "Gf", bad)).ok


def test_psi_structure_checked_once_per_polynomial():
    entries = [CorpusEntry(f"e{i}", "x^3*y + y^2*z + z^4", spec)
               for i, spec in enumerate(("trivial", "G0", "SL", "Gf"))]
    psi_structure_ok.cache_clear()
    results = run_corpus(entries)
    assert all(r.statuses["psi"] == "PASS" for r in results)
    info = psi_structure_ok.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_golden_expectations_ride_on_six_entries():
    from orbefun.corpus import _GOLDEN

    carried = {e.name: (e.poly, e.group) for e in default_corpus() if e.expectations}
    assert sorted(carried) == [
        "chain_3_2/G0", "diag_4_4/G0", "diag_4_4/Gf",
        "fermat3/G0", "fermat3/trivial", "loop_2_2/trivial",
    ]
    assert set(carried.values()) == set(_GOLDEN)
    assert all(run_entry(e).statuses["expect"] == "PASS"
               for e in default_corpus() if e.expectations)


def test_spectrum_identity_checked_once_per_polynomial():
    entries = [CorpusEntry(f"e{i}", "x^3*y + y^2*z + z^4", spec)
               for i, spec in enumerate(("trivial", "G0", "SL", "Gf"))]
    spectrum_identity_holds.cache_clear()
    results = run_corpus(entries)
    assert all(r.statuses["mu"] == "PASS" for r in results)
    info = spectrum_identity_holds.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.fixture
def fresh_spectrum_cache():
    spectrum_identity_holds.cache_clear()
    yield
    spectrum_identity_holds.cache_clear()


def test_corrupted_degree_fails_only_the_mu_column(monkeypatch, fresh_spectrum_cache):
    real = basis_engine.degree_counts

    def corrupted(f):
        counts = real(f)
        top = max(counts)
        counts[top] -= 1  # one top-degree monomial moved up by 1
        counts[top + 1] = 1
        return counts

    monkeypatch.setattr(basis_engine, "degree_counts", corrupted)
    result = run_entry(CorpusEntry("c", "x^3*y + y^2", "Gf", {"chi": 4}))
    assert result.error is None
    assert result.statuses["mu"] == "FAIL"
    others = {k: v for k, v in result.statuses.items() if k != "mu"}
    assert set(others.values()) <= {"PASS", "-"}
    assert others["engines"] == others["duality"] == others["expect"] == "PASS"
