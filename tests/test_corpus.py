"""Corpus plumbing: file format, battery checks, recorded expectations."""

import json
import re
import sys
from collections import Counter

import pytest

from orbefun import InputSyntaxError, parse_polynomial
from orbefun import basis_engine, corpus
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
    assert entries[1].expectations == '{"chi": -2}'
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


def test_corpus_records_are_read_only():
    r = run_entry(CorpusEntry("c", "x^3", "Gf", {"chi": 2}))
    assert r.ok
    with pytest.raises(TypeError):
        r.statuses["psi"] = "FAIL"
    with pytest.raises(TypeError):
        r.entry.expectations["chi"] = 5
    assert r.ok and r.statuses["expect"] == "PASS"
    assert run_entry(r.entry).statuses["expect"] == "PASS"
    # the statuses a result was built from stay the caller's own
    statuses = dict.fromkeys(CHECKS, "PASS")
    built = corpus.EntryResult(r.entry, statuses)
    statuses["psi"] = "FAIL"
    assert built.ok and built.statuses["psi"] == "PASS"


def test_changing_the_callers_expectations_does_not_reach_the_battery():
    good = {
        "efunction": [
            {"t": "-1/6", "tbar": "-1/6", "coeff": 1},
            {"t": "1/6", "tbar": "1/6", "coeff": 1},
        ],
        "chi": 2,
    }
    entry = CorpusEntry("t", "x^3", "Gf", good)
    line = entry.to_line()
    good["chi"] = 5
    good["efunction"][0]["coeff"] = 7
    good["efunction"].append({"t": "0", "tbar": "0", "coeff": 1})
    assert run_entry(entry).statuses["expect"] == "PASS"
    assert entry.to_line() == line


def test_expectations_too_deep_to_read_back_fail_only_their_entry():
    # the deepest nesting an entry can be built with here, read back from
    # further down the stack, where the JSON reader runs out of frames
    for depth in range(sys.getrecursionlimit(), 0, -1):
        try:
            entry = CorpusEntry("deep", "x^3", "Gf", json.loads("[" * depth + "]" * depth))
            break
        except RecursionError:
            continue

    def deeper(k):
        return deeper(k - 1) if k else run_corpus([entry, CorpusEntry("ok", "x^3", "Gf")])

    deep, ok = deeper(50)
    assert set(deep.statuses.values()) == {"ERROR"} and "recursion" in deep.error
    assert ok.ok


CHAIN = "x^3*y + y^2*z + z^4"
LOOP = "x^2*y + y^2*x"
CHAIN_F, LOOP_F = parse_polynomial(CHAIN), parse_polynomial(LOOP)
STANDARD = ("trivial", "G0", "SL", "Gf")


def _entries(poly, specs=STANDARD):
    return [CorpusEntry(f"{poly}/{spec}", poly, spec) for spec in specs]


def _count_calls(monkeypatch, name):
    """Count, by polynomial, the battery's calls of the corpus module's
    `name`, the check behind one column."""
    calls = Counter()
    real = getattr(corpus, name)

    def counting(f):
        calls[f] += 1
        return real(f)

    monkeypatch.setattr(corpus, name, counting)
    return calls


def test_psi_structure_checked_once_per_polynomial(monkeypatch):
    calls = _count_calls(monkeypatch, "psi_structure_ok")
    results = run_corpus(_entries(CHAIN))
    assert all(r.statuses["psi"] == "PASS" for r in results)
    assert calls == {CHAIN_F: 1}


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


def test_spectrum_identity_checked_once_per_polynomial(monkeypatch):
    calls = _count_calls(monkeypatch, "spectrum_identity_holds")
    results = run_corpus(_entries(CHAIN))
    assert all(r.statuses["mu"] == "PASS" for r in results)
    assert calls == {CHAIN_F: 1}


def test_interleaved_polynomials_are_checked_once_each(monkeypatch):
    # the two polynomials share every group spec, so verdicts kept by
    # anything but the polynomial would skip one of them
    mu = _count_calls(monkeypatch, "spectrum_identity_holds")
    psi = _count_calls(monkeypatch, "psi_structure_ok")
    entries = [e for pair in zip(_entries(CHAIN), _entries(LOOP)) for e in pair]
    results = run_corpus(entries)
    assert [r.entry for r in results] == entries
    assert all(r.statuses["mu"] == r.statuses["psi"] == "PASS" for r in results)
    assert mu == psi == {CHAIN_F: 1, LOOP_F: 1}


def test_each_corpus_run_starts_afresh(monkeypatch):
    mu = _count_calls(monkeypatch, "spectrum_identity_holds")
    psi = _count_calls(monkeypatch, "psi_structure_ok")
    first = run_corpus(_entries(CHAIN))
    assert mu == psi == {CHAIN_F: 1}
    second = run_corpus(_entries(CHAIN))
    assert mu == psi == {CHAIN_F: 2}
    assert [r.statuses for r in first] == [r.statuses for r in second]
    # a lone entry keeps no verdicts either
    run_entry(_entries(CHAIN)[0])
    run_entry(_entries(CHAIN)[0])
    assert mu == psi == {CHAIN_F: 4}


def test_unparsable_polynomial_fails_only_its_own_entries(monkeypatch):
    bad = "x^3 + "
    message = "expected a variable (at position 6)"
    with pytest.raises(InputSyntaxError, match=re.escape(message)):
        parse_polynomial(bad)
    psi = _count_calls(monkeypatch, "psi_structure_ok")
    good = _entries(CHAIN, ("trivial", "G0"))
    entries = [good[0], *_entries(bad, ("trivial", "G0")), good[1]]
    results = run_corpus(entries)
    assert [r.error for r in results] == [None, message, message, None]
    assert [set(r.statuses.values()) == {"ERROR"} for r in results] == [False, True, True, False]
    assert results[0].ok and results[3].ok
    assert psi == {CHAIN_F: 1}


def test_corrupted_degree_fails_only_the_mu_column(monkeypatch):
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
