"""Exit-code contract and output formats of the command line tool."""

import json
import subprocess
import sys
import warnings
from time import perf_counter

import pytest

from orbefun.cli import main
from orbefun.efunction import parse_efunction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", "x^3*y + y^2")
    assert code == 0
    assert "chain(3,2) on (x, y)" in out
    assert "weights: 1/6, 1/2" in out
    assert "milnor number: 5" in out
    assert "|Gf|: 6" in out
    assert "central charge: 2/3" in out


def test_info_loop(capsys):
    code, out, _ = run(capsys, "info", "x^2*y + y^2*x")
    assert code == 0
    assert "loop(2,2)" in out
    assert "|Gf|: 3" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "x^3", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["milnor_number"] == 2
    assert data["gf_order"] == 3
    assert data["weights"] == ["1/3"]


def test_info_and_dual_read_large_group_orders_from_lattices(capsys):
    # |Gf| = det E = 50^4: the order and the dual are read from the lattice,
    # with no element listed
    poly = "x1^50 + x2^50 + x3^50 + x4^50"
    t0 = perf_counter()
    code, out, _ = run(capsys, "info", poly)
    assert code == 0
    assert "|Gf|: 6250000" in out
    assert perf_counter() - t0 < 5
    t0 = perf_counter()
    code, out, _ = run(capsys, "dual", poly, "--group", "Gf")
    assert code == 0
    assert "dual group: <1> of order 1" in out
    assert perf_counter() - t0 < 5


def test_efunction_golden_text(capsys):
    code, out, _ = run(capsys, "efunction", "x^3", "--group", "Gf")
    assert code == 0
    assert out.strip() == "(t*tb)^(-1/6) + (t*tb)^(1/6)"
    code, out, _ = run(capsys, "efunction", "x^3", "--group", "trivial")
    assert out.strip() == "-(tb/t)^(-1/6) - (tb/t)^(1/6)"
    code, out, _ = run(capsys, "efunction", "x^4 + y^4", "--group", "1/4(1,1)")
    assert out.strip() == "(t*tb)^(-1/2) + 4 + (t*tb)^(1/2)"


def test_efunction_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "efunction", "x^3*y + y^2", "--format", "json", "--engine", "basis"
    )
    assert code == 0
    from orbefun.efunction import BiExpPolynomial

    P = BiExpPolynomial.from_json_obj(json.loads(out))
    assert P == parse_efunction("(t*tb)^(-1/3) + 2 + (t*tb)^(1/3)")


def test_efunction_single_engines_agree(capsys):
    _, basis, _ = run(capsys, "efunction", "x^2*y + y^2*z + z^3", "--engine", "basis")
    _, series, _ = run(capsys, "efunction", "x^2*y + y^2*z + z^3", "--engine", "series")
    assert basis == series


def test_dual_output(capsys):
    code, out, _ = run(capsys, "dual", "x^4 + y^4", "--group", "1/4(1,1)")
    assert code == 0
    assert "x^4 + y^4" in out
    assert "1/4(1,3)" in out


def test_check_duality_pass(capsys):
    code, out, _ = run(capsys, "check-duality", "x^3*y + y^2", "--group", "Gf")
    assert code == 0
    assert "duality: PASS" in out
    assert "x^3 + x*y^2" in out


def test_hodge_rows(capsys):
    code, out, _ = run(capsys, "hodge", "x^4 + y^4", "--group", "1/4(1,1)")
    assert code == 0
    assert "(1/2, 1/2): even 1  odd 0" in out
    assert "(1, 1): even 4  odd 0" in out
    assert "(3/2, 3/2): even 1  odd 0" in out


def test_variance_report(capsys):
    code, out, _ = run(capsys, "variance", "x^4 + y^4", "--group", "1/4(1,1)")
    assert code == 0
    assert "variance: 1/2" in out
    assert "corollary: PASS" in out


def test_variance_requires_grading_element(capsys):
    code, _, err = run(capsys, "variance", "x^4 + y^4", "--group", "trivial")
    assert code == 3
    assert "grading operator" in err


def test_pairs_rows(capsys):
    code, out, _ = run(capsys, "pairs", "x^2*y + y^2*x", "--group", "trivial")
    assert code == 0
    assert "1/1(0,0) | 1/1(0,0) | 2" in out
    assert "1/1(0,0) | 1/3(1,1) | 1" in out


def test_exit_code_2_on_syntax(capsys):
    code, _, err = run(capsys, "info", "x^3 +")
    assert code == 2
    assert "position" in err


def test_exit_code_2_on_empty_group_spec_item(capsys):
    for spec in ("1/3(1) ,, 1/3(2)", ", 1/3(1)", "1/3(1),"):
        code, out, err = run(capsys, "efunction", "x^3", "--group", spec)
        assert (code, out) == (2, "")
        assert "invalid group spec" in err


def test_exit_code_3_on_domain(capsys):
    code, _, err = run(capsys, "info", "x^2 + x^3")
    assert code == 3
    code, _, err = run(capsys, "efunction", "x^4 + y^4", "--group", "1/3(1,0)")
    assert code == 3


def test_engine_mismatch_names_the_differing_bidegrees(capsys, monkeypatch):
    import orbefun.series_engine as series_engine
    from orbefun.efunction import BiExpPolynomial

    real = series_engine.efunction_series

    def one_term_moved(f, G):
        # the term t^(1/3)*tb^(1/3) moved to t^(1/3)*tb^(4/3)
        E = real(f, G)
        assert E.den == 3
        nums = dict(E.nums)
        nums[1, 1] -= 1
        nums[1, 4] = nums.get((1, 4), 0) + 1
        return BiExpPolynomial(3, nums)

    monkeypatch.setattr(series_engine, "efunction_series", one_term_moved)
    code, out, err = run(capsys, "efunction", "x^3*y + y^2", "--group", "Gf")
    assert (code, out) == (4, "")
    assert "2 bidegrees differ, first 2: " in err
    assert "t^(1/3)*tb^(1/3): basis 1, series 0; t^(1/3)*tb^(4/3): basis 0, series 1" in err
    code, out, err = run(capsys, "check-duality", "x^3*y + y^2", "--group", "Gf")
    assert (code, out) == (4, "")
    assert "t^(1/3)*tb^(1/3): basis 1, series 0" in err


def test_exit_code_1_on_usage():
    with pytest.raises(SystemExit) as e:
        main(["efunction"])  # missing polynomial
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 1


def test_corpus_file_pass(tmp_path, capsys):
    p = tmp_path / "small.corpus"
    p.write_text("a ; x^3 ; Gf\nb ; x^2*y + y^2*x ; trivial\n")
    code, out, _ = run(capsys, "corpus", "--corpus-file", str(p))
    assert code == 0
    assert "all 2 entries PASS" in out


def test_corpus_file_empty(tmp_path, capsys):
    p = tmp_path / "empty.corpus"
    p.write_text("# nothing here\n")
    code, out, err = run(capsys, "corpus", "--corpus-file", str(p))
    assert code == 0
    assert "0 entries" in out + err


def test_corpus_file_missing(tmp_path, capsys):
    code, out, err = run(capsys, "corpus", "--corpus-file", str(tmp_path / "absent.corpus"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_corpus_file_not_utf8(tmp_path, capsys):
    p = tmp_path / "latin1.corpus"
    p.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "corpus", "--corpus-file", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("error: corpus file is not UTF-8 text: ")
    assert err.count("\n") == 1


def test_coefficient_warnings_are_one_line_each_and_main_leaves_no_filter(capsys):
    filters, show = list(warnings.filters), warnings.showwarning
    code, out, err = run(capsys, "info", "2*x^3")
    assert code == 0
    assert "polynomial: x^3" in out
    assert err == "warning: coefficient 2 on the monomial at position 0 is ignored\n"
    code, _, err = run(capsys, "dual", "2*x^3 + 3*y^2", "--group", "trivial")
    assert code == 0
    assert err == (
        "warning: coefficient 2 on the monomial at position 0 is ignored\n"
        "warning: coefficient 3 on the monomial at position 8 is ignored\n"
    )
    code, _, err = run(capsys, "info", "0*x^3")
    assert (code, err) == (3, "error: zero coefficient at position 0\n")
    code, _, err = run(capsys, "info", "x^3 + 2")
    assert (code, err) == (2, "error: expected '*' after coefficient (at position 7)\n")
    assert (warnings.filters, warnings.showwarning) == (filters, show)


def test_corpus_expectation_mismatch_names_entry(tmp_path, capsys):
    p = tmp_path / "bad.corpus"
    p.write_text('victim ; x^3 ; Gf ; {"chi": 7}\n')
    code, out, _ = run(capsys, "corpus", "--corpus-file", str(p))
    assert code == 4
    assert "victim" in out
    assert "FAIL" in out


def test_corpus_json_format(tmp_path, capsys):
    p = tmp_path / "one.corpus"
    p.write_text("a ; x^3 ; Gf\n")
    code, out, _ = run(capsys, "corpus", "--corpus-file", str(p), "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    assert data["entries"][0]["checks"]["engines"] == "PASS"


def test_corpus_invalid_entry_fails_only_that_entry(tmp_path, capsys):
    p = tmp_path / "mixed.corpus"
    p.write_text("bad ; x^3 + y^3 ; 1/5(1,0)\ngood ; x^3 ; Gf\n")
    code, out, err = run(capsys, "corpus", "--corpus-file", str(p))
    assert code == 4
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:3]}
    assert rows["bad"] == ["ERROR"] * 9
    assert "ERROR" not in rows["good"] and "FAIL" not in rows["good"]
    assert "FAILED (1): bad" in out
    assert err.startswith("error: bad: ") and "not a symmetry" in err
    assert "Traceback" not in err


def test_corpus_invalid_entry_json(tmp_path, capsys):
    p = tmp_path / "mixed.corpus"
    p.write_text("bad ; x^^3 ; trivial\ngood ; x^3 ; Gf\n")
    code, out, err = run(capsys, "corpus", "--corpus-file", str(p), "--format", "json")
    data = json.loads(out)
    assert code == 4
    assert data["pass"] is False
    bad, good = data["entries"]
    assert bad["ok"] is False
    assert set(bad["checks"].values()) == {"ERROR"}
    assert "exponent" in bad["error"]
    assert good["ok"] is True and "error" not in good
    assert err == ""


def test_corpus_computes_one_hodge_table_per_entry(tmp_path, capsys, monkeypatch):
    from orbefun import corpus

    calls = []
    real = corpus.hodge_table
    monkeypatch.setattr(corpus, "hodge_table", lambda f, G: calls.append(G) or real(f, G))
    p = tmp_path / "one.corpus"
    # parity, variance and the recorded variance all read the table
    p.write_text('a ; x^3 ; Gf ; {"variance": "1/18"}\n')
    code, out, _ = run(capsys, "corpus", "--corpus-file", str(p))
    assert code == 0
    assert "all 1 entries PASS" in out
    assert len(calls) == 1


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "orbefun", "efunction", "x^3", "--group", "Gf"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(t*tb)^(-1/6) + (t*tb)^(1/6)"


def test_corpus_unchanged_under_optimize(capsys):
    # theorem checks are explicit errors, not asserts that -O strips
    code, out, _ = run(capsys, "corpus")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "orbefun", "corpus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code == 0
    assert proc.stdout == out


@pytest.mark.parametrize("poly", ["x^²", "x²^3 + y^2"])
def test_non_decimal_digit_exits_2(capsys, poly):
    code, out, err = run(capsys, "info", poly)
    assert code == 2
    assert out == ""
    assert err.startswith("error: unexpected character '²'")


MALFORMED_EXPECTATIONS = (
    '{"variance": "abc"}',
    '{"efunction": [{"t": "1/0", "tbar": "0", "coeff": 1}]}',
    '{"chi": "two"}',
    '{"variane": "99"}',
    '{"chi": 2.9}',
    '{"chi": true}',
    '{"variance": 0.5}',
    "[1,2]",
)


@pytest.mark.parametrize("expectations", MALFORMED_EXPECTATIONS)
def test_corpus_malformed_expectations_text(tmp_path, capsys, expectations):
    p = tmp_path / "bad.corpus"
    p.write_text(f"bad ; x^3 ; Gf ; {expectations}\ngood ; x^3 ; Gf ; {{\"chi\": 2}}\n")
    code, out, err = run(capsys, "corpus", "--corpus-file", str(p))
    assert code == 4
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:3]}
    assert rows["bad"] == ["ERROR"] * 9
    assert rows["good"][-1] == "PASS" and "ERROR" not in rows["good"]
    assert "FAILED (1): bad" in out
    assert err.startswith("error: bad: ") and "Traceback" not in err


@pytest.mark.parametrize("expectations", MALFORMED_EXPECTATIONS)
def test_corpus_malformed_expectations_json(tmp_path, capsys, expectations):
    p = tmp_path / "bad.corpus"
    p.write_text(f"bad ; x^3 ; Gf ; {expectations}\ngood ; x^3 ; Gf\n")
    code, out, err = run(capsys, "corpus", "--corpus-file", str(p), "--format", "json")
    data = json.loads(out)
    assert code == 4
    bad, good = data["entries"]
    assert set(bad["checks"].values()) == {"ERROR"}
    assert "(at position 0)" in bad["error"]
    assert good["ok"] is True
    assert err == ""


def test_corpus_expectations_read_exactly(tmp_path, capsys):
    p = tmp_path / "ok.corpus"
    p.write_text('a ; x^3 ; Gf ; {"chi": 2, "variance": "1/18"}\n'
                 'b ; x^3 ; Gf ; {"variance": 1}\n'
                 "c ; x^3 ; Gf ; {}\n")
    code, out, _ = run(capsys, "corpus", "--corpus-file", str(p))
    assert code == 4
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:4]}
    assert rows["a"][-1] == "PASS"
    assert rows["b"][-1] == "FAIL"
    assert rows["c"][-1] == "-"


def test_corpus_line_with_non_decimal_digit_is_one_error_row(tmp_path, capsys):
    p = tmp_path / "digit.corpus"
    p.write_text("bad ; x^² ; trivial\ngood ; x^3 ; Gf\n")
    code, out, err = run(capsys, "corpus", "--corpus-file", str(p))
    assert code == 4
    assert "FAILED (1): bad" in out
    assert err.startswith("error: bad: unexpected character '²'")


@pytest.mark.parametrize("spec", ["1/3(1_0,+2)", "1/3(-1,2)", "1/3(+1,2)"])
def test_element_components_are_decimal_digits(capsys, spec):
    # int() alone reads 1_0 as 10, +2 as 2 and -1 as -1 = 2 mod 3
    code, out, err = run(capsys, "efunction", "x^3 + y^3", "--group", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid component")


@pytest.mark.parametrize("variance", ["1.5", "1_0", "1e3", " 1/18", "+1/18"])
def test_corpus_expectation_rationals_are_strict(tmp_path, capsys, variance):
    p = tmp_path / "strict.corpus"
    p.write_text(f'bad ; x^3 ; Gf ; {{"variance": "{variance}"}}\ngood ; x^3 ; Gf\n')
    code, out, err = run(capsys, "corpus", "--corpus-file", str(p))
    assert code == 4
    assert "FAILED (1): bad" in out
    assert err.startswith("error: bad: expectation variance must be an exact rational")
