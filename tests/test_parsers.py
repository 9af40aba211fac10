"""The shared lexer: the parsers against the earlier ones, fuzzing, round trips."""

import json
import warnings
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parsers as ref
from orbefun import InputSyntaxError, OrbefunError, parse_group_spec, parse_polynomial
from orbefun.corpus import CorpusEntry, default_corpus, format_corpus, parse_corpus, run_entry
from orbefun.efunction import BiExpPolynomial, parse_efunction
from orbefun.symmetry import format_element, parse_element
from reference_engines import numerators
from strategies import polynomials, symmetric_pairs

# the grammar's alphabet, plus a non-decimal digit, a decimal digit of
# another script, the invalid variable x0, a no-break space and a stray '!'
_EXTRA = ["²", "٣", "x0", "\xa0", "!"]
POLYNOMIAL_PIECES = list("wxyz+*^ 0123456789") + ["x1", "x12", " + ", "^2", "*y"] + _EXTRA
EFUNCTION_PIECES = list("t+-*/^() 0123456789") + ["tb", "(t*tb)", "(tb/t)", "^(", "1/6"] + _EXTRA


def _texts(pieces):
    return st.lists(st.sampled_from(pieces), max_size=14).map("".join)


def _outcome(parse, text):
    """("value", result) or ("raise", class, message, position), and the
    warnings issued on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("value", parse(text))
        except Exception as exc:  # the old parsers may raise anything
            result = ("raise", type(exc), str(exc), getattr(exc, "position", None))
    return result, [str(w.message) for w in caught]


def _allowed_difference(text, old, new, old_tokenize):
    """The documented class of an old/new disagreement, or None."""
    if new[0] != "raise" or new[1] is not InputSyntaxError:
        return None
    if old[0] == "raise" and old[1] in (ValueError, ZeroDivisionError):
        return "old crash"
    if not new[2].startswith("unexpected character"):
        return None
    pos = new[3]
    if old[0] == "raise" and old[2].startswith("invalid variable 'x0") and old[3] < pos:
        return "x0 before an unexpected character"
    try:  # how the old scanner read the text up to the new error
        tokens = old_tokenize(text[: pos + 1])
    except (OrbefunError, ValueError):
        return None
    if not text[pos].isdecimal() and any(
        kind == "var" and p < pos < p + len(name) for kind, name, p in tokens
    ):
        return "non-decimal digit in a variable name"
    return None


def _check_against_reference(text, old_parse, new_parse, old_tokenize):
    old, old_warnings = _outcome(old_parse, text)
    new, new_warnings = _outcome(new_parse, text)
    if old == new:
        assert old_warnings == new_warnings, text
        return
    assert _allowed_difference(text, old, new, old_tokenize), (text, old, new)


@settings(max_examples=600, deadline=None)
@given(_texts(POLYNOMIAL_PIECES))
def test_parse_polynomial_matches_reference(text):
    _check_against_reference(text, ref.parse_polynomial, parse_polynomial,
                             ref._tokenize_polynomial)


@settings(max_examples=600, deadline=None)
@given(_texts(EFUNCTION_PIECES))
def test_parse_efunction_matches_reference(text):
    _check_against_reference(text, ref.parse_efunction, parse_efunction,
                             ref._tokenize_efunction)


def test_reference_agrees_on_documented_samples():
    for text in ("x^3*y + y^2", "2*x^3 + y^3", "x1^5 + x2^5 + x3^5 + x4^5 + x5^5",
                 "x^٣ + y^2", "x^2*y + y^2*x", "x0^3", "x^3 +", "x^3 ! x0"):
        _check_against_reference(text, ref.parse_polynomial, parse_polynomial,
                                 ref._tokenize_polynomial)
    for text in ("-(tb/t)^(-1/6) - (tb/t)^(1/6)", "1 * t^(-1/6) * tb^(1/6) + 2", "0",
                 "t^(1/0)", "t^²", "++1", "t^(1/2) tb^(1/2)"):
        _check_against_reference(text, ref.parse_efunction, parse_efunction,
                                 ref._tokenize_efunction)


@pytest.mark.parametrize("text", ["x^²", "x²^3 + y^2", "x^3 + y²"])
def test_non_decimal_digit_is_an_unexpected_character(text):
    with pytest.raises(InputSyntaxError, match="unexpected character '²'") as info:
        parse_polynomial(text)
    assert info.value.position == text.index("²")


def test_decimal_digits_of_any_script_are_integers():
    assert parse_polynomial("x^٣ + y^2") == parse_polynomial("x^3 + y^2")
    assert parse_efunction("t^(١/٢)") == parse_efunction("t^(1/2)")


def test_x0_is_checked_before_parsing():
    with pytest.raises(InputSyntaxError, match="invalid variable 'x05'"):
        parse_polynomial("x^3 + + x05")


@pytest.mark.parametrize("text", ["t^(1/0)", "(t*tb)^1/0", "t^(-3/0)"])
def test_zero_denominator_is_a_syntax_error(text):
    with pytest.raises(InputSyntaxError, match="zero denominator") as info:
        parse_efunction(text)
    assert info.value.position == text.index("0")


def test_integers_beyond_the_digit_limit_are_syntax_errors():
    huge = "9" * 5000
    for parse, text in ((parse_polynomial, f"x^{huge}"), (parse_efunction, f"t^({huge})"),
                        (lambda s: parse_element(s, 1), f"1/{huge}(1)")):
        with pytest.raises(InputSyntaxError, match="too long"):
            parse(text)
    with pytest.raises(InputSyntaxError, match="bad expectations JSON"):
        parse_corpus(f"a ; x^3 ; Gf ; {huge}\n")


def test_deeply_nested_expectations_are_a_syntax_error():
    with pytest.raises(InputSyntaxError, match="bad expectations JSON"):
        parse_corpus("a ; x^3 ; Gf ; " + "[" * 100000 + "\n")


# ---------------------------------------------------------------------------
# fuzzing: any text ends in a package error


_SMALL = parse_polynomial("x^3*y + y^2")
_TEXT_PARSERS = (
    parse_polynomial,
    parse_efunction,
    lambda s: parse_element(s, 2),
    lambda s: parse_group_spec(_SMALL, s),
    parse_corpus,
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_text_parsers_raise_only_package_errors(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for parse in _TEXT_PARSERS:
            try:
                parse(text)
            except OrbefunError:
                pass


@settings(max_examples=300, deadline=None)
@given(_JSON | st.lists(st.dictionaries(st.sampled_from(["t", "tbar", "coeff"]), _JSON)))
def test_from_json_obj_raises_only_input_syntax_errors(obj):
    try:
        BiExpPolynomial.from_json_obj(obj)
    except InputSyntaxError:
        pass


@pytest.mark.parametrize("obj", [
    {"t": "0", "tbar": "0", "coeff": 1},
    [{"t": "0", "tbar": "0"}],
    [{"t": "0", "tbar": "0", "coeff": 1, "extra": 0}],
    [{"t": "1/0", "tbar": "0", "coeff": 1}],
    [{"t": 0.5, "tbar": "0", "coeff": 1}],
    [{"t": "0", "tbar": "abc", "coeff": 1}],
    [{"t": "0", "tbar": "0", "coeff": 2.9}],
    [{"t": "0", "tbar": "0", "coeff": True}],
    [{"t": "0", "tbar": "0", "coeff": "1"}],
])
def test_from_json_obj_rejects_malformed_data(obj):
    with pytest.raises(InputSyntaxError):
        BiExpPolynomial.from_json_obj(obj)


# ---------------------------------------------------------------------------
# round trips


@given(polynomials(max_vars=6))
def test_polynomial_text_round_trips(f):
    assert parse_polynomial(f.to_text()) == f


_EXPONENTS = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_EFUNCTIONS = st.dictionaries(
    st.tuples(_EXPONENTS, _EXPONENTS), st.integers(-5, 5), max_size=6
).map(lambda terms: BiExpPolynomial(*numerators(terms)))


@given(_EFUNCTIONS)
def test_efunction_forms_round_trip(P):
    assert parse_efunction(P.to_text()) == P
    assert parse_efunction(P.pretty()) == P
    assert BiExpPolynomial.from_json_obj(json.loads(json.dumps(P.to_json_obj()))) == P


@given(symmetric_pairs())
def test_element_text_round_trips(pair):
    f, G = pair
    for g in G.elements:
        assert parse_element(format_element(g), f.n) == g


# no ';' (the field separator), no '#' (a comment) and no line break
_FIELD = st.text(
    st.characters(exclude_characters=";#\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
                  exclude_categories=("Cs",)),
    min_size=1,
).map(str.strip).filter(bool)
_ENTRIES = st.lists(st.builds(
    CorpusEntry, _FIELD, _FIELD, _FIELD,
    st.none() | st.dictionaries(st.text(), st.integers() | st.text(), max_size=3),
), max_size=4)


def _fields(entries):
    return [(e.name, e.poly, e.group, e.expectations) for e in entries]


@given(_ENTRIES)
def test_corpus_file_round_trips(entries):
    text = format_corpus(entries)
    again = parse_corpus(text)
    assert _fields(again) == _fields(entries)
    assert format_corpus(again) == text


def test_bundled_corpus_round_trips():
    text = format_corpus(default_corpus())
    assert format_corpus(parse_corpus(text)) == text


@pytest.mark.parametrize("text", ["1.5", "1_0", "1e3", "+1", " 1", "1/0", "1/", "-", ""])
def test_json_rationals_are_read_strictly(text):
    with pytest.raises(InputSyntaxError, match="exact rational"):
        BiExpPolynomial.from_json_obj([{"t": text, "tbar": "0", "coeff": 1}])


def test_exponent_notation_is_rejected_before_any_arithmetic():
    # Fraction("1e100000000") would build a 10^100000000 first
    t0 = perf_counter()
    with pytest.raises(InputSyntaxError):
        BiExpPolynomial.from_json_obj([{"t": "1e100000000", "tbar": "0", "coeff": 1}])
    result = run_entry(CorpusEntry("huge", "x^3", "Gf", {"variance": "1e100000000"}))
    assert perf_counter() - t0 < 1.0
    assert set(result.statuses.values()) == {"ERROR"}
