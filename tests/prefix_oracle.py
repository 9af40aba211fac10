"""Where a parse must stop: the end of a text's longest valid prefix.

A prefix is valid when some text in the grammar starts with it.  The two
functions below scan a polynomial text and a group spec one character at a
time, with no regex and nothing from the package, and return the end of the
longest valid prefix, or None when the whole text is in the grammar.  A
variable name and a denominator are judged whole, as the parsers read them:
an invalid name (x0, x100, x٣) or a zero denominator ends the valid prefix
at its first character, and a blank text is a valid prefix that ends at its
end.  Out of scope: integers past `int()`'s digit limit.
"""

# the polynomial grammar: after what the text so far ends with, the state
# each token kind leads to
_POLYNOMIAL = {
    "term": {"int": "coefficient", "var": "var"},
    "coefficient": {"*": "factor"},
    "factor": {"var": "var"},
    "var": {"^": "caret", "*": "factor", "+": "term"},
    "caret": {"int": "exponent"},
    "exponent": {"*": "factor", "+": "term"},
}
_NAMES = {"w", "x", "y", "z"} | {f"x{i}" for i in range(1, 100)}

# the generator list: the numerator is the one character '1', which may
# follow a ')' with no separator
_GENERATORS = {
    "item": {"1": "one"},
    "one": {"/": "over"},
    "over": {"int": "denominator"},
    "denominator": {"(": "open"},
    "open": {"int": "component", ")": "close"},
    "component": {",": "comma", ")": "close"},
    "comma": {"int": "component"},
    "close": {",": "item", "1": "one"},
}
_GROUP_NAMES = ("trivial", "Gf", "G0", "SL")


def _space(text, i):
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _digits(text, i):
    while i < len(text) and text[i].isdecimal():
        i += 1
    return i


def polynomial_stop(text):
    state, i = "term", 0
    while True:
        i = _space(text, i)
        if i == len(text):
            return None if state in ("var", "exponent") else i
        c, j = text[i], i + 1
        if c.isdecimal():
            kind, j = "int", _digits(text, j)
        elif c in "wxyz":
            kind = "var"
            if c == "x":
                j = _digits(text, j)
            if text[i:j] not in _NAMES:
                return i
        elif c in "+*^":
            kind = c
        else:
            return i
        state = _POLYNOMIAL[state].get(kind)
        if state is None:
            return i
        i = j


def group_spec_stop(spec):
    i = _space(spec, 0)
    if spec[i:i + 1] != "1":
        return _name_stop(spec, i)
    state = "item"
    while True:
        i = _space(spec, i)
        if i == len(spec):
            return None if state == "close" else i
        c, j = spec[i], i + 1
        if c == "1" and state in ("item", "close"):
            kind = "1"
        elif c.isdecimal():
            kind, j = "int", _digits(spec, j)
            if state == "over" and int(spec[i:j]) == 0:
                return i
        elif c in "/(),":
            kind = c
        else:
            return i
        state = _GENERATORS[state].get(kind)
        if state is None:
            return i
        i = j


def _name_stop(spec, i):
    """A spec that is no generator list is a group name with whitespace
    around it; a name's prefix is valid character by character."""
    for name in _GROUP_NAMES:
        if spec.startswith(name, i):
            end = _space(spec, i + len(name))
            return None if end == len(spec) else end
    k = 0
    for name in _GROUP_NAMES:
        common = 0
        while common < min(len(name), len(spec) - i) and spec[i + common] == name[common]:
            common += 1
        k = max(k, common)
    return i + k
