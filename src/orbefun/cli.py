"""Command-line front end.

Commands: info, efunction, dual, check-duality, hodge, variance, pairs,
corpus.  Exit codes are a stable contract: 0 success, 1 usage, 2 parse
error, 3 domain/mode error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
import warnings

from .errors import (
    CoefficientWarning,
    DomainError,
    InputSyntaxError,
    ModeError,
    VerificationError,
)

# Each command imports the modules it runs, so that `--help`, usage errors
# and the commands that need no engine start without loading one.


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 is reserved for
    # input syntax errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="orbefun", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text, *, group=True, engine=False, poly=True):
        p = sub.add_parser(name, help=help_text)
        if poly:
            p.add_argument("poly", help="polynomial text, e.g. 'x^3*y + y^2'")
        if group:
            p.add_argument(
                "--group",
                default="Gf",
                help="group spec: trivial|Gf|G0|SL or generators '1/r(a1,...,an)'",
            )
        if engine:
            p.add_argument(
                "--engine",
                choices=("basis", "series", "both"),
                default="both",
                help="which E-function engine to run (default: both, cross-checked)",
            )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="fmt"
        )
        return p

    add("info", "structure of one polynomial", group=False).set_defaults(func=cmd_info)
    add("efunction", "E-function of a pair", engine=True).set_defaults(
        func=cmd_efunction
    )
    add("dual", "transposed polynomial and dual group").set_defaults(func=cmd_dual)
    add("check-duality", "verify the mirror duality theorem", engine=True).set_defaults(
        func=cmd_check_duality
    )
    add("hodge", "bigraded dimension table").set_defaults(func=cmd_hodge)
    add("variance", "exponents, variance and the central-charge identity").set_defaults(
        func=cmd_variance
    )
    add("pairs", "sector pairing table with multiplicities").set_defaults(
        func=cmd_pairs
    )
    p = add("corpus", "run the verification battery", group=False, poly=False)
    p.add_argument("--corpus-file", default=None, help="entries file (default: bundled)")
    p.set_defaults(func=cmd_corpus)
    return parser


def _print_json(obj) -> None:
    import json

    print(json.dumps(obj))


def _load_pair(args):
    from .invertible import parse_polynomial
    from .symmetry import parse_group_spec

    f = parse_polynomial(args.poly)
    return f, parse_group_spec(f, args.group)


# bidegrees named in an engine-mismatch message
_MISMATCHES_SHOWN = 5


def _compute(f, G, engine: str):
    from .basis_engine import efunction_basis
    from .series_engine import efunction_series

    if engine == "basis":
        return efunction_basis(f, G)
    if engine == "series":
        return efunction_series(f, G)
    basis = efunction_basis(f, G)
    series = efunction_series(f, G)
    if basis != series:
        bt, st = basis.terms, series.terms
        differ = sorted(
            (k for k in bt.keys() | st.keys() if bt.get(k, 0) != st.get(k, 0)),
            key=lambda k: (k[1], k[0]),
        )
        shown = "; ".join(
            f"t^({et})*tb^({etb}): basis {bt.get((et, etb), 0)}, series {st.get((et, etb), 0)}"
            for et, etb in differ[:_MISMATCHES_SHOWN]
        )
        raise VerificationError(
            f"engine mismatch for ({f.to_text()}, {G}): {len(differ)} bidegrees differ, "
            f"first {min(len(differ), _MISMATCHES_SHOWN)}: {shown}"
        )
    return basis


def cmd_info(args) -> int:
    from .efunction import central_charge
    from .invertible import determinant, milnor_number, parse_polynomial, weights
    from .symmetry import format_element, gf_group, grading_operator

    f = parse_polynomial(args.poly)
    ws = weights(f)
    g0 = grading_operator(f)
    atoms = [
        {
            "kind": atom.kind,
            "a": list(atom.a),
            "variables": [f.variables[i] for i in atom.var_indices],
        }
        for atom in f.atoms
    ]
    if args.fmt == "json":
        _print_json(
            {
                "polynomial": f.to_text(),
                "n": f.n,
                "variables": list(f.variables),
                "exponents": [list(r) for r in f.exponents],
                "det": determinant(f),
                "atoms": atoms,
                "weights": [str(q) for q in ws.q],
                "denominator": ws.d,
                "milnor_number": milnor_number(f),
                "gf_order": gf_group(f).order,
                "g0": format_element(g0),
                "central_charge": str(central_charge(f)),
            }
        )
        return 0
    print(f"polynomial: {f.to_text()}")
    print(f"n: {f.n}")
    print(f"variables: {', '.join(f.variables)}")
    print(f"exponent matrix: {[list(r) for r in f.exponents]}")
    print(f"det E: {determinant(f)}")
    for a in atoms:
        sig = ",".join(str(x) for x in a["a"])
        print(f"atom: {a['kind']}({sig}) on ({', '.join(a['variables'])})")
    print(f"weights: {', '.join(str(q) for q in ws.q)} (common denominator {ws.d})")
    print(f"milnor number: {milnor_number(f)}")
    print(f"|Gf|: {gf_group(f).order}")
    print(f"g0: {format_element(g0)}")
    print(f"central charge: {central_charge(f)}")
    return 0


def cmd_efunction(args) -> int:
    f, G = _load_pair(args)
    P = _compute(f, G, args.engine)
    if args.fmt == "json":
        _print_json(P.to_json_obj())
    else:
        print(P.pretty())
    return 0


def cmd_dual(args) -> int:
    from .invertible import transpose
    from .symmetry import dual_group, format_element

    f, G = _load_pair(args)
    ft = transpose(f)
    Gd = dual_group(f, G)
    if args.fmt == "json":
        _print_json(
            {
                "polynomial": ft.to_text(),
                "generators": [format_element(g) for g in Gd.generators],
                "order": Gd.order,
            }
        )
        return 0
    print(f"dual polynomial: {ft.to_text()}")
    print(f"dual group: {Gd}")
    return 0


def cmd_check_duality(args) -> int:
    from .efunction import check_duality
    from .invertible import transpose
    from .symmetry import dual_group, format_element

    f, G = _load_pair(args)
    P = _compute(f, G, args.engine)
    ft = transpose(f)
    Gd = dual_group(f, G)
    Q = _compute(ft, Gd, args.engine)
    ok = check_duality(P, Q, f.n)
    if args.fmt == "json":
        _print_json(
            {
                "pass": ok,
                "n": f.n,
                "efunction": P.to_json_obj(),
                "dual_polynomial": ft.to_text(),
                "dual_group": [format_element(g) for g in Gd.generators],
                "dual_efunction": Q.to_json_obj(),
            }
        )
        return 0 if ok else 4
    print(f"E(f,G)   = {P.pretty()}")
    print(f"dual polynomial: {ft.to_text()}")
    print(f"dual group: {Gd}")
    print(f"E(f~,G~) = {Q.pretty()}")
    print(f"duality: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


def cmd_hodge(args) -> int:
    from .basis_engine import hodge_table

    f, G = _load_pair(args)
    table = hodge_table(f, G)
    if args.fmt == "json":
        _print_json(
            {
                "n": table.n,
                "entries": [
                    {"p": str(p), "q": str(q), "even": de, "odd": do}
                    for (p, q), (de, do) in table.entries.items()
                ],
            }
        )
        return 0
    print(f"n: {table.n}")
    for (p, q), (de, do) in table.entries.items():
        print(f"({p}, {q}): even {de}  odd {do}")
    return 0


def cmd_variance(args) -> int:
    from .basis_engine import efunction_basis, hodge_table
    from .efunction import central_charge, exponent_mean, exponents, variance
    from .symmetry import format_element, grading_operator

    f, G = _load_pair(args)
    g0 = grading_operator(f)
    if g0 not in G:
        raise ModeError(
            f"exponents need the grading operator {format_element(g0)} in the group"
        )
    table = hodge_table(f, G)
    exps = exponents(table)
    mean = exponent_mean(table)
    var = variance(table)
    chat = central_charge(f)
    chi = efunction_basis(f, G).chi()
    expected = chat * chi / 12
    ok = var == expected and mean == 0
    if args.fmt == "json":
        _print_json(
            {
                "exponents": [str(e) for e in exps],
                "mean": str(mean),
                "variance": str(var),
                "chi": chi,
                "central_charge": str(chat),
                "expected_variance": str(expected),
                "corollary": "PASS" if ok else "FAIL",
            }
        )
        return 0 if ok else 4
    print(f"exponents: {', '.join(str(e) for e in exps)}")
    print(f"mean (signed, centered): {mean}")
    print(f"variance: {var}")
    print(f"chi: {chi}")
    print(f"central charge: {chat}")
    print(f"central_charge * chi / 12: {expected}")
    print(f"corollary: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


def cmd_pairs(args) -> int:
    from .basis_engine import pair_table
    from .symmetry import format_element

    f, G = _load_pair(args)
    table = pair_table(f, G)
    if args.fmt == "json":
        _print_json(
            [
                {"g": format_element(g), "g_dual": format_element(h), "m": m}
                for (g, h), m in table.items()
            ]
        )
        return 0
    for (g, h), m in table.items():
        print(f"{format_element(g)} | {format_element(h)} | {m}")
    return 0


def cmd_corpus(args) -> int:
    from .corpus import CHECKS, default_corpus, parse_corpus, run_corpus

    if args.corpus_file is not None:
        try:
            with open(args.corpus_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read corpus file: {exc}", file=sys.stderr)
            return 1
        except UnicodeDecodeError as exc:
            print(f"error: corpus file is not UTF-8 text: {exc}", file=sys.stderr)
            return 2
        entries = parse_corpus(text)
    else:
        entries = default_corpus()
    if not entries:
        print("warning: corpus is empty (0 entries)", file=sys.stderr)
        if args.fmt == "json":
            _print_json({"entries": [], "pass": True})
        else:
            print("0 entries")
        return 0
    results = run_corpus(entries)
    all_ok = all(r.ok for r in results)
    if args.fmt == "json":
        rows = []
        for r in results:
            row = {"name": r.entry.name, "checks": dict(r.statuses), "ok": r.ok}
            if r.error is not None:
                row["error"] = r.error
            rows.append(row)
        _print_json({"entries": rows, "pass": all_ok})
        return 0 if all_ok else 4
    for r in results:
        if r.error is not None:
            print(f"error: {r.entry.name}: {r.error}", file=sys.stderr)
    width = max(len(r.entry.name) for r in results)
    header = "entry".ljust(width) + "  " + "  ".join(c.ljust(8) for c in CHECKS)
    print(header)
    for r in results:
        row = r.entry.name.ljust(width) + "  " + "  ".join(
            r.statuses[c].ljust(8) for c in CHECKS
        )
        print(row)
    failed = [r.entry.name for r in results if not r.ok]
    if failed:
        print(f"FAILED ({len(failed)}): {', '.join(failed)}")
    else:
        print(f"all {len(results)} entries PASS")
    return 0 if all_ok else 4


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


# whether main has registered the exit freeze in this process
_freeze_registered = False


def main(argv=None) -> int:
    # At exit, the interpreter's last collections would walk every object
    # still alive; freezing them first skips that walk.  Registered once per
    # process, however often main runs.
    global _freeze_registered
    if not _freeze_registered:
        atexit.register(gc.freeze)
        _freeze_registered = True
    # the filter and the one-line format hold while main runs, and no longer
    with warnings.catch_warnings():
        warnings.simplefilter("always", CoefficientWarning)
        warnings.showwarning = _show_warning
        parser = _build_parser()
        args = parser.parse_args(argv)
        try:
            code = args.func(args)
            sys.stdout.flush()  # a closed pipe shows here, not at exit
            return code
        except BrokenPipeError:
            # the reader wants no more output: the last flush goes to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        except InputSyntaxError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except VerificationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
