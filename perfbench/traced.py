"""Traced replay of one orbefun command, for the benchmark's per-layer numbers.

    PYTHONPATH=src python3 perfbench/traced.py check-duality "x^3 + y^3" --group trivial
    PYTHONPATH=src python3 perfbench/traced.py efunction "x^3 + y^3" --group G0
    PYTHONPATH=src python3 perfbench/traced.py corpus --corpus-file entries.txt

The command's layers are called through each module's public functions in
the order the command depends on them: parse, group build, dual group,
Milnor basis, sectors, the two engines, their comparison.  Each call leaves
its result in the package's caches, so every later call finds its inputs
there and its span holds only that layer's own work.  These are calls the
command makes anyway, so the traced work is the command's work.  The command
itself then runs through `orbefun.cli.main`; what is left for it is argument
parsing, cache lookups, the corpus battery and the output.  The corpus
battery's own calls to `psi_structure_ok` and `hodge_table`, which nothing
caches, are timed by wrapping them for the length of that run.

Prints one JSON object: spans in seconds, counts read from the return values
after timing, the command's stdout and exit code, and the seconds spent
reading the counts (which belong to no span).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from time import perf_counter

from layers import COUNTS, SPANS
from orbefun import basis_engine, cli, corpus, efunction, invertible, series_engine, symmetry


class Trace:
    def __init__(self) -> None:
        self.spans = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.count_s = 0.0
        # the (f, G) pair and, when dualized, its dual pair of every replay,
        # and every polynomial whose full symmetry group was enumerated;
        # counted after timing
        self.replays: list = []
        self.gf_polys: set = set()
        # open every span once, so that a layer the command never reaches
        # reads the cost of an empty span (well under a microsecond) rather
        # than a constant zero
        for name in SPANS:
            with self.span(name):
                pass

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.spans[name] += perf_counter() - t0

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def replay_pair(self, poly: str, spec: str, *, dual: bool, double_dual: bool):
        """The layer calls of one (f, G) pair, in dependency order."""
        with self.span("invertible.parse_s"):
            f = invertible.parse_polynomial(poly)
            ft = invertible.transpose(f) if dual else None
        with self.span("symmetry.group_s"):
            G = symmetry.parse_group_spec(f, spec)
            # dual_group scans the transpose's full group; the double dual
            # scans f's.  The Gf and SL specs enumerate f's group themselves.
            if dual:
                symmetry.gf_group(ft)
            if double_dual:
                symmetry.gf_group(f)
        pairs = [(f, G)]
        if dual:
            with self.span("symmetry.dual_s"):
                Gd = symmetry.dual_group(f, G)
            pairs.append((ft, Gd))
        with self.span("basis_engine.milnor_basis_s"):
            for p, _ in pairs:
                basis_engine.milnor_basis(p)
        with self.span("basis_engine.sectors_s"):
            for p, H in pairs:
                basis_engine.sectors(p, H)
        with self.span("basis_engine.efunction_s"):
            eb = [basis_engine.efunction_basis(p, H) for p, H in pairs]
        with self.span("series_engine.efunction_s"):
            es = [series_engine.efunction_series(p, H) for p, H in pairs]
        with self.span("efunction.compare_s"):
            if eb != es or (dual and not efunction.check_duality(eb[0], eb[1], f.n)):
                raise SystemExit(f"engines disagree or duality fails on ({poly}, {spec})")
        if double_dual:
            with self.span("symmetry.dualdual_s"):
                symmetry.dual_group(ft, Gd)
        self.replays.append(pairs)
        if dual:
            self.gf_polys.add(ft)
        if double_dual or spec.strip() in ("Gf", "SL"):
            self.gf_polys.add(f)

    def read_counts(self) -> None:
        t0 = perf_counter()
        c = self.counts
        for pairs in self.replays:
            c["symmetry.group_order"] += pairs[0][1].order
            c["symmetry.dual_order"] += sum(H.order for _, H in pairs[1:])
        c["symmetry.gf_elements"] = sum(symmetry.gf_group(p).order for p in self.gf_polys)
        for p, H in (pair for pairs in self.replays for pair in pairs):
            secs = basis_engine.sectors(p, H)
            c["basis_engine.sectors"] += len(secs)
            c["basis_engine.fixed_loci"] += len({s.fixed for s in secs})
            c["basis_engine.monomials_tested"] += sum(
                len(basis_engine.milnor_basis(invertible.restrict(p, s.fixed))) for s in secs
            )
            c["basis_engine.monomials_kept"] += sum(len(s.monomials) for s in secs)
            c["efunction.terms"] += len(basis_engine.efunction_basis(p, H).terms)
        self.count_s += perf_counter() - t0


def run_cli(trace: Trace, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), trace.span("cli.output_s"):
        rc = cli.main(argv)
    return rc, out.getvalue()


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="traced replay of one orbefun command")
    ap.add_argument("command", choices=("efunction", "check-duality", "corpus"))
    ap.add_argument("poly", nargs="?")
    ap.add_argument("--group", default="Gf")
    ap.add_argument("--corpus-file")
    args = ap.parse_args(argv)
    trace = Trace()
    if args.command == "corpus":
        with open(args.corpus_file, encoding="utf-8") as fh:
            entries = corpus.parse_corpus(fh.read())
        for e in entries:
            trace.replay_pair(e.poly, e.group, dual=True, double_dual=True)
        trace.counts["corpus.entries"] = len(entries)
        saved = corpus.run_entry, corpus.psi_structure_ok, corpus.hodge_table
        corpus.run_entry = trace.timed("corpus.battery_s", saved[0])
        corpus.psi_structure_ok = trace.timed("basis_engine.psi_structure_s", saved[1])
        corpus.hodge_table = trace.timed("basis_engine.hodge_s", saved[2])
        try:
            rc, stdout = run_cli(trace, argv)
        finally:
            corpus.run_entry, corpus.psi_structure_ok, corpus.hodge_table = saved
        # nested spans: keep each one's self time
        s = trace.spans
        s["cli.output_s"] -= s["corpus.battery_s"]
        s["corpus.battery_s"] -= s["basis_engine.psi_structure_s"] + s["basis_engine.hodge_s"]
    else:
        trace.replay_pair(args.poly, args.group, dual=args.command == "check-duality", double_dual=False)
        rc, stdout = run_cli(trace, argv)
    trace.read_counts()
    print(json.dumps({"spans": trace.spans, "counts": trace.counts, "count_s": trace.count_s, "exit": rc, "stdout": stdout}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
