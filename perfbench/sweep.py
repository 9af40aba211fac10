#!/usr/bin/env python3
"""Seeded corpus generator for the `sweep` workload, independent of orbefun.

Each seed draws 60 distinct invertible polynomials in 2-4 variables, built
from chain and loop atoms with exponents 2-6 and det E <= 256, and pairs each
with the groups trivial, G0, SL and Gf (240 corpus entries).  The polynomial
text is written here, and det E, the weights and the expected verdict matrix
are computed here from the atom formulas, so no change to the package can
change the load or the reference the benchmark compares against.

    chain  x1^a1*x2 + ... + x(m-1)^a(m-1)*xm + xm^am   det = prod a_i
    loop   x1^a1*x2 + ... + xm^am*x1                    det = prod a_i - (-1)^m

The draw is stratified: a fixed slot table gives each polynomial's atom
shape and a band for its det E, and the seed draws the exponents inside
it.  So each seed asks for about the same amount of work, and the seed
moves which polynomials do it.

Usage:
    python3 perfbench/sweep.py --seed 7 > corpus.txt
    python3 perfbench/sweep.py --self-check
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

N_POLYS = 60
GROUPS = ("trivial", "G0", "SL", "Gf")
EXPONENTS = range(2, 7)
MAX_DET = 256
# The atom shape and the det E of each of the 60 slots come from one fixed
# draw (DESIGN_SEED); the benchmark's seed then draws each slot's exponents
# with det E within BAND of the slot's.  The run time of a sweep depends
# mostly on the shape and det E of its polynomials: drawn freely, with only
# sum(det E) held within 5%, five seeds' sweeps took from 1.8 to 2.3 s, a
# spread that would drown the differences the benchmark is meant to show.
DESIGN_SEED = 0
BAND = 0.08
BAND_TRIES = 200

# The check columns and the matrix layout of `orbefun corpus`, recorded at
# the commit that defined this benchmark (see reference/sweep-seed1.txt).
CHECKS = ("engines", "duality", "dualdual", "orders", "mu", "psi", "parity", "variance", "expect")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SELF_CHECK_SEED = 1
# sha256 of the corpus file for SELF_CHECK_SEED.
SELF_CHECK_SHA256 = "b8b3bbe01c198e91eebe376fbe183ed271bdc5e6899ef2a29847d53363d4d19b"


def atom_det(kind: str, a: tuple[int, ...]) -> int:
    if kind == "chain":
        return prod(a)
    return prod(a) - (-1) ** len(a)


def exponent_matrix(atoms: list[tuple[str, tuple[int, ...]]]) -> list[list[int]]:
    n = sum(len(a) for _, a in atoms)
    rows = []
    first = 0
    for kind, a in atoms:
        m = len(a)
        for i, ai in enumerate(a):
            row = [0] * n
            row[first + i] = ai
            if i + 1 < m:
                row[first + i + 1] = 1
            elif kind == "loop":
                row[first] = 1
            rows.append(row)
        first += m
    return rows


def polynomial_text(rows: list[list[int]]) -> str:
    """Row i holds the exponent >= 2 of x<i+1> and at most one exponent 1."""
    return " + ".join(
        f"x{i + 1}^{row[i]}" + "".join(f"*x{j + 1}" for j, e in enumerate(row) if e == 1)
        for i, row in enumerate(rows)
    )


def weights(rows: list[list[int]]) -> list[Fraction]:
    """Solve E q = (1, ..., 1) exactly by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(1)] for row in rows]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        piv = aug[col][col]
        aug[col] = [v / piv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _det(atoms: list[tuple[str, tuple[int, ...]]]) -> int:
    return prod(atom_det(kind, a) for kind, a in atoms)


def _draw_atoms(rng: random.Random) -> list[tuple[str, tuple[int, ...]]]:
    n = rng.randrange(2, 5)
    atoms = []
    left = n
    while left:
        m = rng.randrange(1, left + 1)
        kind = "chain" if m == 1 else rng.choice(("chain", "loop"))
        atoms.append((kind, tuple(rng.choice(EXPONENTS) for _ in range(m))))
        left -= m
    return atoms


def slots() -> list[tuple[tuple[tuple[str, int], ...], int]]:
    """(atom shape, target det E) of the 60 slots, drawn once from DESIGN_SEED."""
    rng = random.Random(DESIGN_SEED)
    out = []
    while len(out) < N_POLYS:
        atoms = _draw_atoms(rng)
        det = _det(atoms)
        if det <= MAX_DET:
            out.append((tuple((kind, len(a)) for kind, a in atoms), det))
    return out


def draw_polynomials(seed: int) -> list[tuple[str, list[tuple[str, tuple[int, ...]]], int]]:
    """(text, atoms, det E) for the seed's 60 polynomials, one per slot.

    The seed draws the exponents of each slot's shape until det E lies in
    the slot's band and the polynomial is new.  The band widens after every
    BAND_TRIES misses, so a slot whose band holds no unused polynomial still
    gets one; the result remains a function of the seed alone.
    """
    rng = random.Random(seed)
    polys = []
    seen = set()
    for shape, target in slots():
        band = BAND
        for tries in range(1, 100 * BAND_TRIES):
            atoms = [(kind, tuple(rng.choice(EXPONENTS) for _ in range(m))) for kind, m in shape]
            det = _det(atoms)
            text = polynomial_text(exponent_matrix(atoms))
            if det <= MAX_DET and abs(det - target) <= band * target and text not in seen:
                break
            if tries % BAND_TRIES == 0:
                band *= 2
        else:
            raise RuntimeError(f"no unused polynomial of shape {shape}")
        seen.add(text)
        polys.append((text, atoms, det))
    return polys


def entry_name(i: int, group: str) -> str:
    return f"p{i + 1:02d}/{group}"


def corpus_text(seed: int) -> str:
    lines = [f"# orbefun sweep corpus, seed {seed}"]
    for i, (text, _, _) in enumerate(draw_polynomials(seed)):
        for group in GROUPS:
            lines.append(f"{entry_name(i, group)} ; {text} ; {group}")
    return "\n".join(lines) + "\n"


def expected_statuses(atoms: list[tuple[str, tuple[int, ...]]], group: str) -> dict[str, str]:
    """The verdict row the battery must print for one entry.

    Every check passes by theorem.  The parity check applies when the group
    lies in SL or holds the grading operator g0 = (q_1, ..., q_n), which is
    the case for all four groups here (trivial has no generators).  The
    variance check applies when g0 is in the group: never for trivial,
    always for G0 and Gf, and for SL exactly when sum(q_i) is an integer.
    No entry carries expectations.
    """
    st = {c: "PASS" for c in CHECKS}
    st["expect"] = "-"
    if group == "trivial":
        st["variance"] = "-"
    elif group == "SL":
        if sum(weights(exponent_matrix(atoms))).denominator != 1:
            st["variance"] = "-"
    return st


def expected_stdout(seed: int) -> str:
    """The byte-exact text `orbefun corpus --corpus-file` prints for the seed."""
    rows = []
    for i, (_, atoms, _) in enumerate(draw_polynomials(seed)):
        for group in GROUPS:
            rows.append((entry_name(i, group), expected_statuses(atoms, group)))
    width = max(len(name) for name, _ in rows)
    out = ["entry".ljust(width) + "  " + "  ".join(c.ljust(8) for c in CHECKS)]
    for name, st in rows:
        out.append(name.ljust(width) + "  " + "  ".join(st[c].ljust(8) for c in CHECKS))
    out.append(f"all {len(rows)} entries PASS")
    return "\n".join(out) + "\n"


def describe(seed: int) -> dict:
    polys = draw_polynomials(seed)
    return {
        "seed": seed,
        "polynomials": len(polys),
        "entries": len(polys) * len(GROUPS),
        "sum_det": sum(det for _, _, det in polys),
    }


def self_check() -> list[str]:
    """Problems with the generator; empty when it is deterministic and
    still agrees with what the program printed when the benchmark was made."""
    problems = []
    text = corpus_text(SELF_CHECK_SEED)
    if text != corpus_text(SELF_CHECK_SEED):
        problems.append("two draws from one seed differ")
    sha = hashlib.sha256(text.encode()).hexdigest()
    if sha != SELF_CHECK_SHA256:
        problems.append(f"corpus for seed {SELF_CHECK_SEED} has sha256 {sha}, recorded {SELF_CHECK_SHA256}")
    recorded = (REFERENCE_DIR / f"sweep-seed{SELF_CHECK_SEED}.txt").read_text(encoding="utf-8")
    if expected_stdout(SELF_CHECK_SEED) != recorded:
        problems.append(f"expected matrix for seed {SELF_CHECK_SEED} differs from the recorded program output")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=SELF_CHECK_SEED)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        problems = self_check()
        for p in problems:
            print(f"sweep self-check: {p}", file=sys.stderr)
        return 1 if problems else 0
    sys.stdout.write(corpus_text(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
