#!/usr/bin/env python3
"""orbefun benchmark: time to a verdict, through the CLI, one fresh process per run.

    python3 perfbench/run.py --workload fermat7-duality --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  One client runs one command at a time (a
closed loop), each command in a fresh interpreter, so every run starts with
empty caches, as a user's does.

Workloads (see BENCHMARK.json for why each is there):

    fermat7-duality     orbefun check-duality "x1^7 + ... + x5^7" --group trivial
    fermat11-efunction  orbefun efunction "x1^11 + ... + x5^11" --group G0
    sweep               orbefun corpus --corpus-file <240 entries drawn from --seed>

With --trace 0 the command runs again and again for --seconds, and the
result holds the medians of

    wall_s       spawn to exit of the command
    cpu_s        user + system CPU time of the command
    peak_rss_mb  peak resident set of the command
    setup_s      spawn to exit of `orbefun --help`: importing orbefun.cli
                 and building its parser, with no input (several probes)

With --trace 1 the command is replayed twice under perfbench/traced.py,
which times each layer's public calls, then runs untraced for the rest of
--seconds; the result holds the layer spans and counts, the unattributed
time and the tracing overhead.  Counts must repeat exactly, between the two
replays and against the counts an earlier run of the same source recorded.

Every run's stdout must equal the reference recorded with the benchmark
(perfbench/reference/) or, for the sweep, the verdict matrix perfbench/sweep.py
derives independently; E(f, G) of fermat7-duality is also checked against
the closed product in perfbench/closed_form.py.  A run that exits non-zero,
times out or prints anything else is failed.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  Run metadata (source sha, Python, nproc, load, sample counts,
the sweep's draw) goes to stderr and to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
from statistics import median
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import closed_form  # noqa: E402
import sweep  # noqa: E402
from layers import COUNTS, SPANS  # noqa: E402

FERMAT7 = "x1^7 + x2^7 + x3^7 + x4^7 + x5^7"
FERMAT11 = "x1^11 + x2^11 + x3^11 + x4^11 + x5^11"
WORKLOADS = {
    "fermat7-duality": ["check-duality", FERMAT7, "--group", "trivial"],
    "fermat11-efunction": ["efunction", FERMAT11, "--group", "G0"],
    "sweep": ["corpus", "--corpus-file", None],  # the seed's corpus file
}

# setup_s probes: a first batch, which also compiles the package's bytecode
# before anything is timed, then a few after each command, so that one burst
# of load on a shared machine does not move them all
SETUP_PROBES_FIRST = 10
SETUP_PROBES_PER_RUN = 2
MIN_SAMPLES = 3
COMMAND_TIMEOUT_S = 120.0
# A run stops starting commands this long after it began, whatever
# --seconds says, so that it ends well within three minutes.
RUN_LIMIT_S = 140.0


@dataclass
class Run:
    """One finished child process."""

    returncode: int  # negative: killed by that signal, as on timeout
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def spawn(argv: list[str], env: dict[str, str], cwd: Path, stdout_path: Path) -> Run:
    """Run argv to completion: wall time from spawn to exit, and the child's
    own rusage from wait4."""
    with open(stdout_path, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.PIPE)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # drain stderr before waiting, so a chatty child cannot block
            stderr = proc.stderr.read().decode(errors="replace")
            proc.stderr.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        returncode=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
        stderr=stderr,
    )


def source_fingerprint(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fermat7_problems(stdout: str) -> list[str]:
    """Check both E-function lines against the closed product and duality."""
    lines = stdout.splitlines()
    want = closed_form.fermat_trivial_efunction(5, 7)
    try:
        got = closed_form.parse_pretty(lines[0].split("=", 1)[1])
        got_dual = closed_form.parse_pretty(lines[3].split("=", 1)[1])
    except (IndexError, ValueError) as exc:
        return [f"cannot read the E-functions: {exc}"]
    problems = []
    if got != want:
        problems.append("E(f, trivial) differs from the closed product")
    # E(f~, G~)(t, tb) = (-1)^n E(f, G)(t^-1, tb) with n = 5
    if got_dual != {(-et, etb): -c for (et, etb), c in want.items()}:
        problems.append("E(f~, G~) differs from the dual of the closed product")
    return problems


def prepare_sweep(work: Path, seed: int) -> Path:
    """Write the seed's corpus file, checking the generator is deterministic."""
    problems = sweep.self_check()
    text = sweep.corpus_text(seed)
    if text != sweep.corpus_text(seed):
        problems.append(f"two draws from seed {seed} differ")
    path = work / f"sweep-seed{seed}.txt"
    if path.exists() and path.read_text(encoding="utf-8") != text:
        problems.append(f"seed {seed} now draws a different corpus than {path} holds")
    if problems:
        raise SystemExit("sweep generator: " + "; ".join(problems))
    path.write_text(text, encoding="utf-8")
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit, so that spawn() stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "orbefun" / "cli.py").is_file():
        print("perfbench: run from the root of an orbefun checkout (src/orbefun/cli.py not found)", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    fingerprint = source_fingerprint(root)
    work = root / ".perfbench"
    (work / "results").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    out_path = work / "stdout.txt"
    python = sys.executable

    argv = list(WORKLOADS[args.workload])
    meta: dict = {}
    if args.workload == "sweep":
        corpus_path = prepare_sweep(work, args.seed)
        argv[-1] = str(corpus_path.relative_to(root))
        expected = sweep.expected_stdout(args.seed)
        meta["sweep"] = sweep.describe(args.seed)
    else:
        expected = (HERE / "reference" / f"{args.workload}.txt").read_text(encoding="utf-8")
    command = [python, "-m", "orbefun", *argv]

    failures: list[str] = []

    def check(run: Run, stdout: str) -> bool:
        """Whether a run of the command succeeded; records why not."""
        problems = []
        if run.returncode < 0:
            problems.append(f"killed by signal {-run.returncode} (timeout {COMMAND_TIMEOUT_S:.0f} s)")
        elif run.returncode != 0:
            problems.append(f"exit {run.returncode}: {run.stderr.strip()[-300:]}")
        if stdout != expected:
            problems.append("stdout differs from the reference")
        elif args.workload == "fermat7-duality":
            problems.extend(fermat7_problems(stdout))
        failures.extend(problems)
        return not problems

    probes: list[Run] = []

    def probe_setup(k: int) -> None:
        for _ in range(k):
            probe = spawn([python, "-m", "orbefun", "--help"], env, root, out_path)
            if probe.returncode != 0:
                raise SystemExit(f"perfbench: `orbefun --help` failed: {probe.stderr.strip()[-300:]}")
            probes.append(probe)

    probe_setup(SETUP_PROBES_FIRST if args.trace == 0 else 1)

    t_start = perf_counter()
    attempted = failed = 0
    traced: list[tuple[Run, dict]] = []
    for _ in range(2 if args.trace else 0):
        run = spawn([python, str(HERE / "traced.py"), *argv], env, root, out_path)
        try:
            report = json.loads(run.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            report = None
        attempted += 1
        if report is None:
            failures.append(f"traced replay failed (exit {run.returncode}): {run.stderr.strip()[-300:]}")
            failed += 1
            break
        if run.returncode == 0:
            run.returncode = report["exit"]
        failed += not check(run, report["stdout"])
        traced.append((run, report))
    runs: list[Run] = []
    min_runs = 1 if args.trace else MIN_SAMPLES
    while len(runs) < min_runs or perf_counter() - t_start < args.seconds:
        if perf_counter() - t_start > RUN_LIMIT_S:
            break
        run = spawn(command, env, root, out_path)
        runs.append(run)
        attempted += 1
        failed += not check(run, run.stdout)
        if run.returncode < 0:
            break
        if args.trace == 0:
            probe_setup(SETUP_PROBES_PER_RUN)

    metrics: dict[str, dict] = {}
    samples: dict[str, int] = {}

    def put(name: str, value: float, unit: str, n: int) -> None:
        metrics[name] = {"value": value, "unit": unit}
        samples[name] = n

    if args.trace == 0:
        put("wall_s", median([c.wall_s for c in runs]), "s", len(runs))
        put("cpu_s", median([c.cpu_s for c in runs]), "s", len(runs))
        put("peak_rss_mb", median([c.peak_rss_mb for c in runs]), "MB", len(runs))
        put("setup_s", median([p.wall_s for p in probes]), "s", len(probes))
    else:
        # a replay that failed is already recorded; report zeros for it
        empty = {"spans": dict.fromkeys(SPANS, 0.0), "counts": dict.fromkeys(COUNTS, 0), "count_s": 0.0}
        reports = [r for _, r in traced] or [empty]
        for name in SPANS:
            put(name, median([r["spans"][name] for r in reports]), "s", len(reports))
        counts = reports[0]["counts"]
        if any(r["counts"] != counts for r in reports):
            failures.append(f"counts differ between two replays: {[r['counts'] for r in reports]}")
        counts_file = work / f"counts-{args.workload}-seed{args.seed}-{fingerprint[:16]}.json"
        if counts_file.exists():
            recorded = json.loads(counts_file.read_text(encoding="utf-8"))
            if recorded != counts:
                failures.append(f"counts differ from an earlier run of the same source: {recorded} vs {counts}")
        else:
            counts_file.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
        for name in COUNTS:
            put(name, counts[name], "count", len(reports))
        tested = counts["basis_engine.monomials_tested"]
        put("basis_engine.filter_yield", counts["basis_engine.monomials_kept"] / tested if tested else 0.0, "ratio", len(reports))
        traced_wall = median([run.wall_s - r["count_s"] for run, r in traced] or [0.0])
        put("trace.wall_s", traced_wall, "s", len(traced))
        put("unattributed_s", traced_wall - sum(metrics[name]["value"] for name in SPANS), "s", len(traced))
        put("trace.overhead_s", traced_wall - median([c.wall_s for c in runs]), "s", len(runs))

    meta.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": git_sha(root),
            "source_sha256": fingerprint,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_at_start": load_at_start,
            "loadavg_at_end": os.getloadavg(),
            "samples": samples,
            "failures": failures[:20],
        }
    )
    result_meta = json.dumps(meta, sort_keys=True)
    (work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(result_meta + "\n", encoding="utf-8")
    print(result_meta, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
