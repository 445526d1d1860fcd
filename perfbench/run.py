"""sunmetro benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each op is one CLI request run in-process through
``sunmetro.cli.main(argv)``, in a closed loop with one client.  The last line
of stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_OPS = 100  # so that ten latency samples lie beyond p90
MAX_SECONDS = 90.0  # a run stops extending itself towards MIN_OPS here
COLD_REPEATS = 5
COLD_TIMEOUT = 120.0
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h


def release_freed_arrays() -> None:
    """Pin glibc's mmap threshold at its default so freed large arrays go back to the OS.

    glibc otherwise raises the threshold after the first large free and keeps
    later arrays on its heap, so peak RSS would depend on the order the ops
    ran in.  With the threshold pinned it follows the largest live working
    set, as when each request is its own process.  No-op off glibc.
    """
    try:
        ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, 128 * 1024)
    except (AttributeError, OSError):
        pass


def execute(main, op, tracer=None):
    """Run one op in-process; returns (exit code or None, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = tracer.op(lambda: main(op.argv)) if tracer else main(op.argv)
        except Exception:  # a traceback is a failed op, not a failed benchmark
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


class Checker:
    """Applies the oracle to each op's output and keeps the tallies."""

    def __init__(self):
        self.verified = {}  # argv -> output already accepted by the full check
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, op, rc, stdout, stderr) -> bool:
        self.attempted += 1
        key = tuple(op.argv)
        output = (rc, stdout, stderr)
        if self.verified.get(key) == output:
            return True
        if rc is None:
            reason = "raised: " + stderr.strip().splitlines()[-1]
        else:
            reason = oracle.CHECKS[op.kind](op, rc, stdout, stderr)
        if reason is None:
            self.verified[key] = output
            return True
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{' '.join(op.argv)}: {reason}")
        return False


def quality(op, rc, stdout) -> tuple[list[float], bool]:
    """Bound-to-floor ratios an op reports, and whether it exited 0."""
    ratios = []
    if rc == 0 and op.kind == "scan":
        for row in stdout.splitlines()[1:]:
            cells = row.split(",")
            if cells[3] != "singular":
                ratios.append(float(cells[3]) / float(cells[4]))
    elif rc in (0, 3) and op.kind != "scan":
        doc = json.loads(stdout)
        if op.kind == "optimize":
            ratios.append(doc["bound_achieved"] / doc["floor"])
        elif doc.get("intrinsic_bound") is not None:
            ref = oracle.probe_reference(op.meta["probe"])
            ratios.append(doc["intrinsic_bound"] / oracle.floor_closed_form(ref["n"], ref["N"]))
    return ratios, rc == 0


class Phase:
    """Whole passes over the deck; the clock runs only while a pass runs."""

    def __init__(self):
        self.passes: list[list] = []
        self.latencies: list[float] = []
        self.busy = 0.0
        self.ratios: list[float] = []
        self.exited_zero = 0

    def run_pass(self, main, ops, checker, tracer=None):
        results = []
        start = time.perf_counter()
        for op in ops:
            results.append(execute(main, op, tracer))
        self.busy += time.perf_counter() - start
        self.passes.append(ops)
        for op, (rc, elapsed, stdout, stderr) in zip(ops, results):
            self.latencies.append(elapsed)
            if checker.check(op, rc, stdout, stderr):
                ratios, zero = quality(op, rc, stdout)
                self.ratios.extend(ratios)
                self.exited_zero += zero

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.busy


def cold_setup(workload, checker, repeats: int) -> float:
    """Median wall time of fresh processes that import sunmetro.cli and run the lead op."""
    times = []
    cmd = [sys.executable, str(HERE / "cold.py"), str(ROOT), *workload.lead.argv]
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=COLD_TIMEOUT)
        times.append(time.perf_counter() - start)
        checker.check(workload.lead, proc.returncode, proc.stdout, proc.stderr)
    return statistics.median(times)


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run(workload, seconds: float, trace: bool, min_ops: int = MIN_OPS,
        cold_repeats: int = COLD_REPEATS):
    """One benchmark run; returns (result object, human-readable lines)."""
    checker = Checker()
    lines = []
    metrics = {}
    if not trace:
        metrics["setup_s"] = (cold_setup(workload, checker, cold_repeats), "s")

    from sunmetro.cli import main

    # warm-up: lazy imports and first-call costs are paid before timing
    rc, _, stdout, stderr = execute(main, workload.lead)
    checker.check(workload.lead, rc, stdout, stderr)

    phase = Phase()
    budget = seconds / 2.0 if trace else seconds
    while True:
        phase.run_pass(main, workload.next_pass(len(phase.passes)), checker)
        enough = phase.busy >= budget and (trace or phase.ops >= min_ops)
        if enough or phase.busy >= MAX_SECONDS:
            break

    if not trace:
        latencies_ms = [t * 1e3 for t in phase.latencies]
        metrics.update({
            "ops_per_s": (phase.ops_per_s, "ops/s"),
            "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
            "latency_p90_ms": (quantile(latencies_ms, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "bound_ratio_mean": (statistics.fmean(phase.ratios) if phase.ratios else 0.0, "ratio"),
            "converged_frac": (phase.exited_zero / phase.ops, "fraction"),
        })
        lines.append(f"samples {phase.ops} ops in {len(phase.passes)} passes, {phase.busy:.2f} s timed")
        lines.append(f"failed_frac {checker.failed / checker.attempted:.6f} ({checker.failed} of {checker.attempted} checked ops)")
    else:
        tracer = spans.Tracer()
        traced = Phase()
        checker.verified.clear()  # the traced ops get the full oracle, quadrature rows included
        tracer.install()
        try:
            for ops in phase.passes:
                traced.run_pass(main, ops, checker, tracer)
        finally:
            tracer.uninstall()
        layer, problems = spans.layer_metrics(tracer)
        metrics.update(layer)
        metrics["trace.overhead_frac"] = (phase.ops_per_s / traced.ops_per_s - 1.0, "fraction")
        lines.append(f"traced {traced.ops} ops ({traced.busy:.2f} s) against {phase.ops} untraced ({phase.busy:.2f} s)")
        for problem in problems[:5]:
            lines.append(f"trace accounting: {problem}")
        checker.reasons.extend(problems[:5])
        checker.failed += len(problems)

    for key, (value, unit) in metrics.items():
        lines.append(f"{key:48s} {value:14.6f} {unit}")
    for reason in checker.reasons:
        lines.append(f"FAILED {reason}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sunmetro" / "cli.py").is_file():
        print(f"perfbench: no sunmetro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    release_freed_arrays()
    sys.path.insert(0, str(ROOT / "src"))
    import sunmetro

    if ROOT / "src" not in Path(sunmetro.__file__).resolve().parents:
        print(f"perfbench: imported sunmetro from {sunmetro.__file__}, not this checkout", file=sys.stderr)
        return 2

    work = HERE / "_work" / str(os.getpid())
    try:
        workload = workloads.build(args.workload, args.seed, work)
        result, lines = run(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
