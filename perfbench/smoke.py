"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

Runs every workload on a few of its cheapest ops, untraced and traced, and
requires a clean result with every metric that BENCHMARK.json names.  Then
it shows that the oracle bites: corrupted outputs of each op kind are
rejected, and a run against a program whose Casimir is perturbed reports
failed ops.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# a cheap slice of each deck that still covers every op kind it has
TINY = {
    "scan-sweep": lambda op: op.meta["nmax"] <= 11 or op.meta["n"] == 4 and op.meta["nmax"] <= 5,
    "optimize-small": lambda op: op.meta["n"] == 2 and op.meta["N"] <= 6 or (op.meta["n"], op.meta["N"]) == (3, 3),
    "bound-mix": lambda op: True,
}


def tiny(name: str, work: Path):
    workload = workloads.build(name, 7, work)
    workload.deck = [op for op in workload.deck if TINY[name](op)]
    return workload


def run_tiny(name: str, trace: bool, work: Path) -> dict:
    result, _ = run.run(tiny(name, work), 0.0, trace, min_ops=0, cold_repeats=1)
    return result


def corrupt(kind: str, stdout: str) -> str:
    if kind == "scan":
        lines = stdout.splitlines()
        cells = lines[1].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-6))
        lines[1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    doc = json.loads(stdout)
    if kind == "bound":
        doc["weighted_bound"] *= 1 + 1e-6
    elif kind == "check":
        doc["floor"] *= 1 + 1e-6
    else:
        doc["amplitudes"][0][0] += 1e-6
    return json.dumps(doc)


def main() -> int:
    failures = []

    def expect(ok: bool, what: str):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    from sunmetro.cli import main as cli_main

    work = Path(tempfile.mkdtemp(dir=HERE, prefix="_smoke"))
    try:
        for name in workloads.NAMES:
            for trace, wanted in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
                result = run_tiny(name, trace, work / name)
                names = {m["name"] for m in wanted}
                expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                       f"{name} trace={int(trace)}: clean run ({result['attempted']} ops)")
                expect(set(result["metrics"]) == names,
                       f"{name} trace={int(trace)}: reports exactly the metrics BENCHMARK.json names")

        # corrupted outputs of every op kind are rejected
        seen = set()
        for name in workloads.NAMES:
            for op in tiny(name, work / name).deck:
                rc, _, stdout, stderr = run.execute(cli_main, op)
                if op.kind in seen or rc != 0:
                    continue
                seen.add(op.kind)
                check = oracle.CHECKS[op.kind]
                expect(check(op, rc, stdout, stderr) is None, f"{op.kind}: genuine output accepted")
                expect(check(op, rc, corrupt(op.kind, stdout), stderr) is not None,
                       f"{op.kind}: corrupted output rejected")
        singular = next(op for op in tiny("bound-mix", work / "b").deck
                        if op.meta.get("probe") == workloads.SINGULAR_PROBE)
        expect(oracle.check_bound(singular, 0, "{}", "") is not None,
               "bound: a singular probe that exits 0 is rejected")

        # a program with a perturbed Casimir value fails the run
        import sunmetro.cli
        import sunmetro.representation

        original = sunmetro.representation.casimir
        sunmetro.cli.casimir = lambda rep: original(rep) * (1 + 1e-6)
        try:
            result = run_tiny("scan-sweep", False, work / "corrupt")
        finally:
            sunmetro.cli.casimir = original
        # every op but the one cold run, which is a fresh unpatched process
        expect(not result["correct"] and result["failed"] == result["attempted"] - 1,
               f"scan-sweep with a perturbed Casimir: {result['failed']} of {result['attempted']} ops failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
