"""The three workloads, generated from a seed as CLI argv plus JSON input files.

Every workload is a fixed deck of op classes whose costs are set by the deck,
not by the seed; the seed draws each op's remaining parameters (chart angles,
axes, weights, ``--jobs``) and the order of every pass over the deck.  Runs
measure whole passes, so two seeds time the same mix of work and the medians
stay steady with a modest run length.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("scan-sweep", "optimize-small", "bound-mix")

# scan-sweep: (n, nmin, nmax) windows spanning D = 20..325 on both sides of the
# representation's full-commutator-check threshold (D = 150)
SCAN_WINDOWS = (
    (3, 6, 8), (3, 9, 11), (3, 12, 13), (3, 14, 14), (3, 15, 15), (3, 16, 16),
    (3, 17, 17), (3, 18, 18), (3, 20, 20), (3, 22, 22), (3, 24, 24),
    (4, 3, 4), (4, 5, 5), (4, 6, 6), (4, 7, 7), (4, 8, 8), (4, 9, 9),
)

# optimize-small: sym(3, 3) and sym(4, 3) cannot reach the floor; sym(3, 5)
# stops at max_iters and exits 3
OPTIMIZE_SIZES = (
    tuple((2, particles) for particles in range(4, 20))
    + tuple((3, particles) for particles in range(3, 10))
    + ((4, 3), (4, 4))
)
OPTIMIZE_RESTARTS = 2

# bound-mix probes; the fock probe has a singular covariance and must exit 2
BOUND_PROBES = (
    {"kind": "tetrahedron_j2"},
    {"kind": "noon", "N": 6},
    {"kind": "su3_cyclic", "k": 3, "l": 3},
    {"kind": "ghz", "n": 3, "N": 6},
    {"kind": "ghz", "n": 4, "N": 4},
)
SINGULAR_PROBE = {"kind": "fock", "occupations": [5, 0, 0]}
WEIGHTS = ("intrinsic", "identity", "explicit")


@dataclass
class Op:
    kind: str  # CLI subcommand
    argv: list[str]
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    lead: Op  # the fixed first op, timed cold for setup_s
    deck: list[Op]
    rng: random.Random

    def next_pass(self, index: int) -> list[Op]:
        """The deck in a fresh seeded order; optimize seeds advance per pass."""
        ops = [_for_pass(op, index) for op in self.deck]
        self.rng.shuffle(ops)
        return ops


def _for_pass(op: Op, index: int) -> Op:
    if op.kind != "optimize":
        return op
    # a fixed schedule of optimizer seeds: the optimizer's run time depends on
    # its starting points, so every run samples the same ones
    seed = 1000 * (index + 1) + op.meta["slot"]
    argv = [*op.argv[:-1], str(seed)]
    return Op(op.kind, argv, op.meta)


def _write(work: Path, name: str, doc) -> str:
    path = work / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _scan_op(n: int, nmin: int, nmax: int, jobs: int) -> Op:
    argv = ["scan", "--n", str(n), "--nmin", str(nmin), "--nmax", str(nmax),
            "--states", "ghz,floor", "--jobs", str(jobs)]
    return Op("scan", argv, {"n": n, "nmin": nmin, "nmax": nmax})


def _optimize_op(config: str, n: int, particles: int, slot: int) -> Op:
    argv = ["optimize", "--n", str(n), "--particles", str(particles),
            "--config", config, "--seed", "0"]
    return Op("optimize", argv, {"n": n, "N": particles, "slot": slot})


def _probe_n(spec: dict) -> int:
    if spec["kind"] in ("tetrahedron_j2", "noon"):
        return 2
    if spec["kind"] == "su3_cyclic":
        return 3
    if spec["kind"] == "fock":
        return len(spec["occupations"])
    return spec["n"]


def _chart(n: int, kind: str, rng: np.random.Generator) -> tuple[dict, list[float]]:
    """A chart and a seeded point well away from its coordinate singularities."""
    d = n * n - 1
    if kind == "euler_su2":
        theta = [rng.uniform(-np.pi, np.pi), rng.uniform(0.4, 2.7), rng.uniform(-np.pi, np.pi)]
        return {"kind": "euler_su2", "n": 2}, theta
    if kind == "exponential":
        direction = rng.standard_normal(d)
        theta = direction / np.linalg.norm(direction) * rng.uniform(0.2, 1.5)
        return {"kind": "exponential", "n": n}, theta.tolist()
    # d generic axes: rows of a random orthogonal matrix, so the chart is
    # regular at the origin, and a point near it
    axes, _ = np.linalg.qr(rng.standard_normal((d, d)))
    theta = rng.uniform(-0.5, 0.5, size=d)
    return {"kind": "product_of_exponentials", "n": n, "factors": axes.tolist()}, theta.tolist()


def _spd(size: int, rng: np.random.Generator) -> list[list[float]]:
    a = rng.standard_normal((size, size))
    return (a @ a.T / size + 0.5 * np.eye(size)).tolist()


def _bound_op(work: Path, tag: str, spec: dict, chart_kind: str, weight: str,
              rng: np.random.Generator) -> Op:
    n = _probe_n(spec)
    chart, theta = _chart(n, chart_kind, rng)
    probe_path = _write(work, f"probe_{tag}.json", spec)
    chart_path = _write(work, f"chart_{tag}.json", chart)
    argv = ["bound", probe_path, chart_path, "--theta=" + ",".join(repr(float(t)) for t in theta)]
    meta = {"probe": spec, "chart": chart, "theta": [float(t) for t in theta], "weight": weight}
    if weight == "explicit":
        matrix = _spd(len(theta), rng)
        argv += ["--weight", _write(work, f"weight_{tag}.json", matrix)]
        meta["weight"] = matrix
    else:
        argv += ["--weight", weight]
    return Op("bound", argv, meta)


def _check_op(work: Path, tag: str, spec: dict) -> Op:
    return Op("check", ["check", _write(work, f"probe_{tag}.json", spec)], {"probe": spec})


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the workload's inputs under ``work`` from ``seed``."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    work.mkdir(parents=True, exist_ok=True)
    if name == "scan-sweep":
        jobs = [1, 2] * ((len(SCAN_WINDOWS) + 1) // 2)
        rng.shuffle(jobs)
        deck = [_scan_op(*window, job) for window, job in zip(SCAN_WINDOWS, jobs)]
        lead = _scan_op(3, 9, 11, 1)
    elif name == "optimize-small":
        config = _write(work, "optimize_config.json", {"restarts": OPTIMIZE_RESTARTS})
        deck = [_optimize_op(config, n, p, slot) for slot, (n, p) in enumerate(OPTIMIZE_SIZES)]
        lead = _for_pass(_optimize_op(config, 3, 4, len(deck)), 0)
    elif name == "bound-mix":
        deck = []
        for spec in BOUND_PROBES:
            charts = ("euler_su2", "exponential", "product_of_exponentials")
            if _probe_n(spec) > 2:
                charts = charts[1:]
            for chart in charts:
                for weight in WEIGHTS:
                    deck.append(_bound_op(work, f"{len(deck)}", spec, chart, weight, nprng))
        for chart in ("exponential", "product_of_exponentials"):
            deck.append(_bound_op(work, f"{len(deck)}", SINGULAR_PROBE, chart, "intrinsic", nprng))
        # about one check per four bounds
        for i, spec in enumerate(BOUND_PROBES * 2):
            deck.append(_check_op(work, f"c{i}", spec))
        lead = _bound_op(work, "lead", BOUND_PROBES[2], "exponential", "intrinsic", nprng)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(lead, deck, rng)
