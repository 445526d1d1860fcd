"""Independent reference values and the per-op output checks.

The reference side never calls into sunmetro's representation, metrology or
probe code: it enumerates the Fock basis, applies the collective generators
as hop lists and forms the generator covariance on its own.  Scalars it
compares are basis-invariant (intrinsic bound, covariance spectrum, Casimir),
so its own su(n) basis need not match the program's.  The one exception is
the chart metric, which is compared against sunmetro's quadrature route; the
project keeps the closed-form and quadrature generator rows as two
deliberately independent implementations that check each other.

Each ``check_*`` function takes an op and its captured exit code, stdout and
stderr, and returns None when the output is right or a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from itertools import product

import numpy as np

RTOL = 1e-8  # outputs carry 12 significant digits
SCAN_HEADER = ["n", "N", "casimir", "cs_ghz", "cs_floor", "cs_optimized"]


def casimir_closed_form(n: int, particles: int) -> float:
    return particles * (particles + n) * (n - 1) / (2.0 * n)


def floor_closed_form(n: int, particles: int) -> float:
    d = n * n - 1
    return d * d / (4.0 * casimir_closed_form(n, particles))


@lru_cache(maxsize=None)
def su_basis(n: int) -> np.ndarray:
    """An orthonormal basis of su(n), Tr(X_a X_b) = delta_ab / 2."""
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 0.5
            mats.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j], m[j, i] = -0.5j, 0.5j
            mats.append(m)
    for k in range(1, n):
        m = np.diag([1.0] * k + [-float(k)] + [0.0] * (n - k - 1)).astype(complex)
        mats.append(m / math.sqrt(2.0 * k * (k + 1)))
    return np.array(mats)


@lru_cache(maxsize=None)
def fock_states(n: int, particles: int) -> tuple[tuple[int, ...], ...]:
    """Occupation tuples summing to ``particles``, in descending order."""
    states = [occ for occ in product(range(particles, -1, -1), repeat=n) if sum(occ) == particles]
    return tuple(states)


@lru_cache(maxsize=None)
def _hops(n: int, particles: int):
    # for each (i, j): source indices, target indices and amplitudes of a_i^+ a_j
    states = fock_states(n, particles)
    index = {occ: k for k, occ in enumerate(states)}
    hops = {}
    for i in range(n):
        for j in range(n):
            src, dst, amp = [], [], []
            for k, occ in enumerate(states):
                if occ[j] == 0:
                    continue
                target = list(occ)
                target[j] -= 1
                target[i] += 1
                src.append(k)
                dst.append(index[tuple(target)])
                amp.append(math.sqrt(occ[j] * target[i]))
            hops[i, j] = (np.array(src, dtype=int), np.array(dst, dtype=int), np.array(amp))
    return hops


def images(n: int, particles: int, psi: np.ndarray) -> np.ndarray:
    """Rows X_a^(R) psi for every basis element X_a of su(n)."""
    basis = su_basis(n)
    out = np.zeros((basis.shape[0], psi.shape[0]), dtype=complex)
    for (i, j), (src, dst, amp) in _hops(n, particles).items():
        coeff = basis[:, i, j]
        if not np.any(coeff):
            continue
        moved = np.zeros(psi.shape[0], dtype=complex)
        np.add.at(moved, dst, amp * psi[src])
        out += coeff[:, None] * moved[None, :]
    return out


def covariance(n: int, particles: int, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = images(n, particles, psi)
    mean = (rows @ psi.conj()).real
    gram = (rows.conj() @ rows.T).real
    cov = gram - np.outer(mean, mean)
    return mean, (cov + cov.T) / 2.0


def intrinsic(cov: np.ndarray) -> float | None:
    """(1/4) Tr[C^-1], or None when C is singular at a 1e8 condition number."""
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] <= eigs[-1] / 1e8:
        return None
    return 0.25 * float(np.sum(1.0 / eigs))


def probe_vector(spec: dict) -> tuple[int, int, np.ndarray]:
    """(n, N, amplitudes) of a probe spec, built without sunmetro."""
    kind = spec["kind"]
    if kind == "tetrahedron_j2":
        n, particles, terms = 2, 4, {(4, 0): 1.0 / math.sqrt(3.0), (1, 3): math.sqrt(2.0 / 3.0)}
    elif kind in ("ghz", "noon"):
        n = spec.get("n", 2)
        particles = spec["N"]
        terms = {}
        for mode in range(n):
            occ = [0] * n
            occ[mode] = particles
            terms[tuple(occ)] = 1.0 / math.sqrt(n)
    elif kind == "su3_cyclic":
        k, l = spec["k"], spec["l"]
        n, particles = 3, 3 * k
        base = (k - l, k, k + l)
        terms = {}
        for shift in range(3):
            occ = tuple(base[(i - shift) % 3] for i in range(3))
            terms[occ] = terms.get(occ, 0.0) + 1.0 / math.sqrt(3.0)
    elif kind == "fock":
        occ = tuple(spec["occupations"])
        n, particles, terms = len(occ), sum(occ), {occ: 1.0}
    else:
        raise ValueError(f"no reference for probe kind {kind!r}")
    states = fock_states(n, particles)
    psi = np.zeros(len(states), dtype=complex)
    for k, occ in enumerate(states):
        psi[k] = terms.get(occ, 0.0)
    return n, particles, psi


def probe_reference(spec: dict) -> dict:
    """Basis-invariant figures of a probe: intrinsic bound, spectrum, mean norm."""
    return _probe_reference(json.dumps(spec, sort_keys=True))


@lru_cache(maxsize=None)
def _probe_reference(spec_json: str) -> dict:
    n, particles, psi = probe_vector(json.loads(spec_json))
    mean, cov = covariance(n, particles, psi)
    return {
        "n": n,
        "N": particles,
        "intrinsic": intrinsic(cov),
        "spectrum": np.linalg.eigvalsh(cov),
        "mean_norm": float(np.linalg.norm(mean)),
    }


def close(a, b, rtol=RTOL) -> bool:
    return abs(float(a) - float(b)) <= rtol * abs(float(b))


def _json(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError:
        return None, "stdout is not JSON"


def check_scan(op, rc: int, stdout: str, stderr: str) -> str | None:
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[:120]}"
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != SCAN_HEADER:
        return "bad CSV header"
    n, nmin, nmax = op.meta["n"], op.meta["nmin"], op.meta["nmax"]
    if len(rows) - 1 != nmax - nmin + 1:
        return f"expected {nmax - nmin + 1} rows, got {len(rows) - 1}"
    for row, particles in zip(rows[1:], range(nmin, nmax + 1)):
        if len(row) != 6 or row[0] != str(n) or row[1] != str(particles):
            return f"row for N={particles} malformed: {row}"
        try:
            c2, floor = float(row[2]), float(row[4])
        except ValueError:
            return f"N={particles}: non-numeric casimir/floor {row}"
        if not close(c2, casimir_closed_form(n, particles)):
            return f"N={particles}: casimir {c2} != {casimir_closed_form(n, particles)}"
        if not close(floor, floor_closed_form(n, particles)):
            return f"N={particles}: cs_floor {floor} != d^2/(4 c2)"
        ref = probe_reference({"kind": "ghz", "n": n, "N": particles})["intrinsic"]
        if ref is None:
            if row[3] != "singular":
                return f"N={particles}: cs_ghz {row[3]} but the reference is singular"
        elif row[3] == "singular" or not close(float(row[3]), ref):
            return f"N={particles}: cs_ghz {row[3]} != {ref}"
        if row[5] != "":
            return f"N={particles}: unexpected cs_optimized {row[5]}"
    return None


def _check_intrinsic(doc: dict, spec: dict) -> str | None:
    value = doc.get("intrinsic_bound")
    ref = probe_reference(spec)["intrinsic"]
    if ref is None:
        return None if value is None else f"intrinsic_bound {value} for a singular probe"
    if not isinstance(value, (int, float)) or not close(value, ref):
        return f"intrinsic_bound {value} != reference {ref}"
    if spec["kind"] == "tetrahedron_j2" and not close(value, 0.375):
        return f"tetrahedron bound {value} != 0.375"
    return None


def check_bound(op, rc: int, stdout: str, stderr: str) -> str | None:
    spec = op.meta["probe"]
    ref = probe_reference(spec)
    if ref["intrinsic"] is None:
        if rc != 2:
            return f"singular probe exited {rc}, expected 2"
        try:
            diag = json.loads(stderr.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "singular probe printed no JSON diagnostics"
        d = ref["n"] ** 2 - 1
        if not isinstance(diag.get("rank"), int) or not 0 <= diag["rank"] < d:
            return f"singular probe reported rank {diag.get('rank')}"
        if "condition_number" not in diag:
            return "singular probe reported no condition number"
        return None
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[:120]}"
    doc, err = _json(stdout)
    if err:
        return err
    reason = _check_intrinsic(doc, spec)
    if reason:
        return reason
    spectrum = np.linalg.eigvalsh(np.asarray(doc["covariance"], dtype=float))
    if not np.allclose(spectrum, ref["spectrum"], rtol=1e-7, atol=1e-9 * ref["spectrum"][-1]):
        return "covariance spectrum differs from the reference"
    q = np.asarray(doc["qfim"], dtype=float)
    weight = op.meta["weight"]
    if weight == "intrinsic":
        expected = doc["intrinsic_bound"]
    else:
        w = np.eye(q.shape[0]) if weight == "identity" else np.asarray(weight, dtype=float)
        expected = float(np.trace(np.linalg.solve(q, w)))
    if not isinstance(doc["weighted_bound"], (int, float)) or not close(doc["weighted_bound"], expected):
        return f"weighted_bound {doc['weighted_bound']} != Tr[W Q^-1] = {expected}"
    return _check_metric(op, np.asarray(doc["metric"], dtype=float))


def _check_metric(op, metric: np.ndarray) -> str | None:
    # the closed-form metric against the independent quadrature route
    from sunmetro import channel

    chart = channel.Parametrization.from_json(op.meta["chart"])
    rows = channel.generators_quadrature(chart, np.asarray(op.meta["theta"])).hmat
    expected = rows @ rows.T
    if not np.allclose(metric, expected, rtol=1e-7, atol=1e-9 * float(np.max(np.abs(expected)))):
        return "metric differs from the quadrature generator rows"
    return None


def check_check(op, rc: int, stdout: str, stderr: str) -> str | None:
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[:120]}"
    doc, err = _json(stdout)
    if err:
        return err
    ref = probe_reference(op.meta["probe"])
    if not isinstance(doc.get("floor"), (int, float)) or not close(
        doc["floor"], floor_closed_form(ref["n"], ref["N"])
    ):
        return f"floor {doc.get('floor')} != d^2/(4 c2)"
    reason = _check_intrinsic(doc, op.meta["probe"])
    if reason:
        return reason
    if doc.get("first_order") is not (ref["mean_norm"] < 1e-8):
        return f"first_order {doc.get('first_order')} but |mean| = {ref['mean_norm']:.3e}"
    return None


def check_optimize(op, rc: int, stdout: str, stderr: str) -> str | None:
    if rc not in (0, 3):
        return f"exit {rc}: {stderr.strip()[:120]}"
    doc, err = _json(stdout)
    if err:
        return err
    n, particles = op.meta["n"], op.meta["N"]
    if doc.get("converged") is not (rc == 0):
        return f"converged={doc.get('converged')} with exit {rc}"
    try:
        psi = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    except (KeyError, TypeError, ValueError):
        return "amplitudes are not [re, im] pairs"
    if psi.shape != (len(fock_states(n, particles)),):
        return f"{psi.shape[0]} amplitudes for symmetric({n}, {particles})"
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        return f"amplitudes have norm {np.linalg.norm(psi)!r}"
    floor = floor_closed_form(n, particles)
    if not isinstance(doc.get("floor"), (int, float)) or not close(doc["floor"], floor):
        return f"floor {doc.get('floor')} != d^2/(4 c2) = {floor}"
    achieved = doc.get("bound_achieved")
    ref = intrinsic(covariance(n, particles, psi)[1])
    if ref is None or not isinstance(achieved, (int, float)) or not close(achieved, ref, rtol=1e-6):
        return f"bound_achieved {achieved} != recomputed {ref}"
    if achieved < floor * (1.0 - 1e-9):
        return f"bound_achieved {achieved} below the floor {floor}"
    return None


CHECKS = {"scan": check_scan, "bound": check_bound, "check": check_check, "optimize": check_optimize}
