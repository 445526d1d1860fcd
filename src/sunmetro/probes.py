"""Named probe states and a direct search for low-bound probes.

All constructors return :class:`~sunmetro.metrology.ProbeState` objects on
the collective representation they live in, with amplitudes in the basis
order fixed by :func:`~sunmetro.representation.fock_basis` (descending
occupation tuples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .exceptions import (
    ConstraintError,
    InvalidElementError,
    InvalidStateError,
    OptimizationFailedError,
)
from .algebra import gellmann_basis
from .metrology import ProbeState, pure_state
from .representation import (
    DIMENSION_CAP,
    Representation,
    casimir,
    symmetric_representation,
)

OPTIMIZER_METHODS = ("gradient_descent_on_sphere", "simplex")

#: Covariance eigenvalues below this fraction of the isotropic value trip
#: the optimizer's barrier instead of entering Tr[C^(-1)].
BARRIER_CUTOFF = 1e-9


@dataclass(frozen=True)
class ProbeSpec:
    """Serializable description of a probe.

    Kinds: "ghz", "noon", "tetrahedron_j2", "su3_cyclic", "fock", "custom".
    Only the fields a kind needs have to be present; ``particles`` maps to
    the JSON key "N".
    """

    kind: str
    n: int | None = None
    particles: int | None = None
    k: int | None = None
    l: int | None = None
    amplitudes: tuple[complex, ...] | None = None
    occupations: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.n is not None:
            doc["n"] = self.n
        if self.particles is not None:
            doc["N"] = self.particles
        if self.k is not None:
            doc["k"] = self.k
        if self.l is not None:
            doc["l"] = self.l
        if self.amplitudes is not None:
            doc["amplitudes"] = [[z.real, z.imag] for z in self.amplitudes]
        if self.occupations is not None:
            doc["occupations"] = list(self.occupations)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ProbeSpec":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise InvalidStateError("probe document needs a 'kind' field")
        amplitudes = None
        occupations = None
        opt_int = lambda key: None if doc.get(key) is None else int(doc[key])
        try:
            if doc.get("amplitudes") is not None:
                amplitudes = tuple(_parse_amplitude(a) for a in doc["amplitudes"])
            if doc.get("occupations") is not None:
                occupations = tuple(int(v) for v in doc["occupations"])
            return cls(
                kind=str(doc["kind"]),
                n=opt_int("n"),
                particles=opt_int("N"),
                k=opt_int("k"),
                l=opt_int("l"),
                amplitudes=amplitudes,
                occupations=occupations,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidStateError(f"malformed probe document: {exc}") from None


def _parse_amplitude(entry) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(float(entry[0]), float(entry[1]))
    raise InvalidStateError(f"amplitude entries are numbers or [re, im] pairs, got {entry!r}")


def _symmetric_rep(n: int, particles: int, cap: int) -> Representation:
    return symmetric_representation(gellmann_basis(n), particles, cap=cap)


def make_ghz(
    n: int, particles: int, cap: int = DIMENSION_CAP, rep: Representation | None = None
) -> ProbeState:
    """Equal superposition of the n single-mode stretched states.

    For n = 2 this is the two-mode NOON state.  The mean generator vector
    vanishes for every particles >= 2.  ``rep`` reuses an already built
    symmetric(n, particles) instead of building it again.
    """
    if particles < 1:
        raise ConstraintError(f"need at least one particle, got {particles}")
    if rep is None:
        rep = _symmetric_rep(n, particles, cap)
    elif rep.fock is None or (rep.fock.modes, rep.fock.particles) != (n, particles):
        raise InvalidStateError(f"{rep.label} is not symmetric({n}, {particles})")
    vec = np.zeros(rep.space_dim, dtype=complex)
    for mode in range(n):
        occ = [0] * n
        occ[mode] = particles
        vec[rep.fock.index[tuple(occ)]] = 1.0 / np.sqrt(n)
    return pure_state(rep, vec)


def make_noon(particles: int, cap: int = DIMENSION_CAP) -> ProbeState:
    """Two-mode NOON state (|N0> + |0N>)/sqrt(2)."""
    return make_ghz(2, particles, cap=cap)


def make_tetrahedron_j2() -> ProbeState:
    """The spin-2 tetrahedron state (|2,2> + sqrt(2) |2,-1>)/sqrt(3).

    In occupation amplitudes on symmetric(2, 4): (|4,0> + sqrt(2) |1,3>)/sqrt(3).
    Its covariance is isotropic, so it attains the minimum of Tr[C^(-1)].
    """
    rep = _symmetric_rep(2, 4, DIMENSION_CAP)
    vec = np.zeros(rep.space_dim, dtype=complex)
    vec[rep.fock.index[(4, 0)]] = 1.0 / np.sqrt(3.0)
    vec[rep.fock.index[(1, 3)]] = np.sqrt(2.0 / 3.0)
    return pure_state(rep, vec)


def make_su3_cyclic(k: int, l: int, cap: int = DIMENSION_CAP) -> ProbeState:
    """Cyclic three-mode state over occupations (k-l, k, k+l) on symmetric(3, 3k).

    Second-order unpolarized exactly when 4 l**2 = 3 k (k + 1); other integer
    pairs are rejected rather than silently producing an anisotropic probe.
    """
    k = int(k)
    l = int(l)
    if k < 1 or l == 0:
        raise ConstraintError(f"need k >= 1 and l != 0, got (k, l) = ({k}, {l})")
    if 4 * l * l != 3 * k * (k + 1):
        raise ConstraintError(
            f"4 l^2 = {4 * l * l} does not equal 3 k (k + 1) = {3 * k * (k + 1)}"
        )
    base = (k - l, k, k + l)
    if min(base) < 0:
        raise ConstraintError(f"occupations {base} are not all nonnegative")
    rep = _symmetric_rep(3, 3 * k, cap)
    vec = np.zeros(rep.space_dim, dtype=complex)
    for shift in range(3):
        occ = tuple(base[(i - shift) % 3] for i in range(3))
        vec[rep.fock.index[occ]] += 1.0 / np.sqrt(3.0)
    return pure_state(rep, vec)


def make_fock(occupations, cap: int = DIMENSION_CAP) -> ProbeState:
    """Single occupation-number state |n_1, ..., n_modes>."""
    occ = tuple(int(v) for v in occupations)
    if len(occ) < 2 or min(occ) < 0 or sum(occ) < 1:
        raise ConstraintError(f"invalid occupation list {occ}")
    rep = _symmetric_rep(len(occ), sum(occ), cap)
    vec = np.zeros(rep.space_dim, dtype=complex)
    vec[rep.fock.index[occ]] = 1.0
    return pure_state(rep, vec)


def make_custom(n: int, particles: int, amplitudes, cap: int = DIMENSION_CAP) -> ProbeState:
    """Probe from explicit amplitudes in descending occupation order.

    The vector must be normalized to within 1e-6 (it is renormalized exactly;
    the loose tolerance admits round-tripped 12-digit serializations).
    """
    rep = _symmetric_rep(n, particles, cap)
    vec = np.asarray(list(amplitudes), dtype=complex)
    if vec.shape != (rep.space_dim,):
        raise InvalidStateError(
            f"expected {rep.space_dim} amplitudes for {rep.label}, got {vec.shape[0]}"
        )
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-6:
        raise InvalidStateError(f"amplitudes have norm {norm!r}, expected 1 within 1e-6")
    return pure_state(rep, vec / norm)


def build_probe(spec: ProbeSpec, cap: int = DIMENSION_CAP) -> ProbeState:
    """Construct the probe a :class:`ProbeSpec` describes."""
    kind = spec.kind
    if kind == "ghz":
        _require(spec, "n", "particles")
        return make_ghz(spec.n, spec.particles, cap=cap)
    if kind == "noon":
        _require(spec, "particles")
        return make_noon(spec.particles, cap=cap)
    if kind == "tetrahedron_j2":
        return make_tetrahedron_j2()
    if kind == "su3_cyclic":
        _require(spec, "k", "l")
        return make_su3_cyclic(spec.k, spec.l, cap=cap)
    if kind == "fock":
        _require(spec, "occupations")
        return make_fock(spec.occupations, cap=cap)
    if kind == "custom":
        _require(spec, "n", "particles", "amplitudes")
        return make_custom(spec.n, spec.particles, spec.amplitudes, cap=cap)
    raise InvalidStateError(f"unknown probe kind {kind!r}")


def _require(spec: ProbeSpec, *fields):
    missing = [f for f in fields if getattr(spec, f) is None]
    if missing:
        raise InvalidStateError(f"probe kind {spec.kind!r} needs fields {missing}")


def canonical_phase(vector: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first significant amplitude is real positive."""
    v = np.asarray(vector, dtype=complex)
    mags = np.abs(v)
    idx = int(np.argmax(mags > 1e-8 * float(np.max(mags))))
    return v * np.exp(-1j * np.angle(v[idx]))


@dataclass(frozen=True)
class OptimizerConfig:
    """Search settings for :func:`optimize_probe`.

    ``seed`` is mandatory; there is no silent time-based fallback.
    """

    restarts: int = 20
    max_iters: int = 400
    tolerance: float = 1e-6
    seed: int | None = None
    method: str = "gradient_descent_on_sphere"

    def __post_init__(self):
        if self.method not in OPTIMIZER_METHODS:
            raise ValueError(f"unknown method {self.method!r}, options: {OPTIMIZER_METHODS}")
        if self.restarts < 1 or self.max_iters < 1 or self.tolerance <= 0:
            raise ValueError("restarts, max_iters must be >= 1 and tolerance > 0")

    @classmethod
    def from_json(cls, doc: dict) -> "OptimizerConfig":
        """Parse a config object; a malformed one raises InvalidElementError.

        ``restarts``, ``max_iters`` and ``seed`` must be integers (not
        booleans; ``seed`` may be null), ``tolerance`` a finite positive
        number.
        """
        if not isinstance(doc, dict):
            raise InvalidElementError(
                f"optimizer config must be a JSON object, got {type(doc).__name__}"
            )
        known = {f: doc[f] for f in ("restarts", "max_iters", "tolerance", "seed", "method") if f in doc}
        for key in ("restarts", "max_iters", "seed"):
            value = known.get(key)
            if key in known and not _is_int(value) and not (key == "seed" and value is None):
                raise InvalidElementError(
                    f"optimizer config {key!r} must be an integer, got {value!r}"
                )
        if "tolerance" in known:
            tol = known["tolerance"]
            if not (_is_int(tol) or isinstance(tol, float) and math.isfinite(tol)) or tol <= 0:
                raise InvalidElementError(
                    f"optimizer config 'tolerance' must be a finite positive number, got {tol!r}"
                )
        try:
            return cls(**known)
        except ValueError as exc:
            raise InvalidElementError(f"optimizer config: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class OptimizeResult:
    """Best probe found, its bound, and the unbeatable floor d^2/(4 c2).

    ``diagnostics["restarts"]`` holds one trace per restart: ``iterations``
    (descent steps taken), ``gradient_norm`` (final tangent-gradient norm,
    None for the simplex method) and ``stop``, one of "tolerance",
    "line_search", "max_iters", "singular" (the restart ended in the
    barrier region and was discarded) or "simplex".
    """

    state: ProbeState
    bound_achieved: float
    floor: float
    converged: bool
    diagnostics: dict


def optimize_probe(rep: Representation, config: OptimizerConfig) -> OptimizeResult:
    """Minimize Tr[C^(-1)] over pure states of ``rep`` by restarted descent.

    The search runs over real-and-imaginary stacked amplitude vectors on the
    unit sphere, with the analytic gradient (two sparse products with the
    generator stack per evaluation) and a barrier on near-singular
    covariances.  Deterministic for a fixed seed and config: restarts are
    merged by objective with ties broken by restart index.

    Raises
    ------
    OptimizationFailedError
        When no restart escapes the singular region, e.g. when the
        representation is too small to carry a regular covariance.
    """
    if config.seed is None:
        raise ValueError("optimizer seed is required for reproducibility")
    d = rep.basis.dim
    dim = rep.space_dim
    c2 = casimir(rep)
    floor = d * d / (4.0 * c2)
    barrier = BARRIER_CUTOFF * c2 / d
    objective, gradient = _objective_and_gradient(rep, barrier)

    rng = np.random.default_rng(config.seed)
    best = None
    singular_restarts = 0
    traces = []
    for restart in range(config.restarts):
        z0 = rng.standard_normal(2 * dim)
        z0 /= np.linalg.norm(z0)
        if config.method == "simplex":
            res = minimize(
                lambda z: objective(z)[0],
                z0,
                method="Nelder-Mead",
                options={
                    "maxiter": config.max_iters * 2 * dim,
                    "xatol": config.tolerance,
                    "fatol": config.tolerance,
                },
            )
            z, value, converged = res.x, float(res.fun), bool(res.success)
            smallest = objective(z)[1]
            trace = {"iterations": int(res.nit), "gradient_norm": None, "stop": "simplex"}
        else:
            z, value, smallest, trace = _descend(
                z0, objective, gradient, config.max_iters, config.tolerance
            )
            converged = trace["stop"] != "max_iters"
        if smallest <= barrier:
            singular_restarts += 1
            traces.append({**trace, "stop": "singular"})
            continue
        traces.append(trace)
        if best is None or value < best[1] - 1e-15:
            best = (z, value, converged, restart)
    if best is None:
        raise OptimizationFailedError(
            f"all {config.restarts} restarts stayed in the singular region of {rep.label}",
            diagnostics={"singular_restarts": singular_restarts, "space_dim": dim},
        )
    z, value, converged, which = best
    psi = z[:dim] + 1j * z[dim:]
    psi = canonical_phase(psi / np.linalg.norm(psi))
    state = pure_state(rep, psi)
    return OptimizeResult(
        state=state,
        bound_achieved=0.25 * value,
        floor=floor,
        converged=converged,
        diagnostics={
            "best_restart": which,
            "singular_restarts": singular_restarts,
            "objective": value,
            "restarts": traces,
        },
    )


def _objective_and_gradient(rep: Representation, barrier: float):
    """The optimizer's objective and its analytic gradient on ``rep``.

    Both take a real vector z = [Re psi; Im psi] and read the unit state
    psi = z / |z|.  ``objective(z)`` returns ``(value, lambda_min)``: value
    is Tr[C^(-1)], or the barrier d / lambda_min once the smallest
    covariance eigenvalue lambda_min is at or below ``barrier``.
    ``gradient(z)`` is the real gradient of that value with respect to
    [Re psi; Im psi]; callers project it onto the sphere's tangent space.

    With images Y_a = X_a psi, means m and G = C^(-2) (in the barrier branch
    G = (d / lambda_min^2) v v^T for the lowest eigenvector v), the
    Wirtinger derivative is -sum_a X_a (G Y)_a + 2 (G m) . Y: one product
    with the sparse stack F for Y and one with F^dagger for the sum.
    """
    d = rep.basis.dim
    dim = rep.space_dim
    stack = rep.stack
    adjoint = stack.conj().T.tocsr()

    def moments(z):
        psi = (z[:dim] + 1j * z[dim:]) / math.sqrt(z @ z)
        images = (stack @ psi).reshape(d, dim)
        bras = images.conj()
        mean = (bras @ psi).real
        cov = (bras @ images.T).real - mean[:, None] * mean
        return images, mean, (cov + cov.T) / 2.0

    def objective(z):
        eigs = np.linalg.eigvalsh(moments(z)[2])
        smallest = float(eigs[0])
        if smallest > barrier:
            return float((1.0 / eigs).sum()), smallest
        return d / max(smallest, 1e-18), smallest

    def gradient(z):
        images, mean, cov = moments(z)
        eigs, vecs = np.linalg.eigh(cov)
        if eigs[0] > barrier:
            weight = (vecs / eigs**2) @ vecs.T
        else:
            weight = d / max(eigs[0], 1e-18) ** 2 * np.outer(vecs[:, 0], vecs[:, 0])
        wirtinger = 2.0 * (weight @ mean) @ images - adjoint @ (weight @ images).ravel()
        return 2.0 * np.concatenate([wirtinger.real, wirtinger.imag])

    return objective, gradient


def _descend(z0, objective, gradient, max_iters, tolerance):
    """Projected gradient descent on the unit sphere with backtracking.

    Returns ``(z, value, lambda_min, trace)``; ``trace`` is the restart's
    entry in ``OptimizeResult.diagnostics["restarts"]``.
    """
    z = z0
    value, smallest = objective(z)
    for steps in range(max_iters + 1):
        grad = gradient(z)
        grad -= (grad @ z) * z  # tangent projection
        gnorm = float(np.linalg.norm(grad))
        if steps == max_iters:
            stop = "max_iters"
            break
        if gnorm < tolerance:
            stop = "tolerance"
            break
        step = min(1.0, 1.0 / gnorm)
        for _ in range(40):
            cand = z - step * grad
            cand /= np.linalg.norm(cand)
            cval, csmall = objective(cand)
            if cval < value - 1e-4 * step * gnorm * gnorm:
                z, value, smallest = cand, cval, csmall
                break
            step /= 2.0
        else:
            # no descent direction at line-search resolution; treat as converged
            stop = "line_search"
            break
    return z, value, smallest, {"iterations": steps, "gradient_norm": gnorm, "stop": stop}
