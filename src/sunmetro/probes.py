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
from .channel import _is_int
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
        """Parse a probe document; a malformed one raises InvalidStateError.

        ``n``, ``N``, ``k``, ``l`` and each occupation must be integers (not
        booleans), the kind must be known and the fields it needs present.
        """
        if not isinstance(doc, dict) or "kind" not in doc:
            raise InvalidStateError("probe document needs a 'kind' field")
        for key in ("n", "N", "k", "l"):
            value = doc.get(key)
            if value is not None and not _is_int(value):
                raise InvalidStateError(f"probe field {key!r} must be an integer, got {value!r}")
        occupations = doc.get("occupations")
        if occupations is not None:
            if not isinstance(occupations, (list, tuple)) or not all(map(_is_int, occupations)):
                raise InvalidStateError(
                    f"probe field 'occupations' must be a list of integers, got {occupations!r}"
                )
            occupations = tuple(occupations)
        amplitudes = doc.get("amplitudes")
        if amplitudes is not None:
            try:
                amplitudes = tuple(_parse_amplitude(a) for a in amplitudes)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidStateError(f"malformed probe document: {exc}") from None
        spec = cls(
            kind=str(doc["kind"]),
            n=doc.get("n"),
            particles=doc.get("N"),
            k=doc.get("k"),
            l=doc.get("l"),
            amplitudes=amplitudes,
            occupations=occupations,
        )
        _constructor(spec)
        return spec


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
    occ = tuple(occupations)
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


#: Probe kind -> (constructor taking the spec and the dimension cap, fields
#: the kind needs).
_PROBE_KINDS = {
    "ghz": (lambda s, cap: make_ghz(s.n, s.particles, cap=cap), ("n", "particles")),
    "noon": (lambda s, cap: make_noon(s.particles, cap=cap), ("particles",)),
    "tetrahedron_j2": (lambda s, cap: make_tetrahedron_j2(), ()),
    "su3_cyclic": (lambda s, cap: make_su3_cyclic(s.k, s.l, cap=cap), ("k", "l")),
    "fock": (lambda s, cap: make_fock(s.occupations, cap=cap), ("occupations",)),
    "custom": (
        lambda s, cap: make_custom(s.n, s.particles, s.amplitudes, cap=cap),
        ("n", "particles", "amplitudes"),
    ),
}


def _constructor(spec: ProbeSpec):
    """The constructor for ``spec``; raises InvalidStateError for an unknown
    kind or a missing field."""
    if spec.kind not in _PROBE_KINDS:
        raise InvalidStateError(f"unknown probe kind {spec.kind!r}")
    construct, fields = _PROBE_KINDS[spec.kind]
    missing = [f for f in fields if getattr(spec, f) is None]
    if missing:
        raise InvalidStateError(f"probe kind {spec.kind!r} needs fields {missing}")
    return construct


def build_probe(spec: ProbeSpec, cap: int = DIMENSION_CAP) -> ProbeState:
    """Construct the probe a :class:`ProbeSpec` describes."""
    return _constructor(spec)(spec, cap)


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
    ``method`` "gradient_descent_on_sphere" runs L-BFGS-B with the analytic
    gradient of the scale-invariant objective (the name predates it and is
    kept for existing configs); "simplex" runs Nelder-Mead.
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


@dataclass(frozen=True)
class OptimizeResult:
    """Best probe found, its bound, and the unbeatable floor d^2/(4 c2).

    ``diagnostics["restarts"]`` holds one trace per restart: ``iterations``
    (scipy's iteration count), ``gradient_norm`` (the largest component of
    the final gradient of f(z / |z|), the figure L-BFGS-B compares with
    ``tolerance``; None for the simplex method) and ``stop``.  For the
    default method, L-BFGS-B, ``stop`` is "max_iters" (the iteration or
    evaluation limit was reached; the restart counts as not converged),
    "tolerance" (the gradient norm is below ``tolerance``) or
    "line_search" (scipy stopped before either, e.g. on a line search that
    found no descent).  "simplex" marks a Nelder-Mead
    restart, and "singular" a restart that ended in the barrier region and
    was discarded.
    """

    state: ProbeState
    bound_achieved: float
    floor: float
    converged: bool
    diagnostics: dict


def optimize_probe(rep: Representation, config: OptimizerConfig) -> OptimizeResult:
    """Minimize Tr[C^(-1)] over pure states of ``rep`` from random restarts.

    Each restart minimizes the scale-invariant objective f(z / |z|) over
    real-and-imaginary stacked amplitude vectors z with
    ``scipy.optimize.minimize``: L-BFGS-B with the analytic gradient (two
    sparse products with the generator stack per evaluation), stopping on a
    gradient below ``tolerance``, after ``max_iters`` iterations or on a
    stalled line search; or Nelder-Mead for ``method="simplex"``.  A
    barrier replaces Tr[C^(-1)] on near-singular covariances.
    Deterministic for a fixed seed and config: restarts are merged by
    objective with ties broken by restart index.

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
    if config.method == "simplex":
        method, jac = "Nelder-Mead", None
        options = {
            "maxiter": config.max_iters * 2 * dim,
            "xatol": config.tolerance,
            "fatol": config.tolerance,
        }
    else:
        method, jac = "L-BFGS-B", gradient
        options = {"maxiter": config.max_iters, "gtol": config.tolerance, "ftol": 0.0}

    rng = np.random.default_rng(config.seed)
    best = None
    singular_restarts = 0
    traces = []
    for restart in range(config.restarts):
        z0 = rng.standard_normal(2 * dim)
        z0 /= np.linalg.norm(z0)
        res = minimize(lambda z: objective(z)[0], z0, method=method, jac=jac, options=options)
        z = res.x / np.linalg.norm(res.x)
        value, smallest = objective(z)
        if config.method == "simplex":
            converged = bool(res.success)
            trace = {"iterations": int(res.nit), "gradient_norm": None, "stop": "simplex"}
        else:
            gnorm = float(np.abs(res.jac).max())
            if res.status == 1:
                stop = "max_iters"
            else:
                stop = "tolerance" if gnorm < config.tolerance else "line_search"
            converged = stop != "max_iters"
            trace = {"iterations": int(res.nit), "gradient_norm": gnorm, "stop": stop}
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
    psi = canonical_phase(z[:dim] + 1j * z[dim:])
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
    ``gradient(z)`` is the gradient of that value as a function of z: the
    real gradient g with respect to the unit [Re psi; Im psi], projected on
    the sphere's tangent space at z and divided by |z|.

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
        grad = 2.0 * np.concatenate([wirtinger.real, wirtinger.imag])
        norm = math.sqrt(z @ z)
        unit = z / norm
        return (grad - (grad @ unit) * unit) / norm

    return objective, gradient
