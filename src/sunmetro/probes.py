"""Named probe states and a direct search for low-bound probes.

All constructors return :class:`~sunmetro.metrology.ProbeState` objects on
the collective representation they live in, with amplitudes in the basis
order fixed by :func:`~sunmetro.representation.fock_basis` (descending
occupation tuples).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import (
    ConstraintError,
    InvalidElementError,
    InvalidStateError,
    OptimizationFailedError,
)
from .channel import _is_int, _number
from .metrology import (
    FIRST_ORDER_TOL,
    SECOND_ORDER_TOL,
    ProbeState,
    _gram,
    _pure_moments,
    _pure_rank_deficient,
    intrinsic_floor,
    pure_state,
)
from .representation import (
    DIMENSION_CAP,
    Representation,
    casimir,
    symmetric_sector,
)

OPTIMIZER_METHODS = ("gradient_descent_on_sphere",)

#: Covariance eigenvalues below this fraction of the isotropic value trip
#: the optimizer's barrier instead of entering Tr[C^(-1)].
BARRIER_CUTOFF = 1e-9

#: A restart that reaches Tr[C^(-1)] within this relative gap of the floor
#: d^2 / c2 is stopped and polished towards the floor's states.
FLOOR_GAP = 1e-6

#: Restarts within this relative gap of each other tie and the earliest wins:
#: those at a shared minimum differ by rounding (1.6e-12 relative on sym(2,5)).
RESTART_TIE = 1e-10

#: Gauss-Newton steps a polish may take.  Convergence is linear on the
#: degenerate minima of sym(3,5) and sym(4,5), at up to about 20 steps.
POLISH_STEPS = 40

#: The residual Jacobian is rank-deficient at the floor (rank 5 of 9 on
#: sym(2,4)); a step that keeps its smallest singular values walks away
#: from the solution, so those below this fraction of the largest are cut.
POLISH_RCOND = 1e-8

#: A polish stops once the residual is below this fraction of the
#: second-order grade's tolerances.
POLISH_MARGIN = 1e-2

# The descent's fixed settings, those of scipy's L-BFGS-B: correction pairs
# kept (maxcor), the strong-Wolfe constants of the line search (dcsrch's
# sufficient decrease and curvature) and evaluations per search (maxls).
_PAIRS = 10
_DECREASE = 1e-3
_CURVATURE = 0.9
_SEARCH_EVALS = 20


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

        ``n``, ``N``, ``k``, ``l`` and each occupation must be integers and the
        amplitudes numbers (``channel._number``), none of them booleans; the
        kind must be known and the fields it needs present.
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
                amplitudes = tuple(map(_parse_amplitude, amplitudes))
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidStateError(f"malformed probe field 'amplitudes': {exc}") from None
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
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(_number(entry[0]), _number(entry[1]))
    return complex(_number(entry))


def _superposition(rep: Representation, amplitudes: dict) -> ProbeState:
    # the pure state sum amplitude |occupation> over {occupation: amplitude}
    vec = np.zeros(rep.space_dim, dtype=complex)
    vec[rep.fock.rank(list(amplitudes))] = list(amplitudes.values())
    return pure_state(rep, vec)


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
        rep = symmetric_sector(n, particles, cap)
    elif rep.fock is None or (rep.fock.modes, rep.fock.particles) != (n, particles):
        raise InvalidStateError(f"{rep.label} is not symmetric({n}, {particles})")
    stretched = (tuple(particles if m == mode else 0 for m in range(n)) for mode in range(n))
    return _superposition(rep, dict.fromkeys(stretched, 1.0 / np.sqrt(n)))


def make_noon(particles: int, cap: int = DIMENSION_CAP) -> ProbeState:
    """Two-mode NOON state (|N0> + |0N>)/sqrt(2)."""
    return make_ghz(2, particles, cap=cap)


def make_tetrahedron_j2(cap: int = DIMENSION_CAP) -> ProbeState:
    """The spin-2 tetrahedron state (|2,2> + sqrt(2) |2,-1>)/sqrt(3).

    In occupation amplitudes on symmetric(2, 4): (|4,0> + sqrt(2) |1,3>)/sqrt(3).
    Its covariance is isotropic, so it attains the minimum of Tr[C^(-1)].
    """
    rep = symmetric_sector(2, 4, cap)
    return _superposition(rep, {(4, 0): 1.0 / np.sqrt(3.0), (1, 3): np.sqrt(2.0 / 3.0)})


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
    rep = symmetric_sector(3, 3 * k, cap)
    shifts = (tuple(base[(i - shift) % 3] for i in range(3)) for shift in range(3))
    return _superposition(rep, dict.fromkeys(shifts, 1.0 / np.sqrt(3.0)))


def make_fock(occupations, cap: int = DIMENSION_CAP) -> ProbeState:
    """Single occupation-number state |n_1, ..., n_modes>."""
    occ = tuple(occupations)
    if len(occ) < 2 or min(occ) < 0 or sum(occ) < 1:
        raise ConstraintError(f"invalid occupation list {occ}")
    return _superposition(symmetric_sector(len(occ), sum(occ), cap), {occ: 1.0})


def make_custom(n: int, particles: int, amplitudes, cap: int = DIMENSION_CAP) -> ProbeState:
    """Probe from explicit amplitudes in descending occupation order.

    The vector must be normalized to within 1e-6 (it is renormalized exactly;
    the loose tolerance admits round-tripped 12-digit serializations).
    """
    rep = symmetric_sector(n, particles, cap)
    vec = np.asarray(list(amplitudes), dtype=complex)
    if vec.shape != (rep.space_dim,):
        raise InvalidStateError(
            f"expected {rep.space_dim} amplitudes for {rep.label}, got {vec.shape[0]}"
        )
    if not np.isfinite(vec).all():
        raise InvalidStateError("amplitudes must be finite")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
        norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-6:
        raise InvalidStateError(f"amplitudes have norm {norm!r}, expected 1 within 1e-6")
    return pure_state(rep, vec / norm)


#: Probe kind -> (constructor taking the spec and the dimension cap, fields
#: the kind needs).
_PROBE_KINDS = {
    "ghz": (lambda s, cap: make_ghz(s.n, s.particles, cap=cap), ("n", "particles")),
    "noon": (lambda s, cap: make_noon(s.particles, cap=cap), ("particles",)),
    "tetrahedron_j2": (lambda s, cap: make_tetrahedron_j2(cap=cap), ()),
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

    ``seed`` is mandatory and non-negative; there is no silent time-based
    fallback.  Each restart is an L-BFGS descent with the analytic gradient
    of the scale-invariant objective: ``max_iters`` bounds its steps and
    ``tolerance`` the largest gradient component it stops at.
    """

    restarts: int = 20
    max_iters: int = 400
    tolerance: float = 1e-6
    seed: int | None = None

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1 or self.tolerance <= 0:
            raise ValueError("restarts, max_iters must be >= 1 and tolerance > 0")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_json(cls, doc: dict) -> "OptimizerConfig":
        """Parse a config object; a malformed one raises InvalidElementError.

        ``restarts``, ``max_iters`` and ``seed`` must be integers (not
        booleans; ``seed`` may be null), ``tolerance`` a finite positive
        number; ``method``, the name kept for existing configs, no other than
        "gradient_descent_on_sphere".
        """
        if not isinstance(doc, dict):
            raise InvalidElementError(
                f"optimizer config must be a JSON object, got {type(doc).__name__}"
            )
        known = {f: doc[f] for f in ("restarts", "max_iters", "tolerance", "seed") if f in doc}
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
        if doc.get("method", OPTIMIZER_METHODS[0]) not in OPTIMIZER_METHODS:
            raise InvalidElementError(
                f"optimizer config: unknown method {doc['method']!r}, options: {OPTIMIZER_METHODS}"
            )
        try:
            return cls(**known)
        except ValueError as exc:
            raise InvalidElementError(f"optimizer config: {exc}") from None


@dataclass(frozen=True)
class OptimizeResult:
    """Best probe found, its bound, and the unbeatable floor d^2/(4 c2).

    ``diagnostics["restarts"]`` holds one trace per restart run:
    ``iterations`` (the descent's steps), ``gradient_norm`` (the largest
    component of the final gradient of f(z / |z|), the figure the descent
    compares with ``tolerance``) and ``stop``: "floor" (the descent was
    stopped near the floor and the state polished to one unpolarized to
    second order, which sits on the floor and so is a global minimum; the
    restart counts as converged, is the last one run, and its iterations
    and gradient norm are read where the descent was stopped), "max_iters"
    (the iteration limit was reached; the restart counts as not converged),
    "tolerance" (the gradient norm is at most ``tolerance``), "line_search"
    (the descent stopped before either, on a line search that found no
    lower point, even along the steepest descent) or "singular" (the
    restart ended in the barrier region and was discarded).
    """

    state: ProbeState
    bound_achieved: float
    floor: float
    converged: bool
    diagnostics: dict


def optimize_probe(rep: Representation, config: OptimizerConfig) -> OptimizeResult:
    """Minimize Tr[C^(-1)] over pure states of ``rep`` from random restarts.

    Each restart minimizes the scale-invariant objective f(z / |z|) over
    real-and-imaginary stacked amplitude vectors z by L-BFGS
    (:func:`_lbfgs`, numpy only, with the fixed settings of scipy's
    L-BFGS-B) with the analytic gradient: one evaluation of the moments and
    one ``eigh`` of C per evaluation, and two sparse products with the
    generator stack.  It stops on a gradient at most ``tolerance``, after
    ``max_iters`` iterations or on a stalled line search.  A barrier
    replaces Tr[C^(-1)] on near-singular covariances.

    Tr[C^(-1)] >= d^2 / c2 for every pure state, with equality exactly when
    the mean vanishes and C = (c2/d) I.  The descent stops as soon as Tr[C^(-1)]
    comes within ``FLOOR_GAP`` of that floor, and the state is polished by
    Gauss-Newton on those two conditions.  If the polish certifies its
    result (see :func:`_polish`), the state is a global minimum: the
    restart stops as "floor" and no further restart runs.  If not, the
    restart runs again from its start without the gap test, so its result
    is the one the descent alone gives.
    Deterministic for a fixed seed and config: restarts are merged by
    objective, and of those within ``RESTART_TIE`` of each other (relative)
    the earliest wins.

    Raises
    ------
    OptimizationFailedError
        When no restart escapes the singular region.  A pure C has rank at
        most 2(D - 1), so where that is below d (every N = 1 sector) every
        restart would end there: the error is raised before the first
        restart runs, with ``singular_restarts`` equal to ``restarts``.
    """
    if config.seed is None:
        raise ValueError("optimizer seed is required for reproducibility")
    if _pure_rank_deficient(rep):
        # every restart would end in the barrier region
        raise _all_singular(rep, config.restarts)
    d = rep.basis.dim
    dim = rep.space_dim
    floor = intrinsic_floor(rep)
    barrier = BARRIER_CUTOFF * casimir(rep) / d
    objective, value_and_gradient = _objective_and_gradient(rep, barrier)
    descend = partial(
        _lbfgs, value_and_gradient, max_iters=config.max_iters, tolerance=config.tolerance
    )
    gap = 4.0 * floor * (1.0 + FLOOR_GAP)

    rng = np.random.default_rng(config.seed)
    best = None
    singular_restarts = 0
    traces = []
    for restart in range(config.restarts):
        z0 = rng.standard_normal(2 * dim)
        z0 /= np.linalg.norm(z0)
        z, gnorm, iterations, stop = descend(z0, gap=gap)
        if stop == "floor":
            polished, certified = _polish(rep, z / np.linalg.norm(z))
            if certified:
                # on the floor, so no other restart can do better
                traces.append({"iterations": iterations, "gradient_norm": gnorm, "stop": "floor"})
                best = (polished, objective(polished)[0], True, restart)
                break
            # not certified: the restart runs again as if there were no gap
            z, gnorm, iterations, stop = descend(z0)
        z = z / np.linalg.norm(z)
        value, smallest = objective(z)
        trace = {"iterations": iterations, "gradient_norm": gnorm, "stop": stop}
        if smallest <= barrier:
            singular_restarts += 1
            traces.append({**trace, "stop": "singular"})
            continue
        traces.append(trace)
        if best is None or value < best[1] * (1.0 - RESTART_TIE):
            best = (z, value, stop != "max_iters", restart)
    if best is None:
        raise _all_singular(rep, config.restarts)
    z, value, converged, which = best
    return OptimizeResult(
        state=_unit_state(rep, z),
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


def _all_singular(rep: Representation, restarts: int) -> OptimizationFailedError:
    return OptimizationFailedError(
        f"all {restarts} restarts stayed in the singular region of {rep.label}",
        diagnostics={"singular_restarts": restarts, "space_dim": rep.space_dim},
    )


def _unit_state(rep: Representation, z: np.ndarray) -> ProbeState:
    dim = rep.space_dim
    return pure_state(rep, canonical_phase(z[:dim] + 1j * z[dim:]))


def _moments(rep: Representation, z: np.ndarray):
    """Images Y_a = X_a psi, mean m and covariance C of psi = z / |z|."""
    dim = z.size // 2
    images, mean, centred = _pure_moments(rep, (z[:dim] + 1j * z[dim:]) / math.sqrt(z @ z))
    return images, mean, _gram(centred)


def _objective_and_gradient(rep: Representation, barrier: float):
    """The optimizer's objective, alone and with its analytic gradient, on ``rep``.

    Both take a real vector z = [Re psi; Im psi] and read the unit state
    psi = z / |z|.  ``objective(z)`` returns ``(value, lambda_min)``: value
    is Tr[C^(-1)], or the barrier d / lambda_min once the smallest
    covariance eigenvalue lambda_min is at or below ``barrier``.
    ``value_and_gradient(z)`` returns that value and its gradient as a
    function of z from one evaluation of the moments: the real gradient g
    with respect to the unit [Re psi; Im psi], projected on the sphere's
    tangent space at z and divided by |z|.  Each call makes one ``eigh``
    of C, which gives the value, lambda_min and the gradient's weight.

    With images Y_a = X_a psi, means m and G = C^(-2) (in the barrier branch
    G = (d / lambda_min^2) v v^T for the lowest eigenvector v), the
    Wirtinger derivative is -sum_a X_a (G Y)_a + 2 (G m) . Y: one product
    with the sparse stack for Y and one with its transpose for the sum
    (:meth:`~sunmetro.representation.Representation.adjoint_sum`).
    """
    d = rep.basis.dim

    def spectral(cov):
        eigs, vecs = np.linalg.eigh(cov)
        smallest = float(eigs[0])
        if smallest > barrier:
            return float((1.0 / eigs).sum()), smallest, (vecs / eigs**2) @ vecs.T
        floor = max(smallest, 1e-18)
        return d / floor, smallest, d / floor**2 * np.outer(vecs[:, 0], vecs[:, 0])

    def objective(z):
        return spectral(_moments(rep, z)[2])[:2]

    def value_and_gradient(z):
        images, mean, cov = _moments(rep, z)
        value, _, weight = spectral(cov)
        wirtinger = 2.0 * (weight @ mean) @ images - rep.adjoint_sum(weight @ images)
        grad = 2.0 * np.concatenate([wirtinger.real, wirtinger.imag])
        norm = math.sqrt(z @ z)
        unit = z / norm
        return value, (grad - (grad @ unit) * unit) / norm

    return objective, value_and_gradient


def _lbfgs(value_and_gradient, z, max_iters: int, tolerance: float, gap: float = -math.inf):
    """Minimize from z by L-BFGS (Liu and Nocedal, Math. Prog. 45, 503 (1989)).

    ``value_and_gradient(z)`` returns f(z) and its gradient.  Each step runs
    along the two-loop direction from the last ``_PAIRS`` pairs (s, y) whose
    s^T y > eps y^T y, the first from 1 / |g| along -g and every later one
    from 1, to a strong-Wolfe point (:func:`_wolfe_step`).  A search that
    fails drops the pairs and tries again along -g, as L-BFGS-B does.

    Returns ``(z, gradient_norm, iterations, stop)``: the last iterate, the
    largest component of its gradient, the steps taken, and why the descent
    stopped, tested in this order after each step: "floor" (f <= ``gap``),
    "max_iters" (``max_iters`` steps), "tolerance" (gradient norm <=
    ``tolerance``, also tested at the start) or "line_search" (a search
    along -g failed; z is then the point it left).  A step is taken only
    where f is strictly lower, so L-BFGS-B's stop on a step that does not
    lower f is this one.
    """
    value, grad = value_and_gradient(z)
    gnorm = float(np.abs(grad).max())
    if gnorm <= tolerance:
        return z, gnorm, 0, "tolerance"
    pairs = deque(maxlen=_PAIRS)
    iterations = 0
    while True:
        direction = _direction(grad, pairs)
        step = 1.0 if iterations else 1.0 / np.linalg.norm(direction)
        found = _wolfe_step(value_and_gradient, z, value, grad @ direction, direction, step)
        if found is None:
            if not pairs:
                return z, gnorm, iterations, "line_search"
            pairs.clear()
            continue
        s, y = found[0] - z, found[2] - grad
        if s @ y > np.finfo(float).eps * (y @ y):
            pairs.append((s, y, 1.0 / (s @ y)))
        z, value, grad = found
        gnorm = float(np.abs(grad).max())
        iterations += 1
        for stop, met in (
            ("floor", value <= gap),
            ("max_iters", iterations >= max_iters),
            ("tolerance", gnorm <= tolerance),
        ):
            if met:
                return z, gnorm, iterations, stop


def _direction(grad: np.ndarray, pairs) -> np.ndarray:
    """-H grad by the two-loop recursion, H0 = (s^T y / y^T y) I of the newest pair."""
    q = -grad
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q = q - alphas[-1] * y
    if pairs:
        s, y, rho = pairs[-1]
        q = q / (rho * (y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - rho * (y @ q)) * s
    return q


def _wolfe_step(value_and_gradient, z, value, slope, direction, step):
    """A point z + t direction that meets the strong Wolfe conditions.

    Starts from t = ``step`` (``value`` and ``slope`` are f and its
    directional derivative at t = 0), extrapolates by 4 until the minimum is
    bracketed, then shrinks the bracket by safeguarded cubic interpolation.
    Returns ``(point, value, gradient)``, or None when ``slope`` is not
    negative or ``_SEARCH_EVALS`` evaluations find no such point.
    """
    if not slope < 0.0:
        return None
    lo, hi = (0.0, value, slope), None
    for _ in range(_SEARCH_EVALS):
        point = z + step * direction
        f, grad = value_and_gradient(point)
        trial = (step, f, float(grad @ direction))
        if not f <= value + _DECREASE * step * slope or f >= lo[1]:
            hi = trial
        elif abs(trial[2]) <= -_CURVATURE * slope:
            return point, f, grad
        else:
            if trial[2] * (step - lo[0]) >= 0.0:  # f rises beyond the trial
                hi = lo
            lo = trial
        if hi is None:
            step = 4.0 * step
        else:
            step = _cubic_step(lo, hi)
            if step in (lo[0], hi[0]):  # the bracket is below rounding
                return None
    return None


def _cubic_step(lo, hi) -> float:
    """The minimizer of the cubic through the bracket's ends (t, f, f'),
    kept within its middle 80 per cent."""
    (a, fa, da), (b, fb, db) = lo, hi
    width = b - a
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    frac = 0.5
    if disc >= 0.0:
        d2 = math.copysign(math.sqrt(disc), width)
        denom = db - da + 2.0 * d2
        if denom != 0.0:
            frac = 1.0 - (db + d2 - d1) / denom
    if not math.isfinite(frac):
        frac = 0.5
    return a + min(max(frac, 0.1), 0.9) * width


def _isotropy_residual(rep: Representation):
    """The residual whose zeros are the floor's states, and its Jacobian.

    ``residual_and_jacobian(z)`` returns r = (m, upper triangle of
    C - (c2/d) I) at psi = z / |z|, and dr/dz.  With Y = F psi and
    W[a, :, b] = X_a Y_b (one product F Y^T), the derivatives with respect
    to the unit [Re psi; Im psi] are dm_a = 2 [Re Y_a; Im Y_a],
    dG_ab = [Re; Im] (W_ab + W_ba) and dC_ab = dG_ab - m_a dm_b - m_b dm_a;
    like the gradient, they are projected on the tangent space at z and
    divided by |z|.
    """
    d = rep.basis.dim
    rows, cols = np.triu_indices(d)
    target = np.where(rows == cols, casimir(rep) / d, 0.0)

    def residual_and_jacobian(z):
        images, mean, cov = _moments(rep, z)
        pairs = rep.images(images.T)
        dmean = 2.0 * np.concatenate([images.real, images.imag], axis=1)
        sums = pairs[rows, :, cols] + pairs[cols, :, rows]
        dgram = np.concatenate([sums.real, sums.imag], axis=1)
        dcov = dgram - mean[rows, None] * dmean[cols] - mean[cols, None] * dmean[rows]
        jac = np.vstack([dmean, dcov])
        norm = math.sqrt(z @ z)
        unit = z / norm
        jac = (jac - np.outer(jac @ unit, unit)) / norm
        return np.concatenate([mean, cov[rows, cols] - target]), jac

    return residual_and_jacobian


def _polish(rep: Representation, z: np.ndarray) -> tuple[np.ndarray, bool]:
    """Gauss-Newton from the unit vector z towards m = 0, C = (c2/d) I.

    Stops once the residual is well inside the second-order grade's
    tolerances, or after ``POLISH_STEPS`` steps; returns the last unit
    iterate and its certificate, whether its residual is within those
    tolerances.  Each step is the minimum-norm least-squares solution with
    the Jacobian's rank cut at ``POLISH_RCOND`` (numpy's SVD-based lstsq).
    """
    d = rep.basis.dim
    residual_and_jacobian = _isotropy_residual(rep)
    for steps in range(POLISH_STEPS + 1):
        res, jac = residual_and_jacobian(z)
        mean, spread = np.linalg.norm(res[:d]), np.abs(res[d:]).max()
        if steps == POLISH_STEPS or (
            mean < POLISH_MARGIN * FIRST_ORDER_TOL and spread < POLISH_MARGIN * SECOND_ORDER_TOL
        ):
            return z, bool(mean < FIRST_ORDER_TOL and spread < SECOND_ORDER_TOL)
        step = np.linalg.lstsq(jac, -res, rcond=POLISH_RCOND)[0]
        z = z + step
        z = z / np.linalg.norm(z)
