"""Generator covariances, information matrices, and estimation bounds.

For a probe state and a parametrized SU(n) channel, the attainable precision
of a joint parameter estimate is governed by the information matrix

    Q = 4 𝗛 C 𝗛^T,

where C is the covariance of the collective generators in the probe, a real
Gram matrix, and 𝗛 holds the channel's generator rows.  Figures of merit are
Tr[W Q^(-1)] for a weight matrix W.  Choosing W equal to the pulled-back
metric g = 𝗛 𝗛^T makes the chart drop out entirely:

    Tr[g Q^(-1)] = (1/4) Tr[C^(-1)],

a parametrization-independent property of the probe alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import structure_constants
from .channel import (
    CONDITION_THRESHOLD,
    GeneratorMatrix,
    Parametrization,
    generators_closed_form,
)
from .exceptions import (
    InvalidElementError,
    InvalidStateError,
    SingularCovarianceError,
    SingularInformationError,
)
from .representation import Representation, casimir

#: Eigenvalue-pair support cutoff in the mixed-state covariance kernel.
SUPPORT_CUTOFF = 1e-12

#: Mean-vector norm below which a probe counts as first-order unpolarized.
FIRST_ORDER_TOL = 1e-10

#: Max deviation of C from its isotropic value for second-order unpolarized.
SECOND_ORDER_TOL = 1e-8

#: Commutator-expectation threshold for joint saturability.
SATURATION_TOL = 1e-10


@dataclass(frozen=True)
class ProbeState:
    """A pure or mixed state carried by a concrete representation.

    Exactly one of ``vector`` (unit norm) and ``density`` (unit trace,
    positive semidefinite) is set; the state keeps a read-only copy of it.
    """

    rep: Representation
    vector: np.ndarray | None = None
    density: np.ndarray | None = None

    def __post_init__(self):
        if (self.vector is None) == (self.density is None):
            raise InvalidStateError("provide exactly one of vector and density")
        for name in ("vector", "density"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.array(arr, dtype=complex)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    @cached_property
    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(lambda, P) with rho = P diag(lambda) P^dagger, computed once."""
        return np.linalg.eigh((self.density + self.density.conj().T) / 2.0)

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean m and covariance C, read-only, from one product with the stack:
        F psi, or F P_s (see :func:`covariance`).  Nothing else is kept.
        """
        if self.is_pure:
            _, mean, rows = _pure_moments(self.rep, self.vector)
        else:
            lam, p = self._eigensystem
            support = lam > SUPPORT_CUTOFF / 2.0
            xt = p.conj().T @ self.rep.images(p[:, support])
            mean = (xt[:, support, :].diagonal(axis1=1, axis2=2) @ lam[support]).real
            lam_u, lam_v = lam[:, None], lam[support][None, :]
            pair_sum = lam_u + lam_v
            kernel = np.zeros_like(pair_sum)
            np.divide((lam_u - lam_v) ** 2, pair_sum, out=kernel, where=pair_sum > SUPPORT_CUTOFF)
            # a pair inside the support appears in both orders; one with u outside
            # it appears once and stands for both
            kernel[support] /= 2.0
            rows = np.multiply(xt, np.sqrt(kernel), out=xt)
        cov = _gram(rows)
        mean.setflags(write=False)
        cov.setflags(write=False)
        return mean, cov


def pure_state(rep: Representation, vector) -> ProbeState:
    """Wrap an amplitude vector, unit norm within 1e-12, as a probe on ``rep``."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.shape != (rep.space_dim,):
        raise InvalidStateError(
            f"expected {rep.space_dim} amplitudes for {rep.label}, got {v.shape[0]}"
        )
    if not np.all(np.isfinite(v.view(float))):
        raise InvalidStateError("amplitudes must be finite")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-12:
        raise InvalidStateError(f"state norm {norm!r} deviates from 1 beyond 1e-12")
    return ProbeState(rep=rep, vector=v)


def mixed_state(rep: Representation, density) -> ProbeState:
    """Wrap a density matrix as a probe on ``rep``."""
    rho = np.asarray(density, dtype=complex)
    d = rep.space_dim
    if rho.shape != (d, d):
        raise InvalidStateError(f"expected a ({d}, {d}) density matrix, got {rho.shape}")
    # the tests below are False for NaN, so non-finite entries would pass them
    if not np.isfinite(rho).all():
        raise InvalidStateError("density matrix has non-finite entries")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise InvalidStateError("density matrix is not Hermitian within 1e-12")
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        raise InvalidStateError("density matrix trace deviates from 1 beyond 1e-12")
    state = ProbeState(rep=rep, density=rho)
    # the eigensystem the covariance reads, so rho is decomposed once
    if np.min(state._eigensystem[0]) < -1e-10:
        raise InvalidStateError("density matrix has a negative eigenvalue")
    return state


def _gram(b: np.ndarray) -> np.ndarray:
    # every C: Re<b_a|b_c> = A A^T, A the real view of complex b; one syrk, so exactly symmetric
    a = b.reshape(len(b), -1).view(float)
    return a @ a.T


def _pure_moments(rep: Representation, psi: np.ndarray):
    # Y_a = X_a psi, m_a = <psi|Y_a> and V_a = Y_a - m_a psi, whose Gram is C, of a unit psi
    images = rep.images(psi)
    mean = (images @ psi.conj()).real
    centred = np.multiply.outer(mean, -psi)  # in V's own buffer, so no third (d, D) array
    centred += images
    return images, mean, centred


def covariance(state: ProbeState) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance of a pure or mixed state, read-only and computed once:
    the state keeps them.

    For a pure state, [C]_jk = (1/2) <X_j X_k + X_k X_j> - <X_j> <X_k> = Re <V_j|V_k>,
    one real Gram of V_a = (X_a - <X_a>) psi.  Its trace is the quadratic
    invariant minus |<X>|^2.

    For a mixed state, in the eigenbasis rho = sum_u lambda_u |u><u|,

        [C]_jk = (1/2) sum_uv ((lambda_u - lambda_v)^2 / (lambda_u + lambda_v))
                 <u|X_j|v><v|X_k|u>,

    with eigenvalue pairs of weight lambda_u + lambda_v at most
    ``SUPPORT_CUTOFF`` dropped.  Such a pair has no eigenvalue above
    ``SUPPORT_CUTOFF / 2``, so the matrix elements are read from the stack F
    as P^dagger (F P_s) for the eigenvectors P_s above that, d D r entries
    for a state of that rank r; the mean sums over the same eigenvectors.
    For a rank-one density matrix this reduces to the pure-state C; for the
    maximally mixed state it vanishes.  C is the real Gram of the weighted
    elements sqrt(K_uv) <u|X_j|v>, with K_uv the kernel above.
    """
    return state._moments


def _inverse_trace(matrix: np.ndarray, weight: np.ndarray | None = None):
    """Tr[W M^(-1)] of an exactly symmetric M, None when M is singular, and M's
    rank and condition number, all from one decomposition of M.

    Without a weight W is the identity and the eigenvalues alone give
    sum_i 1 / lambda_i; with one, M = V diag(lambda) V^T gives
    sum_i (V^T W V)_ii / lambda_i.  M is read as it is, with no d x d copy.
    """
    if weight is None:
        eigs = np.linalg.eigvalsh(matrix)
    else:
        eigs, vecs = np.linalg.eigh(matrix)
    rank, cond = _rank_and_condition(eigs)
    if rank < len(matrix):
        return None, rank, cond
    if weight is None:
        return float(np.sum(1.0 / eigs)), rank, cond
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.sum((vecs * (weight @ vecs)).sum(axis=0) / eigs))
    if not np.isfinite(value):
        raise InvalidElementError(
            f"the weighted bound Tr[W Q^-1] overflows: weight entries up to "
            f"{np.abs(weight).max():.3e} against Q's smallest eigenvalue {eigs[0]:.3e}"
        )
    return value, rank, cond


def _rank_and_condition(eigs: np.ndarray) -> tuple[int, float]:
    # the number of eigenvalues above CONDITION_THRESHOLD's fraction of the
    # largest magnitude, and largest / smallest (inf unless all are positive)
    top = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    rank, cond = 0, np.inf
    if top > 0.0:
        rank = int(np.sum(eigs > top / CONDITION_THRESHOLD))
        smallest = float(np.min(eigs))
        cond = top / smallest if smallest > 0.0 else np.inf
    return rank, cond


def _pure_rank_deficient(rep: Representation) -> bool:
    """Whether every pure state of ``rep`` has a singular C.

    The vectors V_a = (X_a - m_a) psi lie in the 2(D - 1)-dimensional real
    complement of psi, so rank C <= 2(D - 1), which is below d on every
    N = 1 sector.
    """
    return 2 * (rep.space_dim - 1) < rep.basis.dim


def _pure_rank(state: ProbeState) -> int:
    """Numerical rank of a pure state's C without decomposing the d x d C.

    C = A A^T for the d x 2D real view A of V_a = (X_a - m_a) psi (see
    :func:`_gram`), so the 2D x 2D Gram A^T A has C's non-zero spectrum; its
    rank is read at ``_inverse_trace``'s threshold.  The state keeps no V, so
    it comes from one more product with the stack; the report asks only where
    2(D - 1) < d, every N = 1 sector.
    """
    a = _pure_moments(state.rep, state.vector)[2].view(float)
    return _rank_and_condition(np.linalg.eigvalsh(a.T @ a))[0]


def qfim(gm: GeneratorMatrix, cov: np.ndarray) -> np.ndarray:
    """Information matrix Q = 4 𝗛 C 𝗛^T for generator rows 𝗛 and covariance C."""
    c = np.asarray(cov, dtype=float)
    h = gm.hmat
    if c.shape != (h.shape[1], h.shape[1]):
        raise InvalidElementError(
            f"covariance shape {c.shape} does not match {h.shape[1]} generators"
        )
    q = 4.0 * h @ c @ h.T
    return (q + q.T) / 2.0


def _covariance_error(rank: int, size: int, cond: float) -> SingularCovarianceError:
    return SingularCovarianceError(
        f"covariance has numerical rank {rank} < {size}: "
        "not every parameter direction is estimable",
        rank=rank,
        condition_number=cond,
    )


def _information_error(rank: int, size: int, cond: float) -> SingularInformationError:
    return SingularInformationError(
        f"information matrix has numerical rank {rank} < {size}",
        rank=rank,
        condition_number=cond,
    )


def _check_weight(weight, shape: tuple) -> np.ndarray:
    # a weight must be a finite symmetric positive definite matrix of Q's shape
    w = np.asarray(weight, dtype=float)
    if w.shape != shape or w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidElementError(f"weight shape {w.shape} does not match Q {shape}")
    if not np.all(np.isfinite(w)):
        raise InvalidElementError("weight matrix has non-finite entries")
    with np.errstate(over="raise"):
        try:
            if np.max(np.abs(w - w.T)) > 1e-10 * max(1.0, float(np.max(np.abs(w)))):
                raise InvalidElementError("weight matrix is not symmetric")
            if np.min(np.linalg.eigvalsh((w + w.T) / 2.0)) <= 0.0:
                raise InvalidElementError("weight matrix is not positive definite")
        except FloatingPointError:
            raise InvalidElementError("weight matrix entries overflow its checks") from None
    return w


def intrinsic_bound(cov: np.ndarray) -> float:
    """Chart-independent scalar bound (1/4) Tr[C^(-1)] of a probe covariance.

    Raises
    ------
    SingularCovarianceError
        If C is rank deficient at ``CONDITION_THRESHOLD``: some generator
        direction carries no signal, so not every parameter is estimable.
    """
    c = np.asarray(cov, dtype=float)
    value, rank, cond = _inverse_trace((c + c.T) / 2.0)
    if value is None:
        raise _covariance_error(rank, c.shape[0], cond)
    return 0.25 * value


def intrinsic_floor(rep: Representation) -> float:
    """The floor d^2 / (4 c2) of :func:`intrinsic_bound` on ``rep``, since Tr C <= c2."""
    d = rep.basis.dim
    return d * d / (4.0 * casimir(rep))


def weighted_bound(weight: np.ndarray, qfim_matrix: np.ndarray) -> float:
    """Scalar lower bound Tr[W Q^(-1)] on the weighted estimation error.

    Evaluated from one eigendecomposition of Q; Q is never inverted
    explicitly.  With W equal to the pulled-back metric this reproduces
    :func:`intrinsic_bound` whenever Q is regular.

    Raises
    ------
    SingularInformationError
        If Q is rank deficient at ``CONDITION_THRESHOLD``.
    InvalidElementError
        If W is not a finite symmetric positive definite matrix of Q's
        shape, or if Tr[W Q^(-1)] overflows.
    """
    q = np.asarray(qfim_matrix, dtype=float)
    w = _check_weight(weight, q.shape)  # first: a non-square Q fails here, not in q + q.T
    value, rank, cond = _inverse_trace((q + q.T) / 2.0, w)
    if value is None:
        raise _information_error(rank, q.shape[0], cond)
    return value


def saturation_check(state: ProbeState, gm: GeneratorMatrix | None = None) -> bool:
    """Whether all commutator expectations <[H_j, H_k]> vanish on the probe.

    Vanishing expectations mean the scalar bound is jointly attainable.  They
    are i 𝗛 ad(m) 𝗛^T through a chart's rows (see :func:`_commutator_expectations`),
    which scale with the rows, so only m = 0 passes for every chart.  Without
    ``gm`` they are i ad(m); su(n) has no centre, so ad(m) = 0 exactly when
    m = 0, and the check reads |m| < ``SATURATION_TOL`` with no structure
    constants.  Every |ad(m)_jk| <= |m|, as sum_l f_jkl^2 <= 1 in an orthonormal basis.
    """
    if gm is None:
        return bool(np.linalg.norm(state._moments[0]) < SATURATION_TOL)
    expectations = _commutator_expectations(state, gm)
    return float(max(expectations.max(), -expectations.min())) < SATURATION_TOL


def _commutator_expectations(state: ProbeState, gm: GeneratorMatrix) -> np.ndarray:
    # <[H_j, H_k]> / i through a chart's rows: every representation passed its
    # commutator check, so <[X_j, X_k]> = i sum_l f_jkl m_l = i ad(m)_jk in any
    # state, pure or mixed, and the chart gives 𝗛 ad(m) 𝗛^T; ad(m)_jk sums
    # over the pair's run of constants in upper, sorted by (j, k)
    j, k, l, f = structure_constants(state.rep.basis).upper
    first = np.flatnonzero(np.concatenate(([True], (j[1:] != j[:-1]) | (k[1:] != k[:-1]))))
    terms = state._moments[0][l]
    terms *= f
    entries = np.add.reduceat(terms, first)
    ad = np.zeros((state.rep.basis.dim,) * 2)
    ad[j[first], k[first]] = entries
    ad[k[first], j[first]] = -entries
    return gm.hmat @ ad @ gm.hmat.T


def unpolarized_report(state: ProbeState) -> dict:
    """Grade a probe's isotropy.

    first_order:  |<X>| < 1e-10 (Euclidean norm of the mean vector).
    second_order: first_order and max |C - (c2/d) I| < 1e-8, where c2 is the
                  representation's quadratic invariant and d the number of
                  generators.
    deviation:    that max-norm distance, reported unconditionally.
    """
    return build_report(state).unpolarized


@dataclass(frozen=True)
class BoundReport:
    """Everything the bound evaluation produced for one probe and chart.

    ``intrinsic_bound`` and ``weighted_bound`` are None when the required
    matrix is singular; the flags say which one failed, and ``saturable`` is
    :func:`saturation_check` through the chart, if any.  :meth:`to_json`
    emits the first seven attributes only.  The others: ``unpolarized`` is
    the grade :func:`unpolarized_report` returns; ``covariance_rank`` and
    ``covariance_condition_number`` are C's numerical rank and condition
    number at the report's threshold, and ``qfim_rank`` and
    ``qfim_condition_number`` are Q's (None without a chart).
    """

    mean: np.ndarray
    covariance: np.ndarray
    qfim: np.ndarray | None
    metric: np.ndarray | None
    intrinsic_bound: float | None
    weighted_bound: float | None
    flags: dict
    unpolarized: dict
    covariance_rank: int
    covariance_condition_number: float
    qfim_rank: int | None
    qfim_condition_number: float | None

    def to_json(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "covariance": self.covariance.tolist(),
            "qfim": None if self.qfim is None else self.qfim.tolist(),
            "metric": None if self.metric is None else self.metric.tolist(),
            "intrinsic_bound": self.intrinsic_bound,
            "weighted_bound": self.weighted_bound,
            "flags": dict(self.flags),
        }

    def singular_error(self) -> SingularInformationError | None:
        """Why a bound is missing, as the error the bound functions raise.

        The error :func:`intrinsic_bound` raises on this C when C is
        singular, else the one :func:`weighted_bound` raises on this Q when
        Q is, else None.  Built from the recorded rank and condition number.
        """
        if self.flags["covariance_singular"]:
            rank, size = self.covariance_rank, self.covariance.shape[0]
            return _covariance_error(rank, size, self.covariance_condition_number)
        if self.flags["qfim_singular"]:
            return _information_error(self.qfim_rank, len(self.qfim), self.qfim_condition_number)
        return None


def build_report(
    state: ProbeState,
    parametrization: Parametrization | None = None,
    theta=None,
    weight=None,
) -> BoundReport:
    """Assemble a :class:`BoundReport` for a probe and an optional chart.

    ``weight`` may be None, the string "intrinsic" (use the pulled-back
    metric, in which case the bound is computed from C alone whenever Q
    degenerates but C does not), the string "identity", or an explicit
    symmetric positive definite matrix, which is checked before any rank is.
    The covariance is computed once and C and Q are diagonalized once each,
    except a pure C that its rank bound 2(D - 1) < d makes singular: its
    rank is read from a 2D x 2D Gram matrix, its condition number is inf,
    and C is not decomposed.  A singular matrix is recorded in the report,
    not raised.  Without a chart ``saturable`` reads the mean alone.
    """
    mean, cov = covariance(state)
    if state.is_pure and _pure_rank_deficient(state.rep):
        inverse_trace, cov_rank, cov_cond = None, _pure_rank(state), np.inf
    else:
        inverse_trace, cov_rank, cov_cond = _inverse_trace(cov)
    intrinsic = None if inverse_trace is None else 0.25 * inverse_trace

    qmat = metric = wmat = weighted = saturable = None
    q_rank = q_cond = q_singular = None
    if parametrization is not None:
        if parametrization.n != state.rep.basis.n:
            raise InvalidElementError(
                f"chart is on SU({parametrization.n}) but the probe carries "
                f"su({state.rep.basis.n}) generators"
            )
        gm = generators_closed_form(parametrization, theta)
        try:
            with np.errstate(over="raise"):
                metric = gm.metric
                qmat = qfim(gm, cov)
                saturable = saturation_check(state, gm)
        except FloatingPointError:
            raise InvalidElementError(
                f"the chart's generator rows (largest entry {np.abs(gm.hmat).max():.3e}) "
                "overflow the metric or the information matrix"
            ) from None
        if isinstance(weight, str) and weight in ("intrinsic", "identity"):
            wmat = metric if weight == "intrinsic" else np.eye(metric.shape[0])
        elif weight is not None:
            wmat = _check_weight(weight, metric.shape)
        value, q_rank, q_cond = _inverse_trace(qmat, wmat)
        weighted = None if wmat is None else value
        q_singular = q_rank < qmat.shape[0]
        if weighted is None and wmat is metric:
            # the metric weight cancels the chart, so the bound
            # survives a degenerate Q as long as C is regular
            weighted = intrinsic

    d = state.rep.basis.dim
    iso = casimir(state.rep) / d
    off = cov.ravel()[1:].reshape(d - 1, d + 1)[:, :d]  # C's off-diagonal entries
    deviation = float(max(np.abs(cov.diagonal() - iso).max(), off.max(), -off.min()))
    first = bool(np.linalg.norm(mean) < FIRST_ORDER_TOL)
    second = bool(first and deviation < SECOND_ORDER_TOL)
    flags = {
        "covariance_singular": intrinsic is None,
        "qfim_singular": q_singular if q_singular is None else bool(q_singular),
        "saturable": saturation_check(state) if parametrization is None else saturable,
        "unpolarized_order": 2 if second else (1 if first else 0),
    }
    return BoundReport(
        mean=mean,
        covariance=cov,
        qfim=qmat,
        metric=metric,
        intrinsic_bound=intrinsic,
        weighted_bound=weighted,
        flags=flags,
        unpolarized={"first_order": first, "second_order": second, "deviation": deviation},
        covariance_rank=cov_rank,
        covariance_condition_number=cov_cond,
        qfim_rank=q_rank,
        qfim_condition_number=q_cond,
    )
