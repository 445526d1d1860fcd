"""Unitary channel families on SU(n) and their local generators.

A parametrized channel U(theta) pulls parameter directions back to algebra
elements H_j = i U^dagger (dU/dtheta_j).  The coefficient rows of the H_j in
the orthonormal fundamental basis form the generator matrix 𝗛 (one row per
parameter); 𝗛 𝗛^T is the pulled-back invariant metric on parameter space.

Two independent evaluation routes are provided.  The closed form
diagonalizes the Hermitian exponent and applies the first divided difference
phi(z) = (e^z - 1)/z entrywise; the quadrature route integrates
int_0^1 U^(-beta) X U^(beta) dbeta with Gauss-Legendre nodes and a Pade
matrix exponential per node.  Keeping both routes distinct is deliberate:
each serves as a check on the other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import isfinite

import numpy as np

from .algebra import INNER_PRODUCT_SCALE, GeneratorBasis, expand, from_coefficients, gellmann_basis
from .exceptions import InvalidDimensionError, InvalidElementError
from .representation import Representation, exp_hermitian, lift_unitary, symmetric_sector

PARAMETRIZATION_KINDS = ("exponential", "euler_su2", "product_of_exponentials")

#: Condition number of 𝗛, C or Q at which the matrix counts as singular.
CONDITION_THRESHOLD = 1e8

#: Below this |z| the divided difference phi(z) switches to its Taylor series.
PHI_SERIES_CUTOFF = 1e-4

#: Below this |lambda + 1| an eigenvalue lambda of U lies on the logarithm's
#: branch cut, and exponential_coordinates refuses U.
BRANCH_CUT_TOL = 1e-6


def _is_int(value) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> float:
    """A JSON number, an int that is not a bool or a float, as a float: the one
    rule for the amplitudes, factor axes and weight entries of a document.

    Anything else raises ValueError naming its type (a bool, a string, a list,
    null), and an int beyond float range raises OverflowError.
    """
    if not (isinstance(value, float) or _is_int(value)):
        raise ValueError(f"expected a number, got {type(value).__name__}")
    return float(value)


@dataclass(frozen=True)
class Parametrization:
    """A smooth coordinate chart on (a subgroup of) SU(n).

    kind = "exponential":
        U(theta) = exp(i sum_a theta_a X_a), one parameter per generator.
    kind = "euler_su2":
        U(Phi, Theta, Psi) = exp(-i Phi Jz) exp(-i Theta Jy) exp(-i Psi Jz),
        n = 2 only.
    kind = "product_of_exponentials":
        U(theta) = prod_k exp(-i theta_k A_k . X) for fixed axis vectors A_k.
    """

    kind: str
    n: int
    factors: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in PARAMETRIZATION_KINDS:
            raise InvalidElementError(f"unknown parametrization kind {self.kind!r}")
        if self.n < 2:
            raise InvalidDimensionError(f"su(n) needs n >= 2, got n = {self.n}")
        if self.kind == "euler_su2":
            if self.n != 2:
                raise InvalidDimensionError("euler_su2 is defined for n = 2 only")
            if self.factors is not None:
                raise InvalidElementError("euler_su2 takes no factor axes")
        elif self.kind == "exponential":
            if self.factors is not None:
                raise InvalidElementError("exponential takes no factor axes")
        else:
            if not self.factors:
                raise InvalidElementError("product_of_exponentials needs factor axes")
            d = self.n**2 - 1
            factors = tuple(tuple(float(c) for c in ax) for ax in self.factors)
            for ax in factors:
                if len(ax) != d:
                    raise InvalidElementError(
                        f"axis length {len(ax)} does not match d = {d}"
                    )
                if not all(map(isfinite, ax)):
                    raise InvalidElementError("factor axis entries must be finite")
                if not any(c != 0.0 for c in ax):
                    raise InvalidElementError("factor axis is identically zero")
            object.__setattr__(self, "factors", factors)

    @property
    def param_count(self) -> int:
        if self.kind == "exponential":
            return self.n**2 - 1
        if self.kind == "euler_su2":
            return 3
        return len(self.factors)

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "n": self.n}
        if self.kind == "product_of_exponentials":
            doc["factors"] = [list(ax) for ax in self.factors]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Parametrization":
        if not isinstance(doc, dict) or "kind" not in doc or "n" not in doc:
            raise InvalidElementError("parametrization document needs 'kind' and 'n'")
        n = doc["n"]
        if not _is_int(n):
            raise InvalidElementError(f"parametrization 'n' must be an integer, got {n!r}")
        factors = doc.get("factors")
        try:
            if factors is not None:
                factors = tuple(tuple(map(_number, ax)) for ax in factors)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidElementError(f"malformed parametrization 'factors': {exc}") from None
        return cls(kind=str(doc["kind"]), n=n, factors=factors)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Rows of generator coefficients at a parameter point.

    ``hmat[j]`` holds the expansion of H_j = i U^dagger dU/dtheta_j in the
    orthonormal fundamental basis.  ``condition_number``, the ratio of the
    extreme singular values of ``hmat`` (inf when rank deficient), and
    ``metric``, the pulled-back metric 𝗛 𝗛^T, are computed on first access,
    so a caller that never reads them pays for neither.
    """

    hmat: np.ndarray

    def __post_init__(self):
        # a copy, so that freezing it leaves the caller's array writable
        hmat = np.array(self.hmat, dtype=float, order="C")
        hmat.setflags(write=False)
        object.__setattr__(self, "hmat", hmat)

    @cached_property
    def metric(self) -> np.ndarray:
        g = self.hmat @ self.hmat.T  # one syrk of the C-ordered rows, so exactly symmetric
        g.setflags(write=False)
        return g

    @cached_property
    def condition_number(self) -> float:
        s = np.linalg.svd(self.hmat, compute_uv=False)
        if s[-1] <= s[0] * np.finfo(float).eps:
            return np.inf
        return float(s[0] / s[-1])


def exponential(n: int) -> Parametrization:
    """Canonical chart U = exp(i theta . X) with d = n**2 - 1 parameters."""
    return Parametrization(kind="exponential", n=n)


def euler_su2() -> Parametrization:
    """z-y-z Euler chart on SU(2)."""
    return Parametrization(kind="euler_su2", n=2)


def product_of_exponentials(n: int, axes) -> Parametrization:
    """Ordered product of single-axis rotations exp(-i theta_k A_k . X)."""
    return Parametrization(
        kind="product_of_exponentials",
        n=n,
        factors=tuple(tuple(float(c) for c in ax) for ax in axes),
    )


def _check_theta(p: Parametrization, theta) -> np.ndarray:
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if t.shape != (p.param_count,):
        raise InvalidElementError(
            f"{p.kind} expects {p.param_count} parameters, got shape {t.shape}"
        )
    if not all(isfinite(v) for v in t):
        raise InvalidElementError("parameters must be finite")
    return t


def _factor_axes(p: Parametrization, basis: GeneratorBasis) -> np.ndarray:
    # (m, d) axis vectors for the product-type kinds; the euler chart is the
    # z-y-z product in disguise
    if p.kind == "euler_su2":
        return np.eye(basis.dim)[[2, 1, 2]]
    return np.array(p.factors, dtype=float)


def unitary_at(p: Parametrization, theta, rep: Representation | None = None) -> np.ndarray:
    """Evaluate U(theta), in the defining representation by default.

    The defining representation is the one-boson sector, read from the held
    ``symmetric_sector(n, 1)``: its stack is the basis map itself.  Passing a
    collective ``rep`` lifts every factor with the representation's
    generators, which commutes with taking the product.
    """
    t = _check_theta(p, theta)
    basis = gellmann_basis(p.n)
    if rep is None:
        rep = symmetric_sector(p.n, 1)
    elif rep.basis.n != p.n:
        raise InvalidDimensionError(
            f"representation is for n = {rep.basis.n}, parametrization for n = {p.n}"
        )
    if p.kind == "exponential":
        return lift_unitary(rep, t)
    u = np.eye(rep.space_dim, dtype=complex)
    for angle, axis in zip(t, _factor_axes(p, basis)):
        u = u @ lift_unitary(rep, -angle * axis)
    return u


def _phi1(z: np.ndarray) -> np.ndarray:
    """First divided difference of the exponential, (e^z - 1)/z.

    Direct evaluation cancels catastrophically near z = 0, so small
    arguments use the degree-5 Taylor polynomial (error below 1e-27 at the
    cutoff).
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < PHI_SERIES_CUTOFF
    zs = z[small]
    out[small] = 1.0 + zs * (
        1.0 / 2 + zs * (1.0 / 6 + zs * (1.0 / 24 + zs * (1.0 / 120 + zs * (1.0 / 720))))
    )
    zb = z[~small]
    out[~small] = np.expm1(zb) / zb
    return out


def _rows_from_elements(elements: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    # Batched expand(): T times the (n^2, m) conjugated elements gives 2 Re Tr(X_a E_c)
    # for Hermitian X_a, the trace form against E_c's Hermitian part, so E_c is not
    # symmetrized; the elements are conjugated because conjugating T copies it
    rows = basis.coefficients @ elements.reshape(len(elements), -1).conj().T
    return INNER_PRODUCT_SCALE * rows.real.T


def generators_closed_form(p: Parametrization, theta) -> GeneratorMatrix:
    """Generator rows via eigendecomposition (no numerical integration).

    For the exponential chart, H_j = -V (V^dagger X_j V ∘ Phi) V^dagger where
    theta . X = V diag(lambda) V^dagger and Phi_pq = phi(i (lambda_q -
    lambda_p)).  With A = T (conj(V) ⊗ V), whose row a is V^dagger X_a V
    flattened, the rows 2 Tr(X_a H_j) are one Phi-weighted Gram,
    -2 Re((A ∘ Phi) A^dagger).  For product charts each factor contributes
    its axis conjugated by the factors at and after it, with no integral left
    over.  Every step is a product over all rows at once, bar the running
    product of the factors.
    """
    t = _check_theta(p, theta)
    basis = gellmann_basis(p.n)
    if p.kind == "exponential":
        vals, vecs = np.linalg.eigh(from_coefficients(t, basis))
        phi = _phi1(1j * (vals[None, :] - vals[:, None]))
        kron = (vecs.conj()[:, None, :, None] * vecs[None, :, None, :]).reshape(p.n**2, -1)
        a = basis.coefficients @ kron
        # Re(B A^dagger) is the real product of the interleaved real views
        hmat = -INNER_PRODUCT_SCALE * ((a * phi.ravel()).view(float) @ a.view(float).T)
    else:
        axes = from_coefficients(_factor_axes(p, basis), basis)  # (m, n, n)
        factors = exp_hermitian(-t[:, None, None] * axes)
        suffixes = np.empty_like(factors)  # product of the factors from k on
        suffix = np.eye(p.n, dtype=complex)
        for k in range(len(axes) - 1, -1, -1):
            suffix = suffixes[k] = factors[k] @ suffix
        elements = suffixes.conj().transpose(0, 2, 1) @ axes @ suffixes
        hmat = _rows_from_elements(elements, basis)
    return GeneratorMatrix(hmat=hmat)


def generators_quadrature(p: Parametrization, theta, order: int = 32) -> GeneratorMatrix:
    """Generator rows via Gauss-Legendre quadrature of the defining integral.

    Same contract as :func:`generators_closed_form`, but every U^(beta) is a
    fresh Pade matrix exponential, so agreement between the two routes checks
    both the eigendecomposition path and the integral representation.
    """
    if order < 2:
        raise InvalidElementError(f"quadrature order must be >= 2, got {order}")
    from scipy.linalg import expm  # local: scipy.linalg loads only where quadrature runs

    t = _check_theta(p, theta)
    basis = gellmann_basis(p.n)
    x = basis.coefficients.toarray().reshape(basis.dim, p.n, p.n)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    betas = (nodes + 1.0) / 2.0
    weights = weights / 2.0

    def averaged_conjugation(exponent: np.ndarray, operators: np.ndarray) -> np.ndarray:
        # sum_i w_i exp(-beta_i A) Y exp(beta_i A) for each operator Y
        acc = np.zeros_like(operators)
        for beta, w in zip(betas, weights):
            left = expm(-beta * exponent)
            right = expm(beta * exponent)
            acc += w * np.einsum("ij,ajk,kl->ail", left, operators, right)
        return acc

    if p.kind == "exponential":
        a = 1j * from_coefficients(t, basis)
        elements = -averaged_conjugation(a, x)
    else:
        axes = _factor_axes(p, basis)
        m = len(axes)
        bmats = [from_coefficients(ax, basis) for ax in axes]
        elements = np.empty((m, p.n, p.n), dtype=complex)
        suffix = np.eye(p.n, dtype=complex)  # product of factors after k
        for k in range(m - 1, -1, -1):
            integral = averaged_conjugation(-1j * t[k] * bmats[k], bmats[k][None])[0]
            elements[k] = suffix.conj().T @ integral @ suffix
            suffix = expm(-1j * t[k] * bmats[k]) @ suffix
    return GeneratorMatrix(hmat=_rows_from_elements(elements, basis))


def metric_at(p: Parametrization, theta) -> np.ndarray:
    """Pulled-back invariant metric g = 𝗛 𝗛^T at a parameter point."""
    return generators_closed_form(p, theta).metric


def singularity_report(p: Parametrization, theta) -> dict:
    """Classify a parameter point by the conditioning of its generator rows."""
    cond = generators_closed_form(p, theta).condition_number
    return {"singular": bool(not cond < CONDITION_THRESHOLD), "condition_number": cond}


def exponential_coordinates(u: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    """Coefficients omega with U = exp(i omega . X), principal branch.

    The Schur form of the unitary supplies an orthonormal eigenbasis; the
    eigenphase sum is shifted onto one phase to land in the traceless algebra.

    Raises
    ------
    InvalidElementError
        If U is not a special unitary of the basis' size, or if an
        eigenvalue of U lies within ``BRANCH_CUT_TOL`` of -1: on the branch
        cut the logarithm is not unique, and near it the eigenphase loses
        accuracy as about 3e-16 over its distance from pi.
    """
    u = np.asarray(u, dtype=complex)
    n = basis.n
    if u.shape != (n, n):
        raise InvalidElementError(f"expected a ({n}, {n}) unitary, got {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(n))) > 1e-8:
        raise InvalidElementError("matrix is not unitary")
    if abs(np.linalg.det(u) - 1.0) > 1e-8:
        raise InvalidElementError("matrix is not special (det != 1)")
    from scipy.linalg import schur  # local: scipy.linalg loads only where it is called

    tmat, z = schur(u, output="complex")
    eigenvalues = np.diag(tmat)
    gap = float(np.min(np.abs(eigenvalues + 1.0)))
    if gap < BRANCH_CUT_TOL:
        raise InvalidElementError(
            f"an eigenvalue of U lies {gap:.1e} from -1, on the branch cut of the logarithm"
        )
    phases = np.angle(eigenvalues)
    total = float(np.sum(phases))
    phases[int(np.argmax(phases))] -= 2.0 * np.pi * round(total / (2.0 * np.pi))
    a = (z * phases) @ z.conj().T
    return expand((a + a.conj().T) / 2.0, basis)
