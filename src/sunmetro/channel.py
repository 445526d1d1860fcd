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
from functools import lru_cache
from math import isfinite

import numpy as np
from scipy.linalg import expm, schur
from scipy.special import roots_legendre

from .algebra import GeneratorBasis, expand, from_coefficients, gellmann_basis
from .exceptions import InvalidDimensionError, InvalidElementError
from .representation import Representation, exp_hermitian, fundamental_representation, lift_unitary

PARAMETRIZATION_KINDS = ("exponential", "euler_su2", "product_of_exponentials")

#: Condition number of 𝗛 above which the parametrization counts as singular.
CONDITION_THRESHOLD = 1e8

#: Below this |z| the divided difference phi(z) switches to its Taylor series.
PHI_SERIES_CUTOFF = 1e-4


def _is_int(value) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


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
                factors = tuple(tuple(float(c) for c in ax) for ax in factors)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidElementError(f"malformed parametrization document: {exc}") from None
        return cls(kind=str(doc["kind"]), n=n, factors=factors)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Rows of generator coefficients at a parameter point.

    ``hmat[j]`` holds the expansion of H_j = i U^dagger dU/dtheta_j in the
    orthonormal fundamental basis; ``condition_number`` is the ratio of the
    extreme singular values of ``hmat`` (inf when rank deficient).
    """

    hmat: np.ndarray
    theta: np.ndarray
    condition_number: float

    def __post_init__(self):
        for name in ("hmat", "theta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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


def _factor_axes(p: Parametrization, basis: GeneratorBasis) -> list[np.ndarray]:
    # Per-factor axis vectors for the product-type kinds; the euler chart is
    # the z-y-z product in disguise.
    d = basis.dim
    if p.kind == "euler_su2":
        ez = np.zeros(d)
        ez[2] = 1.0
        ey = np.zeros(d)
        ey[1] = 1.0
        return [ez, ey, ez]
    return [np.asarray(ax, dtype=float) for ax in p.factors]


@lru_cache(maxsize=None)
def _fundamental(n: int) -> Representation:
    """The defining representation of su(n), built and checked once per n."""
    return fundamental_representation(gellmann_basis(n))


def unitary_at(p: Parametrization, theta, rep: Representation | None = None) -> np.ndarray:
    """Evaluate U(theta), in the fundamental representation by default.

    Passing a collective ``rep`` lifts every factor with the representation's
    generators, which commutes with taking the product.
    """
    t = _check_theta(p, theta)
    basis = gellmann_basis(p.n)
    if rep is None:
        rep = _fundamental(p.n)
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
    # Batched expand(); elements is (m, n, n), already Hermitian up to rounding.
    elements = (elements + elements.conj().transpose(0, 2, 1)) / 2.0
    rows = basis.inner_product_scale * np.einsum("aij,cji->ca", basis.generators, elements)
    return rows.real


def _condition_number(hmat: np.ndarray) -> float:
    s = np.linalg.svd(hmat, compute_uv=False)
    if s[-1] <= s[0] * np.finfo(float).eps:
        return np.inf
    return float(s[0] / s[-1])


def generators_closed_form(p: Parametrization, theta) -> GeneratorMatrix:
    """Generator rows via eigendecomposition (no numerical integration).

    For the exponential chart, H_j = -V (V^dagger X_j V ∘ Phi) V^dagger where
    theta . X = V diag(lambda) V^dagger and Phi_ab = phi(i (lambda_b -
    lambda_a)).  For product charts each factor contributes its axis
    conjugated by the factors at and after it, with no integral left over.
    """
    t = _check_theta(p, theta)
    basis = gellmann_basis(p.n)
    x = basis.generators
    if p.kind == "exponential":
        a = from_coefficients(t, basis)
        vals, vecs = np.linalg.eigh(a)
        delta = vals[None, :] - vals[:, None]
        phi = _phi1(1j * delta)
        xt = np.einsum("pi,aij,jq->apq", vecs.conj().T, x, vecs)
        elements = -np.einsum("pi,aij,jq->apq", vecs, xt * phi[None, :, :], vecs.conj().T)
    else:
        axes = _factor_axes(p, basis)
        m = len(axes)
        factors = [
            exp_hermitian(-t[k] * from_coefficients(axes[k], basis))
            for k in range(m)
        ]
        suffix = np.eye(p.n, dtype=complex)
        conjugated = [None] * m
        for k in range(m - 1, -1, -1):
            suffix = factors[k] @ suffix
            b = from_coefficients(axes[k], basis)
            conjugated[k] = suffix.conj().T @ b @ suffix
        elements = np.array(conjugated)
    hmat = _rows_from_elements(elements, basis)
    return GeneratorMatrix(hmat=hmat, theta=t, condition_number=_condition_number(hmat))


def generators_quadrature(p: Parametrization, theta, order: int = 32) -> GeneratorMatrix:
    """Generator rows via Gauss-Legendre quadrature of the defining integral.

    Same contract as :func:`generators_closed_form`, but every U^(beta) is a
    fresh Pade matrix exponential, so agreement between the two routes checks
    both the eigendecomposition path and the integral representation.
    """
    if order < 2:
        raise InvalidElementError(f"quadrature order must be >= 2, got {order}")
    t = _check_theta(p, theta)
    basis = gellmann_basis(p.n)
    x = basis.generators
    nodes, weights = roots_legendre(order)
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
    hmat = _rows_from_elements(elements, basis)
    return GeneratorMatrix(hmat=hmat, theta=t, condition_number=_condition_number(hmat))


def metric_at(p: Parametrization, theta) -> np.ndarray:
    """Pulled-back invariant metric g = 𝗛 𝗛^T at a parameter point."""
    hmat = generators_closed_form(p, theta).hmat
    g = hmat @ hmat.T
    return (g + g.T) / 2.0


def singularity_report(
    p: Parametrization, theta, cond_threshold: float = CONDITION_THRESHOLD
) -> dict:
    """Classify a parameter point by the conditioning of its generator rows."""
    cond = generators_closed_form(p, theta).condition_number
    return {"singular": bool(not cond < cond_threshold), "condition_number": cond}


def exponential_coordinates(u: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    """Coefficients omega with U = exp(i omega . X), principal branch.

    The Schur form of the unitary supplies an orthonormal eigenbasis; the
    eigenphase sum is shifted onto one phase to land in the traceless algebra.
    Points with an eigenphase at +/- pi sit on the branch cut and come back
    with reduced accuracy.
    """
    u = np.asarray(u, dtype=complex)
    n = basis.n
    if u.shape != (n, n):
        raise InvalidElementError(f"expected a ({n}, {n}) unitary, got {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(n))) > 1e-8:
        raise InvalidElementError("matrix is not unitary")
    if abs(np.linalg.det(u) - 1.0) > 1e-8:
        raise InvalidElementError("matrix is not special (det != 1)")
    tmat, z = schur(u, output="complex")
    phases = np.angle(np.diag(tmat))
    total = float(np.sum(phases))
    phases[int(np.argmax(phases))] -= 2.0 * np.pi * round(total / (2.0 * np.pi))
    a = (z * phases) @ z.conj().T
    return expand((a + a.conj().T) / 2.0, basis)
