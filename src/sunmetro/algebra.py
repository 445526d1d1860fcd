"""Orthonormal generator bases for su(n) and coefficient expansions.

The algebra su(n) is realized as the real span of d = n**2 - 1 traceless
Hermitian matrices.  Everything downstream fixes the invariant inner product

    <A, B> = 2 Tr(A^dagger B),

under which the basis built by :func:`gellmann_basis` (generalized Gell-Mann
matrices divided by two) is orthonormal.  For n = 2 the basis elements are
exactly the spin operators sigma/2, so angular-momentum identities apply
without rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse

from .exceptions import InvalidDimensionError, InvalidElementError

#: Scale of the invariant inner product <A, B> = INNER_PRODUCT_SCALE * Tr(A^dagger B).
INNER_PRODUCT_SCALE = 2.0

#: Construction-time tolerance for Hermiticity / orthonormality of a basis.
BASIS_TOL = 1e-12

#: Tolerance when validating a caller-supplied algebra element.
ELEMENT_TOL = 1e-10


@dataclass(frozen=True)
class GeneratorBasis:
    """Ordered orthonormal basis of su(n) in the fundamental representation.

    Attributes
    ----------
    n : int
        Dimension of the fundamental representation.
    generators : numpy.ndarray
        Complex array of shape ``(d, n, n)`` with ``d = n**2 - 1``.  Each
        slice is Hermitian and traceless, and the family satisfies
        ``2 Tr(X_a X_b) = delta_ab``, the trace form scaled by
        ``INNER_PRODUCT_SCALE``.
    """

    n: int
    generators: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.generators, dtype=complex)
        mats.setflags(write=False)
        object.__setattr__(self, "generators", mats)
        if self.n < 2:
            raise InvalidDimensionError(f"su(n) needs n >= 2, got n = {self.n}")
        d = self.n**2 - 1
        if mats.shape != (d, self.n, self.n):
            raise InvalidElementError(
                f"expected {d} generators of shape ({self.n}, {self.n}), got {mats.shape}"
            )
        herm = np.max(np.abs(mats - mats.conj().transpose(0, 2, 1)))
        if herm > BASIS_TOL:
            raise InvalidElementError(f"basis not Hermitian: max deviation {herm:.3e}")
        tr = np.max(np.abs(np.trace(mats, axis1=1, axis2=2)))
        if tr > BASIS_TOL:
            raise InvalidElementError(f"basis not traceless: max |trace| {tr:.3e}")
        # 2 Tr(X_a X_b) as one sparse (d, n**2) x (n**2, d) product, the right
        # factor holding each X_b transposed: entry (i, p) moved to (p, i)
        flat = sparse.csr_array(mats.reshape(d, self.n * self.n))
        i, p = np.divmod(flat.indices, self.n)
        flipped = sparse.csr_array((flat.data, p * self.n + i, flat.indptr), shape=flat.shape)
        gram = (INNER_PRODUCT_SCALE * (flat @ flipped.T)).tocoo()
        off = gram.row != gram.col
        dev = max(
            float(np.max(np.abs(gram.data[off]), initial=0.0)),
            float(np.max(np.abs(gram.diagonal() - 1.0))),
        )
        if dev > 1e-10:
            raise InvalidElementError(f"basis not orthonormal: Gram deviation {dev:.3e}")

    @property
    def dim(self) -> int:
        """Number of generators, n**2 - 1."""
        return self.n**2 - 1

    @cached_property
    def _structure_constants(self) -> StructureConstants:
        # computed at the first structure_constants(self) call, then kept here
        return _extract_structure_constants(self.generators)


@dataclass(frozen=True)
class StructureConstants:
    """Non-zero structure constants of a basis, [X_j, X_k] = i sum_l f_jkl X_l.

    The constants are totally antisymmetric, so the entries with j < k
    determine all of them.  ``upper`` holds those as four arrays
    (j, k, l, f_jkl), in ascending (j, k, l) order; f_kjl = -f_jkl and
    f_jjl = 0 give the rest.
    """

    upper: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=None)
def gellmann_basis(n: int) -> GeneratorBasis:
    """Build the orthonormal generator basis of su(n).

    Ordering: symmetric off-diagonal elements (i < j, row major), then
    antisymmetric off-diagonal elements in the same order, then the n - 1
    diagonal elements.  For n = 2 this yields (sigma_x/2, sigma_y/2,
    sigma_z/2).

    Parameters
    ----------
    n : int
        Fundamental dimension, at least 2.

    Returns
    -------
    GeneratorBasis
    """
    if n < 2:
        raise InvalidDimensionError(f"su(n) needs n >= 2, got n = {n}")
    mats = []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in pairs:
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = 0.5
        m[j, i] = 0.5
        mats.append(m)
    for i, j in pairs:
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = -0.5j
        m[j, i] = 0.5j
        mats.append(m)
    for l in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        norm = np.sqrt(2.0 / (l * (l + 1)))
        for i in range(l):
            m[i, i] = norm / 2.0
        m[l, l] = -l * norm / 2.0
        mats.append(m)
    return GeneratorBasis(n=n, generators=np.array(mats))


def structure_constants(basis: GeneratorBasis) -> StructureConstants:
    """Extract f_jkl = -2i Tr([X_j, X_k] X_l) from an orthonormal basis.

    The result is real and totally antisymmetric; the imaginary residue of
    the trace formula is checked against a 1e-12 tolerance.  It is computed
    at the first call on a basis and kept on that basis, so later calls
    return the same object.
    """
    return basis._structure_constants


def _extract_structure_constants(x: np.ndarray) -> StructureConstants:
    d, n = x.shape[:2]
    # one sparse product gives every X_j X_k: entry ((j, i), (k, p)) is (X_j X_k)[i, p]
    side = sparse.csr_array(x.transpose(1, 0, 2).reshape(n, d * n))
    prod = (sparse.csr_array(x.reshape(d * n, n)) @ side).tocoo()
    j, i = np.divmod(prod.row, n)
    k, p = np.divmod(prod.col, n)
    # row (j, k) holds [X_j, X_k] transposed and flattened, so a product with
    # the flattened basis takes the traces Tr([X_j, X_k] X_l)
    col = p * n + i
    comm = sparse.csr_array(
        (np.concatenate([prod.data, -prod.data]),
         (np.concatenate([j * d + k, k * d + j]), np.concatenate([col, col]))),
        shape=(d * d, n * n),
    )
    f = (-2j * (comm @ sparse.csr_array(x.reshape(d, n * n)).T)).tocoo()
    imag = np.abs(f.data.imag).max(initial=0.0)
    if imag > 1e-12:
        raise InvalidElementError(f"structure constants not real: residue {imag:.3e}")
    key = f.row.astype(np.int64) * d + f.col
    keep = (f.row // d < f.row % d) & (f.data.real != 0.0)
    key, val = key[keep], f.data.real[keep]
    order = key.argsort()
    jk, l = np.divmod(key[order], d)
    upper = (*np.divmod(jk, d), l, val[order])
    for arr in upper:
        arr.setflags(write=False)
    return StructureConstants(upper=upper)


def expand(element: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    """Coefficients of a traceless Hermitian matrix in an orthonormal basis.

    Returns the real vector h with h_a = 2 Tr(X_a H), so that
    H = sum_a h_a X_a reconstructs the input.

    Raises
    ------
    InvalidElementError
        If the input is not Hermitian and traceless within 1e-10.
    """
    h = np.asarray(element, dtype=complex)
    if h.shape != (basis.n, basis.n):
        raise InvalidElementError(f"expected shape ({basis.n}, {basis.n}), got {h.shape}")
    herm = np.max(np.abs(h - h.conj().T))
    if herm > ELEMENT_TOL:
        raise InvalidElementError(f"element not Hermitian: max deviation {herm:.3e}")
    tr = abs(np.trace(h))
    if tr > ELEMENT_TOL:
        raise InvalidElementError(f"element not traceless: |trace| = {tr:.3e}")
    coeffs = INNER_PRODUCT_SCALE * np.einsum("aij,ji->a", basis.generators, h)
    return coeffs.real


def from_coefficients(coeffs: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    """Algebra element sum_a h_a X_a for a real coefficient vector."""
    h = np.asarray(coeffs, dtype=float)
    if h.shape != (basis.dim,):
        raise InvalidElementError(f"expected {basis.dim} coefficients, got shape {h.shape}")
    return np.tensordot(h, basis.generators, axes=1)
