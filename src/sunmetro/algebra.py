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
    coefficients : scipy.sparse.csc_array
        Complex map T of shape ``(d, n**2)`` with ``d = n**2 - 1``: the a-th
        generator is ``X_a = sum_ij T[a, i n + j] E_ij`` over the matrix units
        E_ij.  The constructor takes T in any form ``scipy.sparse.coo_array``
        accepts and keeps a copy in column order, with read-only values, so
        column ``i n + j`` lists the generators with an (i, j) entry.  Each
        X_a is Hermitian and traceless, and the family satisfies
        ``2 Tr(X_a X_b) = delta_ab``, the trace form scaled by
        ``INNER_PRODUCT_SCALE``.  T is the basis' one form: every reader
        takes it, and no dense ``(d, n, n)`` copy is kept.
    """

    n: int
    coefficients: sparse.csc_array

    def __post_init__(self):
        if self.n < 2:
            raise InvalidDimensionError(f"su(n) needs n >= 2, got n = {self.n}")
        n, d = self.n, self.n**2 - 1
        # through COO, so the copy is canonical: summed duplicates, sorted rows
        t = sparse.coo_array(self.coefficients, dtype=complex).tocsc()
        if t.shape != (d, n * n):
            raise InvalidElementError(f"expected a ({d}, {n * n}) coefficient map, got {t.shape}")
        t.data.setflags(write=False)
        object.__setattr__(self, "coefficients", t)
        # every residual test below is False for NaN, so non-finite entries
        # would pass them; reject those before any residual is formed
        bad = ~np.isfinite(t.data)
        if bad.any():
            named = np.array([f"X_{a}[{c // n}, {c % n}]" for a, c in zip(*t.tocoo().coords)])
            raise InvalidElementError(f"basis has non-finite entries: {', '.join(named[bad][:4])}")
        # column (i, j) of the flipped map holds each generator's (j, i) entry
        flipped = t[:, np.arange(n * n).reshape(n, n).T.ravel()]
        herm = abs(t - flipped.conj()).max()
        if herm > BASIS_TOL:
            raise InvalidElementError(f"basis not Hermitian: max deviation {herm:.3e}")
        tr = np.max(np.abs(t[:, :: n + 1].sum(axis=1)))
        if tr > BASIS_TOL:
            raise InvalidElementError(f"basis not traceless: max |trace| {tr:.3e}")
        # 2 Tr(X_a X_b) = 2 sum_ij X_a[i, j] X_b[j, i], one sparse product
        dev = abs(INNER_PRODUCT_SCALE * (t @ flipped.T) - sparse.eye_array(d)).max()
        if dev > 1e-10:
            raise InvalidElementError(f"basis not orthonormal: Gram deviation {dev:.3e}")

    @property
    def dim(self) -> int:
        """Number of generators, n**2 - 1."""
        return self.n**2 - 1

    @cached_property
    def _structure_constants(self) -> StructureConstants:
        # computed at the first structure_constants(self) call, then kept here
        return _extract_structure_constants(self.coefficients, self.n)


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
    i, j = np.triu_indices(n, 1)
    pair = np.arange(i.size)
    # the l-th diagonal element: norm / 2 on the modes below l, -l norm / 2 on mode l
    l, mode = (idx[1:] for idx in np.tril_indices(n))
    norm = np.sqrt(2.0 / (l * (l + 1)))
    rows = np.concatenate([pair, pair, pair + i.size, pair + i.size, 2 * i.size + l - 1])
    cols = np.concatenate([i * n + j, j * n + i, i * n + j, j * n + i, mode * (n + 1)])
    vals = np.concatenate(
        [np.repeat([0.5, 0.5, -0.5j, 0.5j], i.size), np.where(mode < l, norm / 2.0, -l * norm / 2.0)]
    )
    # the largest row and column make the shape (n**2 - 1, n**2); int32 indices,
    # as scipy gives a dense input, since the structure constants' products
    # take their index width from T
    return GeneratorBasis(n=n, coefficients=(vals, (rows.astype(np.int32), cols.astype(np.int32))))


def structure_constants(basis: GeneratorBasis) -> StructureConstants:
    """Extract f_jkl = -2i Tr([X_j, X_k] X_l) from an orthonormal basis.

    The result is real and totally antisymmetric; the imaginary residue of
    the trace formula is checked against a 1e-12 tolerance.  It is computed
    at the first call on a basis and kept on that basis, so later calls
    return the same object.
    """
    return basis._structure_constants


def _extract_structure_constants(t: sparse.csc_array, n: int) -> StructureConstants:
    d = t.shape[0]
    # (a, i, p) of each stored entry X_a[i, p], in the order of t.data
    a, (i, p) = t.indices, np.divmod(t.tocoo().col, n)
    # one sparse product gives every X_j X_k: entry ((j, i), (k, p)) is (X_j X_k)[i, p]
    left = sparse.csr_array((t.data, (a * n + i, p)), shape=(d * n, n))
    prod = (left @ sparse.csr_array((t.data, (i, a * n + p)), shape=(n, d * n))).tocoo()
    j, i = np.divmod(prod.row, n)
    k, p = np.divmod(prod.col, n)
    # one row per pair j <= k that occurs, holding [X_j, X_k] transposed and flattened
    # (zero for j = k), so a product with the flattened basis gives Tr([X_j, X_k] X_l)
    pairs, row = np.unique(np.minimum(j, k) * np.int64(d) + np.maximum(j, k), return_inverse=True)
    data = prod.data * np.sign(k - j)
    comm = sparse.csr_array((data, (row, p * n + i)), shape=(pairs.size, n * n))
    f = (-2j * (comm @ t.T)).tocoo()
    imag = np.abs(f.data.imag).max(initial=0.0)
    if imag > 1e-12:
        raise InvalidElementError(f"structure constants not real: residue {imag:.3e}")
    keep = f.data.real != 0.0
    key = pairs[f.row[keep]] * d + f.col[keep]
    order = key.argsort()
    jk, l = np.divmod(key[order], d)
    upper = (*np.divmod(jk, d), l, f.data.real[keep][order])
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
    # Tr(X_a H) = sum_ij X_a[i, j] H[j, i], one product of T with H^T flattened
    return INNER_PRODUCT_SCALE * (basis.coefficients @ h.T.ravel()).real


def from_coefficients(coeffs: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    """Algebra element sum_a h_a X_a of a real coefficient vector, over any leading axes."""
    h = np.asarray(coeffs, dtype=float)
    if h.shape[-1:] != (basis.dim,):
        raise InvalidElementError(f"expected {basis.dim} coefficients, got shape {h.shape}")
    # entry (i, j) sums h_a T[a, i n + j] down column i n + j of T, which is
    # never empty: the span of an su(n) basis reaches every matrix unit
    t = basis.coefficients
    element = np.add.reduceat(h[..., t.indices] * t.data, t.indptr[:-1], axis=-1)
    return element.reshape(*h.shape[:-1], basis.n, basis.n)
