"""Shared fixtures: cached representations and probe states reused across files."""

from functools import lru_cache

import numpy as np
import pytest
from scipy import sparse

from sunmetro import (
    GeneratorBasis,
    gellmann_basis,
    make_su3_cyclic,
    make_tetrahedron_j2,
    pure_state,
    structure_constants,
    symmetric_representation,
)
from sunmetro import representation


@lru_cache(maxsize=None)
def sym_rep(n: int, particles: int):
    """Memoized symmetric representation; construction is the expensive part."""
    return symmetric_representation(gellmann_basis(n), particles)


def drop_held_sectors():
    """Forget every sector symmetric_sector holds, so that the next request builds its own."""
    representation._sectors.clear()


def state_index(fock):
    """Exact reference index of a Fock basis: a dict from each occupation tuple to its row."""
    return {tuple(occ): row for row, occ in enumerate(fock.occupations.tolist())}


def radix_collective_stack(basis, fock):
    """Reference build of the sparse stack that finds each hop's destination by
    a binary search over radix-(N + 1) keys of the states.

    numpy picks the keys' type by their size, so they are exact only while
    N (N + 1)**(n - 1) fits int64: they wrap at sym(32, 3) and turn to float64
    at sym(41, 2).  Where they fit, the stack is the one the library builds.
    """
    n, d, dim = basis.n, basis.dim, fock.dim
    occs = fock.occupations
    gens, vals, mode = representation._column_entries(basis.coefficients, np.arange(0, n * n, n + 1))
    block = np.zeros((d, n))
    block[gens, mode] = vals.real
    diag_gens = block.any(axis=1).nonzero()[0]
    diag = block[diag_gens] @ occs.T
    r0, s0 = diag.nonzero()
    weights = np.array([(fock.particles + 1) ** (n - 1 - m) for m in range(n)])
    keys = occs @ weights
    mode_i, mode_j = (~np.eye(n, dtype=bool)).nonzero()
    src, hop = occs[:, mode_j].nonzero()
    i, j = mode_i[hop], mode_j[hop]
    amp = np.sqrt(occs[src, j] * (occs[src, i] + 1))
    dst = dim - 1 - np.searchsorted(keys[::-1], keys[src] - weights[j] + weights[i])
    gens, vals, h1 = representation._column_entries(basis.coefficients, i * n + j)
    rows = np.concatenate([diag_gens[r0] * dim + s0, gens * dim + dst[h1]])
    cols = np.concatenate([s0, src[h1]])
    data = np.concatenate([diag[r0, s0], vals * amp[h1]])
    order = (rows * dim + cols).argsort()
    idx = sparse.get_index_dtype(maxval=max(d * dim, data.size))
    indptr = np.zeros(d * dim + 1, dtype=idx)
    np.bincount(rows, minlength=d * dim).cumsum(dtype=idx, out=indptr[1:])
    return sparse.csr_array((data[order], cols[order].astype(idx), indptr), shape=(d * dim, dim))


def dense_gellmann(n):
    """Reference build of the su(n) Gell-Mann basis: (d, n, n) matrices, one entry at a time."""
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
    return np.array(mats)


def rotated_basis(n):
    """An orthonormal su(n) basis in which every generator has diagonal and off-diagonal entries."""
    x = dense_gellmann(n)
    rotation, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((len(x), len(x))))
    return GeneratorBasis(n=n, coefficients=np.tensordot(rotation, x, axes=1).reshape(len(x), -1))


def dense_generators(rep):
    """The (d, D, D) array of a representation's generators, read from its stack."""
    d, dim = rep.basis.dim, rep.space_dim
    return rep.stack.toarray().reshape(d, dim, dim)


def dense_structure_constants(basis):
    """The (d, d, d) array f[j, k, l], filled from the non-zero constants with j < k."""
    j, k, l, values = structure_constants(basis).upper
    f = np.zeros((basis.dim,) * 3)
    f[j, k, l] = values
    f[k, j, l] = -values
    return f


def random_pure(rep, rng):
    v = rng.standard_normal(rep.space_dim) + 1j * rng.standard_normal(rep.space_dim)
    return pure_state(rep, v / np.linalg.norm(v))


@pytest.fixture(scope="session")
def sym24():
    return sym_rep(2, 4)


@pytest.fixture(scope="session")
def sym39():
    return sym_rep(3, 9)


@pytest.fixture(scope="session")
def tetrahedron():
    return make_tetrahedron_j2()


@pytest.fixture(scope="session")
def cyclic33():
    return make_su3_cyclic(3, 3)
