"""Shared fixtures: cached representations and probe states reused across files."""

from functools import lru_cache

import numpy as np
import pytest

from sunmetro import (
    gellmann_basis,
    make_su3_cyclic,
    make_tetrahedron_j2,
    pure_state,
    structure_constants,
    symmetric_representation,
)


@lru_cache(maxsize=None)
def sym_rep(n: int, particles: int):
    """Memoized symmetric representation; construction is the expensive part."""
    return symmetric_representation(gellmann_basis(n), particles)


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
