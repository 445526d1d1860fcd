"""Basis construction, structure constants, and coefficient expansions."""

import re
import tracemalloc

import numpy as np
import pytest
from conftest import dense_gellmann, dense_structure_constants, rotated_basis
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from sunmetro import (
    GeneratorBasis,
    InvalidDimensionError,
    InvalidElementError,
    expand,
    from_coefficients,
    gellmann_basis,
    structure_constants,
)
from sunmetro import algebra
from sunmetro.algebra import INNER_PRODUCT_SCALE

SQRT3_2 = np.sqrt(3.0) / 2.0

# index of the standard 3x3 Gell-Mann matrix lambda_(a+1) in our ordering
# (symmetric pairs, antisymmetric pairs, diagonals)
GELLMANN_PERMUTATION = (0, 3, 6, 1, 4, 2, 5, 7)


def _dense(basis):
    # the (d, n, n) matrices the basis' map T stands for
    return basis.coefficients.toarray().reshape(basis.dim, basis.n, basis.n)


def test_su2_basis_is_spin_operators():
    x = _dense(gellmann_basis(2))
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    sy = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    sz = np.array([[0.5, 0.0], [0.0, -0.5]])
    np.testing.assert_allclose(x[0], sx, atol=1e-15)
    np.testing.assert_allclose(x[1], sy, atol=1e-15)
    np.testing.assert_allclose(x[2], sz, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_orthonormal_hermitian_traceless(n):
    basis = gellmann_basis(n)
    x = _dense(basis)
    d = n * n - 1
    assert basis.dim == d and x.shape == (d, n, n)
    assert np.max(np.abs(x - x.conj().transpose(0, 2, 1))) < 1e-12
    assert np.max(np.abs(np.trace(x, axis1=1, axis2=2))) < 1e-12
    gram = 2.0 * np.einsum("aij,bji->ab", x, x)
    assert np.max(np.abs(gram - np.eye(d))) < 1e-12


def test_su2_structure_constants_are_levi_civita():
    f = dense_structure_constants(gellmann_basis(2))
    eps = np.zeros((3, 3, 3))
    for j, k, l, s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
        eps[j, k, l] = s
    np.testing.assert_allclose(f, eps, atol=1e-12)


def test_su3_structure_constants_standard_values():
    f = dense_structure_constants(gellmann_basis(3))
    p = GELLMANN_PERMUTATION

    def std(a, b, c):
        # standard 1-based labels
        return f[p[a - 1], p[b - 1], p[c - 1]]

    assert abs(std(1, 2, 3) - 1.0) < 1e-12
    assert abs(std(4, 5, 8) - SQRT3_2) < 1e-12
    assert abs(std(6, 7, 8) - SQRT3_2) < 1e-12
    for a, b, c, v in [(1, 4, 7, 0.5), (2, 4, 6, 0.5), (2, 5, 7, 0.5),
                       (3, 4, 5, 0.5), (1, 5, 6, -0.5), (3, 6, 7, -0.5)]:
        assert abs(std(a, b, c) - v) < 1e-12, (a, b, c)


def _dense_gram_deviation(x: np.ndarray) -> float:
    return float(np.max(np.abs(2.0 * np.einsum("aij,bji->ab", x, x) - np.eye(len(x)))))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_basis_check_refuses_families_that_are_not_orthonormal(n):
    # the sparse Gram check reports the deviation the dense Gram has
    x = dense_gellmann(n)
    rng = np.random.default_rng(n)
    rotation, _ = np.linalg.qr(rng.standard_normal((len(x), len(x))))
    rotated = np.tensordot(rotation, x, axes=1)
    GeneratorBasis(n=n, coefficients=rotated.reshape(len(x), -1))
    skewed = x.copy()
    skewed[1] = (x[0] + x[1]) / np.sqrt(2.0)
    zeroed = x.copy()
    zeroed[-1] = 0.0  # its diagonal entry of the Gram is no stored entry
    for bad in (1.001 * x, skewed, zeroed, rotated * (1.0 + 1e-9)):
        with pytest.raises(InvalidElementError, match="not orthonormal") as err:
            GeneratorBasis(n=n, coefficients=bad.reshape(len(x), -1))
        assert str(err.value).endswith(f"Gram deviation {_dense_gram_deviation(bad):.3e}")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_structure_constants_totally_antisymmetric(n):
    f = dense_structure_constants(gellmann_basis(n))
    assert np.max(np.abs(f + f.transpose(1, 0, 2))) < 1e-12
    assert np.max(np.abs(f + f.transpose(0, 2, 1))) < 1e-12
    assert np.max(np.abs(f - f.transpose(1, 2, 0))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jacobi_identity(n):
    f = dense_structure_constants(gellmann_basis(n))
    jac = (
        np.einsum("jkm,mlp->jklp", f, f)
        + np.einsum("klm,mjp->jklp", f, f)
        + np.einsum("ljm,mkp->jklp", f, f)
    )
    assert np.max(np.abs(jac)) < 1e-10


def _square_structure_constants(t, n):
    # the extraction the library replaced: one row of [X_j, X_k] for every one of
    # the d**2 ordered pairs, the j < k rows kept afterwards
    d = t.shape[0]
    a, (i, p) = t.indices, np.divmod(t.tocoo().col, n)
    left = sparse.csr_array((t.data, (a * n + i, p)), shape=(d * n, n))
    prod = (left @ sparse.csr_array((t.data, (i, a * n + p)), shape=(n, d * n))).tocoo()
    j, i = np.divmod(prod.row, n)
    k, p = np.divmod(prod.col, n)
    col = p * n + i
    comm = sparse.csr_array(
        (np.concatenate([prod.data, -prod.data]),
         (np.concatenate([j * d + k, k * d + j]), np.concatenate([col, col]))),
        shape=(d * d, n * n),
    )
    f = (-2j * (comm @ t.T)).tocoo()
    key = f.row.astype(np.int64) * d + f.col
    keep = (f.row // d < f.row % d) & (f.data.real != 0.0)
    key, val = key[keep], f.data.real[keep]
    order = key.argsort()
    jk, l = np.divmod(key[order], d)
    return (*np.divmod(jk, d), l, val[order])


@pytest.mark.parametrize(
    "basis",
    [*(gellmann_basis(n) for n in [*range(2, 13), 20, 40]), rotated_basis(3), rotated_basis(4)],
    ids=lambda basis: f"su{basis.n}" + ("" if basis is gellmann_basis(basis.n) else "-rotated"),
)
def test_structure_constants_match_the_square_extraction(basis):
    # one row per occurring pair j < k gives the d**2-row route's constants bit for bit
    upper = algebra._extract_structure_constants(basis.coefficients, basis.n).upper
    reference = _square_structure_constants(basis.coefficients, basis.n)
    for got, want in zip(upper, reference, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_expand_trig_combination():
    # sin(psi) X_1 + cos(psi) X_2 comes back as (sin psi, cos psi, 0, ...)
    psi = 0.7
    for n in (2, 3):
        basis = gellmann_basis(n)
        x = dense_gellmann(n)
        h = np.sin(psi) * x[0] + np.cos(psi) * x[1]
        coeffs = expand(h, basis)
        expected = np.zeros(basis.dim)
        expected[0] = np.sin(psi)
        expected[1] = np.cos(psi)
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expand_round_trip_random(n):
    basis = gellmann_basis(n)
    rng = np.random.default_rng(41 + n)
    for _ in range(200):
        coeffs = rng.uniform(-5.0, 5.0, basis.dim)
        back = expand(from_coefficients(coeffs, basis), basis)
        assert np.max(np.abs(back - coeffs)) < 1e-12


@seed(20240817)
@settings(max_examples=60, deadline=None)
@given(coeffs=arrays(np.float64, (8,), elements=st.floats(-10.0, 10.0)))
def test_expand_round_trip_su3_hypothesis(coeffs):
    basis = gellmann_basis(3)
    back = expand(from_coefficients(coeffs, basis), basis)
    np.testing.assert_allclose(back, coeffs, atol=1e-12)


def test_expand_rejects_bad_elements():
    basis = gellmann_basis(2)
    with pytest.raises(InvalidElementError):
        expand(np.array([[0.0, 1.0], [0.0, 0.0]]), basis)  # not Hermitian
    with pytest.raises(InvalidElementError):
        expand(np.eye(2), basis)  # not traceless
    with pytest.raises(InvalidElementError):
        expand(np.zeros((3, 3)), basis)  # wrong shape


def test_from_coefficients_rejects_wrong_length():
    with pytest.raises(InvalidElementError):
        from_coefficients(np.zeros(4), gellmann_basis(2))


def test_basis_rejects_n_below_two():
    with pytest.raises(InvalidDimensionError):
        gellmann_basis(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_dense_view_matches_the_reference_build(n):
    # array_equal, not bytes: toarray() sums into zeros, so -0.0 entries lose their sign
    x = gellmann_basis(n).coefficients.toarray()
    reference = dense_gellmann(n).reshape(n * n - 1, n * n)
    assert x.shape == reference.shape and np.array_equal(x, reference)


EXPANSION_BASES = [*(gellmann_basis(n) for n in range(2, 9)), rotated_basis(3), rotated_basis(4)]


@pytest.mark.parametrize(
    "basis",
    EXPANSION_BASES,
    ids=lambda basis: f"su{basis.n}" + ("" if basis is gellmann_basis(basis.n) else "-rotated"),
)
def test_expansions_match_the_dense_contractions(basis):
    # the column sums over T and the product with T against einsum and
    # tensordot over the dense matrices, for single and stacked coefficients
    x = dense_gellmann(basis.n) if basis is gellmann_basis(basis.n) else _dense(basis)
    rng = np.random.default_rng(basis.dim)
    coeffs = rng.uniform(-3.0, 3.0, (4, basis.dim))
    elements = from_coefficients(coeffs, basis)
    reference = np.tensordot(coeffs, x, axes=1)
    assert elements.shape == reference.shape
    assert np.max(np.abs(elements - reference)) <= 1e-14 * np.max(np.abs(reference))
    for c, stacked, element in zip(coeffs, elements, reference):
        assert np.array_equal(from_coefficients(c, basis), stacked)
        want = INNER_PRODUCT_SCALE * np.einsum("aij,ji->a", x, element).real
        assert np.max(np.abs(expand(element, basis) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [(2, 1, 1), (0, 0, 1)], ids=["diagonal", "off-diagonal"])
def test_basis_refuses_non_finite_entries(entry, value, monkeypatch):
    # each residual test is False for NaN, so the check must come before them
    x = dense_gellmann(2)
    x[entry] = value

    def no_constants(*args):
        raise AssertionError("structure constants were formed from a non-finite basis")

    monkeypatch.setattr(algebra, "_extract_structure_constants", no_constants)
    a, i, j = entry
    with pytest.raises(InvalidElementError, match=re.escape(f"non-finite entries: X_{a}[{i}, {j}]")):
        structure_constants(GeneratorBasis(n=2, coefficients=x.reshape(3, 4)))


def test_basis_of_su100_keeps_only_its_sparse_map():
    # 2.5 n**2 stored entries; the dense (d, n, n) view alone would be 1.6 GB
    tracemalloc.start()
    try:
        basis = gellmann_basis.__wrapped__(100)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2**20
    assert set(vars(basis)) == {"n", "coefficients"}
