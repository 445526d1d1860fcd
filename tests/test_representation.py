"""Fock sectors, collective generators, Casimir values, lifted unitaries."""

import random
import re
import sys
import threading
import tracemalloc
import types
from math import comb

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import sparse
from conftest import (
    dense_gellmann,
    dense_generators,
    dense_structure_constants,
    drop_held_sectors,
    radix_collective_stack,
    random_pure,
    rotated_basis,
    state_index,
    sym_rep,
)

from sunmetro import (
    DIMENSION_CAP,
    DimensionCapError,
    InvalidElementError,
    NotIrreducibleError,
    Representation,
    casimir,
    exp_hermitian,
    fock_basis,
    gellmann_basis,
    lift_unitary,
    structure_constants,
    symmetric_representation,
)
from sunmetro import representation


def casimir_formula(n, particles):
    return particles * (particles + n) * (n - 1) / (2.0 * n)


def dense_collective_stack(basis, particles):
    """Reference build: the dense (d, D, D) stack, one hop a_i^dagger a_j at a time."""
    n = basis.n
    fock = fock_basis(n, particles)
    dim = fock.dim
    index = state_index(fock)
    mats = np.zeros((basis.dim, dim, dim), dtype=complex)
    occs = fock.occupations
    x = basis.coefficients.toarray().reshape(basis.dim, n, n)
    diag = x[:, range(n), range(n)].real
    mats[:, range(dim), range(dim)] = diag @ occs.T
    for s_idx, occ in enumerate(occs.tolist()):
        for j in range(n):
            if occ[j] == 0:
                continue
            for i in range(n):
                if i == j:
                    continue
                target = list(occ)
                target[j] -= 1
                target[i] += 1
                t_idx = index[tuple(target)]
                amp = np.sqrt(occ[j] * (occ[i] + 1))
                mats[:, t_idx, s_idx] += x[:, i, j] * amp
    return mats


def test_fock_ordering_descending():
    assert fock_basis(2, 4).occupations.tolist() == [[4, 0], [3, 1], [2, 2], [1, 3], [0, 4]]
    assert fock_basis(3, 1).occupations.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    fb = fock_basis(3, 9)
    assert fb.dim == 55 and fb.occupations[0].tolist() == [9, 0, 0]
    assert fb.rank((0, 0, 9)) == 54


@pytest.mark.parametrize("modes,particles", [(1, 3), (0, 1), (2, 0), (3, -1)])
def test_fock_basis_rejects_bad_sizes(modes, particles):
    with pytest.raises(InvalidElementError):
        fock_basis(modes, particles)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_particle_sector_is_fundamental(n):
    # one boson in n modes is C^n itself: X_a^(R) = X_a, so the sector's stack
    # is the basis map T with row a read as the (n, n) block of X_a
    for basis in (gellmann_basis(n), rotated_basis(n)):
        stack = symmetric_representation(basis, 1).stack
        defining = basis.coefficients.reshape((basis.dim * n, n))
        assert np.array_equal(stack.toarray(), defining.toarray())


def test_su2_diagonal_generator_spectrum(sym24):
    # collective sigma_z/2 on 4 bosons: m runs from J down to -J with J = 2
    jz = dense_generators(sym24)[2]
    np.testing.assert_allclose(np.diag(jz).real, [2.0, 1.0, 0.0, -1.0, -2.0], atol=1e-14)
    assert np.max(np.abs(jz - np.diag(np.diag(jz)))) < 1e-14


def test_casimir_frozen_values(sym24, sym39):
    fund = sym_rep(2, 1)
    assert abs(casimir(fund) - 0.75) < 1e-8
    assert abs(casimir(sym24) - 6.0) < 1e-8  # J(J+1) at J = 2
    assert abs(casimir(sym39) - 36.0) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_casimir_formula_small_sectors(n):
    for particles in range(1, 7):
        rep = sym_rep(n, particles)
        assert abs(casimir(rep) - casimir_formula(n, particles)) < 1e-8
        assert rep.space_dim == comb(particles + n - 1, n - 1)


@pytest.mark.parametrize("n,particles", [(2, 3), (3, 2)])
def test_commutators_close_on_structure_constants(n, particles):
    rep = sym_rep(n, particles)
    f = dense_structure_constants(rep.basis)
    g = dense_generators(rep)
    scale = float(np.max(np.abs(g)))
    for j in range(rep.basis.dim):
        for k in range(j + 1, rep.basis.dim):
            comm = g[j] @ g[k] - g[k] @ g[j]
            expected = 1j * np.tensordot(f[j, k], g, axes=1)
            assert np.max(np.abs(comm - expected)) < 1e-10 * scale


def _two_particle_symmetrizer(n, fock):
    # isometry from the two-boson sector into (C^n) tensor (C^n)
    s = np.zeros((n * n, fock.dim))
    for col, occ in enumerate(fock.occupations.tolist()):
        modes = [i for i, k in enumerate(occ) for _ in range(k)]
        i, j = modes
        if i == j:
            s[i * n + i, col] = 1.0
        else:
            s[i * n + j, col] = s[j * n + i, col] = 1.0 / np.sqrt(2.0)
    return s


@pytest.mark.parametrize("n", [2, 3])
def test_two_particle_lift_matches_tensor_square(n):
    rep = sym_rep(n, 2)
    fund = sym_rep(n, 1)
    s = _two_particle_symmetrizer(n, rep.fock)
    rng = np.random.default_rng(5 + n)
    for _ in range(5):
        coeffs = rng.uniform(-1.5, 1.5, rep.basis.dim)
        u1 = lift_unitary(fund, coeffs)
        u2 = lift_unitary(rep, coeffs)
        np.testing.assert_allclose(u2, s.T @ np.kron(u1, u1) @ s, atol=1e-8)


@pytest.mark.parametrize("n,particles", [(2, 4), (3, 3), (4, 2)])
def test_sector_conserves_particle_number(n, particles):
    rep = sym_rep(n, particles)
    sums = rep.fock.occupations.sum(axis=1)
    assert np.all(sums == particles)
    # generators never leave the sector: they are exactly the stored matrices,
    # and each is traceless because the fundamental element is
    assert np.max(np.abs(np.trace(dense_generators(rep), axis1=1, axis2=2))) < 1e-10


def test_lift_unitary_diagonal_phase():
    fund = sym_rep(2, 1)
    u = lift_unitary(fund, np.array([0.0, 0.0, np.pi]))
    np.testing.assert_allclose(u, np.diag([np.exp(0.5j * np.pi), np.exp(-0.5j * np.pi)]), atol=1e-12)


def test_lift_unitary_group_properties(sym24):
    rng = np.random.default_rng(17)
    for _ in range(5):
        coeffs = rng.uniform(-2.0, 2.0, 3)
        u = lift_unitary(sym24, coeffs)
        assert np.max(np.abs(u.conj().T @ u - np.eye(sym24.space_dim))) < 1e-12
        uinv = lift_unitary(sym24, -coeffs)
        assert np.max(np.abs(u @ uinv - np.eye(sym24.space_dim))) < 1e-12
    with pytest.raises(InvalidElementError):
        lift_unitary(sym24, np.zeros(4))


@pytest.mark.parametrize("n, particles", [(2, 3), (3, 2), (2, 6), (3, 4), (4, 2)])
def test_lift_unitary_matches_dense_route(n, particles):
    # the dense route lift_unitary replaced: sum h_a X_a over the (d, D, D) array
    rep = sym_rep(n, particles)
    gens = dense_generators(rep)
    rng = np.random.default_rng(30 * n + particles)
    for _ in range(3):
        coeffs = rng.uniform(-2.0, 2.0, rep.basis.dim)
        reference = exp_hermitian(np.tensordot(coeffs, gens, axes=1))
        assert np.max(np.abs(lift_unitary(rep, coeffs) - reference)) < 1e-12


def test_exp_hermitian_on_a_stack_matches_each_matrix():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 3, 5, 5)) + 1j * rng.standard_normal((4, 3, 5, 5))
    stack = z + z.conj().swapaxes(-1, -2)
    unitaries = exp_hermitian(stack)
    assert unitaries.shape == stack.shape
    for index in np.ndindex(stack.shape[:2]):
        assert np.array_equal(unitaries[index], exp_hermitian(stack[index]))
    eye = np.eye(5)
    assert np.max(np.abs(unitaries @ unitaries.conj().swapaxes(-1, -2) - eye)) < 1e-12


def test_dimension_cap_enforced():
    with pytest.raises(DimensionCapError):
        symmetric_representation(gellmann_basis(3), 9, cap=50)  # needs 55
    with pytest.raises(DimensionCapError, match="symmetric\\(3, 9\\) has dimension 55 > cap 50"):
        representation.symmetric_sector(3, 9, cap=50)
    assert representation.symmetric_sector(3, 9, cap=55).space_dim == 55


# the sectors of the benchmark decks: the bound-mix probes (tetrahedron, NOON 6,
# su(3) cyclic k = 3, the two GHZ probes and the singular Fock probe) and
# every optimize-small size
DECK_SECTORS = sorted(
    {(2, 4), (2, 6), (3, 9), (3, 6), (4, 4), (3, 5)}
    | {(2, particles) for particles in range(4, 20)}
    | {(3, particles) for particles in range(3, 10)}
    | {(4, 3), (4, 4)}
)


@pytest.mark.parametrize("n, particles", DECK_SECTORS)
def test_a_held_sector_equals_a_fresh_build(n, particles):
    held = representation.symmetric_sector(n, particles)
    assert representation.symmetric_sector(n, particles) is held
    assert (n, particles) in representation._sectors._reps
    fresh = symmetric_representation(gellmann_basis(n), particles)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(held.stack, name), getattr(fresh.stack, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert held.stack.shape == fresh.stack.shape
    assert casimir(held) == casimir(fresh)
    assert held.label == fresh.label
    assert held.fock == fresh.fock


def test_a_held_sector_runs_its_checks_once(monkeypatch):
    drop_held_sectors()
    checks = []

    def counted(*args):
        checks.append(args[2])
        return _checks(*args)

    monkeypatch.setattr(representation, "_construction_checks", counted)
    first = representation.symmetric_sector(3, 4)
    assert representation.symmetric_sector(3, 4) is first
    symmetric_representation(gellmann_basis(3), 4)  # builds and checks on every call
    assert checks == ["symmetric(3, 4)", "symmetric(3, 4)"]


def test_a_held_stack_is_read_only():
    rep = representation.symmetric_sector(2, 4)
    for arr in (rep.stack.data, rep.stack.indices, rep.stack.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    with pytest.raises(ValueError, match="read-only"):
        rep.stack.data *= 2.0
    assert casimir(rep) == casimir(symmetric_representation(gellmann_basis(2), 4))


def test_held_sectors_stay_within_the_dimension_cap():
    # D = N + 1 on two modes: 8000 + 9000 are held, then 6000 more evict the
    # least recently used of them, which the second request for 7999 makes 8999
    drop_held_sectors()
    held = representation._sectors
    try:
        first = representation.symmetric_sector(2, 7999)
        representation.symmetric_sector(2, 8999)
        assert held.dims == 17000
        assert representation.symmetric_sector(2, 7999) is first
        representation.symmetric_sector(2, 5999)
        assert list(held._reps) == [(2, 7999), (2, 5999)]
        assert held.dims == 14000 <= DIMENSION_CAP
        # a sector above DIMENSION_CAP, which only a raised cap admits, is built and not held
        big = representation.symmetric_sector(2, DIMENSION_CAP, cap=DIMENSION_CAP + 1)
        assert big.space_dim == DIMENSION_CAP + 1
        assert list(held._reps) == [(2, 7999), (2, 5999)] and held.dims == 14000
        assert big.stack.data.flags.writeable
    finally:
        drop_held_sectors()


def test_held_sectors_add_up_under_concurrent_requests(monkeypatch):
    # eight threads request overlapping sectors under a cap of 30 states, so
    # holds and evictions interleave; the held dimensions must still add up.
    # A stand-in build of D = N + 1 states keeps the threads on the held sectors.
    drop_held_sectors()
    monkeypatch.setattr(representation, "DIMENSION_CAP", 30)

    def build(basis, particles, cap):
        return types.SimpleNamespace(space_dim=particles + 1, stack=sparse.csr_array(np.eye(2)))

    monkeypatch.setattr(representation, "symmetric_representation", build)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(1000):
                particles = rng.randrange(1, 13)  # D = 2..13
                assert representation.symmetric_sector(2, particles).space_dim == particles + 1
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        held = representation._sectors._reps.values()
        assert representation._sectors.dims == sum(rep.space_dim for rep in held) <= 30
    finally:
        drop_held_sectors()


def test_reducible_stack_fails_casimir():
    basis = gellmann_basis(2)
    gens = np.zeros((3, 3, 3), dtype=complex)
    gens[:, :2, :2] = dense_gellmann(2)  # fundamental plus a trivial block
    with pytest.raises(NotIrreducibleError):
        Representation(basis=basis, stack=gens.reshape(9, 3), label="fundamental+trivial")


def test_representation_rejects_non_hermitian_stack():
    basis = gellmann_basis(2)
    bad = np.zeros((3, 2, 2), dtype=complex)
    bad[0, 0, 1] = 1.0
    with pytest.raises(InvalidElementError):
        Representation(basis=basis, stack=bad.reshape(6, 2), label="broken")


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (-1, -2)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize(
    "build, kernel",
    [
        (lambda: sym_rep(2, 3), representation._product_residuals),
        (lambda: sym_rep(3, 1), representation._merged_residuals),
    ],
    ids=["sym(2,3)", "fundamental(3)"],
)
def test_representation_rejects_non_finite_stack(build, kernel, entry, value, monkeypatch):
    # each residual test is False for NaN, so the check must come before them
    rep = build()
    assert representation._choose_kernel(rep.stack) is kernel
    bad = rep.stack.toarray()
    bad[entry] = value

    def no_residuals(*args):
        raise AssertionError("residuals were formed from a non-finite stack")

    monkeypatch.setattr(representation, "_construction_checks", no_residuals)
    with pytest.raises(InvalidElementError, match=r"stack of corrupted has non-finite entries"):
        Representation(basis=rep.basis, stack=bad, label="corrupted")


def test_quadratic_invariant_scalar_on_random_sector():
    rep = sym_rep(3, 4)
    c2 = casimir(rep)
    gens = dense_generators(rep)
    invariant = np.einsum("aij,ajk->ik", gens, gens)
    dev = np.max(np.abs(invariant - c2 * np.eye(rep.space_dim)))
    assert dev < 1e-8 * c2
    # sanity on the fixture helper used throughout the suite
    state = random_pure(rep, np.random.default_rng(0))
    assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sparse_stack_matches_dense_reference(n):
    for basis in (gellmann_basis(n), rotated_basis(n)):
        for particles in range(1, 13):
            rep = symmetric_representation(basis, particles)
            assert np.array_equal(dense_generators(rep), dense_collective_stack(basis, particles))


# every sector of the golden CSVs (n = 2..6 up to N = 40, 24, 9, 6, 4), which
# hold every benchmark sector, and larger ones where the radix keys fit int64
RADIX_SECTORS = (
    [(2, N) for N in range(1, 41)]
    + [(3, N) for N in range(1, 25)]
    + [(4, N) for N in range(1, 10)]
    + [(5, N) for N in range(1, 7)]
    + [(6, N) for N in range(1, 5)]
    + [(3, 60), (4, 30), (6, 8), (10, 3), (20, 3), (40, 2)]
    + [tuple(map(int, nN)) for nN in np.random.default_rng(20).integers([2, 1], [13, 8], (12, 2))]
)


def _same_csr(a, b):
    return all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr))
    ) and a.shape == b.shape


def test_stack_matches_the_radix_key_build_bit_for_bit():
    assert all(N * (N + 1) ** (n - 1) < 2**63 for n, N in RADIX_SECTORS)
    for n, particles in RADIX_SECTORS:
        basis, fock = gellmann_basis(n), fock_basis(n, particles)
        stack = representation._collective_stack(basis, fock)
        assert _same_csr(stack, radix_collective_stack(basis, fock)), (n, particles)


@pytest.mark.parametrize("n, particles", [(32, 3), (41, 2), (64, 1), (42, 2)], ids=str)
def test_stack_hops_are_exact_where_radix_keys_overflow(n, particles):
    # radix keys wrap in int64 at sym(32, 3), are float64 at sym(41, 2) and
    # sym(64, 1) and Python ints at sym(42, 2); the rank is int64 at every size
    fock = fock_basis(n, particles)
    stack = representation._collective_stack(gellmann_basis(n), fock)
    dim = fock.dim
    assert stack.shape == ((n * n - 1) * dim, dim)
    representation._check_hermitian(stack, max(1.0, np.abs(stack.data).max()))
    index = state_index(fock)
    expected = set()
    for src, occ in enumerate(fock.occupations.tolist()):
        for j in np.flatnonzero(occ).tolist():
            for i in range(n):
                if i != j:
                    target = list(occ)
                    target[j] -= 1
                    target[i] += 1
                    expected.add(index[tuple(target)] * dim + src)
    row = np.arange(stack.shape[0]).repeat(np.diff(stack.indptr)) % dim
    hop = row != stack.indices
    assert np.array_equal(np.unique(row[hop] * dim + stack.indices[hop]), sorted(expected))


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(modes=st.integers(2, 12), particles=st.integers(1, 9))
def test_rank_of_each_state_is_its_row_hypothesis(modes, particles):
    fock = fock_basis(modes, particles)
    occs = fock.occupations
    assert occs.dtype == np.int64 and not occs.flags.writeable
    assert occs.shape == (comb(particles + modes - 1, modes - 1), modes)
    assert (occs >= 0).all() and (occs.sum(axis=1) == particles).all()
    # strictly descending rows: the first differing mode of each pair drops
    step = np.diff(occs, axis=0)
    first = step[np.arange(step.shape[0]), (step != 0).argmax(axis=1)]
    assert (first < 0).all()
    assert np.array_equal(fock.rank(occs), np.arange(fock.dim))
    assert fock.rank(occs[-1]) == fock.dim - 1


def test_sector_build_of_su40_stays_near_its_stack_size():
    # the build reads the basis's columns and forms no dense (d, D) or (d, hops) array
    basis = gellmann_basis(40)
    fock = fock_basis(40, 2)
    tracemalloc.start()
    try:
        stack = representation._collective_stack(basis, fock)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.shape == (1599 * 820, 820)
    assert peak <= 5 * (stack.data.nbytes + stack.indices.nbytes + stack.indptr.nbytes)


@pytest.mark.parametrize(
    "n, particles", [(3, 60), (4, 30), (6, 8), (5, 10), (10, 3), (14, 2)], ids=str
)
def test_construction_checks_stay_within_ten_stacks(n, particles):
    # the residual kernels run over runs of CHECK_BUDGET terms; all of Z, or
    # every Gram term, at once peaked at 22 to 223 times the stack's bytes
    # here.  The Hermitian check runs over runs of generators too, so the
    # product-kernel sectors stay within 5 stacks (6.6 to 6.9 when it merged
    # every entry at once).
    basis = gellmann_basis(n)
    constants = structure_constants(basis)
    stack = representation._collective_stack(basis, fock_basis(n, particles))
    kernel = representation._choose_kernel(stack)
    product = n <= 6
    assert kernel is (representation._product_residuals if product else representation._merged_residuals)
    tracemalloc.start()
    try:
        assert structure_constants(basis) is constants  # warm: nothing is built
        c2 = representation._construction_checks(basis, stack, "guarded", kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(c2 - casimir_formula(n, particles)) <= 1e-10 * c2
    stacks = 5 if product else 10
    assert peak <= stacks * (stack.data.nbytes + stack.indices.nbytes + stack.indptr.nbytes)


@pytest.mark.parametrize("n, particles", [(2, 1), (2, 5), (3, 1), (3, 4), (4, 3), (5, 2)])
def test_stack_products_match_the_explicit_forms(n, particles):
    # images against the dense generators; adjoint_sum bit for bit against the
    # product with an explicit conjugate-transposed copy of the stack
    rep = sym_rep(n, particles)
    gens = dense_generators(rep)
    adjoint = rep.stack.conj().T.tocsr()
    rng = np.random.default_rng(10 * n + particles)
    d, dim = rep.basis.dim, rep.space_dim
    for _ in range(50):
        w = rng.standard_normal((d, dim)) + 1j * rng.standard_normal((d, dim))
        total = rep.adjoint_sum(w)
        assert total.tobytes() == (adjoint @ w.ravel()).tobytes()
        np.testing.assert_allclose(total, np.einsum("aji,aj->i", gens.conj(), w), atol=1e-12)
    columns = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    np.testing.assert_allclose(rep.images(columns), gens @ columns, atol=1e-12)
    assert rep.images(columns[:, 0]).shape == (d, dim)


def test_commutator_check_covers_every_pair():
    # symmetric(3, 16) has D = 153.  Shifting the lambda_8 entry of the state
    # (0, 0, 16) commutes with generators 0 and 6, and no neighbouring pair
    # (j, j + 1 mod 8) has f_jk7 != 0, so only pairs such as (1, 4) and
    # (1, 7) see it.
    rep = sym_rep(3, 16)
    assert rep.space_dim > 150
    gens = dense_generators(rep)
    last = rep.fock.rank((0, 0, 16))
    gens[7, last, last] += 1e-6
    f = dense_structure_constants(rep.basis)
    scale = float(np.max(np.abs(gens)))
    for j in range(8):
        k = (j + 1) % 8
        comm = gens[j] @ gens[k] - gens[k] @ gens[j]
        assert np.max(np.abs(comm - 1j * np.tensordot(f[j, k], gens, axes=1))) < 1e-10 * scale
    with pytest.raises(InvalidElementError, match="commutator"):
        Representation(basis=rep.basis, stack=gens.reshape(-1, rep.space_dim), label="perturbed")
    intact = dense_generators(rep).reshape(-1, rep.space_dim)
    Representation(basis=rep.basis, stack=intact, label="intact")


def test_fundamental_sector_of_su40_builds():
    # the dense (d, d, n, n) product behind the structure constants needed 61 GiB
    # here.  The construction checks take the grouped merge over runs of rows,
    # and the build peaks near 4 MB traced (89 MB when the merge took every
    # Gram term at once).
    basis = gellmann_basis(40)
    constants = structure_constants(basis)
    tracemalloc.start()
    try:
        # the constants are kept on the basis: a warm call copies nothing
        assert structure_constants(basis) is constants
        warm = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rep = symmetric_representation(basis, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert warm < 2**20
    assert rep.space_dim == 40
    assert abs(casimir(rep) - casimir_formula(40, 1)) < 1e-8
    assert peak < 16 * 2**20


def test_large_sector_stays_sparse():
    n, particles = 3, 60
    basis = gellmann_basis(n)
    structure_constants(basis)
    tracemalloc.start()
    try:
        rep = symmetric_representation(basis, particles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = rep.space_dim
    assert dim == 1891 and dim <= DIMENSION_CAP
    assert abs(casimir(rep) - casimir_formula(n, particles)) < 1e-8
    assert casimir_formula(n, particles) == 1260.0
    stack = rep.stack
    assert stack.nnz <= (n - 1) * (2 * n + 1) * dim
    stack_bytes = stack.data.nbytes + stack.indices.nbytes + stack.indptr.nbytes
    assert stack_bytes < 2 * 2**20
    # the build and its checks peak near 8 stacks (27 with all of Z at once; the
    # grouped merge of every Gram term took 75)
    assert peak < 10 * stack_bytes
    assert not hasattr(rep, "generators")  # the stack is the only form kept


# the construction checks with either residual kernel, as the differential
# tests below run them
KERNELS = (representation._product_residuals, representation._merged_residuals)
_checks = representation._construction_checks

# CHECK_BUDGET for a run of a kernel in one pass, and budgets that split the
# sectors below into runs: at 16 terms every sector splits, since sym(2, 1)
# already holds 24 in each kernel; at 300 runs span several pairs or rows
ONE_PASS = 2**62
BUDGETS = (None, 16, 300)


def _runs_of(kernel, stack, constants, budget, monkeypatch):
    # the kernel's residuals under CHECK_BUDGET = budget, and how many runs it took
    runs = []
    split = representation._runs

    def counted(cost):
        for run in split(cost):
            runs.append(run)
            yield run

    with monkeypatch.context() as patch:
        patch.setattr(representation, "_runs", counted)
        patch.setattr(representation, "CHECK_BUDGET", budget)
        return kernel(stack, constants), max(len(runs), 1)


def _same_residuals(split, whole):
    # the same deviation and pair, and the same invariant entries, bit for bit
    assert split[:2] == whole[:2]
    for a, b in zip(split[2:], whole[2:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("budget", BUDGETS)
def test_check_kernels_agree_on_intact_stacks(budget, monkeypatch):
    sectors = [(n, particles) for n in (2, 3, 4, 5) for particles in range(1, 9)] + [(3, 24)]
    chosen = set()
    for n, particles in sectors:
        rep = symmetric_representation(gellmann_basis(n), particles)
        chosen.add(representation._choose_kernel(rep.stack))
        if budget is not None:
            constants = structure_constants(rep.basis)
            for kernel in KERNELS:
                whole, _ = _runs_of(kernel, rep.stack, constants, ONE_PASS, monkeypatch)
                split, runs = _runs_of(kernel, rep.stack, constants, budget, monkeypatch)
                _same_residuals(split, whole)
                assert runs > 1 or budget > 16
        product, merged = (_checks(rep.basis, rep.stack, rep.label, kernel) for kernel in KERNELS)
        assert abs(product - merged) <= 1e-12 * merged
        expected = casimir_formula(n, particles)
        assert abs(product - expected) <= 1e-10 * expected
    assert chosen == set(KERNELS)  # the sectors lie on both sides of the selection


def _stack(gens):
    return sparse.csr_array(gens.reshape(-1, gens.shape[-1]))


def _commutator_pair(message):
    return re.match(r"commutator \((\d+), (\d+)\) deviates", message).groups()


@pytest.mark.parametrize("budget", BUDGETS)
def test_check_kernels_reject_the_same_corrupted_stacks(budget, monkeypatch):
    # the lambda_8 shift of test_commutator_check_covers_every_pair
    rep = sym_rep(3, 16)
    gens = dense_generators(rep)
    last = rep.fock.rank((0, 0, 16))
    gens[7, last, last] += 1e-6
    shifted = _stack(gens)
    # a reducible block stack, sym(3, 1) + sym(3, 2): every commutator holds
    small, large = dense_generators(sym_rep(3, 1)), dense_generators(sym_rep(3, 2))
    gens = np.zeros((8, 9, 9), dtype=complex)
    gens[:, :3, :3], gens[:, 3:, 3:] = small, large
    reducible = _stack(gens)
    if budget is not None:
        constants = structure_constants(rep.basis)
        for stack in (shifted, reducible):
            for kernel in KERNELS:
                whole, _ = _runs_of(kernel, stack, constants, ONE_PASS, monkeypatch)
                split, runs = _runs_of(kernel, stack, constants, budget, monkeypatch)
                _same_residuals(split, whole)
                assert runs > 1
    pairs = []
    for kernel in KERNELS:
        with pytest.raises(InvalidElementError, match="commutator") as err:
            _checks(rep.basis, shifted, "shifted", kernel)
        pairs.append(_commutator_pair(str(err.value)))
    assert pairs[0] == pairs[1]

    # a non-Hermitian entry
    gens = dense_generators(sym_rep(3, 4))
    gens[2, 0, 3] += 1e-3
    for kernel in KERNELS:
        with pytest.raises(InvalidElementError, match="Hermitian"):
            _checks(rep.basis, _stack(gens), "skewed", kernel)

    for kernel in KERNELS:
        with pytest.raises(NotIrreducibleError):
            _checks(rep.basis, reducible, "reducible", kernel)
