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
    GeneratorBasis,
    InvalidElementError,
    InvalidStateError,
    NotIrreducibleError,
    Representation,
    casimir,
    exp_hermitian,
    fock_basis,
    gellmann_basis,
    lift_unitary,
    make_ghz,
    pure_state,
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


def test_dimension_cap_refuses_without_forming_a_huge_dimension():
    # binom(199999, 99999) has about 60000 digits; the partial products stop
    # at the first one above the cap
    with pytest.raises(DimensionCapError, match="symmetric\\(100000, 100000\\) has dimension at least"):
        representation.check_cap(10**5, 10**5, 20000)


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
@pytest.mark.parametrize("build", [lambda: sym_rep(2, 3), lambda: sym_rep(3, 1)], ids=["sym(2,3)", "fundamental(3)"])
def test_representation_rejects_non_finite_stack(build, entry, value, monkeypatch):
    # each residual test is False for NaN, so the check must come before them
    rep = build()
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
    block, row, col, val = representation._entries(stack)
    flipped = sparse.csr_array((val.conj(), (block * dim + col, row)), shape=stack.shape)
    assert abs(stack - flipped).max() == 0.0  # each block is Hermitian
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
    # the checks hold the images' tables and one generator's relations at a
    # time; every residual kernel term at once peaked at 22 to 223 times the
    # stack's bytes here.  The sectors up to n = 6 stay within 5 stacks.
    basis = gellmann_basis(n)
    stack = representation._collective_stack(basis, fock_basis(n, particles))
    tracemalloc.start()
    try:
        c2 = representation._construction_checks(basis, stack, "guarded")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(c2 - casimir_formula(n, particles)) <= 1e-10 * c2
    stacks = 5 if n <= 6 else 10
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
    # here.  The construction checks read the matrix-unit images, and the build
    # peaks near 3 MB traced (89 MB when the checks grouped every Gram term at
    # once).
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
    # the build and its checks peak near 5.5 stacks (8 with the pair kernels in
    # runs, 27 with all of Z at once and 75 with every Gram term)
    assert peak < 10 * stack_bytes
    assert not hasattr(rep, "generators")  # the stack is the only form kept


_checks = representation._construction_checks


def _stack(gens):
    return sparse.csr_array(gens.reshape(-1, gens.shape[-1]))


def _lambda8_shift():
    # symmetric(3, 16) with the lambda_8 entry of the state (0, 0, 16) moved by
    # 1e-6, as test_commutator_check_covers_every_pair builds it
    rep = sym_rep(3, 16)
    gens = dense_generators(rep)
    last = rep.fock.rank((0, 0, 16))
    gens[7, last, last] += 1e-6
    return rep.basis, gens


def _reducible_blocks():
    # sym(3, 1) + sym(3, 2), whose commutators all hold, and the su(2)
    # fundamental plus a trivial block
    gens = np.zeros((8, 9, 9), dtype=complex)
    gens[:, :3, :3], gens[:, 3:, 3:] = dense_generators(sym_rep(3, 1)), dense_generators(sym_rep(3, 2))
    trivial = np.zeros((3, 3, 3), dtype=complex)
    trivial[:, :2, :2] = dense_gellmann(2)
    return [(gellmann_basis(3), gens), (gellmann_basis(2), trivial)]


def test_corrupted_stacks_name_the_failing_relation():
    basis, gens = _lambda8_shift()
    with pytest.raises(InvalidElementError, match=r"^commutator \[E_0,0, E_0,2\] deviates by 2\.309e-06 in shifted$"):
        _checks(basis, _stack(gens), "shifted")
    gens = dense_generators(sym_rep(3, 4))
    gens[2, 0, 3] += 1e-3
    with pytest.raises(InvalidElementError, match=r"^skewed is not Hermitian: rho\(E_2,1\) and rho\(E_1,2\)\^dagger"):
        _checks(basis, _stack(gens), "skewed")
    for basis, gens in _reducible_blocks():
        with pytest.raises(NotIrreducibleError, match=r"^quadratic invariant of reducible deviates from scalar"):
            _checks(basis, _stack(gens), "reducible")


def test_a_representation_given_no_label_is_named_in_messages():
    # with the empty default label these read "expected 2 amplitudes for , got 3"
    # and " is not symmetric(2, 1)"
    basis = gellmann_basis(2)
    rep = Representation(basis, basis.coefficients.reshape((6, 2)))
    assert rep.label == "a representation of su(2) on 2 states"
    with pytest.raises(InvalidStateError, match=r"^expected 2 amplitudes for a representation of su\(2\) on 2 states, got 3$"):
        pure_state(rep, np.ones(3) / np.sqrt(3))
    with pytest.raises(InvalidStateError, match=r"^a representation of su\(2\) on 2 states is not symmetric\(2, 1\)$"):
        make_ghz(2, 1, rep=rep)


def test_symmetric_representation_asserts_the_closed_form_casimir(monkeypatch):
    closed = representation._symmetric_casimir
    monkeypatch.setattr(representation, "_symmetric_casimir", lambda n, particles: closed(n, particles + 1))
    with pytest.raises(NotIrreducibleError, match=r"^quadratic invariant of symmetric\(3, 4\) is 9\.333\d*, not the closed form 13\.333\d*$"):
        symmetric_representation(gellmann_basis(3), 4)


def test_every_radix_sector_passes_the_check_at_its_closed_form_casimir():
    for n, particles in RADIX_SECTORS:
        rep = symmetric_representation(gellmann_basis(n), particles, cap=10**5)
        expected = casimir_formula(n, particles)
        assert abs(casimir(rep) - expected) <= representation.CASIMIR_RTOL * max(1.0, expected), (n, particles)


def test_a_sector_build_computes_no_structure_constants():
    basis = GeneratorBasis(n=4, coefficients=gellmann_basis(4).coefficients)
    symmetric_representation(basis, 3)
    assert "_structure_constants" not in vars(basis)


@seed(20261020)
@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), particles=st.integers(1, 6), draw=st.integers(0, 2**32 - 1))
def test_rotated_bases_pass_and_rotated_states_leave_occupation_form_hypothesis(n, particles, draw):
    # any orthonormal basis gives a stack in occupation form; a unitary change of
    # the state basis keeps every relation but not that form, and is refused
    rng = np.random.default_rng(draw)
    x = dense_gellmann(n)
    rotation, _ = np.linalg.qr(rng.standard_normal((len(x), len(x))))
    basis = GeneratorBasis(n=n, coefficients=np.tensordot(rotation, x, axes=1).reshape(len(x), -1))
    rep = symmetric_representation(basis, particles)
    expected = casimir_formula(n, particles)
    assert abs(casimir(rep) - expected) <= 1e-10 * expected
    dim = rep.space_dim
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    turned = np.einsum("ji,ajk,kl->ail", u.conj(), dense_generators(rep), u)
    with pytest.raises(InvalidElementError, match=r"is not in occupation form: rho\(E_\d+,\d+\) has"):
        Representation(basis, turned.reshape(-1, dim))


@pytest.mark.parametrize(
    "make_basis, n, particles, cap",
    [
        (gellmann_basis, 3, 400, 10**5),
        (rotated_basis, 3, 198, DIMENSION_CAP),
        (rotated_basis, 4, 30, DIMENSION_CAP),
    ],
    ids=["gellmann-3-400", "rotated-3-198", "rotated-4-30"],
)
def test_intact_sectors_pass_where_rounding_governs(make_basis, n, particles, cap):
    # the rounding in the checked relations grows like N**2, while the share of
    # COMMUTATOR_RTOL left after the Jacobi step does not grow; a dense basis
    # map adds a rounding residue to every image, which the bound carries with
    # a factor of about N.  sym(3, 400) needs a raised cap
    rep = symmetric_representation(make_basis(n), particles, cap=cap)
    expected = casimir_formula(n, particles)
    assert abs(casimir(rep) - expected) <= 1e-10 * expected


class _DenseReference:
    """The exhaustive checks over every pair on the dense generators, for the
    stacks that differ from one base stack in X_a alone.

    The base's residuals [X_j, X_k] - i f_jkl X_l are formed over every pair
    from conftest's dense_generators and dense_structure_constants.  Adding
    delta E_rc to X_a moves the residual of a pair (a, k) by delta [E_rc,
    X_k] and that of any other pair by -i delta f_jka E_rc, so a corrupted
    stack's residuals are the base's plus those terms; its Hermiticity and
    sum_b X_b**2 change in X_a alone.
    """

    def __init__(self, basis, gens):
        d = gens.shape[0]
        self.gens, self.f = gens, dense_structure_constants(basis)
        prod = gens[:, None] @ gens[None, :]
        self.resid = prod - prod.transpose(1, 0, 2, 3) - 1j * np.tensordot(self.f, gens, axes=1)
        size = np.abs(self.resid)
        others = [np.delete(np.arange(d), a) for a in range(d)]
        # for each a, over the pairs and generators without a: the largest
        # residual at each entry, |X_b - X_b^dagger| and |X_b|
        self.rest = np.array([size[np.ix_(o, o)].max(axis=(0, 1)) for o in others])
        skew = np.abs(gens - gens.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        self.skew = np.array([skew[o].max(initial=0.0) for o in others])
        self.big = np.array([np.abs(gens[o]).max(initial=0.0) for o in others])
        self.square = np.einsum("aij,ajk->ik", gens, gens)
        self.fg = np.tensordot(self.f, gens, axes=1)

    def rejects_moved(self, moved, r, c) -> bool:
        # moved differs from the base in the entries (r, c) and (c, r) of any generators
        prod = moved[:, None] @ moved[None, :]
        resid = prod - prod.transpose(1, 0, 2, 3) - 1j * self.fg
        for rr, cc in {(r, c), (c, r)}:
            resid[:, :, rr, cc] -= 1j * (self.f @ (moved[:, rr, cc] - self.gens[:, rr, cc]))
        return self._verdict(moved, np.abs(resid).max(), np.einsum("aij,ajk->ik", moved, moved))

    def _verdict(self, gens, comm, square) -> bool:
        scale = max(1.0, np.abs(gens).max())
        skew = np.abs(gens - gens.conj().transpose(0, 2, 1)).max()
        c2 = square.trace().real / len(square)
        dev = max(np.abs(square - np.diag(np.diag(square))).max(), np.abs(np.diag(square) - c2).max())
        return bool(
            skew > representation.HERMITIAN_RTOL * scale
            or comm > representation.COMMUTATOR_RTOL * scale
            or dev > representation.CASIMIR_RTOL * max(1.0, abs(c2))
        )

    def rejects(self, a, changes) -> bool:
        # changes: (r, c, delta) for each entry X_a[r, c] moved by delta
        gens = self.gens
        x = gens[a].copy()
        for r, c, delta in changes:
            x[r, c] += delta
        scale = max(1.0, self.big[a], np.abs(x).max())
        skew = max(self.skew[a], np.abs(x - x.conj().T).max())
        rest = self.rest[a].copy()
        moved = self.resid[a].copy()
        comm = 0.0
        for r, c, delta in changes:
            rest[r, c] = 0.0
            moved[:, r, :] += delta * gens[:, c, :]
            moved[:, :, c] -= delta * gens[:, :, r]
        for r, c in {(r, c) for r, c, _ in changes}:
            at = self.resid[:, :, r, c] - 1j * (x[r, c] - gens[a, r, c]) * self.f[:, :, a]
            at[a], at[:, a] = 0.0, 0.0
            comm = max(comm, np.abs(at).max())
        moved[a] = 0.0  # there is no pair (a, a)
        comm = max(comm, rest.max(), np.abs(moved).max())
        square = self.square - gens[a] @ gens[a] + x @ x
        c2 = square.trace().real / len(square)
        dev = max(np.abs(square - np.diag(np.diag(square))).max(), np.abs(np.diag(square) - c2).max())
        return bool(
            skew > representation.HERMITIAN_RTOL * scale
            or comm > representation.COMMUTATOR_RTOL * scale
            or dev > representation.CASIMIR_RTOL * max(1.0, abs(c2))
        )


def test_the_check_rejects_every_corruption_the_dense_reference_rejects():
    # 10**4 seeded corruptions by a log-uniform 1e-14 to 1e-2 of the scale, real
    # or of random phase.  Of one generator: one stored entry, any entry, or a
    # stored entry and its transposed partner (Hermitian, but out of occupation
    # form).  And, on the sectors up to D = 15, an entry of one image rho(E_pq)
    # with its adjoint's, which changes several generators and keeps every
    # form, so that only the commutators and the invariant can refuse it
    bases = [(sym_rep(n, N).basis, dense_generators(sym_rep(n, N))) for n, N in [(2, 3), (3, 2), (3, 4), (4, 2), (5, 2)]]
    bases += [_lambda8_shift()] + _reducible_blocks()
    counts = [1710] * 5 + [250] + [600, 600]
    rng = np.random.default_rng(26)
    seen = {(True, True): 0, (False, False): 0, (False, True): 0}
    for (basis, gens), count in zip(bases, counts):
        reference = _DenseReference(basis, gens)
        d, dim = gens.shape[:2]
        n = basis.n
        t = basis.coefficients.toarray()  # X_a = sum_u T[a, u] rho(u)
        images = np.tensordot(2.0 * t.T.conj(), gens, axes=1)  # rho(E_pq) at p n + q
        base = _stack(gens)
        stored = np.argwhere(gens != 0)
        hops = np.argwhere(np.abs(images[np.arange(n * n) % (n + 1) != 0]) > 0.5)
        scale = max(1.0, np.abs(gens).max())
        for kind in rng.integers(4 if dim <= 15 else 3, size=count):
            a, r, c = rng.integers([d, dim, dim]) if kind == 1 else stored[rng.integers(len(stored))]
            delta = scale * 10.0 ** rng.uniform(-14, -2)
            delta *= rng.choice([-1.0, 1.0]) if rng.random() < 0.5 else np.exp(2j * np.pi * rng.random())
            changes = [(r, c, delta)]
            if kind == 2:
                changes = [(r, c, delta.real)] if r == c else [(r, c, delta), (c, r, np.conj(delta))]
            if kind == 3:
                u, r, c = hops[rng.integers(len(hops))]
                p, q = divmod(np.flatnonzero(np.arange(n * n) % (n + 1))[u], n)
                moved = gens.copy()
                moved[:, r, c] += t[:, p * n + q] * delta
                moved[:, c, r] += t[:, q * n + p] * np.conj(delta)
                changes = [(a, r, c, moved[a, r, c] - gens[a, r, c]) for a in range(d) if moved[a, r, c] != gens[a, r, c]]
                changes += [(a, c, r, moved[a, c, r] - gens[a, c, r]) for a in range(d) if moved[a, c, r] != gens[a, c, r]]
                expected = reference.rejects_moved(moved, r, c)
            else:
                changes = [(a, rr, cc, dd) for rr, cc, dd in changes]
                expected = reference.rejects(a, [change[1:] for change in changes])
            ga, gr, gc, gv = (np.array(x) for x in zip(*changes))
            bad = base + sparse.csr_array((gv, (ga * dim + gr, gc)), shape=base.shape)
            try:
                Representation(basis, bad)
                refused = False
            except (InvalidElementError, NotIrreducibleError):
                refused = True
            assert refused or not expected, (basis.n, dim, kind, delta)
            seen[expected, refused] += 1
    assert sum(seen.values()) == 10**4
    # both verdicts of the reference occur, and the check lets many of its passes pass
    assert seen[True, True] > 100 and seen[False, False] > 100, seen


def test_the_check_rejects_what_the_pair_residuals_reject_where_rounding_governs():
    # at sym(3, 60) the check's tolerance is ROUNDING (1 + m')**2, not the share
    # of COMMUTATOR_RTOL.  A stored entry of one generator and its transposed
    # partner move by 1e-16 to 1e-8 of the scale, which keeps the generator
    # Hermitian; the reference forms every pair's residual from sparse products
    rep = sym_rep(3, 60)
    base, dim = rep.stack, rep.space_dim
    f = dense_structure_constants(rep.basis)
    scale = np.abs(base.data).max()
    stored = base.tocoo()
    rng = np.random.default_rng(60)
    seen = {(True, True): 0, (False, False): 0, (False, True): 0}
    for _ in range(60):
        e = rng.integers(stored.nnz)
        a, r = divmod(int(stored.row[e]), dim)
        c = int(stored.col[e])
        delta = scale * 10.0 ** rng.uniform(-16, -8) * np.exp(2j * np.pi * rng.random())
        moved = [(r, c, delta), (c, r, np.conj(delta))] if r != c else [(r, r, delta.real)]
        rows, cols, values = zip(*moved)
        bad = base + sparse.csr_array((values, (a * dim + np.array(rows), cols)), shape=base.shape)
        gens = [bad[b * dim : (b + 1) * dim] for b in range(8)]
        comm = max(
            abs(gens[j] @ gens[k] - gens[k] @ gens[j] - 1j * sum(f[j, k, l] * gens[l] for l in range(8))).max()
            for j in range(8)
            for k in range(j + 1, 8)
        )
        expected = bool(comm > representation.COMMUTATOR_RTOL * scale)
        try:
            Representation(rep.basis, bad)
            refused = False
        except (InvalidElementError, NotIrreducibleError):
            refused = True
        assert refused or not expected, delta
        seen[expected, refused] += 1
    assert seen[True, True] > 10 and seen[False, False] > 10, seen
