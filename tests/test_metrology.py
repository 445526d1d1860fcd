"""Covariances, information matrices, scalar bounds, probe grading."""

import json
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from conftest import dense_generators, dense_structure_constants, random_pure, rotated_basis, sym_rep
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sunmetro.metrology as metrology
from sunmetro import (
    GeneratorMatrix,
    InvalidElementError,
    InvalidStateError,
    ProbeSpec,
    ProbeState,
    Representation,
    SingularCovarianceError,
    SingularInformationError,
    build_probe,
    build_report,
    casimir,
    covariance,
    euler_su2,
    exponential,
    gellmann_basis,
    generators_closed_form,
    intrinsic_bound,
    make_fock,
    make_ghz,
    make_noon,
    mixed_state,
    product_of_exponentials,
    pure_state,
    qfim,
    saturation_check,
    unpolarized_report,
    weighted_bound,
)


@pytest.fixture(scope="module")
def stretched(sym24):
    v = np.zeros(sym24.space_dim, dtype=complex)
    v[sym24.fock.rank((4, 0))] = 1.0
    return pure_state(sym24, v)


def test_stretched_state_covariance(stretched):
    mean, cov = covariance(stretched)
    np.testing.assert_allclose(mean, [0.0, 0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(cov, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("particles", [3, 4, 6])
def test_noon_covariance_diagonal(particles):
    mean, cov = covariance(make_noon(particles))
    np.testing.assert_allclose(mean, np.zeros(3), atol=1e-12)
    expected = np.diag([particles / 4.0, particles / 4.0, particles**2 / 4.0])
    np.testing.assert_allclose(cov, expected, atol=1e-12)


def test_noon_two_particles_degenerates():
    _, cov = covariance(make_noon(2))
    np.testing.assert_allclose(cov, np.diag([1.0, 0.0, 1.0]), atol=1e-12)
    with pytest.raises(SingularCovarianceError):
        intrinsic_bound(cov)


def test_tetrahedron_is_isotropic(tetrahedron):
    mean, cov = covariance(tetrahedron)
    assert np.linalg.norm(mean) < 1e-12
    np.testing.assert_allclose(cov, 2.0 * np.eye(3), atol=1e-12)
    assert abs(intrinsic_bound(cov) - 0.375) < 1e-10


def test_intrinsic_frozen_values(cyclic33):
    for particles in (3, 4, 6):
        _, cov = covariance(make_noon(particles))
        expected = 2.0 / particles + 1.0 / particles**2
        assert abs(intrinsic_bound(cov) - expected) < 1e-10
    _, cov = covariance(cyclic33)
    assert abs(intrinsic_bound(cov) - 4.0 / 9.0) < 1e-10


def test_trace_identity_random_states():
    # Tr C = c2 - |<X>|^2 on every pure state
    rng = np.random.default_rng(3)
    for rep in (sym_rep(2, 4), sym_rep(3, 3)):
        c2 = casimir(rep)
        for _ in range(20):
            mean, cov = covariance(random_pure(rep, rng))
            assert abs(np.trace(cov) - (c2 - mean @ mean)) < 1e-10


def test_qfim_at_origin_is_four_covariances(tetrahedron):
    _, cov = covariance(tetrahedron)
    gm = generators_closed_form(exponential(2), np.zeros(3))
    np.testing.assert_allclose(qfim(gm, cov), 4.0 * cov, atol=1e-12)


def test_qfim_degenerates_with_chart_or_state(tetrahedron, stretched):
    pole = generators_closed_form(euler_su2(), [0.3, 0.0, -0.4])
    _, cov = covariance(tetrahedron)
    q = qfim(pole, cov)
    assert np.min(np.abs(np.linalg.eigvalsh(q))) < 1e-10  # chart kills a direction
    regular = generators_closed_form(euler_su2(), [0.3, 1.1, -0.4])
    _, singular_cov = covariance(stretched)
    q2 = qfim(regular, singular_cov)
    assert np.min(np.abs(np.linalg.eigvalsh(q2))) < 1e-10  # state kills a direction
    with pytest.raises(InvalidElementError):
        qfim(regular, np.eye(8))


def test_weighted_bound_reproduces_param_count(tetrahedron):
    _, cov = covariance(tetrahedron)
    gm = generators_closed_form(euler_su2(), [0.5, 1.2, -0.7])
    q = qfim(gm, cov)
    assert abs(weighted_bound(q, q) - 3.0) < 1e-10


def test_metric_weight_cancels_the_chart(tetrahedron):
    _, cov = covariance(tetrahedron)
    rng = np.random.default_rng(44)
    for _ in range(10):
        point = [rng.uniform(-np.pi, np.pi), rng.uniform(0.4, np.pi - 0.4), rng.uniform(-np.pi, np.pi)]
        gm = generators_closed_form(euler_su2(), point)
        g = gm.hmat @ gm.hmat.T
        assert abs(weighted_bound(g, qfim(gm, cov)) - 0.375) < 1e-8


def test_identity_weight_noon_value():
    _, cov = covariance(make_noon(4))
    gm = generators_closed_form(exponential(2), np.zeros(3))
    value = weighted_bound(np.eye(3), qfim(gm, cov))
    assert abs(value - 0.5625) < 1e-10  # 1/4 (4/N + 4/N + 4/N^2) at N = 4


def test_weighted_bound_matches_whitened_inverse_form(tetrahedron):
    # Tr[W Q^(-1)] = (1/4) Tr[H^(-1) W H^(-T) C^(-1)] for invertible rows
    _, cov = covariance(tetrahedron)
    rng = np.random.default_rng(29)
    gm = generators_closed_form(exponential(2), rng.uniform(-1.0, 1.0, 3))
    a = rng.standard_normal((3, 3))
    w = a @ a.T + np.eye(3)
    direct = weighted_bound(w, qfim(gm, cov))
    hinv = np.linalg.inv(gm.hmat)
    alt = 0.25 * np.trace(hinv @ w @ hinv.T @ np.linalg.inv(cov))
    assert abs(direct - alt) < 1e-8


def test_weighted_bound_validation(tetrahedron):
    _, cov = covariance(tetrahedron)
    q = 4.0 * cov
    with pytest.raises(InvalidElementError):
        weighted_bound(np.eye(4), q)
    asym = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(InvalidElementError):
        weighted_bound(asym, q)
    with pytest.raises(InvalidElementError):
        weighted_bound(np.diag([1.0, -1.0, 1.0]), q)
    with pytest.raises(SingularInformationError) as err:
        weighted_bound(np.eye(3), np.diag([4.0, 4.0, 0.0]))
    assert err.value.rank == 2


def _solve_trace(q: np.ndarray, w: np.ndarray) -> float:
    # Tr[W Q^(-1)] by a Cholesky solve, the route the eigendecomposition replaced
    from scipy.linalg import solve

    return float(np.trace(solve(q, w, assume_a="pos")))


@pytest.mark.parametrize("size", [2, 3, 8, 15])
def test_inverse_trace_matches_a_cholesky_solve(size):
    rng = np.random.default_rng(60 + size)
    for cond in 10.0 ** np.arange(8):
        axes, _ = np.linalg.qr(rng.standard_normal((size, size)))
        spectrum = rng.uniform(0.1, 10.0) * np.geomspace(1.0, 1.0 / cond, size)
        q = (axes * spectrum) @ axes.T
        a = rng.standard_normal((size, size))
        w = a @ a.T + 0.1 * np.eye(size)
        # _inverse_trace reads an exactly symmetric M, the average weighted_bound passes
        value, rank, q_cond = metrology._inverse_trace((q + q.T) / 2.0, w)
        reference = _solve_trace(q, w)
        assert rank == size
        assert abs(q_cond - np.linalg.cond(q)) <= 1e-6 * q_cond
        assert abs(value - reference) <= 1e-12 * cond * abs(reference)
        assert weighted_bound(w, q) == value


def test_weighted_bound_overflow_raises():
    q = np.diag([1.0, 0.5, 1e-3])
    with pytest.raises(InvalidElementError, match="overflows"):
        weighted_bound(np.diag([8e307] * 3), q)


def test_mixed_report_decomposes_each_matrix_once(monkeypatch):
    # rho, C, Q and the weight's positivity check: one symmetric
    # eigendecomposition each
    rep = sym_rep(3, 2)
    rng = np.random.default_rng(8)
    axes = rng.standard_normal((5, 8))
    chart = product_of_exponentials(3, axes)
    a = rng.standard_normal((5, 5))
    weight = a @ a.T + np.eye(5)
    calls = []

    def counted(routine):
        def wrapper(matrix, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "sunmetro.metrology":
                calls.append((routine.__name__, np.shape(matrix)))
            return routine(matrix, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    state = mixed_state(rep, _random_density(rep, rng))
    report = build_report(state, chart, rng.uniform(-0.5, 0.5, 5), weight=weight)
    assert report.weighted_bound is not None
    assert sorted(calls) == [
        ("eigh", (5, 5)), ("eigh", (6, 6)), ("eigvalsh", (5, 5)), ("eigvalsh", (8, 8))
    ]


def test_intrinsic_bound_singular_diagnostics(stretched):
    _, cov = covariance(stretched)
    with pytest.raises(SingularCovarianceError) as err:
        intrinsic_bound(cov)
    assert err.value.rank == 2
    assert not err.value.condition_number < 1e8
    assert isinstance(err.value, SingularInformationError)


def test_mixed_qubit_dephased_covariance():
    fund = sym_rep(2, 1)
    state = mixed_state(fund, np.diag([0.8, 0.2]))
    mean, cov = covariance(state)
    np.testing.assert_allclose(mean, [0.0, 0.0, 0.3], atol=1e-12)
    # (0.8 - 0.2)^2 / (0.8 + 0.2) times |<1|X|2>|^2 = 1/4 on the two
    # off-diagonal generators, nothing along the diagonal one
    np.testing.assert_allclose(cov, np.diag([0.09, 0.09, 0.0]), atol=1e-12)


def test_rank_one_density_matches_pure():
    rep = sym_rep(2, 3)
    rng = np.random.default_rng(7)
    for _ in range(10):
        state = random_pure(rep, rng)
        rho = np.outer(state.vector, state.vector.conj())
        mean_p, cov_p = covariance(state)
        mean_m, cov_m = covariance(mixed_state(rep, rho))
        assert np.max(np.abs(cov_m - cov_p)) < 1e-10
        assert np.max(np.abs(mean_m - mean_p)) < 1e-10


def test_maximally_mixed_has_zero_covariance():
    rep = sym_rep(2, 3)
    state = mixed_state(rep, np.eye(rep.space_dim) / rep.space_dim)
    _, cov = covariance(state)
    assert np.max(np.abs(cov)) < 1e-12


def _random_density(rep, rng):
    a = rng.standard_normal((rep.space_dim, rep.space_dim)) + 1j * rng.standard_normal(
        (rep.space_dim, rep.space_dim)
    )
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_mixed_kernel_symmetric_psd():
    rng = np.random.default_rng(13)
    for rep in (sym_rep(2, 3), sym_rep(3, 2)):
        for _ in range(10):
            _, cov = covariance(mixed_state(rep, _random_density(rep, rng)))
            assert np.max(np.abs(cov - cov.T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(cov)) > -1e-10


def _dense_covariance_mixed(state, support_cutoff=metrology.SUPPORT_CUTOFF):
    # the dense (d, D, D) route the mixed-state kernel of covariance replaced
    g = dense_generators(state.rep)
    rho = state.density
    mean = np.einsum("ij,aji->a", rho, g).real
    lam, p = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    xt = np.einsum("ip,aij,jq->apq", p.conj(), g, p)
    pair_sum = lam[:, None] + lam[None, :]
    keep = pair_sum > support_cutoff
    kernel = np.zeros_like(pair_sum)
    kernel[keep] = 0.5 * (lam[:, None] - lam[None, :])[keep] ** 2 / pair_sum[keep]
    cov = np.einsum("uv,auv,buv->ab", kernel, xt, xt.conj()).real
    return mean, (cov + cov.T) / 2.0


def _dense_commutator_expectations(state, gm):
    # the dense routes saturation_check replaced: <[H_j, H_k]> for every pair of rows
    g = dense_generators(state.rep)
    if state.is_pure:
        images = gm.hmat @ (g @ state.vector)
        products = images.conj() @ images.T
    else:
        lifted = np.tensordot(gm.hmat, g, axes=1)
        products = np.einsum("ij,ajk,bki->ab", state.density, lifted, lifted)
    return products - products.T


SIZES = [(2, 3), (3, 2), (2, 6), (3, 4), (4, 2)]


@pytest.mark.parametrize("n, particles", SIZES)
def test_mixed_covariance_matches_dense_route(n, particles):
    rep = sym_rep(n, particles)
    rng = np.random.default_rng(100 * n + particles)
    for _ in range(3):
        state = mixed_state(rep, _random_density(rep, rng))
        assert np.linalg.eigvalsh(state.density)[0] > 1e-6  # full rank
        mean, cov = covariance(state)
        mean_ref, cov_ref = _dense_covariance_mixed(state)
        assert np.max(np.abs(mean - mean_ref)) < 1e-12
        assert np.max(np.abs(cov - cov_ref)) < 1e-12


@pytest.mark.parametrize("n, particles", SIZES)
def test_commutator_expectations_match_dense_route(n, particles):
    rep = sym_rep(n, particles)
    rng = np.random.default_rng(200 * n + particles)
    for _ in range(3):
        gm = generators_closed_form(exponential(n), rng.uniform(-1.0, 1.0, n * n - 1))
        for state in (random_pure(rep, rng), mixed_state(rep, _random_density(rep, rng))):
            # the real ad(m) route returns <[H_j, H_k]> / i
            expectations = 1j * metrology._commutator_expectations(state, gm)
            reference = _dense_commutator_expectations(state, gm)
            assert np.max(np.abs(expectations - reference)) < 1e-12
            residual = float(np.max(np.abs(reference)))
            assert saturation_check(state, gm) == (residual < metrology.SATURATION_TOL)


@pytest.mark.parametrize("n, particles", SIZES)
def test_chart_free_saturation_matches_the_origin_chart(n, particles):
    # without a chart the images are X_a u, the rows of the identity chart;
    # the exponential chart's rows at the origin, -I up to rounding, only flip
    # their sign
    rep = sym_rep(n, particles)
    rng = np.random.default_rng(300 * n + particles)
    identity = GeneratorMatrix(np.eye(rep.basis.dim))
    origin = generators_closed_form(exponential(n), np.zeros(n * n - 1))
    states = [mixed_state(rep, _random_density(rep, rng)) for _ in range(3)]
    states += [random_pure(rep, rng), mixed_state(rep, np.eye(rep.space_dim) / rep.space_dim)]
    outcomes = set()
    for state in states:
        free = metrology._commutator_expectations(state, identity)
        charted = metrology._commutator_expectations(state, origin)
        assert np.max(np.abs(free - charted)) < 1e-12
        # the chart-free check reads |m|, which bounds every entry of the same ad(m)
        mean = covariance(state)[0]
        assert np.max(np.abs(free)) <= np.linalg.norm(mean) * (1.0 + 1e-12)
        assert saturation_check(state) == (np.linalg.norm(mean) < metrology.SATURATION_TOL)
        outcomes.add(saturation_check(state))
        assert saturation_check(state) == saturation_check(state, origin)
    assert outcomes == {True, False}


@lru_cache(maxsize=None)
def _dense_constants(n: int, rotated: bool) -> np.ndarray:
    return dense_structure_constants(rotated_basis(n) if rotated else gellmann_basis(n))


@seed(20261020)
@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 6),
    rotated=st.booleans(),
    aligned=st.booleans(),
    scale=st.floats(1e-14, 1e2),
    draw=st.integers(0, 2**32 - 1),
)
def test_every_adjoint_entry_is_at_most_the_mean_norm_hypothesis(n, rotated, aligned, scale, draw):
    # in an orthonormal basis sum_l f_jkl^2 = |[X_j, X_k]|^2 <= 1 (Boettcher-Wenzel),
    # so |ad(m)_jk| <= |m|: a mean that passes the chart-free |m| < SATURATION_TOL
    # has every |ad(m)_jk| below it too, so the check never passes a probe that
    # the entrywise test refused.  A mean along a pair's row of f is the tight case
    f = _dense_constants(n, rotated)
    rng = np.random.default_rng(draw)
    m = rng.standard_normal(len(f))
    if aligned:
        pairs = np.argwhere(f.any(axis=2))
        j, k = pairs[rng.integers(len(pairs))]
        m = f[j, k] + 1e-3 * m
    m *= scale
    ad = f @ m  # ad[j, k] = sum_l f_jkl m_l
    assert np.max(np.abs(ad[np.triu_indices(len(f), 1)])) <= np.linalg.norm(m) * (1.0 + 1e-12)


def _second_moment_commutators(state, gm):
    # the route _commutator_expectations replaced: S - S^T from the second
    # moments S = Y^* Y^T of the images Y = F psi, through the chart's rows
    images = state.rep.images(state.vector)
    second = images.conj() @ images.T
    commutators = second - second.T
    return commutators if gm is None else gm.hmat @ commutators @ gm.hmat.T


# the named probes of the bound requests
BOUND_PROBES = [
    {"kind": "tetrahedron_j2"},
    {"kind": "noon", "N": 6},
    {"kind": "su3_cyclic", "k": 3, "l": 3},
    {"kind": "ghz", "n": 3, "N": 6},
    {"kind": "ghz", "n": 4, "N": 4},
    {"kind": "fock", "occupations": [5, 0, 0]},
]


@pytest.mark.parametrize("doc", BOUND_PROBES, ids=lambda doc: doc["kind"])
def test_saturable_matches_the_second_moment_route(doc):
    # the named probes of the bound requests reach saturable = True, which
    # random states never do; i ad(m) must give the flag S - S^T gave
    state = build_probe(ProbeSpec.from_json(doc))
    n = state.rep.basis.n
    d = n * n - 1
    rng = np.random.default_rng(d)
    axes = np.linalg.qr(rng.standard_normal((d, d)))[0]
    charts = [
        generators_closed_form(exponential(n), rng.uniform(-1.0, 1.0, d)),
        generators_closed_form(product_of_exponentials(n, axes), rng.uniform(-0.5, 0.5, d)),
    ]
    identity = GeneratorMatrix(np.eye(d))  # the chart-free rows
    for gm in [None, *charts]:
        reference = _second_moment_commutators(state, gm)
        expectations = 1j * metrology._commutator_expectations(state, identity if gm is None else gm)
        assert np.max(np.abs(expectations - reference)) <= 1e-12
        flag = float(np.max(np.abs(reference))) < metrology.SATURATION_TOL
        assert saturation_check(state, gm) == flag
        assert flag == (doc["kind"] != "fock")


def _second_moment_covariance(state):
    # the route the real Gram replaced: ((Re Y^* Y^T - m m^T) + transpose) / 2
    images = state.rep.images(state.vector)
    mean = (images.conj() @ state.vector).real
    cov = (images.conj() @ images.T).real - mean[:, None] * mean
    return (cov + cov.T) / 2.0


def _einsum_covariance_mixed(state):
    # the route the real Gram replaced: the kernel contracted with both
    # factors of matrix elements by one einsum, then symmetrized
    lam, p = state._eigensystem
    support = lam > metrology.SUPPORT_CUTOFF / 2.0
    xt = p.conj().T @ state.rep.images(p[:, support])
    lam_u, lam_v = lam[:, None], lam[support][None, :]
    pair_sum = lam_u + lam_v
    keep = pair_sum > metrology.SUPPORT_CUTOFF
    kernel = np.zeros_like(pair_sum)
    kernel[keep] = (lam_u - lam_v)[keep] ** 2 / pair_sum[keep]
    kernel[support] /= 2.0
    cov = np.einsum("uv,auv,buv->ab", kernel, xt, xt.conj()).real
    return (cov + cov.T) / 2.0


def _gram_states(mixed):
    # random states on SIZES and the bound requests' probes, as pure states or
    # as densities: random full-rank ones, and each probe mixed with the identity
    rng = np.random.default_rng(17)
    for n, particles in SIZES:
        rep = sym_rep(n, particles)
        for _ in range(3):
            yield mixed_state(rep, _random_density(rep, rng)) if mixed else random_pure(rep, rng)
    for doc in BOUND_PROBES:
        state = build_probe(ProbeSpec.from_json(doc))
        if mixed:
            dim = state.rep.space_dim
            rho = 0.75 * np.outer(state.vector, state.vector.conj()) + 0.25 * np.eye(dim) / dim
            state = mixed_state(state.rep, rho)
        yield state


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_covariance_is_an_exactly_symmetric_gram(mixed):
    reference = _einsum_covariance_mixed if mixed else _second_moment_covariance
    for state in _gram_states(mixed):
        cov = covariance(state)[1]
        want = reference(state)
        assert np.max(np.abs(cov - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(cov, cov.T)


@seed(20261018)
@settings(max_examples=30, deadline=None)
@given(size=st.sampled_from([(2, 1), *SIZES, (3, 6), (5, 1)]), draw=st.integers(0, 2**32 - 1))
def test_rank_one_mixed_state_reproduces_pure_hypothesis(size, draw):
    n, particles = size
    rep = sym_rep(n, particles)
    rng = np.random.default_rng(draw)
    pure = random_pure(rep, rng)
    mixed = mixed_state(rep, np.outer(pure.vector, pure.vector.conj()))
    mean_p, cov_p = covariance(pure)
    mean_m, cov_m = covariance(mixed)
    assert np.max(np.abs(mean_m - mean_p)) < 1e-10
    assert np.max(np.abs(cov_m - cov_p)) < 1e-10
    gm = generators_closed_form(exponential(n), rng.uniform(-1.0, 1.0, n * n - 1))
    expectations = metrology._commutator_expectations(mixed, gm)
    assert np.max(np.abs(expectations - metrology._commutator_expectations(pure, gm))) < 1e-10


def test_mixed_report_diagonalizes_rho_once(monkeypatch):
    rep = sym_rep(2, 3)
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    # mixed_state checks positivity on the eigensystem the report then reads
    state = mixed_state(rep, _random_density(rep, np.random.default_rng(3)))
    report = build_report(state, exponential(2), [0.3, -0.2, 0.5], weight="intrinsic")
    assert report.flags["saturable"] is not None
    assert calls.count((rep.space_dim, rep.space_dim)) == 1


def test_a_state_forms_one_stack_product(monkeypatch):
    # the report's covariance and the saturation check read the moments the
    # state computed from one product F P, for bound and for check alike
    rep = sym_rep(3, 2)
    rng = np.random.default_rng(12)
    chart = product_of_exponentials(3, rng.standard_normal((4, 8)))
    calls = []
    images = Representation.images

    def counted(*args):
        calls.append(1)
        return images(*args)

    monkeypatch.setattr(Representation, "images", counted)
    for state in (random_pure(rep, rng), mixed_state(rep, _random_density(rep, rng))):
        calls.clear()
        build_report(state, chart, rng.uniform(-0.5, 0.5, 4), weight="intrinsic")
        saturation_check(state, generators_closed_form(chart, np.zeros(4)))
        assert len(calls) == 1
    for state in (random_pure(rep, rng), mixed_state(rep, _random_density(rep, rng))):
        calls.clear()
        build_report(state)
        saturation_check(state)
        assert len(calls) == 1


@pytest.mark.parametrize("n", range(3, 15))
def test_singular_pure_covariance_takes_its_rank_from_the_gram(n):
    # an N = 1 probe has rank C <= 2(D - 1) < d: the report reads the rank
    # from the 2D x 2D Gram and never decomposes C, but the rank is the one
    # the d x d decomposition gives
    rep = sym_rep(n, 1)
    rng = np.random.default_rng(n)
    states = (make_ghz(n, 1, rep=rep), random_pure(rep, rng), make_fock([1] + [0] * (n - 1)))
    for state in states:
        report = build_report(state)
        rank = metrology._inverse_trace(covariance(state)[1])[1]
        assert report.covariance_rank == rank <= 2 * (n - 1)
        assert report.covariance_condition_number == np.inf
        assert report.intrinsic_bound is None and report.flags["covariance_singular"]


def test_cached_moments_are_read_only():
    rep = sym_rep(2, 3)
    rng = np.random.default_rng(13)
    for state in (random_pure(rep, rng), mixed_state(rep, _random_density(rep, rng))):
        first = covariance(state)
        second = covariance(state)
        assert len(state._moments) == 2
        assert [a.shape for a in state._moments] == [(rep.basis.dim,), (rep.basis.dim,) * 2]
        for a, b, kept in zip(first, second, state._moments):
            assert not a.flags.writeable
            assert a is kept and a.tobytes() == b.tobytes()
        with pytest.raises(ValueError):
            first[1][0, 0] = 0.0


@pytest.mark.parametrize("particles", [1, 2])
def test_ghz_state_at_su40_keeps_only_its_mean_and_covariance(particles):
    # the commutator expectations are read from the mean, so the state holds
    # its mean and C alone, and the chart-free check reads |m| alone: it forms
    # no structure constants and no d x d ad(m) beside C
    rep = make_ghz(40, particles).rep
    tracemalloc.start()
    try:
        state = make_ghz(40, particles, rep=rep)
        before = tracemalloc.get_traced_memory()[0]
        mean, cov = covariance(state)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        saturable = saturation_check(state)
        peak = tracemalloc.get_traced_memory()[1] - before - held
    finally:
        tracemalloc.stop()
    assert saturable == (particles > 1)
    assert held <= 1.01 * (cov.nbytes + mean.nbytes)
    assert peak <= 2 * mean.nbytes  # the norm's one temporary of the mean's size


@pytest.mark.parametrize("particles, bound", [(1, 1.5), (2, 4.0)])
def test_ghz_covariance_at_su40_peaks_near_its_size(particles, bound):
    # C is the Gram of the centred images V, so besides C the moments hold
    # only the (d, D) images and V; at N = 1 those are 40 columns wide
    rep = make_ghz(40, particles).rep
    state = make_ghz(40, particles, rep=rep)
    tracemalloc.start()
    try:
        cov = covariance(state)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * cov.nbytes


def test_report_on_ghz_at_su40_forms_no_second_covariance():
    # the isotropy deviation reads C's diagonal and off-diagonal entries in
    # place; at N = 1 C's rank comes from the 80 x 80 Gram of V, and at N = 2
    # C itself is decomposed, as it is, without a symmetrized copy
    for particles, rank in ((1, 78), (2, 819)):
        rep = make_ghz(40, particles).rep
        state = make_ghz(40, particles, rep=rep)
        cov = covariance(state)[1]
        tracemalloc.start()
        try:
            report = build_report(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.covariance_rank == rank and report.unpolarized["deviation"] > 0.0
        assert peak <= 0.5 * cov.nbytes


def test_mixed_state_leaves_the_callers_density_writable():
    rep = sym_rep(2, 3)
    rho = _random_density(rep, np.random.default_rng(14))
    state = mixed_state(rep, rho)
    assert rho.flags.writeable
    rho[0, 0] = 5.0
    assert state.density[0, 0] != 5.0


def test_pure_state_does_not_follow_later_edits_of_its_vector():
    rep = sym_rep(2, 3)
    v = np.zeros(rep.space_dim, dtype=complex)
    v[0] = 1.0
    state = pure_state(rep, v)
    mean = covariance(state)[0].copy()
    v[:] = 0.0
    v[-1] = 1.0
    assert state.vector[0] == 1.0 and state.vector[-1] == 0.0
    np.testing.assert_array_equal(covariance(pure_state(rep, state.vector))[0], mean)


def test_state_validation():
    rep = sym_rep(2, 3)
    with pytest.raises(InvalidStateError):
        pure_state(rep, np.ones(3))  # wrong length
    with pytest.raises(InvalidStateError):
        pure_state(rep, np.ones(4))  # not normalized
    with pytest.raises(InvalidStateError):
        pure_state(rep, np.zeros(4))
    with pytest.raises(InvalidStateError):
        pure_state(rep, [np.nan, 0, 0, 0])
    with pytest.raises(InvalidStateError):
        mixed_state(rep, np.eye(4))  # trace 4
    with pytest.raises(InvalidStateError):
        mixed_state(rep, np.diag([1.2, -0.2, 0.0, 0.0]))
    bad = np.eye(4) / 4.0
    bad[0, 1] = 0.1
    with pytest.raises(InvalidStateError):
        mixed_state(rep, bad)
    with pytest.raises(InvalidStateError):
        ProbeState(rep=rep)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_mixed_state_refuses_non_finite_densities(value):
    # NaN passes the Hermiticity and trace tests, and inf warns inside them
    with pytest.raises(InvalidStateError, match="density matrix has non-finite entries"):
        mixed_state(sym_rep(2, 2), np.full((3, 3), value))


@seed(20240818)
@settings(max_examples=40, deadline=None)
@given(raw=arrays(np.float64, (8,), elements=st.floats(-1.0, 1.0)))
def test_pure_covariance_psd_hypothesis(raw):
    rep = sym_rep(2, 3)
    v = raw[:4] + 1j * raw[4:]
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        return
    _, cov = covariance(pure_state(rep, v / norm))
    assert np.min(np.linalg.eigvalsh(cov)) > -1e-10
    assert np.max(np.abs(cov - cov.T)) < 1e-12


def test_saturation_conditions(tetrahedron, stretched):
    origin2 = generators_closed_form(exponential(2), np.zeros(3))
    assert saturation_check(tetrahedron, origin2)
    ghz = make_ghz(3, 4)
    chart3 = generators_closed_form(exponential(3), np.random.default_rng(2).uniform(-1, 1, 8))
    assert saturation_check(ghz, chart3)  # vanishing mean suffices in any chart
    regular = generators_closed_form(euler_su2(), [0.3, 1.1, -0.4])
    assert not saturation_check(stretched, regular)
    fund = sym_rep(2, 1)
    up = pure_state(fund, [1.0, 0.0])
    assert not saturation_check(up, origin2)


def test_unpolarized_grades(tetrahedron, cyclic33, stretched):
    report = unpolarized_report(tetrahedron)
    assert report["first_order"] and report["second_order"] and report["deviation"] < 1e-10
    report = unpolarized_report(make_ghz(3, 9))
    assert report["first_order"] and not report["second_order"]
    assert abs(report["deviation"] - 9.0) < 1e-8  # covariance is far from isotropic
    report = unpolarized_report(cyclic33)
    assert report["first_order"] and report["second_order"]
    report = unpolarized_report(stretched)
    assert not report["first_order"] and not report["second_order"]


def test_report_with_chart(tetrahedron):
    report = build_report(tetrahedron, euler_su2(), [0.3, 1.1, -0.4], weight="intrinsic")
    assert abs(report.intrinsic_bound - 0.375) < 1e-10
    assert abs(report.weighted_bound - 0.375) < 1e-8
    assert report.flags == {
        "covariance_singular": False,
        "qfim_singular": False,
        "saturable": True,
        "unpolarized_order": 2,
    }
    doc = report.to_json()
    assert set(doc) == {
        "mean",
        "covariance",
        "qfim",
        "metric",
        "intrinsic_bound",
        "weighted_bound",
        "flags",
    }
    json.dumps(doc)  # fully serializable


def test_report_without_chart(tetrahedron):
    report = build_report(tetrahedron)
    assert report.qfim is None and report.metric is None
    assert report.weighted_bound is None
    assert report.flags["qfim_singular"] is None
    # without a chart saturable is read from the mean, which vanishes here
    assert report.flags["saturable"] is True
    assert abs(report.intrinsic_bound - 0.375) < 1e-10


def test_report_intrinsic_weight_survives_chart_pole(tetrahedron):
    report = build_report(tetrahedron, euler_su2(), [0.3, 0.0, -0.4], weight="intrinsic")
    assert report.flags["qfim_singular"]
    assert abs(report.weighted_bound - 0.375) < 1e-10
    identity_report = build_report(tetrahedron, euler_su2(), [0.3, 0.0, -0.4], weight="identity")
    assert identity_report.weighted_bound is None


def test_report_singular_covariance(stretched):
    report = build_report(stretched, exponential(2), np.zeros(3), weight="intrinsic")
    assert report.flags["covariance_singular"]
    assert report.intrinsic_bound is None and report.weighted_bound is None
    assert report.flags["unpolarized_order"] == 0


def test_report_rejects_chart_dimension_mismatch(cyclic33):
    with pytest.raises(InvalidElementError):
        build_report(cyclic33, euler_su2(), [0.1, 0.2, 0.3])


@pytest.mark.parametrize(
    "weight",
    [
        np.ones((5, 5)),
        np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.diag([1.0, -1.0, 1.0]),
        np.diag([np.nan, 1.0, 1.0]),
    ],
    ids=["shape", "asymmetric", "indefinite", "nan"],
)
@pytest.mark.parametrize(
    "probe, chart, theta",
    [
        ("fock30", exponential(2), np.zeros(3)),  # singular C
        ("tetrahedron", euler_su2(), [0.3, 0.0, -0.4]),  # singular Q at the pole
        ("tetrahedron", euler_su2(), [0.3, 1.1, -0.4]),  # both regular
    ],
    ids=["singular-covariance", "singular-qfim", "regular"],
)
def test_report_validates_weight_before_rank(tetrahedron, probe, chart, theta, weight):
    state = make_fock((3, 0)) if probe == "fock30" else tetrahedron
    with pytest.raises(InvalidElementError, match="weight"):
        build_report(state, chart, theta, weight=weight)


def test_report_computes_covariance_once(tetrahedron, monkeypatch):
    calls = []

    def counting(state):
        calls.append(state)
        return covariance(state)

    monkeypatch.setattr(metrology, "covariance", counting)
    report = build_report(tetrahedron, euler_su2(), [0.3, 1.1, -0.4], weight="intrinsic")
    assert len(calls) == 1
    assert report.unpolarized == unpolarized_report(tetrahedron)


def test_report_records_ranks_and_rebuilds_the_bound_errors(tetrahedron, stretched):
    regular = build_report(tetrahedron, euler_su2(), [0.3, 1.1, -0.4], weight="identity")
    assert regular.covariance_rank == 3 and regular.qfim_rank == 3
    assert abs(regular.covariance_condition_number - 1.0) < 1e-12
    assert regular.singular_error() is None
    assert build_report(tetrahedron).qfim_rank is None

    singular = build_report(stretched, exponential(2), np.zeros(3), weight="identity")
    error = singular.singular_error()
    with pytest.raises(SingularCovarianceError) as expected:
        intrinsic_bound(singular.covariance)
    assert type(error) is SingularCovarianceError
    assert (str(error), error.rank) == (str(expected.value), expected.value.rank)
    assert error.condition_number == expected.value.condition_number

    pole = build_report(tetrahedron, euler_su2(), [0.3, 0.0, -0.4], weight="identity")
    error = pole.singular_error()
    with pytest.raises(SingularInformationError) as expected:
        weighted_bound(np.eye(3), pole.qfim)
    assert type(error) is SingularInformationError
    assert (str(error), error.rank) == (str(expected.value), expected.value.rank)
    assert error.condition_number == expected.value.condition_number
