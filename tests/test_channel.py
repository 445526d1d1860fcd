"""Charts on SU(n): generator rows, metrics, quadrature oracle, singularities."""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from conftest import dense_gellmann, dense_generators, drop_held_sectors, sym_rep
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import roots_legendre

import sunmetro.channel as channel
import sunmetro.representation as representation

from sunmetro import (
    InvalidDimensionError,
    InvalidElementError,
    Parametrization,
    euler_su2,
    exp_hermitian,
    expand,
    exponential,
    exponential_coordinates,
    from_coefficients,
    gellmann_basis,
    generators_closed_form,
    generators_quadrature,
    metric_at,
    product_of_exponentials,
    singularity_report,
    symmetric_representation,
    unitary_at,
)
from sunmetro.algebra import INNER_PRODUCT_SCALE


def euler_rows(phi, theta, psi):
    # frozen coefficient rows of the z-y-z chart
    return np.array(
        [
            [-np.sin(theta) * np.cos(psi), np.sin(theta) * np.sin(psi), np.cos(theta)],
            [np.sin(psi), np.cos(psi), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def euler_metric(theta):
    return np.array([[1.0, 0.0, np.cos(theta)], [0.0, 1.0, 0.0], [np.cos(theta), 0.0, 1.0]])


@pytest.mark.parametrize("n", [2, 3])
def test_exponential_rows_at_origin(n):
    gm = generators_closed_form(exponential(n), np.zeros(n * n - 1))
    np.testing.assert_allclose(gm.hmat, -np.eye(n * n - 1), atol=1e-12)
    assert abs(gm.condition_number - 1.0) < 1e-12
    assert not gm.hmat.flags.writeable


def test_generator_matrix_leaves_the_callers_rows_writable():
    h = np.eye(3)
    gm = channel.GeneratorMatrix(h)
    assert h.flags.writeable and not gm.hmat.flags.writeable
    h[0, 0] = 5.0
    assert gm.hmat[0, 0] == 1.0


def test_euler_rows_and_metric_match_frozen_formulas():
    chart = euler_su2()
    rng = np.random.default_rng(91)
    for _ in range(25):
        phi, psi = rng.uniform(-np.pi, np.pi, 2)
        theta = rng.uniform(0.0, np.pi)
        point = np.array([phi, theta, psi])
        gm = generators_closed_form(chart, point)
        assert np.max(np.abs(gm.hmat - euler_rows(phi, theta, psi))) < 1e-10
        assert np.max(np.abs(metric_at(chart, point) - euler_metric(theta))) < 1e-10


def test_metric_is_gram_of_rows():
    chart = exponential(3)
    rng = np.random.default_rng(12)
    theta = rng.uniform(-0.8, 0.8, 8)
    hmat = generators_closed_form(chart, theta).hmat
    g = metric_at(chart, theta)
    assert np.max(np.abs(g - hmat @ hmat.T)) < 1e-12
    # invertible rows whiten their own metric
    whitened = np.linalg.solve(hmat, np.linalg.solve(hmat, g).T)
    assert np.max(np.abs(whitened - np.eye(8))) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadrature_matches_closed_form_exponential(n):
    chart = exponential(n)
    rng = np.random.default_rng(60 + n)
    tol = 1e-10 if n == 2 else 1e-8
    for _ in range(6):
        theta = rng.uniform(-1.0, 1.0, n * n - 1)
        theta *= 2.0 / max(1.0, np.linalg.norm(theta))
        dev = np.max(
            np.abs(
                generators_quadrature(chart, theta, order=32).hmat
                - generators_closed_form(chart, theta).hmat
            )
        )
        assert dev < tol


def test_quadrature_matches_closed_form_product_charts():
    rng = np.random.default_rng(77)
    chart = euler_su2()
    for _ in range(4):
        point = np.array(
            [rng.uniform(-np.pi, np.pi), rng.uniform(0.0, np.pi), rng.uniform(-np.pi, np.pi)]
        )
        dev = np.max(
            np.abs(
                generators_quadrature(chart, point, order=32).hmat
                - generators_closed_form(chart, point).hmat
            )
        )
        assert dev < 1e-10
    axes = rng.standard_normal((4, 8))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    prod = product_of_exponentials(3, axes)
    theta = rng.uniform(-1.2, 1.2, 4)
    dev = np.max(
        np.abs(
            generators_quadrature(prod, theta, order=32).hmat
            - generators_closed_form(prod, theta).hmat
        )
    )
    assert dev < 1e-8


def _reference_rows(chart, theta):
    # the closed form term by term on the dense (d, n, n) basis: three-operand
    # einsums conjugating back for the exponential chart, one exponential and
    # one expansion per factor for product charts
    x = dense_gellmann(chart.n)
    theta = np.asarray(theta, dtype=float)
    if chart.kind == "exponential":
        vals, vecs = np.linalg.eigh(np.tensordot(theta, x, axes=1))
        phi = channel._phi1(1j * (vals[None, :] - vals[:, None]))
        xt = np.einsum("pi,aij,jq->apq", vecs.conj().T, x, vecs)
        elements = -np.einsum("pi,aij,jq->apq", vecs, xt * phi[None, :, :], vecs.conj().T)
    else:
        if chart.kind == "euler_su2":
            axes = [np.eye(3)[2], np.eye(3)[1], np.eye(3)[2]]
        else:
            axes = [np.asarray(ax) for ax in chart.factors]
        suffix = np.eye(chart.n, dtype=complex)
        conjugated = [None] * len(axes)
        for k in range(len(axes) - 1, -1, -1):
            b = np.tensordot(axes[k], x, axes=1)
            suffix = exp_hermitian(-theta[k] * b) @ suffix
            conjugated[k] = suffix.conj().T @ b @ suffix
        elements = np.array(conjugated)
    elements = (elements + elements.conj().transpose(0, 2, 1)) / 2.0
    return INNER_PRODUCT_SCALE * np.einsum("aij,cji->ca", x, elements).real


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_batched_rows_match_the_term_by_term_reference(n):
    rng = np.random.default_rng(400 + n)
    d = n * n - 1
    charts = [exponential(n)] * 3 + [euler_su2()] * (n == 2)
    for m in (1, 3, d):
        axes = rng.standard_normal((m, d))
        charts.append(product_of_exponentials(n, axes / np.linalg.norm(axes, axis=1)[:, None]))
    for chart in charts:
        theta = rng.uniform(-1.5, 1.5, chart.param_count)
        if chart.kind == "exponential":
            theta *= rng.uniform(0.1, 2.5) / np.linalg.norm(theta)
        rows = generators_closed_form(chart, theta).hmat
        reference = _reference_rows(chart, theta)
        assert np.max(np.abs(rows - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("kind", ["exponential", "product_of_exponentials"])
def test_chart_rows_leave_nothing_on_the_basis(kind):
    # the rows read the sparse map T alone; a dense (d, n, n) copy of su(20)
    # kept on the cached basis would be 2.4 MiB
    n, d = 20, 399
    rng = np.random.default_rng(20)
    axes = rng.standard_normal((5, d))
    chart = exponential(n) if kind == "exponential" else product_of_exponentials(n, axes)
    theta = rng.uniform(-0.5, 0.5, chart.param_count)
    basis = gellmann_basis(n)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = generators_closed_form(chart, theta).hmat
        del rows
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 64 * 2**10
    assert set(vars(basis)) <= {"n", "coefficients", "_structure_constants"}


# factor angles whose exponent eigenvalue gaps fall on both sides of the cutoff
_ANGLES = st.one_of(
    st.floats(1e-7, 1e-5), st.floats(1e-5, 1e-3), st.floats(1e-3, 1.2)
).flatmap(lambda a: st.sampled_from([a, -a]))


@seed(20261018)
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 4),
    angles=st.lists(_ANGLES, min_size=1, max_size=5),
    draw=st.integers(0, 2**32 - 1),
)
def test_quadrature_matches_closed_form_on_product_charts_hypothesis(n, angles, draw):
    axes = np.random.default_rng(draw).standard_normal((len(angles), n * n - 1))
    chart = product_of_exponentials(n, axes / np.linalg.norm(axes, axis=1)[:, None])
    dev = np.max(
        np.abs(
            generators_quadrature(chart, angles, order=32).hmat
            - generators_closed_form(chart, angles).hmat
        )
    )
    assert dev < 1e-8


@seed(20261018)
@settings(max_examples=30, deadline=None)
@given(
    gaps=st.lists(
        st.one_of(st.floats(1e-7, 1e-5), st.floats(1e-5, 1e-3), st.floats(1e-3, 0.6)),
        min_size=1,
        max_size=3,
    ),
    draw=st.integers(0, 2**32 - 1),
)
def test_quadrature_matches_closed_form_across_the_series_cutoff_hypothesis(gaps, draw):
    # an exponential-chart point with prescribed eigenvalue gaps, so that the
    # divided difference takes its series and its direct branch together
    n = len(gaps) + 1
    rng = np.random.default_rng(draw)
    vals = np.concatenate([[0.0], np.cumsum(gaps)])
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v, _ = np.linalg.qr(z)
    a = (v * (vals - vals.mean())) @ v.conj().T
    theta = expand((a + a.conj().T) / 2.0, gellmann_basis(n))
    chart = exponential(n)
    dev = np.max(
        np.abs(
            generators_quadrature(chart, theta, order=32).hmat
            - generators_closed_form(chart, theta).hmat
        )
    )
    assert dev < (1e-10 if n == 2 else 1e-8)


def test_quadrature_nodes_match_scipy_roots_legendre():
    # the reference for the nodes and weights is the call they replaced
    for order in range(2, 65):
        nodes, weights = np.polynomial.legendre.leggauss(order)
        ref_nodes, ref_weights = roots_legendre(order)
        assert np.abs(nodes - ref_nodes).max() <= 1e-14
        assert np.abs(weights - ref_weights).max() <= 1e-14


def test_quadrature_error_decreases_with_order():
    chart = exponential(2)
    theta = np.array([0.99, -1.43, 0.77])
    exact = generators_closed_form(chart, theta).hmat
    errs = [
        np.max(np.abs(generators_quadrature(chart, theta, order=o).hmat - exact))
        for o in (2, 4, 8, 64)
    ]
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]
    assert errs[3] <= max(errs[2], 5e-14)
    assert errs[3] < 1e-12 and errs[0] > 1e3 * errs[3]


def _finite_difference_deviation(chart, theta, eps=1e-5):
    theta = np.asarray(theta, dtype=float)
    basis = gellmann_basis(chart.n)
    gm = generators_closed_form(chart, theta)
    u0 = unitary_at(chart, theta)
    worst = 0.0
    for j in range(chart.param_count):
        step = np.zeros_like(theta)
        step[j] = eps
        du = (unitary_at(chart, theta + step) - unitary_at(chart, theta - step)) / (2 * eps)
        h_fd = 1j * u0.conj().T @ du
        h_row = from_coefficients(gm.hmat[j], basis)
        worst = max(worst, float(np.max(np.abs(h_fd - h_row))))
    return worst


def test_rows_agree_with_unitary_derivative():
    rng = np.random.default_rng(8)
    charts_points = [
        (euler_su2(), [rng.uniform(-3, 3), rng.uniform(0.2, 2.9), rng.uniform(-3, 3)]),
        (exponential(2), rng.uniform(-1.5, 1.5, 3)),
        (exponential(3), rng.uniform(-0.8, 0.8, 8)),
    ]
    axes = rng.standard_normal((4, 8))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    charts_points.append((product_of_exponentials(3, axes), rng.uniform(-1.0, 1.0, 4)))
    for chart, theta in charts_points:
        assert _finite_difference_deviation(chart, theta) < 5e-6


def _rows_in_representation(chart, theta, rep, order=40):
    # independent evaluation of the coefficient rows inside a lifted
    # representation: quadrature for the exponential kind, factor-suffix
    # conjugation for product kinds, expansion by trace ratios
    theta = np.asarray(theta, dtype=float)
    gens = dense_generators(rep)
    norms = np.einsum("aij,aji->a", gens, gens).real
    nodes, weights = roots_legendre(order)
    betas = (nodes + 1.0) / 2.0
    weights = weights / 2.0
    if chart.kind == "exponential":
        a = 1j * np.tensordot(theta, gens, axes=1)
        acc = np.zeros_like(gens)
        for beta, w in zip(betas, weights):
            left = expm(-beta * a)
            right = expm(beta * a)
            acc += w * np.einsum("ij,ajk,kl->ail", left, gens, right)
        elements = -acc
    else:
        d = rep.basis.dim
        if chart.kind == "euler_su2":
            axis_vectors = [np.eye(d)[2], np.eye(d)[1], np.eye(d)[2]]
        else:
            axis_vectors = [np.asarray(ax, dtype=float) for ax in chart.factors]
        bmats = [np.tensordot(ax, gens, axes=1) for ax in axis_vectors]
        elements = np.empty((len(bmats),) + gens.shape[1:], dtype=complex)
        suffix = np.eye(rep.space_dim, dtype=complex)
        for k in range(len(bmats) - 1, -1, -1):
            suffix = expm(-1j * theta[k] * bmats[k]) @ suffix
            elements[k] = suffix.conj().T @ bmats[k] @ suffix
    rows = np.einsum("aij,cji->ca", gens, elements).real
    return rows / norms[None, :]


def test_rows_are_representation_independent():
    rng = np.random.default_rng(23)
    cases = [
        (exponential(2), rng.uniform(-1.2, 1.2, 3), sym_rep(2, 3)),
        (euler_su2(), [0.4, 1.1, -0.9], sym_rep(2, 3)),
        (exponential(3), rng.uniform(-0.7, 0.7, 8), sym_rep(3, 2)),
    ]
    for chart, theta, rep in cases:
        lifted = _rows_in_representation(chart, theta, rep)
        assert np.max(np.abs(lifted - generators_closed_form(chart, theta).hmat)) < 1e-8


def test_singularity_reports():
    chart = euler_su2()
    at_pole = singularity_report(chart, [0.3, 0.0, -0.4])
    assert at_pole["singular"] and not at_pole["condition_number"] < 1e8
    at_equator = singularity_report(chart, [0.3, np.pi / 2, -0.4])
    assert not at_equator["singular"] and at_equator["condition_number"] < 10.0
    origin = singularity_report(exponential(3), np.zeros(8))
    assert not origin["singular"] and abs(origin["condition_number"] - 1.0) < 1e-10


def test_parametrization_json_round_trip():
    for chart in (
        exponential(3),
        euler_su2(),
        product_of_exponentials(2, [(1.0, 0.0, 0.0), (0.0, 0.5, 0.5)]),
    ):
        doc = json.loads(json.dumps(chart.to_json()))
        assert Parametrization.from_json(doc) == chart
    with pytest.raises(InvalidElementError):
        Parametrization.from_json({"n": 2})


def test_parametrization_validation():
    with pytest.raises(InvalidElementError):
        Parametrization(kind="cayley", n=2)
    with pytest.raises(InvalidDimensionError):
        Parametrization(kind="euler_su2", n=3)
    with pytest.raises(InvalidDimensionError):
        Parametrization(kind="exponential", n=1)
    with pytest.raises(InvalidElementError):
        product_of_exponentials(2, [])
    with pytest.raises(InvalidElementError):
        product_of_exponentials(2, [(0.0, 0.0, 0.0)])
    with pytest.raises(InvalidElementError):
        product_of_exponentials(2, [(1.0, 0.0)])  # axis length must be 3


def test_theta_validation():
    chart = euler_su2()
    with pytest.raises(InvalidElementError):
        generators_closed_form(chart, [0.1, 0.2])
    with pytest.raises(InvalidElementError):
        generators_closed_form(chart, [0.1, np.nan, 0.2])
    with pytest.raises(InvalidElementError):
        generators_quadrature(chart, [0.1, 0.2, 0.3], order=1)


def test_unitary_at_lifted():
    chart = euler_su2()
    rep = sym_rep(2, 2)
    u = unitary_at(chart, [0.0, 0.0, 0.0], rep=rep)
    np.testing.assert_allclose(u, np.eye(rep.space_dim), atol=1e-12)
    with pytest.raises(InvalidDimensionError):
        unitary_at(chart, [0.1, 0.2, 0.3], rep=sym_rep(3, 2))


def test_unitary_at_builds_the_fundamental_representation_once(monkeypatch):
    # without a rep, unitary_at lifts with the held one-boson sector: the first
    # call for an n builds it, later ones build no sector
    built = []
    build = representation.symmetric_representation

    def counting(basis, particles, **kwargs):
        built.append((basis.n, particles))
        return build(basis, particles, **kwargs)

    charts = [euler_su2(), exponential(2), exponential(3), product_of_exponentials(3, np.eye(8)[:3])]
    rng = np.random.default_rng(12)
    points = [(chart, rng.uniform(-1.0, 1.0, chart.param_count)) for chart in charts for _ in range(5)]
    drop_held_sectors()
    monkeypatch.setattr(representation, "symmetric_representation", counting)
    try:
        first = [unitary_at(chart, theta) for chart, theta in points]
        assert sorted(built) == [(2, 1), (3, 1)]
        again = [unitary_at(chart, theta) for chart, theta in points]
        assert sorted(built) == [(2, 1), (3, 1)]
    finally:
        drop_held_sectors()
    for (chart, theta), u, v in zip(points, first, again):
        sector = symmetric_representation(gellmann_basis(chart.n), 1)
        reference = unitary_at(chart, theta, rep=sector).tobytes()
        assert u.tobytes() == reference and v.tobytes() == reference


@pytest.mark.parametrize("n", [2, 3])
def test_exponential_coordinates_round_trip(n):
    basis = gellmann_basis(n)
    chart = exponential(n)
    rng = np.random.default_rng(33 + n)
    for _ in range(8):
        omega = rng.uniform(-1.0, 1.0, basis.dim)
        omega *= rng.uniform(0.1, 1.4) / np.linalg.norm(omega)
        recovered = exponential_coordinates(unitary_at(chart, omega), basis)
        assert np.max(np.abs(recovered - omega)) < 1e-9


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 4),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=15, max_size=15),
    radius=st.floats(0.0, 0.95 * np.pi),
)
def test_exponential_coordinates_round_trip_hypothesis(n, direction, radius):
    # omega . X scaled to spectral radius at most 0.95 pi: every eigenphase of
    # exp(i omega . X) stays clear of the branch cut at +/- pi
    basis = gellmann_basis(n)
    direction = np.array(direction[: basis.dim])
    top = np.max(np.abs(np.linalg.eigvalsh(from_coefficients(direction, basis))))
    assume(top > 1e-6)
    omega = direction * (radius / top)
    recovered = exponential_coordinates(unitary_at(exponential(n), omega), basis)
    assert np.max(np.abs(recovered - omega)) < 1e-9


def test_exponential_coordinates_rejects_bad_input():
    basis = gellmann_basis(2)
    with pytest.raises(InvalidElementError):
        exponential_coordinates(np.array([[1.0, 0.5], [0.0, 1.0]]), basis)  # not unitary
    with pytest.raises(InvalidElementError):
        exponential_coordinates(np.exp(0.3j) * np.eye(2), basis)  # det != 1
    with pytest.raises(InvalidElementError):
        exponential_coordinates(np.eye(3), basis)  # wrong shape


def test_exponential_coordinates_refuses_the_branch_cut():
    with pytest.raises(InvalidElementError, match="branch cut"):
        exponential_coordinates(-np.eye(2), gellmann_basis(2))
    with pytest.raises(InvalidElementError, match="branch cut"):
        exponential_coordinates(np.diag([-1.0, -1.0, 1.0]), gellmann_basis(3))
    # eigenphases +/- (pi - delta): refused at delta = 1e-7, round-trips at 1e-3
    basis = gellmann_basis(2)
    direction = np.array([0.3, -0.5, 0.8])
    top = np.max(np.abs(np.linalg.eigvalsh(from_coefficients(direction, basis))))
    near = direction * ((np.pi - 1e-7) / top)
    with pytest.raises(InvalidElementError, match="branch cut"):
        exponential_coordinates(unitary_at(exponential(2), near), basis)
    omega = direction * ((np.pi - 1e-3) / top)
    recovered = exponential_coordinates(unitary_at(exponential(2), omega), basis)
    assert np.max(np.abs(recovered - omega)) < 1e-9
