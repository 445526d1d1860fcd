"""Charts on SU(n): generator rows, metrics, quadrature oracle, singularities."""

import json

import numpy as np
import pytest
from conftest import dense_generators, sym_rep
from scipy.linalg import expm
from scipy.special import roots_legendre

import sunmetro.channel as channel

from sunmetro import (
    InvalidDimensionError,
    InvalidElementError,
    Parametrization,
    euler_su2,
    exponential,
    exponential_coordinates,
    from_coefficients,
    fundamental_representation,
    gellmann_basis,
    generators_closed_form,
    generators_quadrature,
    metric_at,
    product_of_exponentials,
    singularity_report,
    unitary_at,
)


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
    built = []

    def counting(basis):
        built.append(basis.n)
        return fundamental_representation(basis)

    charts = [euler_su2(), exponential(2), exponential(3), product_of_exponentials(3, np.eye(8)[:3])]
    rng = np.random.default_rng(12)
    points = [(chart, rng.uniform(-1.0, 1.0, chart.param_count)) for chart in charts for _ in range(5)]
    channel._fundamental.cache_clear()
    monkeypatch.setattr(channel, "fundamental_representation", counting)
    try:
        cached = [unitary_at(chart, theta) for chart, theta in points]
    finally:
        channel._fundamental.cache_clear()
    assert sorted(built) == [2, 3]
    for (chart, theta), u in zip(points, cached):
        uncached = unitary_at(chart, theta, rep=fundamental_representation(gellmann_basis(chart.n)))
        assert np.array_equal(u, uncached)


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


def test_exponential_coordinates_rejects_bad_input():
    basis = gellmann_basis(2)
    with pytest.raises(InvalidElementError):
        exponential_coordinates(np.array([[1.0, 0.5], [0.0, 1.0]]), basis)  # not unitary
    with pytest.raises(InvalidElementError):
        exponential_coordinates(np.exp(0.3j) * np.eye(2), basis)  # det != 1
    with pytest.raises(InvalidElementError):
        exponential_coordinates(np.eye(3), basis)  # wrong shape
