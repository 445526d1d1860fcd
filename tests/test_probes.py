"""Named probe constructors, spec serialization, and the probe optimizer."""

import json

import numpy as np
import pytest
from conftest import random_pure, sym_rep

from sunmetro import (
    ConstraintError,
    InvalidElementError,
    InvalidStateError,
    OptimizationFailedError,
    OptimizerConfig,
    ProbeSpec,
    build_probe,
    canonical_phase,
    casimir,
    covariance,
    fundamental_representation,
    gellmann_basis,
    intrinsic_bound,
    lift_unitary,
    make_custom,
    make_fock,
    make_ghz,
    make_noon,
    make_su3_cyclic,
    make_tetrahedron_j2,
    optimize_probe,
    pure_state,
    unpolarized_report,
)
from sunmetro import probes
from sunmetro.probes import BARRIER_CUTOFF, _objective_and_gradient

INV3 = 1.0 / np.sqrt(3.0)


def test_ghz_amplitudes():
    state = make_ghz(3, 9)
    rep = state.rep
    hot = {rep.fock.index[occ] for occ in [(9, 0, 0), (0, 9, 0), (0, 0, 9)]}
    for i, amp in enumerate(state.vector):
        expected = INV3 if i in hot else 0.0
        assert abs(amp - expected) < 1e-12
    np.testing.assert_allclose(make_noon(4).vector, make_ghz(2, 4).vector)
    with pytest.raises(ConstraintError):
        make_ghz(3, 0)


def test_ghz_reuses_given_representation():
    rep = sym_rep(3, 9)
    state = make_ghz(3, 9, rep=rep)
    assert state.rep is rep
    np.testing.assert_array_equal(state.vector, make_ghz(3, 9).vector)
    with pytest.raises(InvalidStateError):
        make_ghz(3, 8, rep=rep)
    with pytest.raises(InvalidStateError):
        make_ghz(2, 1, rep=fundamental_representation(gellmann_basis(2)))


@pytest.mark.parametrize("n,particles", [(2, 2), (2, 5), (3, 2), (3, 7), (4, 3)])
def test_ghz_mean_vanishes(n, particles):
    mean, _ = covariance(make_ghz(n, particles))
    assert np.linalg.norm(mean) < 1e-10


def test_tetrahedron_frozen_amplitudes():
    state = make_tetrahedron_j2()
    idx = state.rep.fock.index
    assert abs(state.vector[idx[(4, 0)]] - INV3) < 1e-12
    assert abs(state.vector[idx[(1, 3)]] - np.sqrt(2.0 / 3.0)) < 1e-12
    assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12
    mean, cov = covariance(state)
    assert np.linalg.norm(mean) < 1e-12
    np.testing.assert_allclose(cov, 2.0 * np.eye(3), atol=1e-12)


def test_su3_cyclic_components(cyclic33):
    idx = cyclic33.rep.fock.index
    hot = {idx[occ] for occ in [(0, 3, 6), (3, 6, 0), (6, 0, 3)]}
    for i, amp in enumerate(cyclic33.vector):
        expected = INV3 if i in hot else 0.0
        assert abs(amp - expected) < 1e-12


def test_su3_cyclic_constraint():
    with pytest.raises(ConstraintError, match=r"16 does not equal 3 k \(k \+ 1\) = 18"):
        make_su3_cyclic(2, 2)
    with pytest.raises(ConstraintError):
        make_su3_cyclic(0, 3)
    with pytest.raises(ConstraintError):
        make_su3_cyclic(3, 0)
    # negative l mirrors the occupation triple and stays valid
    mirrored = make_su3_cyclic(3, -3)
    assert abs(np.linalg.norm(mirrored.vector) - 1.0) < 1e-12


def test_fock_and_custom_constructors():
    state = make_fock((2, 1))
    assert abs(state.vector[state.rep.fock.index[(2, 1)]] - 1.0) < 1e-12
    with pytest.raises(ConstraintError):
        make_fock((3,))
    with pytest.raises(ConstraintError):
        make_fock((1, -1))
    with pytest.raises(ConstraintError):
        make_fock((0, 0))

    amps = np.array([1.0, 1.0, 0.0, 0.0, 1.0]) / np.sqrt(3.0)
    custom = make_custom(2, 4, amps * (1.0 + 5e-7))  # 12-digit round trips pass
    assert abs(np.linalg.norm(custom.vector) - 1.0) < 1e-15
    with pytest.raises(InvalidStateError):
        make_custom(2, 4, amps * 1.01)
    with pytest.raises(InvalidStateError):
        make_custom(2, 4, amps[:3])


def test_probe_spec_round_trip():
    specs = [
        ProbeSpec(kind="ghz", n=3, particles=9),
        ProbeSpec(kind="noon", particles=4),
        ProbeSpec(kind="tetrahedron_j2"),
        ProbeSpec(kind="su3_cyclic", k=3, l=3),
        ProbeSpec(kind="fock", occupations=(4, 0)),
        ProbeSpec(kind="custom", n=2, particles=1, amplitudes=(0.6 + 0.0j, 0.0 + 0.8j)),
    ]
    for spec in specs:
        doc = json.loads(json.dumps(spec.to_json()))
        assert ProbeSpec.from_json(doc) == spec
        build_probe(spec)  # each spec constructs
    doc = ProbeSpec(kind="ghz", n=3, particles=9).to_json()
    assert doc == {"kind": "ghz", "n": 3, "N": 9}
    assert ProbeSpec.from_json({"kind": "noon", "N": 4, "amplitudes": [1, 2]}).amplitudes == (
        1 + 0j,
        2 + 0j,
    )


def test_probe_spec_errors():
    with pytest.raises(InvalidStateError):
        ProbeSpec.from_json({"n": 2})
    with pytest.raises(InvalidStateError):
        ProbeSpec.from_json({"kind": "custom", "amplitudes": ["x"]})
    for doc in (
        {"kind": "ghz", "n": [1], "N": 3},
        {"kind": "custom", "n": 2, "N": 1, "amplitudes": 5},
        {"kind": "fock", "occupations": 3},
    ):
        with pytest.raises(InvalidStateError):
            ProbeSpec.from_json(doc)
    with pytest.raises(InvalidStateError):
        build_probe(ProbeSpec(kind="ghz", n=3))  # particles missing
    with pytest.raises(InvalidStateError):
        build_probe(ProbeSpec(kind="wigner"))
    with pytest.raises(InvalidStateError, match=r"probe kind 'ghz' needs fields \['particles'\]"):
        ProbeSpec.from_json({"kind": "ghz", "n": 3})
    with pytest.raises(InvalidStateError, match="unknown probe kind 'wigner'"):
        ProbeSpec.from_json({"kind": "wigner"})


def test_canonical_phase():
    v = np.exp(0.7j) * np.array([0.0, 0.6, 0.8j])
    fixed = canonical_phase(v)
    assert abs(fixed[0]) < 1e-15
    assert fixed[1].real > 0 and abs(fixed[1].imag) < 1e-12
    assert abs(np.abs(fixed[2]) - 0.8) < 1e-12


def test_optimizer_config_validation():
    config = OptimizerConfig(seed=1)
    assert config.restarts == 20 and config.method == "gradient_descent_on_sphere"
    with pytest.raises(ValueError):
        OptimizerConfig(seed=1, method="annealing")
    with pytest.raises(ValueError):
        OptimizerConfig(seed=1, restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(seed=1, tolerance=0.0)
    parsed = OptimizerConfig.from_json({"seed": 4, "restarts": 7, "tolerance": 1e-5})
    assert parsed.seed == 4 and parsed.restarts == 7
    assert OptimizerConfig.from_json({"seed": None, "tolerance": 1}).seed is None
    assert OptimizerConfig.from_json({"tolerance": 10**400}).tolerance == 10**400
    for doc in (
        [1, 2],
        {"restarts": "x"},
        {"restarts": [1]},
        {"restarts": True},
        {"restarts": float("inf")},
        {"restarts": None},
        {"max_iters": 2.5},
        {"seed": "abc"},
        {"seed": 1.5},
        {"seed": False},
        {"tolerance": 0},
        {"tolerance": float("nan")},
        {"tolerance": True},
        {"tolerance": "1e-6"},
        {"restarts": 0},
        {"method": "annealing"},
    ):
        with pytest.raises(InvalidElementError):
            OptimizerConfig.from_json(doc)


@pytest.fixture(scope="module")
def spin2_result(sym24):
    return optimize_probe(sym24, OptimizerConfig(seed=7, restarts=20))


def test_optimizer_reaches_tetrahedron_level(spin2_result):
    assert spin2_result.converged
    assert abs(spin2_result.floor - 0.375) < 1e-12
    assert abs(spin2_result.bound_achieved - 0.375) < 0.375 * 0.01
    assert spin2_result.bound_achieved >= spin2_result.floor - 1e-9
    report = unpolarized_report(spin2_result.state)
    if report["second_order"]:
        assert abs(spin2_result.bound_achieved - spin2_result.floor) < 1e-6


def test_optimizer_output_phase_and_norm(spin2_result):
    v = spin2_result.state.vector
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    lead = v[np.argmax(np.abs(v) > 1e-8 * np.max(np.abs(v)))]
    assert lead.real > 0 and abs(lead.imag) < 1e-10


def test_optimizer_objective_orbit_invariant(spin2_result, sym24):
    _, cov = covariance(spin2_result.state)
    value = intrinsic_bound(cov)
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = lift_unitary(sym24, rng.uniform(-1.5, 1.5, 3))
        _, cov_r = covariance(pure_state(sym24, u @ spin2_result.state.vector))
        assert abs(intrinsic_bound(cov_r) - value) < 1e-8


def test_optimizer_deterministic(sym24, spin2_result):
    again = optimize_probe(sym24, OptimizerConfig(seed=7, restarts=20))
    assert f"{again.bound_achieved:.12g}" == f"{spin2_result.bound_achieved:.12g}"
    assert [f"{z.real:.12g}{z.imag:+.12g}" for z in again.state.vector] == [
        f"{z.real:.12g}{z.imag:+.12g}" for z in spin2_result.state.vector
    ]
    assert again.diagnostics == spin2_result.diagnostics


def test_optimizer_simplex_method(sym24):
    result = optimize_probe(sym24, OptimizerConfig(seed=3, restarts=10, method="simplex"))
    assert result.bound_achieved >= result.floor - 1e-9
    assert abs(result.bound_achieved - 0.375) < 0.375 * 0.05
    for trace in result.diagnostics["restarts"]:
        assert trace["stop"] in ("simplex", "singular") and trace["gradient_norm"] is None


def test_optimizer_requires_seed(sym24):
    with pytest.raises(ValueError, match="seed"):
        optimize_probe(sym24, OptimizerConfig())


def test_optimizer_fails_on_fundamental():
    fund = fundamental_representation(gellmann_basis(2))
    with pytest.raises(OptimizationFailedError) as err:
        optimize_probe(fund, OptimizerConfig(seed=0, restarts=3, max_iters=50))
    assert err.value.diagnostics["singular_restarts"] == 3


def _central_differences(objective, z, h=1e-6):
    grad = np.array(
        [(objective(z + h * e)[0] - objective(z - h * e)[0]) / (2.0 * h) for e in np.eye(z.size)]
    )
    return grad - (grad @ z) * z


def _assert_gradient_matches(rep, z, barrier):
    objective, gradient = _objective_and_gradient(rep, barrier)
    analytic = gradient(z)
    analytic -= (analytic @ z) * z
    reference = _central_differences(objective, z)
    assert np.linalg.norm(analytic - reference) <= 1e-6 * np.linalg.norm(reference)


@pytest.mark.parametrize("n, particles", [(2, 7), (3, 6), (4, 4)])
def test_analytic_gradient_matches_central_differences(n, particles):
    rep = sym_rep(n, particles)
    barrier = BARRIER_CUTOFF * casimir(rep) / rep.basis.dim
    objective, _ = _objective_and_gradient(rep, barrier)
    rng = np.random.default_rng(10 * n + particles)
    for _ in range(3):
        z = rng.standard_normal(2 * rep.space_dim)
        z /= np.linalg.norm(z)
        assert objective(z)[1] > barrier  # the Tr[C^(-1)] branch
        _assert_gradient_matches(rep, z, barrier)


def test_analytic_gradient_in_barrier_branch():
    # a Fock state has a singular covariance; perturbed, its smallest
    # eigenvalue is small but resolved by the difference step, and a barrier
    # above it puts the objective on the d / lambda_min branch
    rep = sym_rep(3, 4)
    fock = make_fock((2, 1, 1)).vector
    rng = np.random.default_rng(5)
    kick = rng.standard_normal(rep.space_dim) + 1j * rng.standard_normal(rep.space_dim)
    psi = fock + 0.05 * kick / np.linalg.norm(kick)
    z = np.concatenate([psi.real, psi.imag]) / np.linalg.norm(psi)
    smallest = _objective_and_gradient(rep, np.inf)[0](z)[1]
    assert 0 < smallest < 1e-2 * casimir(rep) / rep.basis.dim  # far below isotropic
    objective, _ = _objective_and_gradient(rep, 2.0 * smallest)
    value, _ = objective(z)
    assert value == pytest.approx(rep.basis.dim / smallest, rel=1e-12)
    _assert_gradient_matches(rep, z, 2.0 * smallest)


def _batched_fd_gradient(rep, barrier, h=1e-6):
    """The finite-difference gradient the analytic one replaced.

    Evaluates Tr[C^(-1)] (or the barrier) at all 4 D shifted coordinate
    vectors at once through the dense generator view.
    """
    d, dim = rep.basis.dim, rep.space_dim
    flat = rep.generators.reshape(d * dim, dim)
    identity = np.eye(2 * dim)

    def values(z):
        psi = z[:, :dim] + 1j * z[:, dim:]
        psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
        images = (psi @ flat.T).reshape(-1, d, dim)
        mean = np.einsum("mai,mi->ma", images, psi.conj()).real
        gram = (images.conj() @ images.transpose(0, 2, 1)).real
        cov = gram - mean[:, :, None] * mean[:, None, :]
        eigs = np.linalg.eigvalsh((cov + cov.transpose(0, 2, 1)) / 2.0)
        smallest = eigs[:, 0]
        return np.where(
            smallest > barrier,
            np.sum(1.0 / np.clip(eigs, 1e-300, None), axis=1),
            d / np.clip(smallest, 1e-18, None),
        )

    def gradient(z):
        vals = values(np.concatenate([z + h * identity, z - h * identity]))
        return (vals[: 2 * dim] - vals[2 * dim :]) / (2.0 * h)

    return gradient


@pytest.mark.parametrize(
    "n, particles",
    [(2, p) for p in range(4, 9)] + [(3, p) for p in range(3, 7)] + [(4, 3)],
)
def test_analytic_descent_matches_finite_difference_descent(n, particles, monkeypatch):
    rep = sym_rep(n, particles)
    configs = [OptimizerConfig(seed=seed, restarts=2) for seed in (1, 2)]
    analytic = [optimize_probe(rep, config) for config in configs]

    def with_fd_gradient(rep, barrier):
        objective, _ = _objective_and_gradient(rep, barrier)
        return objective, _batched_fd_gradient(rep, barrier)

    monkeypatch.setattr(probes, "_objective_and_gradient", with_fd_gradient)
    for config, fast in zip(configs, analytic):
        slow = optimize_probe(rep, config)
        assert slow.converged == fast.converged
        assert slow.bound_achieved == pytest.approx(fast.bound_achieved, rel=1e-9)


def test_restart_traces_name_the_stop_reason(spin2_result):
    traces = spin2_result.diagnostics["restarts"]
    assert len(traces) == 20
    for trace in traces:
        assert set(trace) == {"iterations", "gradient_norm", "stop"}
        assert trace["stop"] in ("tolerance", "line_search", "max_iters", "singular")
        if trace["stop"] == "tolerance":
            assert trace["gradient_norm"] < 1e-6


def test_restart_trace_reports_max_iters():
    config = OptimizerConfig(seed=1018, restarts=2, max_iters=5)
    capped = optimize_probe(sym_rep(3, 5), config)
    assert not capped.converged
    best = capped.diagnostics["restarts"][capped.diagnostics["best_restart"]]
    assert best == {**best, "iterations": config.max_iters, "stop": "max_iters"}
    assert best["gradient_norm"] > 1e-6


def test_floor_inequality_random_states():
    rng = np.random.default_rng(21)
    for rep in (sym_rep(2, 4), sym_rep(3, 3)):
        d = rep.basis.dim
        floor = d * d / (4.0 * casimir(rep))
        for _ in range(50):
            _, cov = covariance(random_pure(rep, rng))
            assert intrinsic_bound(cov) >= floor - 1e-9


def test_second_order_states_sit_on_the_floor(tetrahedron, cyclic33):
    for state in (tetrahedron, cyclic33):
        rep = state.rep
        floor = rep.basis.dim ** 2 / (4.0 * casimir(rep))
        _, cov = covariance(state)
        assert abs(intrinsic_bound(cov) - floor) < 1e-6
