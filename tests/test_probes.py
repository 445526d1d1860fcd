"""Named probe constructors, spec serialization, and the probe optimizer."""

import itertools
import json
import math
from functools import cache

import numpy as np
import pytest
from conftest import dense_generators, random_pure, sym_rep
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from sunmetro import (
    ConstraintError,
    InvalidElementError,
    InvalidStateError,
    OptimizationFailedError,
    OptimizerConfig,
    ProbeSpec,
    Representation,
    build_probe,
    build_report,
    canonical_phase,
    casimir,
    covariance,
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
from sunmetro.probes import (
    BARRIER_CUTOFF,
    POLISH_RCOND,
    _isotropy_residual,
    _lbfgs,
    _objective_and_gradient,
    _unit_state,
)

INV3 = 1.0 / np.sqrt(3.0)


def test_ghz_amplitudes():
    state = make_ghz(3, 9)
    rep = state.rep
    hot = set(rep.fock.rank([(9, 0, 0), (0, 9, 0), (0, 0, 9)]).tolist())
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
    # the defining representation built by hand carries no Fock basis to place amplitudes by
    basis = gellmann_basis(2)
    defining = Representation(basis, basis.coefficients.reshape((basis.dim * 2, 2)))
    with pytest.raises(InvalidStateError):
        make_ghz(2, 1, rep=defining)


@pytest.mark.parametrize("n,particles", [(2, 2), (2, 5), (3, 2), (3, 7), (4, 3)])
def test_ghz_mean_vanishes(n, particles):
    mean, _ = covariance(make_ghz(n, particles))
    assert np.linalg.norm(mean) < 1e-10


def _descending(modes, particles, amplitudes):
    # amplitude vector in the documented basis order (descending occupation
    # tuples), enumerated here independently of fock_basis
    order = sorted(
        (occ for occ in itertools.product(range(particles + 1), repeat=modes) if sum(occ) == particles),
        reverse=True,
    )
    return np.array([amplitudes.get(occ, 0.0) for occ in order], dtype=complex)


def test_named_probes_have_the_exact_amplitudes():
    half, third = 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(3.0)
    cases = [
        (make_ghz(3, 2), [third, 0.0, 0.0, third, 0.0, third]),
        (make_noon(3), [half, 0.0, 0.0, half]),
        (make_tetrahedron_j2(), [third, 0.0, 0.0, np.sqrt(2.0 / 3.0), 0.0]),
        (make_fock([2, 1, 0]), [0.0, 1.0] + [0.0] * 8),
        (make_su3_cyclic(3, 3), _descending(3, 9, dict.fromkeys([(0, 3, 6), (6, 0, 3), (3, 6, 0)], third))),
    ]
    for state, expected in cases:
        assert np.array_equal(state.vector, np.asarray(expected, dtype=complex))


@pytest.mark.parametrize("n, particles", [(2, 4), (2, 9), (3, 3), (3, 6), (4, 3)])
def test_covariance_pure_is_the_optimizer_kernel(n, particles):
    # the bound and the optimizer read a pure state's moments from one
    # kernel, so they agree to the last bit
    rep = sym_rep(n, particles)
    dim = rep.space_dim
    rng = np.random.default_rng(100 * n + particles)
    for _ in range(6):
        z = rng.standard_normal(2 * dim) * rng.uniform(0.5, 3.0)
        _, mean, cov = probes._moments(rep, z)
        psi = (z[:dim] + 1j * z[dim:]) / np.sqrt(z @ z)
        got_mean, got_cov = covariance(pure_state(rep, psi))
        assert np.array_equal(got_mean, mean) and np.array_equal(got_cov, cov)


def test_tetrahedron_frozen_amplitudes():
    state = make_tetrahedron_j2()
    rank = state.rep.fock.rank
    assert abs(state.vector[rank((4, 0))] - INV3) < 1e-12
    assert abs(state.vector[rank((1, 3))] - np.sqrt(2.0 / 3.0)) < 1e-12
    assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12
    mean, cov = covariance(state)
    assert np.linalg.norm(mean) < 1e-12
    np.testing.assert_allclose(cov, 2.0 * np.eye(3), atol=1e-12)


def test_su3_cyclic_components(cyclic33):
    hot = set(cyclic33.rep.fock.rank([(0, 3, 6), (3, 6, 0), (6, 0, 3)]).tolist())
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
    assert abs(state.vector[state.rep.fock.rank((2, 1))] - 1.0) < 1e-12
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
    assert config.restarts == 20
    with pytest.raises(ValueError):
        OptimizerConfig(seed=1, restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(seed=1, tolerance=0.0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        OptimizerConfig(seed=-1)
    assert OptimizerConfig(seed=0).seed == 0
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
        {"seed": -1},
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


def test_optimizer_requires_seed(sym24):
    with pytest.raises(ValueError, match="seed"):
        optimize_probe(sym24, OptimizerConfig())


def test_optimizer_fails_on_fundamental():
    fund = sym_rep(2, 1)
    with pytest.raises(OptimizationFailedError) as err:
        optimize_probe(fund, OptimizerConfig(seed=0, restarts=3, max_iters=50))
    assert err.value.diagnostics["singular_restarts"] == 3


@pytest.mark.parametrize("n", [2, 3, 5, 10, 20])
def test_optimizer_refuses_one_particle_before_any_restart(n, monkeypatch):
    # a pure C has rank at most 2(D - 1) = 2(n - 1) < d on sym(n, 1), so every
    # restart would end singular; none runs
    calls = []
    monkeypatch.setattr(probes, "_lbfgs", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(OptimizationFailedError, match=rf"all 7 restarts .* of symmetric\({n}, 1\)") as err:
        optimize_probe(sym_rep(n, 1), OptimizerConfig(seed=0, restarts=7))
    assert calls == []
    assert err.value.diagnostics == {"singular_restarts": 7, "space_dim": n}


def _central_differences(objective, z, h=1e-6):
    grad = np.array(
        [(objective(z + h * e)[0] - objective(z - h * e)[0]) / (2.0 * h) for e in np.eye(z.size)]
    )
    return grad - (grad @ z) * z


def _assert_gradient_matches(rep, z, barrier):
    objective, value_and_gradient = _objective_and_gradient(rep, barrier)
    value, analytic = value_and_gradient(z)
    assert value == objective(z)[0]
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
    flat = dense_generators(rep).reshape(d * dim, dim)
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
        gradient = _batched_fd_gradient(rep, barrier)
        return objective, lambda z: (objective(z)[0], gradient(z))

    monkeypatch.setattr(probes, "_objective_and_gradient", with_fd_gradient)
    for config, fast in zip(configs, analytic):
        slow = optimize_probe(rep, config)
        assert slow.converged == fast.converged
        assert slow.bound_achieved == pytest.approx(fast.bound_achieved, rel=1e-9)


STOPS = ("floor", "tolerance", "line_search", "max_iters", "singular")


def _assert_trace_keys(traces):
    for trace in traces:
        assert set(trace) == {"iterations", "gradient_norm", "stop"}
        assert trace["stop"] in STOPS
        if trace["stop"] == "tolerance":
            assert trace["gradient_norm"] < 1e-6


def test_restart_traces_name_the_stop_reason(spin2_result):
    # the restarts run up to and including the first one certified on the floor
    traces = spin2_result.diagnostics["restarts"]
    assert 1 <= len(traces) <= 20
    _assert_trace_keys(traces)
    stops = [trace["stop"] for trace in traces]
    assert stops.index("floor") == len(traces) - 1
    assert spin2_result.diagnostics["best_restart"] == len(traces) - 1


def test_restart_traces_run_to_the_end_below_the_floor():
    result = optimize_probe(sym_rep(2, 5), OptimizerConfig(seed=7, restarts=20))
    traces = result.diagnostics["restarts"]
    assert len(traces) == 20
    _assert_trace_keys(traces)
    assert "floor" not in [trace["stop"] for trace in traces]


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


@pytest.mark.parametrize("n, particles", [(2, 6), (3, 5), (4, 4)])
def test_isotropy_jacobian_matches_central_differences(n, particles):
    rep = sym_rep(n, particles)
    residual_and_jacobian = _isotropy_residual(rep)
    rng = np.random.default_rng(100 * n + particles)
    h = 1e-6
    for _ in range(2):
        z = rng.standard_normal(2 * rep.space_dim)
        z *= 1.7 / np.linalg.norm(z)  # off the unit sphere, so the 1/|z| factor counts
        _, analytic = residual_and_jacobian(z)
        reference = np.column_stack(
            [
                (residual_and_jacobian(z + h * e)[0] - residual_and_jacobian(z - h * e)[0])
                / (2.0 * h)
                for e in np.eye(z.size)
            ]
        )
        assert np.linalg.norm(analytic - reference) <= 1e-8 * np.linalg.norm(reference)


def test_isotropy_residual_vanishes_on_the_floor(tetrahedron, cyclic33):
    for state in (tetrahedron, cyclic33):
        z = np.concatenate([state.vector.real, state.vector.imag])
        residual, _ = _isotropy_residual(state.rep)(z)
        assert np.abs(residual).max() < 1e-12


@pytest.mark.parametrize("n, particles", [(3, 3), (4, 3), (2, 5)])
def test_restarts_at_a_shared_minimum_keep_the_earliest(n, particles):
    # below the floor every restart reaches the same minimum up to rounding,
    # and the relative tie keeps restart 0 instead of the one whose last bits
    # happen to be lowest
    rep = sym_rep(n, particles)
    for k in range(1, 6):
        result = optimize_probe(rep, OptimizerConfig(seed=k, restarts=6))
        assert result.diagnostics["best_restart"] == 0


def test_each_evaluation_makes_one_eigendecomposition(monkeypatch):
    rep = sym_rep(3, 3)
    objective, value_and_gradient = _objective_and_gradient(rep, BARRIER_CUTOFF)
    z = np.random.default_rng(9).standard_normal(2 * rep.space_dim)
    calls = []

    def counted(routine):
        def wrapper(*args, **kwargs):
            calls.append(routine.__name__)
            return routine(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    for evaluate in (objective, value_and_gradient):
        calls.clear()
        evaluate(z)
        assert calls == ["eigh"]


@pytest.mark.parametrize("n, particles, ratio", [(2, 5, 1.023104), (3, 3, 1.25)])
def test_sectors_below_the_floor_keep_their_minima(n, particles, ratio, monkeypatch):
    # the floor is out of reach, so no restart is polished, and one evaluation
    # per step gives bit for bit what separate objective and gradient calls give
    rep = sym_rep(n, particles)
    seeds = (1, 2)
    fast = [optimize_probe(rep, OptimizerConfig(seed=k)) for k in seeds]

    descend = probes._lbfgs
    calls = []

    def separate_calls(fun, z0, **kwargs):
        calls.append(z0)
        return descend(lambda z: (fun(z)[0], fun(z)[1]), z0, **kwargs)

    def no_polish(rep, z):
        raise AssertionError("a restart below the floor was polished")

    monkeypatch.setattr(probes, "_lbfgs", separate_calls)
    monkeypatch.setattr(probes, "_polish", no_polish)
    for k, result in zip(seeds, fast):
        assert result.converged
        assert result.bound_achieved / result.floor == pytest.approx(ratio, abs=1e-6)
        assert "floor" not in [trace["stop"] for trace in result.diagnostics["restarts"]]
        slow = optimize_probe(rep, OptimizerConfig(seed=k))
        assert slow.bound_achieved == result.bound_achieved
        np.testing.assert_array_equal(slow.state.vector, result.state.vector)
        assert slow.diagnostics == result.diagnostics
    assert len(calls) == 2 * OptimizerConfig().restarts


def test_certified_restart_ends_the_search(monkeypatch):
    rep = sym_rep(3, 5)
    result = optimize_probe(rep, OptimizerConfig(seed=1018, restarts=20))
    assert result.converged
    assert f"{result.bound_achieved:.12g}" == f"{result.floor:.12g}" == "1.2"
    assert build_report(result.state).unpolarized["second_order"]
    traces = result.diagnostics["restarts"]
    assert traces[-1]["stop"] == "floor" and len(traces) < 20
    assert result.diagnostics["best_restart"] == len(traces) - 1

    # a polish that does not certify leaves every restart as the descent ends
    # it without the gap test: with no Gauss-Newton step, the polish grades
    # the state where the descent stopped, which is not on the floor
    config = OptimizerConfig(seed=1018, restarts=3)
    monkeypatch.setattr(probes, "POLISH_STEPS", 0)
    uncertified = optimize_probe(rep, config)
    monkeypatch.setattr(probes, "FLOOR_GAP", -1.0)
    plain = optimize_probe(rep, config)
    assert len(plain.diagnostics["restarts"]) == 3
    assert "floor" not in [trace["stop"] for trace in plain.diagnostics["restarts"]]
    assert plain.bound_achieved == pytest.approx(1.2, rel=1e-6)
    assert uncertified.bound_achieved == plain.bound_achieved
    np.testing.assert_array_equal(uncertified.state.vector, plain.state.vector)
    assert uncertified.diagnostics == plain.diagnostics


# the optimize-small benchmark deck: its sectors in slot order; pass k runs
# slot s with seed 1000 (k + 1) + s and 2 restarts
OPTIMIZE_SMALL = [(2, p) for p in range(4, 20)] + [(3, p) for p in range(3, 10)] + [(4, 3), (4, 4)]


def _scipy_descent(value_and_gradient, z0, max_iters, tolerance, gap=-math.inf):
    """The reference for ``probes._lbfgs``: the descent optimize_probe used to
    run, scipy's L-BFGS-B stopped by a callback once f is within the gap."""

    def stop_in_gap(intermediate_result):
        if intermediate_result.fun <= gap:
            raise StopIteration

    options = {"maxiter": max_iters, "gtol": tolerance, "ftol": 0.0}
    res = minimize(
        value_and_gradient, z0, method="L-BFGS-B", jac=True, options=options, callback=stop_in_gap
    )
    gnorm = float(np.abs(res.jac).max())
    if res.fun <= gap:
        stop = "floor"
    elif res.status == 1:
        stop = "max_iters"
    else:
        stop = "tolerance" if gnorm < tolerance else "line_search"
    return res.x, gnorm, int(res.nit), stop


@pytest.mark.parametrize("slot", range(len(OPTIMIZE_SMALL)))
def test_descent_matches_scipy_lbfgsb_on_the_benchmark_deck(slot, monkeypatch):
    rep = sym_rep(*OPTIMIZE_SMALL[slot])
    for k in range(2):
        config = OptimizerConfig(seed=1000 * (k + 1) + slot, restarts=2)
        result = optimize_probe(rep, config)
        with monkeypatch.context() as patch:
            patch.setattr(probes, "_lbfgs", _scipy_descent)
            reference = optimize_probe(rep, config)
        assert result.bound_achieved == pytest.approx(reference.bound_achieved, rel=1e-9, abs=0)
        assert result.converged == reference.converged
        stops = [[trace["stop"] for trace in r.diagnostics["restarts"]] for r in (result, reference)]
        assert stops[0] == stops[1]


def _rosenbrock(z):
    x, y = z
    value = (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2
    return value, np.array([-2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)])


def test_descent_stops_at_max_iters():
    z, gnorm, iterations, stop = _lbfgs(_rosenbrock, np.array([-1.2, 1.0]), max_iters=5, tolerance=1e-12)
    assert (iterations, stop) == (5, "max_iters")
    assert gnorm == np.abs(_rosenbrock(z)[1]).max() > 1e-12
    # left to run, it reaches the minimum at (1, 1)
    z, gnorm, iterations, stop = _lbfgs(_rosenbrock, np.array([-1.2, 1.0]), max_iters=400, tolerance=1e-8)
    assert stop == "tolerance" and gnorm <= 1e-8 and 5 < iterations < 100
    np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-7)
    # a last step that also meets the tolerance stops as "max_iters", as in L-BFGS-B
    again = _lbfgs(_rosenbrock, np.array([-1.2, 1.0]), max_iters=iterations, tolerance=1e-8)
    assert again[2:] == (iterations, "max_iters")
    np.testing.assert_array_equal(again[0], z)


def test_descent_reaches_the_tolerance_on_a_convex_quadratic():
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    a = (q * np.geomspace(1.0, 100.0, 30)) @ q.T
    b = rng.standard_normal(30)

    def quadratic(z):
        return 0.5 * z @ a @ z - b @ z, a @ z - b

    z, gnorm, iterations, stop = _lbfgs(quadratic, np.zeros(30), max_iters=400, tolerance=1e-6)
    assert stop == "tolerance" and gnorm <= 1e-6 and gnorm == np.abs(a @ z - b).max()
    np.testing.assert_allclose(z, np.linalg.solve(a, b), atol=1e-5)
    # scipy's L-BFGS-B takes 71 iterations here; with 3 or 5 pairs the descent
    # takes 78 or 75
    options = {"maxiter": 400, "gtol": 1e-6, "ftol": 0.0}
    reference = minimize(quadratic, np.zeros(30), method="L-BFGS-B", jac=True, options=options)
    assert abs(iterations - reference.nit) <= 1
    # a start already within the tolerance takes no step
    assert _lbfgs(quadratic, z, 400, 1e-5)[2:] == (0, "tolerance")


def test_line_search_takes_a_strong_wolfe_step_at_once():
    # f = x^2 from x = 1 along -1: the step t reaches x = 1 - t, where the
    # curvature condition |f'(t)| <= 0.9 |f'(0)| holds for |x| <= 0.9
    calls = []

    def square(x):
        calls.append(x)
        return float(x @ x), 2.0 * x

    found = probes._wolfe_step(square, np.ones(1), 1.0, -2.0, -np.ones(1), 0.25)
    assert len(calls) == 1 and found[0] == 0.75 and found[1] == 0.5625
    calls.clear()
    # x = -0.95 does not, so the search brackets and interpolates
    point = probes._wolfe_step(square, np.ones(1), 1.0, -2.0, -np.ones(1), 1.95)[0]
    assert len(calls) > 1 and abs(point[0]) <= 0.9
    assert probes._wolfe_step(square, np.ones(1), 1.0, 2.0, np.ones(1), 1.0) is None


def test_descent_drops_its_pairs_when_a_search_fails(monkeypatch):
    # as in L-BFGS-B, a failed search along the two-loop direction is tried
    # again along -g from a step of 1, and the descent goes on
    search = probes._wolfe_step
    searches = []

    def fail_the_third(value_and_gradient, z, value, slope, direction, step):
        searches.append((value_and_gradient(z)[1], direction, step))
        if len(searches) == 3:
            return None
        return search(value_and_gradient, z, value, slope, direction, step)

    monkeypatch.setattr(probes, "_wolfe_step", fail_the_third)
    z, gnorm, iterations, stop = _lbfgs(_rosenbrock, np.array([-1.2, 1.0]), max_iters=400, tolerance=1e-8)
    g0, d0, step0 = searches[0]
    assert step0 == 1.0 / np.linalg.norm(g0)
    np.testing.assert_array_equal(d0, -g0)
    (g2, d2, _), (g3, d3, step3) = searches[2:4]
    assert not np.allclose(d2, -g2)
    np.testing.assert_array_equal(g3, g2)
    np.testing.assert_array_equal(d3, -g3)
    assert step3 == 1.0
    assert stop == "tolerance" and iterations == len(searches) - 1
    np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-7)


def test_descent_that_cannot_descend_stops_on_its_line_search():
    # the gradient's sign is wrong, so no step along -g decreases f: the first
    # search fails with no pairs to drop, and z is where it started
    calls = []

    def uphill(z):
        calls.append(z)
        return float(z @ z), -2.0 * z

    z0 = np.array([1.0, -2.0, 0.5])
    z, gnorm, iterations, stop = _lbfgs(uphill, z0, max_iters=400, tolerance=1e-6)
    assert (iterations, stop) == (0, "line_search")
    np.testing.assert_array_equal(z, z0)
    assert gnorm == 4.0 and len(calls) == 1 + 20


def test_polish_step_matches_scipy_gelsy():
    # the reference for the polish step is the solver it replaced, scipy's
    # pivoted-QR gelsy.  Both cut the Jacobian's rank at POLISH_RCOND; where no
    # singular value lies within a factor 10 of the cut, they keep the same
    # rank and give the same minimum-norm step, up to rounding amplified by
    # the kept condition number
    from scipy.linalg import lstsq

    rng = np.random.default_rng(27)
    tetra = make_tetrahedron_j2()
    z0 = np.concatenate([tetra.vector.real, tetra.vector.imag])
    points = [(tetra.rep, z0 + scale * rng.standard_normal(z0.size)) for scale in (0.0, 1e-6, 1e-3)]
    for n, particles in ((2, 4), (3, 5), (4, 4)):
        rep = sym_rep(n, particles)
        points += [(rep, rng.standard_normal(2 * rep.space_dim)) for _ in range(3)]
    ranks = []
    for rep, z in points:
        res, jac = _isotropy_residual(rep)(z / np.linalg.norm(z))
        step, _, rank, sv = np.linalg.lstsq(jac, -res, rcond=POLISH_RCOND)
        ref, _, ref_rank, _ = lstsq(jac, -res, cond=POLISH_RCOND, lapack_driver="gelsy")
        cut = POLISH_RCOND * sv[0]
        assert not np.any((sv > 0.1 * cut) & (sv < 10.0 * cut))
        assert rank == ref_rank
        cond = sv[0] / sv[rank - 1]
        tol = max(1e-8, 64 * np.finfo(float).eps * cond)
        assert np.abs(step - ref).max() <= tol * np.abs(step).max()
        ranks.append(rank)
    assert ranks[:3] == [5, 8, 8]


def test_polish_certificate_matches_the_second_order_grade(monkeypatch):
    # the polish grades its own result from the isotropy residual; the
    # reference is the second_order grade build_report gives the polished state
    polish = probes._polish
    graded = []

    def graded_polish(rep, z):
        polished, certified = polish(rep, z)
        reference = build_report(_unit_state(rep, polished)).unpolarized["second_order"]
        graded.append((certified, reference))
        return polished, certified

    monkeypatch.setattr(probes, "_polish", graded_polish)
    for slot, (n, particles) in enumerate(OPTIMIZE_SMALL):
        rep = sym_rep(n, particles)
        for k in range(3):
            optimize_probe(rep, OptimizerConfig(seed=1000 * (k + 1) + slot, restarts=2))
    assert len(graded) > 50
    assert all(certified == reference for certified, reference in graded)

    # random states, from which no step is taken, certify as the grade does
    rng = np.random.default_rng(17)
    monkeypatch.setattr(probes, "POLISH_STEPS", 0)
    for n, particles in OPTIMIZE_SMALL[::4]:
        rep = sym_rep(n, particles)
        z = rng.standard_normal(2 * rep.space_dim)
        graded.clear()
        probes._polish(rep, z / np.linalg.norm(z))
        assert graded == [(False, False)]


@cache
def _invariance_states():
    certified = optimize_probe(sym_rep(3, 5), OptimizerConfig(seed=1018)).state
    return make_tetrahedron_j2(), random_pure(sym_rep(3, 3), np.random.default_rng(31)), certified


@seed(20261018)
@settings(max_examples=30, deadline=None)
@given(which=st.integers(0, 2), draw=st.integers(0, 2**32 - 1))
def test_bound_and_grade_are_su_n_invariant_hypothesis(which, draw):
    # U(g) psi has mean R m and covariance R C R^T for R = Ad(g) orthogonal,
    # so Tr[C^(-1)] and unpolarization, a certificate included, survive
    state = _invariance_states()[which]
    rep = state.rep
    h = np.random.default_rng(draw).uniform(-np.pi, np.pi, rep.basis.dim)
    moved = lift_unitary(rep, h) @ state.vector
    moved = pure_state(rep, moved / np.linalg.norm(moved))
    before, after = build_report(state), build_report(moved)
    assert after.intrinsic_bound == pytest.approx(before.intrinsic_bound, rel=1e-9)
    assert after.unpolarized["second_order"] == before.unpolarized["second_order"]
