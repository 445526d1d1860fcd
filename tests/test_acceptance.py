"""Acceptance suite.

Each test checks one headline guarantee of the package and prints a single
verdict line with the measured figure and its tolerance.  Run with ``-s`` to
see all twelve lines; without it pytest shows them only on failure.
"""

import csv
import time

import numpy as np

from conftest import random_pure, sym_rep
from sunmetro import (
    OptimizerConfig,
    SingularCovarianceError,
    casimir,
    covariance,
    euler_su2,
    exponential,
    exponential_coordinates,
    from_coefficients,
    gellmann_basis,
    generators_closed_form,
    generators_quadrature,
    intrinsic_bound,
    lift_unitary,
    make_custom,
    make_fock,
    make_ghz,
    make_su3_cyclic,
    make_tetrahedron_j2,
    metric_at,
    mixed_state,
    optimize_probe,
    product_of_exponentials,
    pure_state,
    qfim,
    saturation_check,
    unitary_at,
    unpolarized_report,
    weighted_bound,
)
from sunmetro.cli import main


def _verdict(number, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {number:02d} {name}: {detail}", flush=True)
    assert ok, f"{number:02d} {name}: {detail}"


def _euler_rows(phi, theta, psi):
    return np.array(
        [
            [-np.sin(theta) * np.cos(psi), np.sin(theta) * np.sin(psi), np.cos(theta)],
            [np.sin(psi), np.cos(psi), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def test_01_euler_chart_closed_form():
    chart = euler_su2()
    rng = np.random.default_rng(101)
    worst_rows = 0.0
    worst_metric = 0.0
    for _ in range(100):
        phi, psi = rng.uniform(-np.pi, np.pi, 2)
        theta = rng.uniform(0.1, np.pi - 0.1)
        gm = generators_closed_form(chart, [phi, theta, psi])
        worst_rows = max(worst_rows, np.max(np.abs(gm.hmat - _euler_rows(phi, theta, psi))))
        expected_metric = np.array(
            [[1.0, 0.0, np.cos(theta)], [0.0, 1.0, 0.0], [np.cos(theta), 0.0, 1.0]]
        )
        worst_metric = max(
            worst_metric, np.max(np.abs(metric_at(chart, [phi, theta, psi]) - expected_metric))
        )
    ok = worst_rows < 1e-10 and worst_metric < 1e-10
    _verdict(
        1,
        "euler-chart-closed-form",
        ok,
        f"row deviation {worst_rows:.2e}, metric deviation {worst_metric:.2e} over "
        f"100 points (tol 1e-10)",
    )


def test_02_metric_weight_is_chart_invariant():
    basis = gellmann_basis(2)
    euler = euler_su2()
    expo = exponential(2)
    _, cov = covariance(make_tetrahedron_j2())
    rng = np.random.default_rng(202)
    worst_metric = 0.0
    identity_diffs = []
    for _ in range(50):
        phi, psi = rng.uniform(-np.pi, np.pi, 2)
        theta_e = np.array([phi, rng.uniform(0.3, np.pi - 0.3), psi])
        u = unitary_at(euler, theta_e)
        theta_x = exponential_coordinates(u, basis)
        assert np.max(np.abs(unitary_at(expo, theta_x) - u)) < 1e-8
        per_chart = []
        for chart, theta in ((euler, theta_e), (expo, theta_x)):
            q = qfim(generators_closed_form(chart, theta), cov)
            worst_metric = max(worst_metric, abs(weighted_bound(metric_at(chart, theta), q) - 0.375))
            per_chart.append(weighted_bound(np.eye(3), q))
        identity_diffs.append(abs(per_chart[0] - per_chart[1]))
    diffs = np.array(identity_diffs)
    ok = worst_metric < 1e-8 and np.min(diffs) > 1e-6 and np.max(diffs) > 1e-3
    _verdict(
        2,
        "metric-weight-chart-invariance",
        ok,
        f"metric-weight drift from 0.375 is {worst_metric:.2e} across two charts of the same "
        f"50 rotations (tol 1e-8) while identity-weight bounds differ by "
        f"{np.min(diffs):.2e}..{np.max(diffs):.2e}",
    )


def test_03_rotation_invariance_of_intrinsic_bound():
    rng = np.random.default_rng(303)
    worst = 0.0
    for probe in (make_tetrahedron_j2(), make_su3_cyclic(3, 3)):
        _, cov = covariance(probe)
        reference = intrinsic_bound(cov)
        d = probe.rep.basis.dim
        for _ in range(50):
            u = lift_unitary(probe.rep, rng.uniform(-2.0, 2.0, d))
            rotated = pure_state(probe.rep, u @ probe.vector)
            _, cov_r = covariance(rotated)
            worst = max(worst, abs(intrinsic_bound(cov_r) - reference) / reference)
    ok = worst < 1e-8
    _verdict(
        3,
        "rotation-invariance",
        ok,
        f"intrinsic bound drifts by {worst:.2e} relative under 50 lifted rotations of "
        f"two reference probes (tol 1e-8)",
    )


def test_04_tetrahedron_attains_the_spin2_floor():
    _, cov = covariance(make_tetrahedron_j2())
    floor = intrinsic_bound(cov)
    rep = sym_rep(2, 4)
    rng = np.random.default_rng(404)
    best = np.inf
    singular = 0
    for _ in range(500):
        try:
            _, c = covariance(random_pure(rep, rng))
            best = min(best, intrinsic_bound(c))
        except SingularCovarianceError:
            singular += 1
    ok = abs(floor - 0.375) < 1e-10 and best >= 0.375 - 1e-9
    _verdict(
        4,
        "tetrahedron-floor",
        ok,
        f"tetrahedron bound {floor} (tol 1e-10 around 0.375); best of 500 random states "
        f"{best:.6f} >= floor - 1e-9 ({singular} singular draws skipped)",
    )


def test_05_casimir_closed_form():
    worst = 0.0
    for n in (2, 3, 4):
        for particles in range(1, 13):
            value = casimir(sym_rep(n, particles))
            expected = particles * (particles + n) * (n - 1) / (2 * n)
            worst = max(worst, abs(value - expected))
            if n == 2:
                j = particles / 2
                worst = max(worst, abs(value - j * (j + 1)))
    ok = worst < 1e-8
    _verdict(
        5,
        "casimir-closed-form",
        ok,
        f"deviation {worst:.2e} from N(N+n)(n-1)/(2n) over n in 2..4, N in 1..12 (tol 1e-8)",
    )


def test_06_cyclic_probe_isotropy():
    probe = make_su3_cyclic(3, 3)
    report = unpolarized_report(probe)
    _, cov = covariance(probe)
    bound = intrinsic_bound(cov)
    ok = report["second_order"] and report["deviation"] < 1e-10 and abs(bound - 4.0 / 9.0) < 1e-10
    _verdict(
        6,
        "cyclic-probe-isotropy",
        ok,
        f"covariance deviation from isotropy {report['deviation']:.2e} (tol 1e-10), "
        f"intrinsic bound {bound} vs 4/9 (tol 1e-10)",
    )


def test_07_scan_scaling_slopes(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--n", "2", "--nmin", "8", "--nmax", "64", "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    particles = np.array([float(r["N"]) for r in rows])
    ghz = np.array([float(r["cs_ghz"]) for r in rows])
    floor = np.array([float(r["cs_floor"]) for r in rows])
    slope_ghz = np.polyfit(np.log(particles), np.log(ghz), 1)[0]
    slope_floor = np.polyfit(np.log(particles), np.log(floor), 1)[0]
    ok = (
        -1.15 < slope_ghz < -0.85
        and -2.10 < slope_floor < -1.90
        and bool(np.all(ghz >= floor))
    )
    _verdict(
        7,
        "scan-scaling-slopes",
        ok,
        f"log-log slope {slope_ghz:.3f} for the extremal-superposition column (window "
        f"-1.15..-0.85) and {slope_floor:.3f} for the floor column (window -2.10..-1.90), "
        f"N from 8 to 64",
    )


def test_08_mixed_covariance_structure():
    rng = np.random.default_rng(808)
    worst_asym = 0.0
    worst_neg = 0.0
    worst_rank1 = 0.0
    for n, particles in ((2, 3), (3, 2)):
        rep = sym_rep(n, particles)
        dim = rep.space_dim
        for _ in range(50):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            _, cov = covariance(mixed_state(rep, rho))
            worst_asym = max(worst_asym, np.max(np.abs(cov - cov.T)))
            worst_neg = max(worst_neg, -float(np.min(np.linalg.eigvalsh(cov))))
        for _ in range(10):
            v = random_pure(rep, rng)
            mean_p, cov_p = covariance(v)
            mean_m, cov_m = covariance(mixed_state(rep, np.outer(v.vector, v.vector.conj())))
            worst_rank1 = max(
                worst_rank1,
                np.max(np.abs(cov_p - cov_m)),
                np.max(np.abs(mean_p - mean_m)),
            )
        _, cov_mm = covariance(mixed_state(rep, np.eye(dim) / dim))
        worst_neg = max(worst_neg, np.max(np.abs(cov_mm)))
    ok = worst_asym < 1e-12 and worst_neg < 1e-10 and worst_rank1 < 1e-10
    _verdict(
        8,
        "mixed-covariance-structure",
        ok,
        f"asymmetry {worst_asym:.2e} (tol 1e-12), eigenvalue floor -{worst_neg:.2e} "
        f"(tol 1e-10), rank-1 vs pure gap {worst_rank1:.2e} (tol 1e-10) over 100 densities",
    )


def test_09_quadrature_and_finite_differences():
    rng = np.random.default_rng(909)
    basis3 = gellmann_basis(3)
    axes = rng.normal(size=(4, 8))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    charts = [euler_su2(), exponential(2), exponential(3), exponential(4),
              product_of_exponentials(3, axes)]
    worst_quad = 0.0
    worst_fd = 0.0
    fd_points = 0
    for chart in charts:
        basis = gellmann_basis(chart.n)
        for sample in range(20):
            if chart.kind == "euler_su2":
                theta = np.array(
                    [rng.uniform(-np.pi, np.pi), rng.uniform(0.3, np.pi - 0.3),
                     rng.uniform(-np.pi, np.pi)]
                )
            else:
                theta = rng.uniform(-1.0, 1.0, chart.param_count)
                norm = np.linalg.norm(theta)
                if norm > 1.5:
                    theta *= 1.5 / norm
            closed = generators_closed_form(chart, theta)
            quad = generators_quadrature(chart, theta, order=32)
            worst_quad = max(worst_quad, np.max(np.abs(closed.hmat - quad.hmat)))
            if sample >= 18:
                fd_points += 1
                eps = 1e-5
                u0 = unitary_at(chart, theta)
                for j in range(chart.param_count):
                    step = np.zeros(chart.param_count)
                    step[j] = eps
                    du = unitary_at(chart, theta + step) - unitary_at(chart, theta - step)
                    h_fd = 1j * u0.conj().T @ du / (2 * eps)
                    h_closed = from_coefficients(closed.hmat[j], basis)
                    worst_fd = max(worst_fd, np.max(np.abs(h_fd - h_closed)))
    ok = worst_quad < 1e-8 and worst_fd < 5e-6
    _verdict(
        9,
        "quadrature-and-finite-differences",
        ok,
        f"closed form vs order-32 quadrature {worst_quad:.2e} over 100 points on 5 charts "
        f"(tol 1e-8); vs central differences {worst_fd:.2e} on {fd_points * 2} points "
        f"(tol 5e-6)",
    )


def test_10_zero_mean_probes_saturate():
    rng = np.random.default_rng(1010)
    cat = np.zeros(7, dtype=complex)
    cat[1] = cat[5] = 1.0 / np.sqrt(2.0)
    pool = [
        make_ghz(2, 2),
        make_ghz(2, 5),
        make_ghz(3, 2),
        make_ghz(3, 7),
        make_tetrahedron_j2(),
        make_su3_cyclic(3, 3),
        make_custom(2, 6, cat),
    ]
    checked = 0
    worst_mean = 0.0
    for trial in range(200):
        base = pool[trial % len(pool)]
        u = lift_unitary(base.rep, rng.uniform(-2.0, 2.0, base.rep.basis.dim))
        probe = pure_state(base.rep, u @ base.vector)
        mean, _ = covariance(probe)
        worst_mean = max(worst_mean, float(np.linalg.norm(mean)))
        chart = exponential(base.rep.basis.n)
        if trial % 2 == 0:
            theta = np.zeros(chart.param_count)
        else:
            theta = rng.uniform(-1.0, 1.0, chart.param_count)
        if not saturation_check(probe, generators_closed_form(chart, theta)):
            break
        checked += 1
    stretched = make_fock([4, 0])
    polarized_saturates = saturation_check(
        stretched, generators_closed_form(euler_su2(), [0.4, 1.1, -0.9])
    )
    ok = checked == 200 and worst_mean < 1e-10 and not polarized_saturates
    _verdict(
        10,
        "zero-mean-saturation",
        ok,
        f"{checked}/200 rotated zero-mean probes pass the commutator check "
        f"(largest mean norm {worst_mean:.2e}); a polarized probe fails it as expected",
    )


def test_11_optimizer_recovers_floors():
    start = time.monotonic()
    spin = optimize_probe(sym_rep(2, 4), OptimizerConfig(seed=7, restarts=20))
    su3 = optimize_probe(sym_rep(3, 9), OptimizerConfig(seed=7, restarts=50))
    elapsed = time.monotonic() - start
    target_spin = 0.375
    target_su3 = 4.0 / 9.0
    ok = (
        spin.converged
        and su3.converged
        and abs(spin.bound_achieved - target_spin) < 0.01 * target_spin
        and abs(su3.bound_achieved - target_su3) < 0.01 * target_su3
        and elapsed < 300.0
    )
    _verdict(
        11,
        "optimizer-recovers-floors",
        ok,
        f"achieved {spin.bound_achieved:.6f} vs 0.375 and {su3.bound_achieved:.6f} vs 4/9 "
        f"(tol 1% each) in {elapsed:.1f}s (limit 300s)",
    )


def test_12_trace_inequality_and_equality_flag():
    rng = np.random.default_rng(1212)
    states = [make_tetrahedron_j2(), make_su3_cyclic(3, 3), make_ghz(3, 9)]
    for n, particles in ((2, 4), (2, 6), (3, 3), (3, 6)):
        rep = sym_rep(n, particles)
        states.extend(random_pure(rep, rng) for _ in range(125))
    worst_defect = 0.0
    mismatches = 0
    skipped = 0
    for state in states:
        _, cov = covariance(state)
        eigs = np.linalg.eigvalsh(cov)
        if np.min(eigs) <= 1e-12 * np.max(eigs):
            skipped += 1
            continue
        d = state.rep.basis.dim
        product = float(np.sum(eigs) * np.sum(1.0 / eigs))
        worst_defect = max(worst_defect, d * d - product)
        equality = abs(product - d * d) < 1e-6
        if equality != unpolarized_report(state)["second_order"]:
            mismatches += 1
    ok = worst_defect < 1e-12 * 64 and mismatches == 0
    _verdict(
        12,
        "trace-inequality",
        ok,
        f"Tr C * Tr C^-1 >= d^2 holds with defect {worst_defect:.2e} over {len(states)} "
        f"states ({skipped} singular skipped, tol 1e-12 relative); equality coincides with "
        f"the second-order isotropy flag in all cases ({mismatches} mismatches)",
    )
