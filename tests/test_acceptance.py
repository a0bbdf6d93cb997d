"""Acceptance suite: every criterion at its stated tolerance, one line each.

Each test computes its quantities, prints a single ACCEPTANCE line with the
measured values, then asserts.  Budgets on wall time are asserted as stated.
"""

import time

import numpy as np
import pytest

from fragdiff import (ConstantRate, CustomKernel, IntegratorConfig, PowerLawKernel,
                      PowerRate, State, assemble_bundle, build_mesh,
                      decay_rate, evolve, heat_apply_exact,
                      heat_growth_bound, mass, moment_ceiling, solve_steady,
                      solve_steady_regularized, spectral_gap, weighted_norm,
                      x1_distance)
from fragdiff.checks import (WeightSpec, birth_domination, check_interpolation,
                             check_kato, default_catalog,
                             kernel_positivity_samples)
from fragdiff.config import build_bundle, build_initial, preset_config
from conftest import exact_equilibrium


# |a_1|, the first zero of Ai: the linear-rate gap on the half-line
AIRY_A1 = 2.3381074105
# the linear-rate gap's O(h^2) mesh error is 9.7e-5 at h = 40/1024 and falls
# fourfold per halving (test_linear_rate_spectrum_matches_airy_zeros_second_order)
GAP_H2_BUDGET = 1e-4


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def x1_error(mesh, values, target):
    return float(np.sum(mesh.centers * np.abs(values - target) * mesh.widths))


@pytest.fixture(scope="module")
def linear_rate_bundle():
    cfg = preset_config("linear-rate")
    return build_bundle(cfg)


def test_criterion_1_explicit_steady_state():
    started = time.perf_counter()
    errors = {}
    for n in (2048, 4096):
        mesh = build_mesh(40.0, n)
        bundle = assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0))
        result = solve_steady(bundle)
        errors[n] = x1_error(mesh, result.state.values,
                             exact_equilibrium(mesh.centers))
    elapsed = time.perf_counter() - started
    ratio = errors[2048] / errors[4096]
    ok = errors[2048] <= 5e-5 and ratio >= 3.5 and elapsed <= 10.0
    report(1, ok, f"X1 error {errors[2048]:.3e} (<= 5e-5), halving ratio "
                  f"{ratio:.2f} (>= 3.5), {elapsed:.1f}s (<= 10s)")
    assert errors[2048] <= 5e-5
    assert ratio >= 3.5
    assert elapsed <= 10.0


def test_criterion_2_mass_conservation():
    started = time.perf_counter()
    cfg = preset_config("mitosis")
    bundle = build_bundle(cfg)
    initial = build_initial(cfg, bundle)      # exponential, unit mass
    config = IntegratorConfig(dt=1e-3, t_end=10.0, output_every=100)
    trajectory = evolve(bundle, initial, config)
    steps = trajectory.times.size - 1
    # truncation-leak budget: time integral of the tail value (the only
    # mass flux of the scheme), estimated from the stored states
    dt_store = trajectory.states[0].time - 0.0
    budget = sum(abs(st.values[-1]) * dt_store for st in trajectory.states)
    drift = trajectory.max_drift
    elapsed = time.perf_counter() - started
    ok = steps == 10000 and drift <= 1e-10 + budget and elapsed <= 30.0
    report(2, ok, f"{steps} steps, max rel drift {drift:.3e} "
                  f"(<= 1e-10 + tail budget {budget:.1e}), {elapsed:.1f}s (<= 30s)")
    assert steps == 10000
    assert drift <= 1e-10 + budget
    assert elapsed <= 30.0


def check_mass_ledger(mesh, kernel, scheme):
    # with the no-flux right end the generator's mass rate is exactly
    # -D phi_N, so the drift equals the integrated last-cell flux, taken at
    # the new level by both backward-Euler schemes
    bundle = assemble_bundle(mesh, ConstantRate(1.0), kernel)
    values = np.exp(-mesh.centers / 2.0)
    initial = State(values=values / np.sum(mesh.centers * values * mesh.widths), mesh=mesh)
    dt = 2.5e-4
    trajectory = evolve(bundle, initial, IntegratorConfig(scheme=scheme, dt=dt, t_end=0.5))
    edge = np.array([initial.values[-1]] + [st.values[-1] for st in trajectory.states])
    outflow = np.concatenate([[0.0], np.cumsum(dt * edge[1:])])
    mass1 = trajectory.moments[1.0]
    residual = float(np.max(np.abs(mass1 - mass1[0] + outflow)))
    drift = float(np.max(np.abs(mass1 - mass1[0])))
    ok = residual <= 1e-11 and drift >= 1e-5
    steps = trajectory.times.size - 1
    report("2 (ledger)", ok, f"{type(kernel).__name__}, {scheme}: {steps} steps, "
                              f"|drift + outflow| {residual:.1e} (<= 1e-11), "
                              f"drift {drift:.1e} (>= 1e-5)")
    assert drift >= 1e-5            # the boundary flux is not negligible here
    assert residual <= 1e-11


@pytest.mark.parametrize("scheme", ["imex_euler", "fully_implicit"])
def test_criterion_2_mass_ledger_identity(scheme):
    check_mass_ledger(build_mesh(12.0, 512), PowerLawKernel(0.0), scheme)


@pytest.mark.parametrize("scheme", ["imex_euler", "fully_implicit"])
def test_criterion_2_mass_ledger_identity_custom_kernel(scheme):
    # a dense gain: imex_euler steps by one precomputed matrix
    binary = CustomKernel(lambda x, y: 2.0 / y * np.ones_like(x), name="binary")
    check_mass_ledger(build_mesh(12.0, 128), binary, scheme)


def test_criterion_3_positivity():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    mesh = build_mesh(40.0, 512)
    bundles = [assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0)),
               assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(0.0))]
    worst = 0.0
    for k in range(20):
        bundle = bundles[k % 2]
        shape = rng.random(mesh.n_cells) * np.exp(-rng.uniform(0.2, 1.0)
                                                  * mesh.centers)
        config = IntegratorConfig(dt=2e-3, t_end=0.4)
        trajectory = evolve(bundle, State(values=shape, mesh=mesh), config)
        worst = min(worst, trajectory.min_value)
    elapsed = time.perf_counter() - started
    ok = worst >= -1e-13 and elapsed <= 60.0
    report(3, ok, f"20 random trajectories, min value {worst:.2e} "
                  f"(>= -1e-13), {elapsed:.1f}s (<= 60s)")
    assert worst >= -1e-13
    assert elapsed <= 60.0


def test_criterion_4_convergence_to_projected_steady(linear_rate_bundle):
    started = time.perf_counter()
    bundle = linear_rate_bundle
    mesh = bundle.mesh
    steady = solve_steady(bundle).state
    xc = mesh.centers
    shapes = [np.exp(-xc), xc ** 2 * np.exp(-2.0 * xc)]
    config = IntegratorConfig(dt=0.01, t_end=40.0, output_every=100)
    finals, fits = [], []
    for shape in shapes:
        f = shape / np.sum(xc * shape * mesh.widths)
        trajectory = evolve(bundle, State(values=f, mesh=mesh), config,
                            reference=steady)
        finals.append(x1_distance(trajectory.final, steady))
        fits.append(decay_rate(trajectory, steady))
    gap = spectral_gap(bundle, k=8)
    rate_devs = [abs(fit.nu_hat - gap) / gap for fit in fits]
    # against the closed form |a_1|: the gap may miss it by the O(h^2) mesh
    # error, and each fit by that plus its own 10 %
    gap_err = abs(gap - AIRY_A1)
    airy_devs = [abs(fit.nu_hat - AIRY_A1) for fit in fits]
    elapsed = time.perf_counter() - started
    ok = (max(finals) <= 1e-3
          and all(fit.status == "ok" and fit.nu_hat > 0 for fit in fits)
          and all(fit.r_squared >= 0.999 for fit in fits)
          and max(rate_devs) <= 0.10 and gap_err <= GAP_H2_BUDGET
          and max(airy_devs) <= GAP_H2_BUDGET + 0.10 * AIRY_A1 and elapsed <= 120.0)
    report(4, ok, f"final X1 distances {finals[0]:.2e}/{finals[1]:.2e} (<= 1e-3), "
                  f"nu_hat {fits[0].nu_hat:.4f}/{fits[1].nu_hat:.4f} vs gap "
                  f"{gap:.4f} (dev {100 * max(rate_devs):.1f}% <= 10%), "
                  f"gap - |a_1| {gap_err:.2e} (<= {GAP_H2_BUDGET:.1e}), nu_hat - |a_1| "
                  f"{max(airy_devs):.3f} (<= {GAP_H2_BUDGET + 0.10 * AIRY_A1:.3f}), "
                  f"R2 {min(f.r_squared for f in fits):.5f} (>= 0.999), "
                  f"{elapsed:.1f}s (<= 120s)")
    assert max(finals) <= 1e-3
    for fit in fits:
        assert fit.status == "ok" and fit.nu_hat > 0
        assert fit.r_squared >= 0.999
    assert max(rate_devs) <= 0.10
    assert gap_err <= GAP_H2_BUDGET
    assert max(airy_devs) <= GAP_H2_BUDGET + 0.10 * AIRY_A1
    assert elapsed <= 120.0


def test_criterion_5_heat_propagator_oracle():
    started = time.perf_counter()
    mesh = build_mesh(40.0, 2048)
    xc = mesh.centers
    f = State(values=xc * np.exp(-xc ** 2 / 4.0), mesh=mesh)
    moved = heat_apply_exact(f, 1.0)
    closed = 0.5 ** 1.5 * xc * np.exp(-xc ** 2 / 8.0)
    err = x1_error(mesh, moved.values, closed)
    rng = np.random.default_rng(5)
    g = State(values=(1.0 + rng.random(mesh.n_cells)) * np.exp(-xc), mesh=mesh)
    drifts = [abs(mass(heat_apply_exact(g, t)) - mass(g)) / mass(g)
              for t in (0.25, 1.0)]
    elapsed = time.perf_counter() - started
    ok = err <= 1e-6 and max(drifts) <= 1e-10 and elapsed <= 10.0
    report(5, ok, f"odd-Gaussian X1 error {err:.2e} (<= 1e-6), mass drift "
                  f"{max(drifts):.2e} (<= 1e-10), {elapsed:.1f}s (<= 10s)")
    assert err <= 1e-6
    assert max(drifts) <= 1e-10
    assert elapsed <= 10.0


def test_criterion_6_moment_ceiling(linear_rate_bundle):
    started = time.perf_counter()
    bundle = linear_rate_bundle
    ceiling = moment_ceiling(bundle.rate, bundle.kernel, 3.0, bundle.mesh.x_max)
    mu_ok = (abs(ceiling.mu - 26.0) <= 1e-8 and abs(ceiling.delta - 0.5) <= 1e-12
             and abs(ceiling.x_star - 1.0) <= 1e-10)
    mesh = bundle.mesh
    xc = mesh.centers
    overshoots = []
    for scale in (0.5, 1.0, 1.5, 2.5, 3.0):
        f = np.exp(-xc / scale)
        f /= np.sum(xc * f * mesh.widths)
        config = IntegratorConfig(dt=5e-3, t_end=6.0, moment_order=3.0)
        trajectory = evolve(bundle, State(values=f, mesh=mesh), config)
        series = trajectory.moments[3.0]
        cap = max(series[0], ceiling.mu)
        overshoots.append(float(np.max(series)) / cap)
    elapsed = time.perf_counter() - started
    ok = mu_ok and max(overshoots) <= 1.0 + 1e-6 and elapsed <= 60.0
    report(6, ok, f"mu3 = {ceiling.mu:.10f} (delta {ceiling.delta}, x* "
                  f"{ceiling.x_star:.2e}), max M3/cap {max(overshoots):.8f} "
                  f"(<= 1+1e-6), {elapsed:.1f}s (<= 60s)")
    assert mu_ok
    assert max(overshoots) <= 1.0 + 1e-6
    assert elapsed <= 60.0


def test_criterion_7_inequality_suites(linear_rate_bundle):
    started = time.perf_counter()
    violations = []
    for profile in default_catalog():
        for weight in (WeightSpec(), WeightSpec(m=2.0), WeightSpec(m=3.0),
                       WeightSpec(m=2.0, cap=10.0)):
            rep = check_kato(profile, weight)
            if rep.status != "pass":
                violations.append(("kato", profile.name, weight.label))
    for profile in default_catalog():
        for m in (-0.5, 0.0, 0.5, 0.9):
            rep = check_interpolation(profile, m)
            if rep.status != "pass":
                violations.append(("interpolation", profile.name, m))
    rng = np.random.default_rng(77)
    kernels = kernel_positivity_samples(rng, n_samples=5000)
    if not kernels["positivity_ok"]:
        violations.append(("kernel_positivity",))
    if not kernels["monotone_ok"]:
        violations.append(("kernel_monotonicity",))
    bundle = linear_rate_bundle
    for k in range(10):
        values = rng.random(bundle.mesh.n_cells) * np.exp(
            -rng.uniform(0.2, 0.8) * bundle.mesh.centers)
        if not birth_domination(bundle, values, 2.0)["ok"]:
            violations.append(("domination", k))
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed <= 60.0
    report(7, ok, f"{len(violations)} violations across kato/interpolation/"
                  f"kernel/domination suites, {elapsed:.1f}s (<= 60s)")
    assert violations == []
    assert elapsed <= 60.0


@pytest.fixture(scope="module")
def regularized_result():
    mesh = build_mesh(40.0, 2048)
    bundle = assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0))
    started = time.perf_counter()
    result = solve_steady_regularized(bundle, (4, 16, 64, 256))
    return result, mesh, time.perf_counter() - started


# The sequence starts at n = 16: the 1/n regime needs the lift x/n to be
# small at the mean size M2/M1 = 3 of the equilibrium (x/4 = 0.75 against
# the base rate 1 at n = 4).  The continuous problem's ratio across
# n = 4 -> 16 -> 64 is 2.507, below 3 on any mesh.
@pytest.fixture(scope="module")
def regularized_cauchy_result():
    mesh = build_mesh(40.0, 2048)
    bundle = assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0))
    started = time.perf_counter()
    result = solve_steady_regularized(bundle, (16, 64, 256, 1024))
    return result, mesh, time.perf_counter() - started


def test_criterion_8a_regularized_cauchy_ratios(regularized_cauchy_result):
    result, mesh, elapsed = regularized_cauchy_result
    ratios = result.distance_ratios
    contracting = bool(np.all(np.diff(result.pairwise_x1) < 0.0))
    ok = bool(np.all(ratios >= 3.0)) and contracting and elapsed <= 60.0
    report("8a", ok, f"pairwise X1 distances "
                     f"{np.array2string(result.pairwise_x1, precision=4)}, "
                     f"ratios {np.array2string(ratios, precision=3)} "
                     f"(each >= 3 required), {elapsed:.1f}s (<= 60s)")
    assert contracting
    assert elapsed <= 60.0
    assert np.all(ratios >= 3.0)


def test_criterion_8b_regularized_limit(regularized_result):
    result, mesh, _ = regularized_result
    err = x1_error(mesh, result.limit.values, exact_equilibrium(mesh.centers))
    ok = err <= 1e-4
    report("8b", ok, f"extrapolated-limit X1 error {err:.3e} (<= 1e-4)")
    assert err <= 1e-4


def test_criterion_8c_regularized_residual_decay(regularized_result):
    result, _, _ = regularized_result
    scaled = result.residual_base_x1 * np.asarray(result.n_values, dtype=float)
    spread = float(scaled.max() / scaled.min())
    ok = spread <= 2.0
    report("8c", ok, f"residual*n values {np.array2string(scaled, precision=3)}, "
                     f"max/min {spread:.2f} (<= 2)")
    assert spread <= 2.0


def test_criterion_9_growth_envelope():
    started = time.perf_counter()
    mesh = build_mesh(40.0, 1024)
    xc = mesh.centers
    rng = np.random.default_rng(9)
    profiles = []
    for _ in range(10):
        power = rng.integers(0, 3)
        scale = rng.uniform(0.6, 2.0)
        profiles.append(xc ** power * np.exp(-xc / scale))
    worst = -np.inf
    for m in (3.0, 4.0):
        envelope = heat_growth_bound(m)
        for values in profiles:
            f = State(values=values, mesh=mesh)
            base = weighted_norm(f, m)
            for t in (0.25, 1.0):
                grown = weighted_norm(heat_apply_exact(f, t), m)
                worst = max(worst, grown / (np.exp(envelope * t) * base))
    elapsed = time.perf_counter() - started
    ok = worst <= 1.0 and elapsed <= 30.0
    report(9, ok, f"10 profiles, m in (3,4): max ratio to envelope "
                  f"{worst:.3e} (<= 1), omega3 = {heat_growth_bound(3.0)}, "
                  f"omega4 = {heat_growth_bound(4.0):.4f}, "
                  f"{elapsed:.1f}s (<= 30s)")
    assert worst <= 1.0
    assert elapsed <= 30.0
