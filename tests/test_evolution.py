import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from fragdiff import (ConfigError, ConstantRate, IntegratorConfig, PowerLawKernel,
                      PowerRate, PropertyViolation, State, Stepper,
                      apply_generator, assemble_bundle, build_mesh, default_dt,
                      evolve, heat_apply_exact, mass, moment, solve_steady,
                      tail_mass_fraction, x1_distance)
from fragdiff.mesh import moment_of, x1_distance_of
from conftest import exact_equilibrium


def unit_mass_exponential(mesh, scale=1.0):
    values = np.exp(-mesh.centers / scale)
    values /= np.sum(mesh.centers * values * mesh.widths)
    return State(values=values, mesh=mesh)


def test_default_dt_formula(mitosis_512):
    dt = default_dt(mitosis_512)
    h_min = mitosis_512.mesh.widths.min()
    expected = min(0.25 * h_min ** 2, 0.5 / mitosis_512.death.max())
    assert dt == pytest.approx(expected)


def test_step_consistency_with_generator(mitosis_512):
    state = unit_mass_exponential(mitosis_512.mesh)
    gen = apply_generator(mitosis_512, state).values
    errors = []
    for dt in (1e-3, 5e-4):
        moved = Stepper(mitosis_512, dt).step(state.values)
        errors.append(np.max(np.abs((moved - state.values) / dt - gen)))
    assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.2)


def test_pure_heat_march_matches_exact_propagator(mesh_512):
    # negligible rate: marching to a fixed time agrees with the image-kernel
    # propagator at first order in dt, down to the spatial floor
    bundle = assemble_bundle(mesh_512, ConstantRate(1e-12), PowerLawKernel(0.0))
    state = unit_mass_exponential(mesh_512)
    horizon = 0.5
    exact = heat_apply_exact(state, horizon)
    errors = []
    for dt in (0.025, 0.0125):
        stepper = Stepper(bundle, dt)
        current = state.values
        for _ in range(int(round(horizon / dt))):
            current = stepper.step(current)
        errors.append(x1_distance(state.copy_with(current), exact))
    assert errors[0] < 0.02
    assert errors[0] / errors[1] > 1.6       # dominated by the O(dt) term


def test_equilibrium_is_stationary(mitosis_2048):
    mesh = mitosis_2048.mesh
    psi = State(values=exact_equilibrium(mesh.centers), mesh=mesh)
    dt = 1e-3
    moved = Stepper(mitosis_2048, dt).step(psi.values)
    drift = x1_distance(psi.copy_with(moved), psi) / dt
    # residual-speed of the exact profile is bounded by scheme + space error
    assert drift < 5e-4


def test_zero_initial_stays_zero(mitosis_512):
    zero = State(values=np.zeros(mitosis_512.mesh.n_cells), mesh=mitosis_512.mesh)
    config = IntegratorConfig(dt=1e-3, t_end=0.05)
    trajectory = evolve(mitosis_512, zero, config)
    assert np.all(trajectory.final.values == 0.0)
    assert trajectory.max_drift == 0.0


@pytest.mark.parametrize("scheme", ["imex_euler", "crank_nicolson_imex",
                                    "fully_implicit"])
def test_mass_conserved_all_schemes(mitosis_512, scheme):
    state = unit_mass_exponential(mitosis_512.mesh)
    config = IntegratorConfig(scheme=scheme, dt=2e-3, t_end=0.5)
    trajectory = evolve(mitosis_512, state, config)
    assert trajectory.max_drift <= 1e-10


def test_mass_conserved_growing_rate(linear_rate_512):
    # birth and death act at the same time level, so conservation is exact
    # for unbounded rates as well
    state = unit_mass_exponential(linear_rate_512.mesh)
    config = IntegratorConfig(dt=5e-3, t_end=1.0)
    trajectory = evolve(linear_rate_512, state, config)
    assert trajectory.max_drift <= 1e-10


def test_positivity_random_data(linear_rate_512, rng):
    mesh = linear_rate_512.mesh
    config = IntegratorConfig(dt=5e-3, t_end=0.25)
    for _ in range(5):
        values = rng.random(mesh.n_cells) * np.exp(-0.2 * mesh.centers)
        trajectory = evolve(linear_rate_512, State(values=values, mesh=mesh), config)
        assert trajectory.min_value >= -1e-13


@pytest.mark.parametrize("scheme", ["imex_euler", "crank_nicolson_imex"])
def test_imex_schemes_factor_diffusion_once(mitosis_512, monkeypatch, scheme):
    from fragdiff import operators
    calls = []
    dgttrf = operators.lapack.dgttrf

    def counted(*args, **kwargs):
        calls.append(args[1].size)
        return dgttrf(*args, **kwargs)

    monkeypatch.setattr(operators.lapack, "dgttrf", counted)
    config = IntegratorConfig(scheme=scheme, dt=1e-3, t_end=0.05)
    run = evolve(mitosis_512, unit_mass_exponential(mitosis_512.mesh), config)
    assert run.times.size == 51
    assert calls == [mitosis_512.mesh.n_cells]


def test_positivity_warning_on_large_dt(linear_rate_512):
    with pytest.warns(UserWarning, match="positivity"):
        Stepper(linear_rate_512, dt=0.1, scheme="imex_euler")


@pytest.fixture(scope="module")
def fine_geometric():
    """Linear rate on a mesh whose smallest cell (2.47e-3) makes the explicit
    diffusion half step of crank_nicolson_imex stiff at dt = 1e-5."""
    mesh = build_mesh(40.0, 512, "geometric", ratio=1.01)
    return assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(0.0))


def test_crank_nicolson_warns_beyond_its_positivity_budget(fine_geometric):
    with pytest.warns(UserWarning, match="positivity budget 2.46"):
        stepper = Stepper(fine_geometric, 1e-5, "crank_nicolson_imex")
    assert stepper.positivity_budget == pytest.approx(2.46, abs=0.005)
    # the warning is earned: unit-scale data goes negative within 20 steps
    values = np.exp(-fine_geometric.mesh.centers)
    with pytest.raises(PropertyViolation, match="positivity violated"):
        for _ in range(20):
            values = stepper.step(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scheme in ("imex_euler", "fully_implicit"):
            assert Stepper(fine_geometric, 1e-5, scheme).positivity_budget < 1.0


@pytest.mark.parametrize("scheme, order", [("imex_euler", 0.9),
                                           ("crank_nicolson_imex", 1.9),
                                           ("fully_implicit", 0.9)])
def test_time_order(scheme, order):
    # against the exact semi-discrete flow exp(T G) of the linear-rate generator
    mesh = build_mesh(40.0, 256)
    bundle = assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(0.0))
    state = unit_mass_exponential(mesh)
    exact = expm(0.5 * bundle.dense()) @ state.values
    errors = []
    for dt in (5e-4, 2.5e-4, 1.25e-4, 6.25e-5):
        config = IntegratorConfig(scheme=scheme, dt=dt, t_end=0.5, output_every=10 ** 6)
        errors.append(x1_distance_of(mesh, evolve(bundle, state, config).final.values, exact))
    observed = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(observed >= order), observed


def _assert_records_equal_public_reductions(trajectory, initial, reference=None):
    """Every recorded value equals, with ==, the public reduction of its state."""
    mesh = initial.mesh
    states = [initial] + trajectory.states
    assert len(states) == trajectory.times.size
    for k, state in enumerate(states):
        assert trajectory.times[k] == state.time
        for m, series in trajectory.moments.items():
            assert series[k] == moment_of(mesh, state.values, m)
        assert trajectory.tail_fraction[k] == tail_mass_fraction(state)
        if reference is not None:
            assert trajectory.dist_ref[k] == x1_distance_of(mesh, state.values,
                                                            reference.values)


def test_recording_nonnegative_geometric():
    mesh = build_mesh(30.0, 300, "geometric", ratio=1.01)
    bundle = assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(-0.5))
    initial = State(values=np.exp(-(mesh.centers - 3.0) ** 2), mesh=mesh)
    reference = solve_steady(bundle).state
    config = IntegratorConfig(dt=1e-3, t_end=0.05, moment_order=2.5)
    trajectory = evolve(bundle, initial, config, reference=reference)
    assert trajectory.tail_fraction[-1] > 0.0
    _assert_records_equal_public_reductions(trajectory, initial, reference)


def test_recording_signed_data(mitosis_512):
    mesh = mitosis_512.mesh
    initial = State(values=np.sin(mesh.centers) * np.exp(-0.3 * mesh.centers),
                    mesh=mesh, time=0.25)
    reference = solve_steady(mitosis_512).state
    config = IntegratorConfig(dt=1e-3, t_end=0.05, moment_order=0.5)
    trajectory = evolve(mitosis_512, initial, config, reference=reference)
    assert all(state.values.min() < 0.0 for state in trajectory.states)
    _assert_records_equal_public_reductions(trajectory, initial, reference)


def test_recording_of_a_clamped_run(fine_geometric):
    # data small enough that the undershoot beyond the CN budget stays
    # within the positivity floor, so step() clamps instead of raising
    mesh = fine_geometric.mesh
    initial = State(values=1e-12 * np.exp(-mesh.centers), mesh=mesh)
    with pytest.warns(UserWarning, match="positivity budget"):
        stepper = Stepper(fine_geometric, 1e-5, "crank_nicolson_imex")
        config = IntegratorConfig(scheme="crank_nicolson_imex", dt=1e-5, t_end=2e-4)
        trajectory = evolve(fine_geometric, initial, config)
    assert stepper.advance(initial.values).min() < 0.0       # clamped at step 1
    assert trajectory.states[0].values.min() >= 0.0
    assert trajectory.min_value == 0.0
    _assert_records_equal_public_reductions(trajectory, initial)


def test_moment_ceiling_along_trajectory(linear_rate_512):
    from fragdiff import moment_ceiling
    ceiling = moment_ceiling(linear_rate_512.rate, linear_rate_512.kernel,
                             3.0, linear_rate_512.mesh.x_max)
    state = unit_mass_exponential(linear_rate_512.mesh, scale=1.5)
    config = IntegratorConfig(dt=5e-3, t_end=3.0, moment_order=3.0)
    trajectory = evolve(linear_rate_512, state, config)
    cap = max(trajectory.moments[3.0][0], ceiling.mu)
    assert np.max(trajectory.moments[3.0]) <= cap * (1 + 1e-6)


def test_difference_contraction(mitosis_512, rng):
    # the weighted-L1 distance of two evolutions never grows
    mesh = mitosis_512.mesh
    stepper = Stepper(mitosis_512, 2e-3)
    u = rng.random(mesh.n_cells) * np.exp(-0.3 * mesh.centers)
    v = rng.random(mesh.n_cells) * np.exp(-0.3 * mesh.centers)
    previous = x1_distance_of(mesh, u, v)
    for _ in range(100):
        u = stepper.step(u)
        v = stepper.step(v)
        current = x1_distance_of(mesh, u, v)
        assert current <= previous * (1 + 1e-12)
        previous = current


def test_long_run_converges_to_equilibrium(mitosis_512):
    state = unit_mass_exponential(mitosis_512.mesh)
    config = IntegratorConfig(dt=5e-3, t_end=40.0, output_every=1000)
    reference = solve_steady(mitosis_512).state
    trajectory = evolve(mitosis_512, state, config, reference=reference)
    assert trajectory.dist_ref[-1] <= 1e-3
    assert trajectory.dist_ref[-1] < trajectory.dist_ref[0]


def test_smoothing_of_rough_data(mitosis_512, rng):
    # a few diffusion steps wipe out cell-scale oscillation: the second
    # difference contracts far faster than the profile itself
    mesh = mitosis_512.mesh
    rough = (1 + rng.random(mesh.n_cells)) * np.exp(-mesh.centers)
    state = State(values=rough, mesh=mesh)
    d2_before = np.sum(np.abs(np.diff(rough, 2)))
    config = IntegratorConfig(dt=2e-4, t_end=4e-2)
    trajectory = evolve(mitosis_512, state, config)
    d2_after = np.sum(np.abs(np.diff(trajectory.final.values, 2)))
    assert d2_after < 0.1 * d2_before
    assert mass(trajectory.final) == pytest.approx(mass(state), rel=1e-10)


def test_trajectory_records(mitosis_512):
    state = unit_mass_exponential(mitosis_512.mesh)
    config = IntegratorConfig(dt=1e-3, t_end=0.02, output_every=5,
                              moment_order=2.5)
    trajectory = evolve(mitosis_512, state, config)
    assert trajectory.times.size == 21
    assert set(trajectory.moments) == {0.0, 1.0, 2.0, 2.5}
    assert len(trajectory.states) == 4
    assert trajectory.moments[1.0][0] == pytest.approx(1.0, rel=1e-12)
    assert np.all(trajectory.tail_fraction < 1e-12)
    assert moment(trajectory.final, 2.5) == pytest.approx(
        trajectory.moments[2.5][-1], rel=1e-12)


def test_t_end_must_be_a_multiple_of_dt():
    with pytest.raises(ConfigError, match="not a multiple of dt"):
        IntegratorConfig(dt=0.3, t_end=1.0)
    with pytest.raises(ConfigError, match="not a multiple of dt"):
        IntegratorConfig(dt=2.0, t_end=1.0)
    assert IntegratorConfig(dt=0.1, t_end=1.0).t_end == 1.0     # 10 steps, roundoff aside
    for t_end in (0.0, np.inf):
        with pytest.raises(ConfigError, match="t_end must be positive and finite"):
            IntegratorConfig(t_end=t_end)


def test_default_dt_run_ends_at_t_end(mitosis_512):
    t_end = 0.01
    cap = default_dt(mitosis_512)
    assert abs(round(t_end / cap) * cap - t_end) > 0.01 * cap    # cap does not divide t_end
    run = evolve(mitosis_512, unit_mass_exponential(mitosis_512.mesh),
                 IntegratorConfig(t_end=t_end))
    assert run.times[-1] == pytest.approx(t_end, rel=1e-12)
    assert np.all(np.diff(run.times) <= cap * (1 + 1e-12))


@pytest.mark.parametrize("initial_mesh,reference_mesh,match", [
    (None, build_mesh(40.0, 128), "reference state"),
    (None, build_mesh(40.0, 64, "geometric", ratio=1.05), "reference state"),
    (build_mesh(40.0, 64, "geometric", ratio=1.05), None, "initial state"),
], ids=["reference-128-cells", "reference-same-n-geometric", "initial-geometric"])
def test_evolve_rejects_states_on_another_mesh(initial_mesh, reference_mesh, match):
    bundle = assemble_bundle(build_mesh(40.0, 64), ConstantRate(1.0), PowerLawKernel(0.0))
    initial = unit_mass_exponential(initial_mesh or bundle.mesh)
    reference = None if reference_mesh is None else unit_mass_exponential(reference_mesh)
    with pytest.raises(ConfigError, match=f"{match} lives on a different mesh"):
        evolve(bundle, initial, IntegratorConfig(dt=0.01, t_end=0.1), reference=reference)
    # an equal mesh built separately is the same mesh
    same = build_mesh(40.0, 64)
    evolve(bundle, unit_mass_exponential(same), IntegratorConfig(dt=0.01, t_end=0.1),
           reference=unit_mass_exponential(same))
