import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm, lapack

from fragdiff import (ConfigError, ConstantRate, CustomKernel, IntegratorConfig,
                      NumericsError, PowerLawKernel, PowerRate, PropertyViolation,
                      State, Stepper, apply_generator, assemble_bundle, build_mesh,
                      default_dt, evolve, heat_apply_exact, mass, moment,
                      solve_steady, tail_mass_fraction, x1_distance)
from fragdiff.evolution import RECORD_BLOCK, SCHEMES
from fragdiff.mesh import moment_of, x1_distance_of
from fragdiff.operators import OperatorBundle, _interleaved_bands
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


@pytest.mark.parametrize("scheme", SCHEMES)
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


@pytest.mark.parametrize("scheme", ["imex_euler"])
def test_imex_schemes_factor_diffusion_once(mitosis_512, monkeypatch, scheme):
    from fragdiff import operators
    calls, lapack = [], operators.lapack
    dpttrf, dgttrf = lapack.dpttrf, lapack.dgttrf

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return dpttrf(*args, **kwargs)

    def general(*args, **kwargs):
        calls.append("dgttrf")
        return dgttrf(*args, **kwargs)

    monkeypatch.setattr(lapack, "dpttrf", counted)
    monkeypatch.setattr(lapack, "dgttrf", general)
    config = IntegratorConfig(scheme=scheme, dt=1e-3, t_end=0.05)
    run = evolve(mitosis_512, unit_mass_exponential(mitosis_512.mesh), config)
    assert run.times.size == 51
    assert calls == [mitosis_512.mesh.n_cells]


@pytest.fixture(scope="module")
def binary_custom():
    """The binary kernel as a callable: a dense gain, so a dense imex_euler step."""
    mesh = build_mesh(20.0, 64)
    kernel = CustomKernel(lambda x, y: 2.0 / y * np.ones_like(x), name="binary")
    return assemble_bundle(mesh, ConstantRate(1.0), kernel)


def test_dense_imex_step_is_one_matrix(binary_custom, monkeypatch, rng):
    # the step matrix equals the per-vector step: a diffusion solve of the
    # w-weighted explicit right-hand side w (v + dt (B v - d v))
    dt = 1e-3
    w = binary_custom.diffusion.symmetriser
    solve = binary_custom.diffusion.factor(-dt)
    stepper = Stepper(binary_custom, dt)
    values = rng.standard_normal((3, binary_custom.mesh.n_cells))
    expected = [solve(w * (v + dt * binary_custom.apply_reaction(v))) for v in values]

    def unused(self, v):
        raise AssertionError("a dense step applied the reaction")

    monkeypatch.setattr(OperatorBundle, "apply_reaction", unused)
    for v, want in zip(values, expected):
        got = stepper.advance(v)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_dense_imex_step_keeps_nonnegative_data_without_clamp(binary_custom, rng):
    # the budget is <= 1, so the step matrix is entrywise nonnegative
    stepper = Stepper(binary_custom, 0.5 / float(np.max(binary_custom.death)))
    assert stepper.positivity_budget <= 1.0
    values = rng.random(binary_custom.mesh.n_cells) * np.exp(-binary_custom.mesh.centers)
    for _ in range(20):
        values = stepper.advance(values)
        assert values.min() >= 0.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("signed", [False, True])
def test_step_rejects_non_finite_values(mitosis_512, bad, signed):
    stepper = Stepper(mitosis_512, 1e-3)
    values = unit_mass_exponential(mitosis_512.mesh).values - 0.01 * signed
    advanced = stepper.advance(values)
    advanced[7] = bad
    stepper.advance = lambda v, out: np.copyto(out, advanced) or out
    with pytest.raises(NumericsError, match="non-finite"):
        stepper.step(values)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_dense_fill_rejects_a_non_finite_block(binary_custom, bad):
    # the block is filled by bare products and checked once
    stepper = Stepper(binary_custom, 1e-3)
    values = unit_mass_exponential(binary_custom.mesh).values
    values[5] = bad
    rows = np.empty((RECORD_BLOCK, binary_custom.mesh.n_cells))
    with pytest.raises(NumericsError, match="non-finite"):
        stepper.fill(rows, values)


def test_positivity_warning_on_large_dt(linear_rate_512):
    with pytest.warns(UserWarning, match="positivity"):
        Stepper(linear_rate_512, dt=0.1, scheme="imex_euler")


@pytest.fixture(scope="module")
def fine_geometric():
    """Linear rate on a geometric mesh (smallest cell 2.47e-3).  imex_euler at
    dt = 0.1 is beyond its positivity budget (3.94) here, as on the uniform
    mesh: data of every scale dip at step 1."""
    mesh = build_mesh(40.0, 512, "geometric", ratio=1.01)
    return assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(0.0))


def test_imex_euler_warns_beyond_its_positivity_budget(linear_rate_512):
    with pytest.warns(UserWarning, match="positivity budget 3.99"):
        stepper = Stepper(linear_rate_512, 0.1, "imex_euler")
    assert stepper.positivity_budget == pytest.approx(3.99, abs=0.005)
    # the warning is earned: unit-scale data dip to -2.0e-7 at step 1
    values = np.exp(-linear_rate_512.mesh.centers)
    with pytest.raises(PropertyViolation, match="positivity violated: minimum -2.0"):
        stepper.step(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Stepper(linear_rate_512, 0.1, "fully_implicit").positivity_budget == 0.0
        assert Stepper(linear_rate_512, 0.02, "imex_euler").positivity_budget < 1.0


@pytest.mark.parametrize("scheme, order", [("imex_euler", 0.9), ("fully_implicit", 0.9)])
def test_time_order(scheme, order):
    # against the exact semi-discrete flow exp(T G) of the linear-rate generator
    mesh = build_mesh(40.0, 256)
    bundle = assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(0.0))
    state = unit_mass_exponential(mesh)
    exact = expm(0.5 * bundle.dense()) @ state.values
    finals = []
    for dt in (5e-4, 2.5e-4, 1.25e-4, 6.25e-5):
        config = IntegratorConfig(scheme=scheme, dt=dt, t_end=0.5, output_every=10 ** 6)
        finals.append(evolve(bundle, state, config).final.values)
    errors = np.array([x1_distance_of(mesh, u, exact) for u in finals])
    observed = np.log2(errors[:-1] / errors[1:])
    assert np.all(observed >= order), observed
    # both schemes' errors expand in powers of dt, so the Richardson
    # combination 2 u(dt/2) - u(dt) cancels the first-order term
    extrapolated = np.array([x1_distance_of(mesh, 2.0 * fine - coarse, exact)
                             for coarse, fine in zip(finals, finals[1:])])
    richardson = np.log2(extrapolated[:-1] / extrapolated[1:])
    assert np.all(richardson >= 1.9), richardson


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


@pytest.mark.parametrize("scheme", SCHEMES)
def test_recording_nonnegative_geometric(scheme):
    # every scheme's states are contiguous arrays: a strided state's dot
    # differs in the last bits from the recorded dot of its block copy
    mesh = build_mesh(30.0, 300, "geometric", ratio=1.01)
    bundle = assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(-0.5))
    initial = State(values=np.exp(-(mesh.centers - 3.0) ** 2), mesh=mesh)
    reference = solve_steady(bundle).state
    config = IntegratorConfig(scheme=scheme, dt=1e-3, t_end=0.05, moment_order=2.5)
    trajectory = evolve(bundle, initial, config, reference=reference)
    assert trajectory.tail_fraction[-1] > 0.0
    assert all(state.values.flags.c_contiguous for state in trajectory.states)
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


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_a_run_that_dips_raises_at_every_scale(fine_geometric, scale):
    # the step is linear, so data of scale 1e-12 dip as unit-scale data do,
    # and the run raises at that first negative state: nothing is clamped
    initial = State(values=scale * np.exp(-fine_geometric.mesh.centers),
                    mesh=fine_geometric.mesh)
    with pytest.warns(UserWarning, match="positivity budget"):
        low = Stepper(fine_geometric, 0.1, "imex_euler").advance(initial.values).min()
        with pytest.raises(PropertyViolation,
                           match=f"minimum {low:.3e} after a nonnegative state"):
            evolve(fine_geometric, initial, IntegratorConfig(dt=0.1, t_end=2.0))
    assert -1e-6 * scale < low < 0.0


@pytest.mark.parametrize("n_steps", [1, RECORD_BLOCK - 1, RECORD_BLOCK, RECORD_BLOCK + 1,
                                     2 * RECORD_BLOCK + 3])
@pytest.mark.parametrize("data", ["signed", "turning", "zero", "dipping",
                                  "custom-signed", "custom-turning", "custom-zero"])
def test_recording_across_block_boundaries(mitosis_512, linear_rate_512, binary_custom,
                                           data, n_steps):
    # evolve records RECORD_BLOCK states at a time; a run may end anywhere in
    # a block, and a block may hold signed and nonnegative states together.
    # The custom bundle's step matrix is nonnegative, so it fills each block
    # by bare products and checks the block once
    bundle, dt, dip = mitosis_512, 1e-3, (20.0, 0.0035, 23)   # center, depth, turning step
    if data.startswith("custom-"):
        bundle, data, dip = binary_custom, data[len("custom-"):], (10.0, 0.075, 22)
    xc = bundle.mesh.centers
    if data == "signed":
        values = np.sin(xc) * np.exp(-0.3 * xc)
    elif data == "turning":     # the dip fills in inside the second block
        values = np.exp(-0.3 * xc) - dip[1] * np.exp(-((xc - dip[0]) / 0.3) ** 2)
    elif data == "zero":
        values = np.zeros(xc.size)
    else:   # imex_euler beyond its budget dips at step 1, block row 1, and raises
        initial = State(values=1e-12 * np.exp(-xc), mesh=linear_rate_512.mesh)
        with pytest.warns(UserWarning, match="positivity budget"):
            low = Stepper(linear_rate_512, 0.1).advance(initial.values).min()
            with pytest.raises(PropertyViolation, match=f"minimum {low:.3e} after"):
                evolve(linear_rate_512, initial, IntegratorConfig(dt=0.1, t_end=n_steps * 0.1))
        return
    initial = State(values=values, mesh=bundle.mesh)
    reference = solve_steady(bundle).state
    config = IntegratorConfig(dt=dt, t_end=n_steps * dt, moment_order=0.5)
    trajectory = evolve(bundle, initial, config, reference=reference)
    assert trajectory.times.size == n_steps + 1
    _assert_records_equal_public_reductions(trajectory, initial, reference)
    minima = [state.values.min() for state in trajectory.states]
    if data == "signed":
        assert max(minima) < 0.0
    elif data == "turning":
        turned = next((k for k, low in enumerate(minima, 1) if low >= 0.0), None)
        assert turned == (dip[2] if n_steps >= dip[2] else None)
        assert trajectory.min_value < 0.0
    else:
        assert np.all(trajectory.tail_fraction == 0.0)
        assert np.all(trajectory.moments[1.0] == 0.0)


def _assert_evolve_matches_a_step_loop(bundle, values, dt, monkeypatch, reference=None,
                                       scheme="imex_euler"):
    """evolve fills each block by advance() into its rows, with step()'s
    checks once per block: every stored state, every record and min_value
    equal a step() loop's bit for bit, with no step() in the run and one
    advance() into its row per step."""
    mesh, n_steps = bundle.mesh, 3 * RECORD_BLOCK + 5
    stepper = Stepper(bundle, dt, scheme)
    states = [values]
    for _ in range(n_steps):
        states.append(stepper.step(states[-1]))
    advance, outs = Stepper.advance, []

    def counted(self, v, out=None):
        outs.append(out)
        return advance(self, v, out)

    def unused(self, v):
        raise AssertionError("evolve took a single step")

    monkeypatch.setattr(Stepper, "step", unused)
    monkeypatch.setattr(Stepper, "advance", counted)
    config = IntegratorConfig(scheme=scheme, dt=dt, t_end=n_steps * dt, moment_order=2.5)
    trajectory = evolve(bundle, State(values=values, mesh=mesh), config, reference=reference)
    assert len(outs) == n_steps and all(out is not None for out in outs)
    assert len(trajectory.states) == n_steps
    for state, want in zip(trajectory.states, states[1:]):
        assert np.array_equal(state.values, want)
    for m, series in trajectory.moments.items():
        assert np.array_equal(series, [moment_of(mesh, v, m) for v in states])
    assert np.array_equal(trajectory.tail_fraction,
                          [tail_mass_fraction(State(values=v, mesh=mesh)) for v in states])
    if reference is not None:
        assert np.array_equal(trajectory.dist_ref,
                              [x1_distance_of(mesh, v, reference.values) for v in states])
    assert trajectory.min_value == min(0.0, *(v.min() for v in states))
    return trajectory


@pytest.mark.parametrize("data", ["nonnegative", "signed"])
def test_dense_evolve_matches_a_step_loop(binary_custom, monkeypatch, data):
    mesh = binary_custom.mesh
    values = np.exp(-0.3 * mesh.centers) * (np.sin(mesh.centers) if data == "signed" else 1.0)
    trajectory = _assert_evolve_matches_a_step_loop(binary_custom, values, 1e-3, monkeypatch)
    assert (trajectory.min_value < 0.0) == (data == "signed")


@pytest.fixture(scope="module")
def geometric_dirichlet():
    """Linear rate on a geometric mesh with an absorbing right end."""
    mesh = build_mesh(40.0, 512, "geometric", ratio=1.005)
    return assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(0.0), right_bc="dirichlet")


@pytest.fixture
def power_law(request, mitosis_512, linear_rate_512, geometric_dirichlet):
    return {"mitosis": mitosis_512, "linear-rate": linear_rate_512,
            "geometric-dirichlet": geometric_dirichlet}[request.param]


POWER_LAWS = ["mitosis", "linear-rate", "geometric-dirichlet"]


def _power_law_data(xc, data):
    return {"nonnegative": np.exp(-0.3 * xc), "signed": np.sin(xc) * np.exp(-0.3 * xc),
            "turning": np.exp(-0.3 * xc) - 0.0035 * np.exp(-((xc - 20.0) / 0.3) ** 2),
            "zero": np.zeros(xc.size)}[data]


@pytest.mark.parametrize("data", ["nonnegative", "signed", "turning", "zero"])
@pytest.mark.parametrize("power_law", POWER_LAWS, indirect=True)
def test_power_law_evolve_matches_a_step_loop(power_law, monkeypatch, data):
    # the same holds for the in-place IMEX step of a power-law kernel
    xc = power_law.mesh.centers
    reference = State(values=xc * np.exp(-xc), mesh=power_law.mesh)
    trajectory = _assert_evolve_matches_a_step_loop(power_law, _power_law_data(xc, data), 1e-3,
                                                    monkeypatch, reference)
    if data == "turning":   # signed at first, nonnegative at the end
        assert trajectory.min_value < 0.0 <= trajectory.final.values.min()
    assert (trajectory.min_value < 0.0) == (data in ("signed", "turning"))


@pytest.mark.parametrize("data", ["nonnegative", "signed", "zero"])
@pytest.mark.parametrize("power_law", POWER_LAWS, indirect=True)
def test_fully_implicit_evolve_matches_a_step_loop(power_law, monkeypatch, data):
    # and for the fully implicit step, which copies each solve into its row
    xc = power_law.mesh.centers
    trajectory = _assert_evolve_matches_a_step_loop(power_law, _power_law_data(xc, data), 0.01,
                                                    monkeypatch, scheme="fully_implicit")
    assert (trajectory.min_value < 0.0) == (data == "signed")


@pytest.mark.parametrize("power_law", POWER_LAWS, indirect=True)
def test_power_law_step_keeps_sign_exactly_at_budget_one(power_law):
    # at dt max(death) = 1 some keep_i is (nearly) 0; the step alone, with
    # no clamp, keeps spikes at either end, subnormal data and zeros >= 0
    n, xc = power_law.mesh.n_cells, power_law.mesh.centers
    stepper = Stepper(power_law, 1.0 / float(np.max(power_law.death)))
    assert stepper.positivity_budget <= 1.0
    first, last = np.eye(n)[0], np.eye(n)[-1]
    for values in (first, last, first + last, 1e-300 * (first + last),
                   1e-300 * np.exp(-xc), np.zeros(n)):
        for _ in range(RECORD_BLOCK):
            values = stepper.advance(values)
            assert values.min() >= 0.0


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("custom", [False, True])
def test_advance_writes_into_out(mitosis_512, binary_custom, rng, scheme, custom):
    # fill relies on it: a copy made on the way (say, by f2py for pttrs)
    # would leave the block unwritten
    bundle = binary_custom if custom else mitosis_512
    stepper = Stepper(bundle, 1e-3, scheme)
    values = rng.standard_normal(bundle.mesh.n_cells)
    block = np.zeros((2, bundle.mesh.n_cells))
    got = stepper.advance(values, out=block[1])
    assert np.shares_memory(got, block[1])
    assert np.array_equal(block[1], stepper.advance(values))
    assert not block[0].any()


@pytest.mark.parametrize("power_law", POWER_LAWS, indirect=True)
def test_power_law_step_is_the_scaled_reaction_and_one_solve(power_law, rng):
    # operation for operation, so bit for bit: the reaction apply of the copy
    # with gain rows times dt w and death -w (1 - dt d), then one pttrs
    dt, w, n = 1e-3, power_law.diffusion.symmetriser, power_law.mesh.n_cells
    keep = w * (1.0 - dt * power_law.death)
    birth = replace(power_law.birth, receiver=dt * w * power_law.birth.receiver, death=-keep)
    explicit = replace(power_law, birth=birth)
    solve = power_law.diffusion.factor(-dt)
    stepper = Stepper(power_law, dt)
    for values in (*rng.standard_normal((3, n)), np.exp(-power_law.mesh.centers), np.zeros(n)):
        assert np.array_equal(stepper.advance(values), solve(explicit.apply_reaction(values)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_power_law_fill_rejects_a_non_finite_block(mitosis_512, bad):
    # the power-law twin of test_dense_fill_rejects_a_non_finite_block
    stepper = Stepper(mitosis_512, 1e-3)
    values = unit_mass_exponential(mitosis_512.mesh).values
    values[5] = bad
    rows = np.empty((RECORD_BLOCK, mitosis_512.mesh.n_cells))
    with pytest.raises(NumericsError, match="non-finite"):
        stepper.fill(rows, values)


def test_dense_stepper_past_its_budget_raises_at_every_scale(binary_custom):
    # beyond the budget the step matrix has negative entries: a spike dips at
    # step 1, at unit scale and at 1e-12 alike, and step() and evolve raise
    dt, xc = 1.5, binary_custom.mesh.centers
    spike = np.exp(-((xc - 15.0) / 0.2) ** 2)
    with pytest.warns(UserWarning, match="positivity budget 1.48"):
        stepper = Stepper(binary_custom, dt)
    assert stepper.advance(spike).min() < -0.03
    for values in (spike, 1e-12 * spike):
        with pytest.raises(PropertyViolation, match="positivity violated"):
            stepper.step(values)
        with pytest.warns(UserWarning, match="positivity budget"), \
                pytest.raises(PropertyViolation, match="positivity violated"):
            evolve(binary_custom, State(values=values, mesh=binary_custom.mesh),
                   IntegratorConfig(dt=dt, t_end=10 * dt))


@pytest.mark.parametrize("first, error", [("dip", PropertyViolation), ("nan", NumericsError)])
def test_fill_raises_on_the_first_offending_state(mitosis_512, first, error):
    # fill checks the block once, after it is written, yet in step order: of
    # a dip (after a nonnegative state) and a NaN, the earlier one raises
    stepper = Stepper(mitosis_512, 1e-3)
    values = unit_mass_exponential(mitosis_512.mesh).values
    faults = {3: first, 7: "nan" if first == "dip" else "dip"}     # step -> fault
    steps = []

    def advance(v, out):
        np.copyto(out, values)
        if len(steps) in faults:
            out[5] = -1e-3 if faults[len(steps)] == "dip" else np.nan
        steps.append(out)
        return out

    stepper.advance = advance
    rows = np.empty((RECORD_BLOCK, values.size))
    match = "minimum -1.000e-03 after a nonnegative" if first == "dip" else "non-finite"
    with pytest.raises(error, match=match):
        stepper.fill(rows, values)
    assert len(steps) == RECORD_BLOCK


def test_fully_implicit_keeps_nonnegative_data_nonnegative(mitosis_2048, linear_rate_1024,
                                                           geometric_dirichlet, rng):
    # no clamp backs the step: I - dt G has nonpositive off-diagonals in the
    # (phi_i, s_i) layout, so an LU with no row interchange keeps sign, and
    # where dgbtrf pivots (dt = 1e4 on the coarse mesh) no dip shows either
    coarse = assemble_bundle(build_mesh(20.0, 64), ConstantRate(1.0), PowerLawKernel(0.0))
    pivoted = []
    for bundle in (mitosis_2048, linear_rate_1024, geometric_dirichlet, coarse):
        n = bundle.mesh.n_cells
        data = (np.exp(-bundle.mesh.centers), np.eye(1, n, 0)[0], np.eye(1, n, n - 1)[0],
                1e6 * rng.random(n))
        for dt in (1e-3, 0.1, 10.0, 1e4):
            piv = lapack.dgbtrf(_interleaved_bands(bundle, 1.0, -dt), 2, 2)[1]
            if not np.array_equal(piv, np.arange(2 * n)):
                pivoted.append((n, dt))
            stepper = Stepper(bundle, dt, "fully_implicit")
            for values in data:
                for _ in range(5):
                    values = stepper.advance(values)
                    assert values.min() >= 0.0
    assert (64, 1e4) in pivoted


@pytest.mark.parametrize("signed", [False, True])
def test_recording_ignores_the_memory_offset_of_the_data(mitosis_512, signed):
    # the same initial values and reference, copied to each offset inside a
    # larger buffer, give the same records to the last bit (the CLI's
    # byte-identical CSVs depend on it)
    mesh, n = mitosis_512.mesh, mitosis_512.mesh.n_cells
    values = np.exp(-0.3 * mesh.centers) * (np.sin(mesh.centers) if signed else 1.0)
    steady = solve_steady(mitosis_512).state.values
    config = IntegratorConfig(dt=1e-3, t_end=0.01, moment_order=2.5)
    runs = []
    for offset in range(8):
        buffer = np.empty((2, n + 8))
        buffer[0, offset:offset + n], buffer[1, offset:offset + n] = values, steady
        initial = State(values=buffer[0, offset:offset + n], mesh=mesh)
        reference = State(values=buffer[1, offset:offset + n], mesh=mesh)
        runs.append(evolve(mitosis_512, initial, config, reference=reference))
    for run in runs[1:]:
        for m, series in run.moments.items():
            assert np.array_equal(series, runs[0].moments[m])
        assert np.array_equal(run.tail_fraction, runs[0].tail_fraction)
        assert np.array_equal(run.dist_ref, runs[0].dist_ref)


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


def test_step_counts_that_overflow_are_rejected(mitosis_512):
    # t_end / dt overflows to inf, or underflows to 0: no step count, for an
    # explicit dt or the default one
    with pytest.raises(ConfigError, match="t_end / dt = 10000000000.0 / 1e-300 overflows"):
        IntegratorConfig(dt=1e-300, t_end=1e10)
    with pytest.raises(ConfigError, match="t_end / dt = 1e\\+308 / .* overflows"):
        IntegratorConfig(t_end=1e308).grid(mitosis_512)
    slow = assemble_bundle(build_mesh(1000.0, 8), ConstantRate(0.1), PowerLawKernel(0.0))
    assert default_dt(slow) > 2.0       # so that 5e-324 / dt rounds to 0
    with pytest.raises(ConfigError, match="t_end / dt = 5e-324 / .* underflows"):
        IntegratorConfig(t_end=5e-324).grid(slow)


def test_step_counts_past_physical_memory_are_rejected(monkeypatch):
    # 1e13 steps of 8 float64 series: 640 TB, refused before any allocation
    with pytest.raises(ConfigError, match=r"t_end / dt = 10.0 / 1e-12 takes 10000000000000 "
                                          r"steps, whose series need 640000000000064 bytes"):
        IntegratorConfig(dt=1e-12, t_end=10.0)
    # the bound is the machine's: 1000 steps need 8 * 8 * 1001 bytes
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 8 * 8 * 1001}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert IntegratorConfig(dt=1e-3, t_end=1.0).grid(None) == (1e-3, 1000)
    with pytest.raises(ConfigError, match="1001 steps, whose series need 64128 bytes"):
        IntegratorConfig(dt=1e-3, t_end=1.001)


def test_infinite_dt_is_rejected():
    # dt = inf makes n_steps * dt = 0 * inf = NaN in the multiple-of-dt rule
    with pytest.raises(ConfigError, match="dt must be positive and finite, got inf"):
        IntegratorConfig(dt=np.inf, t_end=1.0)


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
