import numpy as np
import pytest
from scipy.linalg import eigvals
from scipy.special import airy

from fragdiff import (ConstantRate, IntegratorConfig, NumericsError, OperatorBundle,
                      PowerLawKernel, PowerRate, PropertyViolation, State,
                      Stepper, assemble_birth, assemble_bundle, build_mesh,
                      dominant_eigenpair, evolve, moment, solve_steady,
                      solve_steady_regularized, spectral_gap,
                      subdominant_spectrum, x1_distance)
from fragdiff import operators
from fragdiff.stationary import _steady, lift_response
from conftest import exact_equilibrium


def x1_error_to_equilibrium(result):
    mesh = result.state.mesh
    return float(np.sum(mesh.centers
                        * np.abs(result.state.values - exact_equilibrium(mesh.centers))
                        * mesh.widths))


def test_steady_matches_closed_form_second_order():
    errors = []
    for n in (512, 1024):
        mesh = build_mesh(40.0, n)
        bundle = assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0))
        result = solve_steady(bundle)
        assert result.mass == pytest.approx(1.0, abs=1e-12)
        errors.append(x1_error_to_equilibrium(result))
    assert errors[0] / errors[1] > 3.5
    assert errors[1] < 7e-5


def test_linear_rate_steady_matches_airy_closed_form_second_order():
    # rate x, binary kernel: the unit-mass equilibrium is x Ai(x) / Ai(0), since
    # Ai'' = x Ai gives int_0^inf x^2 Ai(x) dx = Ai(0)
    errors = []
    for n in (1024, 2048, 4096):
        mesh = build_mesh(20.0, n)
        result = solve_steady(assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(0.0)))
        exact = mesh.centers * airy(mesh.centers)[0] / airy(0.0)[0]
        errors.append(x1_distance(result.state, State(exact, mesh)))
    assert errors[0] / errors[1] >= 3.9
    assert errors[1] / errors[2] >= 3.9
    assert errors[2] <= 2e-6


def test_steady_scaling_linearity(mitosis_512):
    one = solve_steady(mitosis_512, normalize_mass=1.0)
    three = solve_steady(mitosis_512, normalize_mass=3.0)
    assert np.allclose(three.state.values, 3.0 * one.state.values,
                       rtol=1e-12, atol=1e-14)


ORACLE_CASES = [(rate, nu, grading, right_bc)
                for rate in (ConstantRate(1.0), PowerRate(1.0), PowerRate(0.5))
                for nu in (0.0, -0.5)
                for grading in ("uniform", "geometric")
                for right_bc in ("noflux", "dirichlet")]


def relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("rate,nu,grading,right_bc", ORACLE_CASES)
def test_structured_solves_match_dense_oracle(rate, nu, grading, right_bc):
    # every solve of the structured factorisation against a dense LAPACK
    # solve of bundle.dense(), with the mass row in place of the last row
    mesh = build_mesh(40.0, 192, grading, 1.02 if grading == "geometric" else None)
    bundle = assemble_bundle(mesh, rate, PowerLawKernel(nu), right_bc=right_bc)
    dense = bundle.dense()
    pinned = dense.copy()
    pinned[-1] = mesh.centers * mesh.widths
    mass_rhs = np.zeros(mesh.n_cells)
    mass_rhs[-1] = 1.0
    steady = solve_steady(bundle).state.values
    assert relative_error(steady, np.linalg.solve(pinned, mass_rhs)) <= 1e-10

    lift = assemble_birth(mesh, PowerRate(1.0), bundle.kernel)
    forcing = -(lift.apply(steady) - lift.death * steady)
    forcing[-1] = 0.0
    solve = operators.factor(bundle, 0.0, 1.0)
    assert relative_error(lift_response(bundle, steady, solve),
                          np.linalg.solve(pinned, forcing)) <= 1e-10

    f = np.exp(-mesh.centers)
    dt = 0.01
    stepped = Stepper(bundle, dt, "fully_implicit").advance(f)
    assert relative_error(stepped, np.linalg.solve(np.eye(mesh.n_cells) - dt * dense, f)) \
        <= 1e-10

    oracle = eigvals(dense)
    oracle = oracle[np.argsort(-oracle.real)][1:5]       # drop the dominant mode
    got = subdominant_spectrum(bundle, k=4)
    assert np.max(np.abs(got - oracle) / np.abs(oracle)) <= 1e-10


def test_power_law_paths_build_no_dense_matrix(monkeypatch, mitosis_512):
    def refuse(self):
        raise AssertionError("dense generator built on a power-law path")

    monkeypatch.setattr(OperatorBundle, "dense", refuse)
    assert solve_steady(mitosis_512).mass == pytest.approx(1.0, abs=1e-12)
    solve_steady_regularized(mitosis_512, (16, 64))
    assert spectral_gap(mitosis_512, k=4) > 0
    dominant_eigenpair(mitosis_512)
    mesh = mitosis_512.mesh
    initial = State(values=np.exp(-mesh.centers), mesh=mesh)
    evolve(mitosis_512, initial, IntegratorConfig(scheme="fully_implicit", dt=0.01,
                                                  t_end=0.1))


def test_large_mesh_steady_and_gap():
    # N = 2^16: a dense generator would need 34 GB
    mesh = build_mesh(40.0, 2 ** 16)
    bundle = assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0))
    result = solve_steady(bundle)
    values = result.state.values
    assert result.mass == pytest.approx(1.0, abs=1e-12)
    assert result.min_value >= -1e-10 * values.max()
    assert x1_error_to_equilibrium(result) <= 1e-7
    assert abs(spectral_gap(bundle) - 0.5) <= 1e-6


def test_steady_second_moment_at_n_2_18():
    # M2 of x e^{-x}/2 is 3; the O(h^2) trend from N = 2^16 predicts an
    # error of about 6e-10 at N = 2^18, so 2e-9 leaves room for roundoff of
    # that size but not for a steady solve that loses a digit more
    mesh = build_mesh(40.0, 2 ** 18)
    result = solve_steady(assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0)))
    assert abs(moment(result.state, 2.0) - 3.0) <= 2e-9


@pytest.mark.parametrize("tail", [np.zeros, lambda n: np.full(n, np.nan)],
                         ids=["zero-mass", "nan"])
def test_degenerate_tail_response_is_a_numerics_error(mitosis_512, tail):
    with pytest.raises(NumericsError):
        _steady(mitosis_512, lambda rhs: tail(rhs.size), 1.0)


def test_overflowing_steady_profile_is_a_numerics_error(mitosis_512):
    # a finite response scaled to mass 1e308 overflows every entry; tiny, not
    # zero, entries keep 0 * inf from warning before the raise
    def tail(rhs):
        return np.r_[1.0, np.full(rhs.size - 1, 1e-300)]

    with pytest.raises(NumericsError, match="steady profile is not finite"):
        _steady(mitosis_512, tail, 1e308)


def test_negative_steady_profile_is_a_property_violation(mitosis_512):
    def dipping(rhs):
        u = np.exp(-mitosis_512.mesh.centers)
        u[10] = -2e-10
        return u

    with pytest.raises(PropertyViolation, match="negative part"):
        _steady(mitosis_512, dipping, 1.0)


def test_steady_linear_rate_profile(linear_rate_1024):
    result = solve_steady(linear_rate_1024)
    values = result.state.values
    assert result.residual_x1 <= 1e-8
    assert result.min_value >= -1e-10 * values.max()
    peak = int(np.argmax(values))
    assert np.all(np.diff(values[:peak]) > -1e-12)          # unimodal rise
    assert np.all(np.diff(values[peak:]) < 1e-12)           # unimodal fall


def test_steady_cross_validated_by_dynamics(linear_rate_512):
    static = solve_steady(linear_rate_512).state
    mesh = linear_rate_512.mesh
    f = np.exp(-mesh.centers)
    f /= np.sum(mesh.centers * f * mesh.widths)
    config = IntegratorConfig(dt=0.01, t_end=15.0, output_every=500)
    trajectory = evolve(linear_rate_512, State(values=f, mesh=mesh), config)
    assert x1_distance(trajectory.final, static) <= 1e-6


def test_steady_right_boundary_insensitive():
    # truncation artifact: switching the right boundary moves the profile
    # by no more than the (exponentially small) tail
    mesh = build_mesh(40.0, 512)
    noflux = solve_steady(assemble_bundle(mesh, ConstantRate(1.0),
                                          PowerLawKernel(0.0), right_bc="noflux"))
    dirichlet = solve_steady(assemble_bundle(mesh, ConstantRate(1.0),
                                             PowerLawKernel(0.0), right_bc="dirichlet"))
    assert x1_distance(noflux.state, dirichlet.state) < 1e-10


def test_steady_kernel_dimension_proxy():
    # smallest singular value collapses under refinement, second one does not
    from scipy.linalg import svdvals
    seconds, smallests = [], []
    for n in (128, 256):
        mesh = build_mesh(40.0, n)
        bundle = assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0))
        svals = svdvals(bundle.dense())
        smallests.append(svals[-1])
        seconds.append(svals[-2])
    assert smallests[1] < 1e-6 * seconds[1]
    assert seconds[1] > 0.5 * seconds[0]


def test_steady_moment_bound(linear_rate_1024):
    from fragdiff import moment, moment_ceiling
    result = solve_steady(linear_rate_1024)
    for m in (3.0, 4.0):
        ceiling = moment_ceiling(linear_rate_1024.rate, linear_rate_1024.kernel,
                                 m, linear_rate_1024.mesh.x_max)
        assert moment(result.state, m) <= ceiling.mu


# ---------------------------------------------------------------------------
# vanishing regularization
# ---------------------------------------------------------------------------

def test_regularized_sequence_mitosis(mitosis_2048):
    result = solve_steady_regularized(mitosis_2048, (4, 16, 64, 256))
    assert np.all(np.diff(result.pairwise_x1) < 0)
    # residual under the base operator decays like 1/n within a factor 2
    scaled = result.residual_base_x1 * np.asarray(result.n_values)
    assert scaled.max() / scaled.min() <= 2.0
    # extrapolated limit reproduces the closed-form equilibrium
    mesh = mitosis_2048.mesh
    err = np.sum(mesh.centers
                 * np.abs(result.limit.values - exact_equilibrium(mesh.centers))
                 * mesh.widths)
    assert err <= 1e-4


def test_regularized_on_already_growing_rate():
    # rate a = x already grows: the lift perturbs the profile at order 1/n
    # and the extrapolated limit lands back on the unregularized profile
    mesh = build_mesh(40.0, 512)
    bundle = assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(0.0))
    base = solve_steady(bundle).state
    result = solve_steady_regularized(bundle, (4, 16, 64))
    distances = [x1_distance(state, base) for state in result.states]
    assert np.all(np.diff(distances) < 0)
    assert distances[-1] < 0.02
    assert x1_distance(result.limit, base) < 1e-3


def test_regularized_factors_the_base_system_once(monkeypatch, mitosis_512):
    # one factorisation per lift, and one that the base steady state and its
    # lift response share: 5 for 4 lifts
    calls = []
    dgbtrf = operators.lapack.dgbtrf

    def spy(*args, **kwargs):
        calls.append(1)
        return dgbtrf(*args, **kwargs)

    monkeypatch.setattr(operators.lapack, "dgbtrf", spy)
    result = solve_steady_regularized(mitosis_512, (4, 16, 64, 256))
    assert np.all(np.diff(result.pairwise_x1) < 0)
    assert len(calls) == 5


def test_regularized_rejects_vanishing_tail_rate():
    from fragdiff import TableRate
    mesh = build_mesh(40.0, 128)
    dying = TableRate(np.array([0.0, 5.0, 40.0]), np.array([1.0, 0.0, 0.0]))
    bundle = assemble_bundle(mesh, dying, PowerLawKernel(0.0))
    with pytest.raises(PropertyViolation):
        solve_steady_regularized(bundle, (4, 16))


def test_regularized_accepts_a_positive_rate_below_one():
    # the gate asks a > 0 on the outer decade, not the moment ceiling's a >= 1
    bundle = assemble_bundle(build_mesh(40.0, 128), ConstantRate(0.5), PowerLawKernel(0.0))
    result = solve_steady_regularized(bundle, (4, 16))
    assert moment(result.limit, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_regularized_rejects_a_sequence_that_does_not_contract(monkeypatch, mitosis_512):
    # every lift gives the same profile: the pairwise distances stay at 0
    same = solve_steady(mitosis_512)
    monkeypatch.setattr("fragdiff.stationary.solve_steady", lambda bundle: same)
    with pytest.raises(NumericsError, match="not contracting"):
        solve_steady_regularized(mitosis_512, (4, 16, 64))
