import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fragdiff import (ConfigError, ConstantRate, CustomKernel,
                      PowerLawKernel, PowerRate,
                      PropertyViolation, RegularizedRate, ShiftedPowerRate,
                      TableRate, assemble_bundle, build_mesh, delta_m,
                      moment_ceiling, solve_steady, verify_mass_condition,
                      x1_distance)
from fragdiff.coefficients import power_integral


def quad_moment(kernel, m, y):
    """Adaptive-quadrature oracle for the fragment moments (handles the
    integrable endpoint singularity of the power-law family)."""
    from scipy.integrate import quad
    val, _ = quad(lambda x: x ** m * float(kernel.density(x, y)), 0.0, y,
                  epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


# ---------------------------------------------------------------------------
# contraction defect
# ---------------------------------------------------------------------------

def test_delta_closed_forms():
    assert delta_m(PowerLawKernel(0.0), 2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert delta_m(PowerLawKernel(-1.0), 2.0) == pytest.approx(0.5, abs=1e-15)


def test_delta_vanishes_at_order_one():
    # the mass condition is an equality: no contraction survives at m -> 1
    for nu in (0.0, -0.5, -1.5):
        assert delta_m(PowerLawKernel(nu), 1.0 + 1e-9) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ConfigError):
        delta_m(PowerLawKernel(0.0), 1.0)


def test_delta_increasing_in_m():
    grid = np.linspace(1.5, 6.0, 10)
    for nu in (0.0, -0.5, -1.0, -1.9):
        values = [delta_m(PowerLawKernel(nu), m) for m in grid]
        assert np.all(np.diff(values) > 0)


def test_powerlaw_moments_match_quadrature():
    for nu in (0.0, -0.5, -1.0):
        kernel = PowerLawKernel(nu)
        for m in (1, 2, 3, 4):
            for y in (0.1, 1.0, 10.0):
                closed = (nu + 2.0) / (nu + m + 1.0) * y ** m
                assert kernel.fragment_moment(m, y) == pytest.approx(closed, rel=1e-14)
                assert quad_moment(kernel, m, y) == pytest.approx(closed, rel=1e-10)


def test_delta_for_custom_kernel_matches_powerlaw():
    mimic = CustomKernel(lambda x, y: 2.0 / y * np.ones_like(x), name="binary")
    assert delta_m(mimic, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-8)


def test_delta_outside_the_unit_interval_raises():
    # mass exact (int x b = y) but b < 0 near x = y: the second and third
    # moment ratios are -1/6 and -1/2, so the defect would exceed 1
    signed = CustomKernel(lambda x, y: (22.0 - 30.0 * x / y) / y, name="signed")
    for m in (2.0, 3.0):
        with pytest.raises(PropertyViolation, match="outside \\(0, 1\\)"):
            delta_m(signed, m)
    with pytest.raises(PropertyViolation, match="outside"):
        moment_ceiling(PowerRate(1.0), signed, 3.0, 40.0)


# ---------------------------------------------------------------------------
# mass condition
# ---------------------------------------------------------------------------

def test_mass_condition_powerlaw_exact():
    report = verify_mass_condition(PowerLawKernel(0.0), [3.0])
    assert report.passed and report.max_defect == 0.0
    report = verify_mass_condition(PowerLawKernel(-1.5), [1.0])
    assert report.passed and report.max_defect <= 1e-15


def test_mass_condition_detects_violation():
    # 1% deficit: admissibility must fail with defect about 1e-2
    with pytest.raises(PropertyViolation):
        CustomKernel(lambda x, y: 1.98 / y * np.ones_like(x), name="leaky")
    # the quadrature branch, on a kernel that meets the mass condition
    report = verify_mass_condition(
        CustomKernel(PowerLawKernel(0.0).density, name="binary"), [1.0, 2.0])
    assert report.passed


def test_custom_kernel_accepted_when_mass_exact():
    kernel = CustomKernel(lambda x, y: 3.0 * x / y ** 2, name="linear-frag")
    assert verify_mass_condition(kernel, [0.5, 5.0]).passed


def test_mass_condition_uses_the_given_tolerance():
    # 1e-9 off: inside the 1e-8 a CustomKernel is built with, not inside 1e-12
    kernel = CustomKernel(lambda x, y: (2.0 + 2e-9) / y * np.ones_like(x), name="near")
    report = verify_mass_condition(kernel, [1.0, 2.0], tol=1e-12)
    assert report.tol == 1e-12 and not report.passed
    assert report.max_defect == pytest.approx(1e-9, rel=1e-6)
    assert verify_mass_condition(kernel, [1.0, 2.0], tol=2e-9).passed


def test_custom_kernel_density_is_fn_below_the_donor_size():
    def fn(x, y):
        return 3.0 * x / y ** 2

    x = np.array([0.1, 1.0, 1.9, 2.0, 3.0])
    density = CustomKernel(fn, name="linear-frag").density(x, 2.0)
    assert np.array_equal(density, np.r_[fn(x[:3], 2.0), 0.0, 0.0])


@pytest.mark.parametrize("p", [2.0, 6.0])
def test_custom_kernel_integrals_match_closed_forms(p):
    # b = (p+2) x^p y^(-p-1), outside the power-law family's nu <= 0
    kernel = CustomKernel(lambda x, y: (p + 2.0) * x ** p * y ** (-p - 1.0), name="near-parent")
    for y in (0.01, 1.0, 7.3, 100.0):
        for m in (2.0, 3.0):
            exact = (p + 2.0) / (p + m + 1.0) * y ** m
            assert abs(kernel.fragment_moment(m, y) - exact) <= 1e-13 * exact


# ---------------------------------------------------------------------------
# rate models
# ---------------------------------------------------------------------------

def test_power_integral_closed_forms():
    lo = np.array([1.0, 2.0])
    hi = np.array([2.0, 4.0])
    assert power_integral(lo, hi, -1.0) == pytest.approx(np.log(2.0), rel=1e-14)
    assert power_integral(lo, hi, 1.0)[0] == pytest.approx(1.5, rel=1e-14)


@pytest.mark.parametrize("n_cells", [2048, 2 ** 18])
def test_power_integral_keeps_its_digits_near_q_minus_one(n_cells):
    # hi^e - lo^e over e = q + 1 cancels at small e; exprel does not
    from scipy.special import exprel
    edges = build_mesh(40.0, n_cells).edges
    lo, hi = edges[1:-1], edges[2:]
    span = np.log1p((hi - lo) / lo)
    for e in (0.0, 1e-14, -1e-14, 1e-12, -1e-12, 1e-8, -1e-8, 1e-3, 0.5, 1.0, 2.0, 3.0):
        oracle = lo ** e * span * exprel(e * span)
        got = power_integral(lo, hi, e - 1.0)
        assert np.max(np.abs(got - oracle) / oracle) <= 2e-15, e


def test_power_integral_from_zero():
    hi = np.array([2.0])
    assert power_integral(np.array([0.0]), hi, 0.5) == pytest.approx(2.0 ** 1.5 / 1.5,
                                                                     rel=1e-15)
    for q in (-1.0, -1.5):
        assert power_integral(np.array([0.0]), hi, q) == np.inf


def test_kernel_exponent_near_zero_keeps_the_mitosis_steady_state():
    # a change of 1e-12 in nu moves the profile by about 1e-12, not by the
    # 1e-5 that a cancelling hi^e - lo^e at e = 1e-12 gives
    mesh = build_mesh(40.0, 2048)
    steady = [solve_steady(assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(nu))).state
              for nu in (0.0, -1e-12)]
    assert x1_distance(*steady) <= 1e-10


def test_cell_integrals_match_quadrature():
    edges = np.linspace(0.0, 8.0, 17)
    for rate in (ConstantRate(2.0), PowerRate(1.5), ShiftedPowerRate(0.5, 2.0),
                 RegularizedRate(ConstantRate(1.0), 7)):
        exact = rate.cell_integrals(edges, 1.0)
        z, w = leggauss(48)
        for i in range(4, 16):
            mid = 0.5 * (edges[i] + edges[i + 1])
            half = 0.5 * (edges[i + 1] - edges[i])
            ref = half * np.dot(w, rate(mid + half * z) * (mid + half * z))
            assert exact[i] == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("x_nodes, a_nodes", [([0.0, 1.0], [1.0, 2.0, 3.0]),
                                               ([[0.0, 1.0]], [[1.0, 2.0]]),
                                               ([0.0], [1.0])])
def test_table_rate_needs_matching_1d_nodes(x_nodes, a_nodes):
    with pytest.raises(ConfigError, match="matching 1-D node arrays"):
        TableRate(x_nodes, a_nodes)


def test_table_rate_interpolates():
    rate = TableRate(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 5.0]))
    assert rate(np.array([0.5]))[0] == pytest.approx(2.0)
    edges = np.array([0.5, 1.5])
    val = rate.cell_integrals(edges, 0.0)[0]
    assert val == pytest.approx(3.0, rel=1e-10)   # trapezoid of linear data
    # the Gauss fallback on a mesh from 0: a = 1 + x has a closed form
    line = TableRate(np.array([0.0, 10.0]), np.array([1.0, 11.0]))
    edges = np.linspace(0.0, 8.0, 17)
    for q in (0.0, -1.0, -1.5):
        got = line.cell_integrals(edges, q)
        exact = ShiftedPowerRate(1.0, 1.0).cell_integrals(edges, q)
        first = 0 if q > -1.0 else 1
        assert q > -1.0 or got[0] == np.inf
        np.testing.assert_allclose(got[first:], exact[first:], rtol=1e-12, atol=0.0)


def test_regularized_rate_decreases_to_base():
    base = PowerRate(0.5)
    x = np.linspace(0.01, 40.0, 200)
    previous = None
    for n in (1, 4, 16, 64, 256):
        values = RegularizedRate(base, n)(x)
        assert np.all(values >= base(x))
        if previous is not None:
            assert np.all(values <= previous + 1e-15)
        previous = values


def test_rate_validation():
    with pytest.raises(ConfigError):
        PowerRate(-0.5)
    with pytest.raises(ConfigError):
        ConstantRate(0.0)
    with pytest.raises(ConfigError):
        PowerLawKernel(0.5)
    with pytest.raises(ConfigError):
        PowerLawKernel(-2.0)


# ---------------------------------------------------------------------------
# moment ceiling
# ---------------------------------------------------------------------------

def test_moment_ceiling_linear_rate():
    # mu = (2/delta) (2m (2m(m-3)/delta)^((m-3)/2) + delta x_star^(m-1)), x_star = 1
    for m, delta, mu in ((3.0, 0.5, 26.0),
                         (4.0, 0.6, (2.0 / 0.6) * (8.0 * np.sqrt(8.0 / 0.6) + 0.6))):
        ceiling = moment_ceiling(PowerRate(1.0), PowerLawKernel(0.0), m, 40.0)
        assert ceiling.delta == pytest.approx(delta, abs=1e-14)
        assert ceiling.x_star == pytest.approx(1.0, abs=1e-10)
        assert ceiling.mu == pytest.approx(mu, abs=1e-8)


@pytest.mark.parametrize("rate,x_star,halvings", [
    (PowerRate(2.0), 1.0, 46),
    (RegularizedRate(PowerRate(1.0), 4), 0.8, 47),
], ids=["x^2", "x+x/4"])
def test_threshold_bisection_stops_when_the_midpoint_is_an_end(monkeypatch, rate, x_star,
                                                                halvings):
    # one scan of the grid, then one evaluation per halving; the crossing is
    # the float a fixed 200-step bisection returns, bit for bit
    calls = []
    evaluate = type(rate).__call__
    monkeypatch.setattr(type(rate), "__call__",
                        lambda self, x: calls.append(np.size(x)) or evaluate(self, x))
    assert rate.threshold_crossing(1.0, 40.0) == x_star
    assert calls == [4097] + [1] * halvings


def test_moment_ceiling_threshold_examples():
    assert PowerRate(2.0).threshold_crossing(1.0, 40.0) == pytest.approx(1.0, abs=1e-10)
    # x + x/4 reaches 1 at 0.8 (numeric fallback)
    assert RegularizedRate(PowerRate(1.0), 4).threshold_crossing(1.0, 40.0) == \
        pytest.approx(0.8, abs=1e-10)
    with pytest.raises(PropertyViolation):
        moment_ceiling(ConstantRate(0.5), PowerLawKernel(0.0), 3.0, 40.0)


def test_moment_ceiling_requires_m_at_least_three():
    with pytest.raises(ConfigError):
        moment_ceiling(PowerRate(1.0), PowerLawKernel(0.0), 2.0, 40.0)


@pytest.mark.parametrize("rate,x_star", [
    (PowerRate(1.0), 1.0),
    (ConstantRate(1.0), 0.0),   # a >= 1 on the whole probe: no crossing to bisect
    # a dips to 0.5 at x = 3 and is back at 1 at 3 + 1/6, inside [0, 40 / 10]
    (TableRate([0.0, 2.0, 3.0, 3.5, 40.0], [2.0, 2.0, 0.5, 2.0, 2.0]), 3.0 + 1.0 / 6.0),
], ids=["x", "constant-1", "inner-dip"])
def test_moment_ceiling_x_star_is_where_the_rate_last_reaches_one(rate, x_star):
    ceiling = moment_ceiling(rate, PowerLawKernel(0.0), 3.0, 40.0)
    assert ceiling.x_star == pytest.approx(x_star, rel=0.0, abs=1e-12)


def test_moment_ceiling_needs_the_rate_at_one_on_the_outer_decade():
    # a dips to 0.5 at x = 30, so it last reaches 1 at 31.7, beyond 40 / 10
    rate = TableRate([0.0, 20.0, 30.0, 35.0, 40.0], [2.0, 2.0, 0.5, 2.0, 2.0])
    with pytest.raises(PropertyViolation, match="no moment ceiling"):
        moment_ceiling(rate, PowerLawKernel(0.0), 3.0, 40.0)
