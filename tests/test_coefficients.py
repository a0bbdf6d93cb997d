import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fragdiff import (ConfigError, ConstantRate, CustomKernel,
                      NotApplicableError, PowerLawKernel, PowerRate,
                      PropertyViolation, RegularizedRate, ShiftedPowerRate,
                      TableRate, contraction_constants, delta_m,
                      moment_ceiling, verify_mass_condition)
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


# ---------------------------------------------------------------------------
# rate models
# ---------------------------------------------------------------------------

def test_power_integral_closed_forms():
    lo = np.array([1.0, 2.0])
    hi = np.array([2.0, 4.0])
    assert power_integral(lo, hi, -1.0) == pytest.approx(np.log(2.0), rel=1e-14)
    assert power_integral(lo, hi, 1.0)[0] == pytest.approx(1.5, rel=1e-14)


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
    ceiling = moment_ceiling(PowerRate(1.0), PowerLawKernel(0.0), 3.0, 40.0)
    assert ceiling.delta == pytest.approx(0.5, abs=1e-14)
    assert ceiling.x_star == pytest.approx(1.0, abs=1e-10)
    assert ceiling.mu == pytest.approx(26.0, abs=1e-8)


def test_moment_ceiling_threshold_examples():
    assert PowerRate(2.0).threshold_crossing(1.0, 40.0) == pytest.approx(1.0, abs=1e-10)
    # x + x/4 reaches 1 at 0.8 (numeric fallback)
    assert RegularizedRate(PowerRate(1.0), 4).threshold_crossing(1.0, 40.0) == \
        pytest.approx(0.8, abs=1e-10)
    with pytest.raises(NotApplicableError):
        moment_ceiling(ConstantRate(0.5), PowerLawKernel(0.0), 3.0, 40.0)


def test_moment_ceiling_requires_m_at_least_three():
    with pytest.raises(ConfigError):
        moment_ceiling(PowerRate(1.0), PowerLawKernel(0.0), 2.0, 40.0)


def test_contraction_constants_bundle():
    consts = contraction_constants(PowerRate(1.0), PowerLawKernel(0.0),
                                   (2.0, 3.0, 4.0), 40.0)
    assert consts.delta[2.0] == pytest.approx(1.0 / 3.0)
    assert consts.delta[3.0] == pytest.approx(0.5)
    assert consts.mu[3.0] == pytest.approx(26.0, abs=1e-8)
    assert 4.0 in consts.mu and consts.mu[4.0] > 0
    assert consts.x_star == pytest.approx(1.0, abs=1e-10)


def test_divergence_and_tail_proxies():
    from fragdiff.coefficients import rate_diverges, rate_tail_positive
    assert rate_diverges(PowerRate(1.0), 40.0)
    assert not rate_diverges(ConstantRate(0.5), 40.0)
    assert rate_tail_positive(ConstantRate(0.5), 40.0)
    assert not rate_tail_positive(TableRate(np.array([0.0, 5.0, 40.0]),
                                            np.array([1.0, 0.0, 0.0])), 40.0)
