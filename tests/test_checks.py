import math

import numpy as np
import pytest
from scipy.integrate import quad

from fragdiff import (ConfigError, ConstantRate, CustomKernel, NumericsError,
                      PowerLawKernel, PowerRate, State, assemble_bundle, build_mesh)
from fragdiff import checks
from fragdiff.checks import (SampleProfile, WeightSpec, check_gain_smallness,
                             check_interpolation, check_kato, default_catalog,
                             kernel_positivity_samples)


def catalog_by_name(name):
    for profile in default_catalog():
        if profile.name == name:
            return profile
    raise KeyError(name)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

EPSABS = checks._QUAD_OPTS["epsabs"]


@pytest.mark.parametrize("m", [-0.5, 0.0, 0.5, 0.9])
def test_integrate_meets_gamma_closed_form(m):
    value = checks._integrate(lambda x: x ** m * x * np.exp(-x), ())
    assert abs(value - math.gamma(m + 2.0)) <= EPSABS


def test_integrate_resolves_a_kink_between_split_points():
    # x_exp's f'' = (x - 2) e^-x changes sign at 2, inside the piece [0.5, 2.5625]
    value = checks._integrate(lambda x: x * np.abs((x - 2.0) * np.exp(-x)),
                              tuple(np.linspace(0.5, 50, 25)))
    assert abs(value - 8.0 * np.exp(-2.0)) <= EPSABS
    assert abs(checks._integrate(lambda x: x * x * np.exp(-x), ()) - 2.0) <= EPSABS


def test_integrate_rule_is_exact_to_its_degree():
    # the 21-point Kronrod rule is exact to degree 31, its 10-point Gauss rule to 19
    kronrod, gauss = checks._GK_RULES.T
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(kronrod @ checks._GK_NODES ** k - exact) <= 1e-14, k
        if k < 20:
            assert abs(gauss @ checks._GK_NODES ** k - exact) <= 1e-14, k


@pytest.mark.parametrize("m, rel_tol, max_rounds", [(-0.9, 5e-12, 100), (-0.5, 1e-13, 25)])
def test_integrate_closes_in_on_an_endpoint_singularity(m, rel_tol, max_rounds):
    # shifted_exp's interpolation integrand x^m |x - 1| e^-x: pieces at x = 0
    # split geometrically, so x^m needs a few rounds per decade, not per halving
    from scipy.special import gamma, gammainc, gammaincc

    def lower(a):
        return gammainc(a, 1.0) * gamma(a)

    def upper(a):
        return gammaincc(a, 1.0) * gamma(a)

    rounds = []

    def integrand(x):
        rounds.append(x.shape)
        return x ** m * np.abs(x - 1.0) * np.exp(-x)

    value = checks._integrate(integrand, (1.0,))
    exact = lower(m + 1.0) - lower(m + 2.0) + upper(m + 2.0) - upper(m + 1.0)
    assert abs(value - exact) <= rel_tol * exact
    assert len(rounds) <= max_rounds


def test_profile_only_quantities_are_computed_once(monkeypatch):
    calls = _record_integrals(monkeypatch)
    base = catalog_by_name("shifted_exp")
    scans = []

    def f(x):
        if np.ndim(x) == 1:                 # the pointwise scans, not a quadrature round
            scans.append(x.size)
        return base.f(x)

    profile = SampleProfile("counted", f, base.d1, base.d2, sign_roots=base.sign_roots)
    for weight in (WeightSpec(), WeightSpec(m=2.0)):
        check_kato(profile, weight)
    reports = [check_interpolation(profile, m) for m in (-0.5, 0.0, 0.5)]
    assert scans == [20001, 60001]          # the root scan and sup |f|, once each
    assert len(calls) == 2 * 2 + 2 + 3      # the two X_1 norms once, then one per order
    assert len({(r.d2_norm, r.pointwise_sup, r.pointwise_slope) for r in reports}) == 1


def test_integrate_rejects_a_divergent_integral():
    with pytest.raises(NumericsError, match="within 400 intervals"):
        checks._integrate(lambda x: 1.0 / x, ())
    with pytest.raises(NumericsError, match="not finite"):
        checks._integrate(lambda x: np.full_like(x, np.nan), ())


def _quad_oracle(fn, points):
    pts = [0.0] + sorted({p for p in points if 0.0 < p < np.inf}) + [np.inf]
    return sum(quad(fn, lo, hi, **checks._QUAD_OPTS)[0] for lo, hi in zip(pts[:-1], pts[1:]))


def _record_integrals(monkeypatch):
    calls = []
    integrate = checks._integrate

    def recording(fn, points):
        value = integrate(fn, points)
        calls.append((fn, points, value))
        return value

    monkeypatch.setattr(checks, "_integrate", recording)
    return calls


def test_cli_catalog_integrals_match_scipy_quad(monkeypatch):
    # the integrals behind the kato and interpolation records of the checks task
    calls = _record_integrals(monkeypatch)
    for profile in default_catalog():
        for weight in (WeightSpec(), WeightSpec(m=2.0), WeightSpec(m=2.0, cap=10.0)):
            check_kato(profile, weight)
    for profile in default_catalog()[:3]:
        for m in (-0.5, 0.0, 0.5, 0.9):
            check_interpolation(profile, m)
    # kato: two integrals per (profile, weight); interpolation: one per
    # (profile, order) plus each profile's |f|_{X_1} and |f''|_{X_1} once
    assert len(calls) == 5 * 3 * 2 + 3 * (4 + 2)
    for fn, points, value in calls:
        assert abs(value - _quad_oracle(fn, points)) <= 1e-11


def test_catalog_integrals_meet_the_tolerance_against_scipy_quad(monkeypatch):
    # wider orders and weights: at m = -0.9 the endpoint singularity x^-0.9
    # leaves errors near the relative tolerance (up to 2e-10 on an integral of 26)
    calls = _record_integrals(monkeypatch)
    for profile in default_catalog():
        for weight in (WeightSpec(m=3.0), WeightSpec(m=2.0, cap=8.0)):
            check_kato(profile, weight)
        for m in (-0.9, 0.99):
            check_interpolation(profile, m)
    assert len(calls) == 5 * (2 * 2 + 2 + 2)
    for fn, points, value in calls:
        oracle = _quad_oracle(fn, points)
        assert abs(value - oracle) <= max(EPSABS, checks._QUAD_OPTS["epsrel"] * abs(oracle))


# ---------------------------------------------------------------------------
# weighted Kato inequality
# ---------------------------------------------------------------------------

def test_kato_equality_for_one_signed_profile():
    report = check_kato(catalog_by_name("x_exp"), WeightSpec())
    assert report.status == "pass"
    # sign(f) is constant: integrating by parts makes both sides equal
    assert abs(report.margin) <= 1e-8 * report.scale


def test_kato_strict_for_sign_changing_profile():
    report = check_kato(catalog_by_name("shifted_exp"), WeightSpec(m=2.0))
    assert report.status == "pass"
    assert report.margin > 1e-3        # genuinely strict inequality


def test_kato_all_catalog_and_weights():
    for profile in default_catalog():
        for weight in (WeightSpec(), WeightSpec(m=2.0), WeightSpec(m=3.0),
                       WeightSpec(m=2.0, cap=8.0)):
            report = check_kato(profile, weight)
            assert report.status == "pass", (profile.name, weight.label, report)


def test_kato_random_scalings():
    rng = np.random.default_rng(3)
    base = catalog_by_name("sin_exp")
    for _ in range(50):
        c = float(rng.uniform(0.05, 20.0))
        scaled = SampleProfile("scaled", lambda x, c=c: c * base.f(x),
                               lambda x, c=c: c * base.d1(x),
                               lambda x, c=c: c * base.d2(x),
                               sign_roots=base.sign_roots)
        report = check_kato(scaled, WeightSpec())
        assert report.status == "pass"


def test_kato_inconclusive_on_missing_roots():
    base = catalog_by_name("shifted_exp")
    hidden = SampleProfile("hidden", base.f, base.d1, base.d2, sign_roots=())
    report = check_kato(hidden, WeightSpec())
    assert report.status == "inconclusive"


# ---------------------------------------------------------------------------
# interpolation inequality and pointwise bounds
# ---------------------------------------------------------------------------

def test_interpolation_x_exp_m0():
    report = check_interpolation(catalog_by_name("x_exp"), 0.0)
    assert report.status == "pass"
    assert report.lhs == pytest.approx(1.0, rel=1e-10)      # integral of x e^-x
    # the bound 2 sqrt(|f''| * |f|) with |f|_{X_1} = 2
    assert report.rhs == pytest.approx(2.0 * np.sqrt(report.d2_norm * 2.0), rel=1e-10)
    assert report.pointwise_sup <= report.d2_norm
    assert report.pointwise_slope <= report.d2_norm


@pytest.mark.parametrize("m", [-0.9, -0.5, 0.0, 0.5, 0.9, 0.99])
def test_interpolation_orders(m):
    for name in ("x_exp", "odd_gauss", "two_roots"):
        report = check_interpolation(catalog_by_name(name), m)
        assert report.status == "pass", (name, m, report)


def test_interpolation_rejects_outside_range():
    from fragdiff import ConfigError
    with pytest.raises(ConfigError):
        check_interpolation(catalog_by_name("x_exp"), 1.0)


def test_interpolation_refuses_orders_below_its_quadrature_reach():
    # x^m |f| does not close within the quadrature's 400 intervals on
    # shifted_exp and two_roots from m = -0.93 down
    with pytest.raises(ConfigError, match=r"must lie in \[-0.9, 1\), got -0.95"):
        check_interpolation(catalog_by_name("x_exp"), -0.95)
    for profile in default_catalog():
        assert check_interpolation(profile, -0.9).status == "pass", profile.name


# ---------------------------------------------------------------------------
# kernel inequality sampling
# ---------------------------------------------------------------------------

def test_kernel_inequalities_sampled():
    rng = np.random.default_rng(11)
    report = kernel_positivity_samples(rng, n_samples=2000)
    assert report["positivity_ok"]
    assert report["monotone_ok"]


# ---------------------------------------------------------------------------
# integrated gain smallness along the absorption flow
# ---------------------------------------------------------------------------

def test_gain_smallness_linear_rate():
    mesh = build_mesh(40.0, 256)
    bundle = assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(0.0))
    xc = mesh.centers
    f = State(values=xc * np.exp(-xc), mesh=mesh)
    report = check_gain_smallness(bundle, f, m=2.0)
    assert report.status == "pass"
    # the integrated ratio stays below 1 up to t = 0.1
    idx = int(round(0.1 / 1e-3))
    assert report.ratio[idx] < 1.0
    assert np.all(np.diff(report.ratio) >= 0)


def test_gain_smallness_needs_a_nonzero_profile():
    mesh = build_mesh(40.0, 64)
    bundle = assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0))
    with pytest.raises(ConfigError, match="nonzero profile"):
        check_gain_smallness(bundle, State(values=np.zeros(mesh.n_cells), mesh=mesh), m=2.0)


def test_gain_smallness_fails_when_the_gain_crosses_one_in_the_first_step():
    mesh = build_mesh(40.0, 256)
    bundle = assemble_bundle(mesh, ConstantRate(5000.0), PowerLawKernel(0.0))
    f = State(values=mesh.centers * np.exp(-mesh.centers), mesh=mesh)
    with pytest.warns(UserWarning, match="positivity budget"):
        report = check_gain_smallness(bundle, f, m=2.0)
    assert report.status == "fail"
    assert report.crossing_time == report.t_grid[1]
    assert report.ratio_at_end >= 1.0


def test_gain_smallness_time_grid_ends_at_t_max():
    mesh = build_mesh(40.0, 64)
    bundle = assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0))
    f = State(values=mesh.centers * np.exp(-mesh.centers), mesh=mesh)
    report = check_gain_smallness(bundle, f, m=2.0)
    assert report.t_grid.size == 501
    assert report.t_grid[-1] == pytest.approx(0.5, abs=1e-12)


def test_gain_smallness_scale_invariant():
    mesh = build_mesh(40.0, 256)
    bundle = assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(0.0))
    xc = mesh.centers
    a = check_gain_smallness(bundle, State(values=xc * np.exp(-xc), mesh=mesh), m=2.0)
    b = check_gain_smallness(bundle, State(values=7.5 * xc * np.exp(-xc), mesh=mesh), m=2.0)
    assert np.allclose(a.ratio, b.ratio, rtol=1e-12)


def test_gain_smallness_weak_contraction_is_slower():
    # a kernel concentrated near the parent size has little moment
    # contraction; the integrated gain then eats the budget faster
    # (the concentration scale must stay resolvable on the mesh)
    mesh = build_mesh(20.0, 256)
    xc = mesh.centers
    f = State(values=xc * np.exp(-xc), mesh=mesh)
    healthy = assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0))
    p = 6.0
    concentrated = CustomKernel(
        lambda x, y, p=p: (p + 2.0) * x ** p * y ** (-p - 1.0), name="near-parent")
    from fragdiff import delta_m
    assert delta_m(concentrated, 2.0) < 0.15        # weak contraction indeed
    stressed = assemble_bundle(mesh, ConstantRate(1.0), concentrated)
    h = check_gain_smallness(healthy, f, m=2.0)
    s = check_gain_smallness(stressed, f, m=2.0)
    assert s.ratio[-1] > h.ratio[-1]
