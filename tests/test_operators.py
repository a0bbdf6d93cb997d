import numpy as np
import pytest
from scipy.integrate import quad

from fragdiff import (ConfigError, ConstantRate, CustomKernel, PowerLawKernel,
                      PowerRate, State, apply_generator, assemble_birth,
                      assemble_bundle, assemble_diffusion, build_mesh,
                      heat_apply_exact, heat_growth_bound, image_kernel_value,
                      kernel_value, weighted_norm)
from conftest import exact_equilibrium


# ---------------------------------------------------------------------------
# diffusion stencil
# ---------------------------------------------------------------------------

def test_interior_stencil_uniform(mesh_512):
    tri = assemble_diffusion(mesh_512)
    h2 = mesh_512.widths[0] ** 2
    assert tri.diag[5] * h2 == pytest.approx(-2.0, rel=1e-12)
    assert tri.upper[5] * h2 == pytest.approx(1.0, rel=1e-12)
    assert tri.lower[4] * h2 == pytest.approx(1.0, rel=1e-12)


def test_diffusion_exact_on_linear_profile(mesh_512):
    # second derivative of a profile through the origin vanishes away from ends
    tri = assemble_diffusion(mesh_512)
    out = tri.apply(mesh_512.centers.copy())
    assert np.max(np.abs(out[:-1])) < 1e-10


def test_diffusion_second_order_on_smooth_profile():
    errors = []
    for n in (256, 512, 1024):
        mesh = build_mesh(40.0, n)
        xc = mesh.centers
        tri = assemble_diffusion(mesh)
        approx = tri.apply(xc * np.exp(-xc))
        exact = (xc - 2.0) * np.exp(-xc)
        errors.append(np.sum(xc * np.abs(approx - exact) * mesh.widths))
    assert errors[0] / errors[1] > 3.0
    assert errors[1] / errors[2] > 3.0


def test_diffusion_mass_rate_is_boundary_flux_only(mesh_512, rng):
    xc, dx = mesh_512.centers, mesh_512.widths
    tri = assemble_diffusion(mesh_512, right_bc="noflux")
    phi = rng.random(mesh_512.n_cells)
    assert np.sum(xc * dx * tri.apply(phi)) == pytest.approx(-phi[-1], rel=1e-10)


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("right_bc", ["noflux", "dirichlet"])
@pytest.mark.parametrize("grading", ["uniform", "geometric"])
def test_tridiagonal_factor_matches_dense_solve(grading, right_bc, theta, rng):
    mesh = build_mesh(40.0, 256, grading, ratio=1.01 if grading == "geometric" else None)
    tri = assemble_diffusion(mesh, right_bc)
    dt = 1e-3
    dense = (np.eye(mesh.n_cells) - theta * dt * (
        np.diag(tri.diag) + np.diag(tri.upper, 1) + np.diag(tri.lower, -1)))
    rhs = rng.random(mesh.n_cells)
    expected = np.linalg.solve(dense, rhs)
    got = tri.factor(1.0, -theta * dt)(rhs)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_singular_tridiagonal_raises():
    from fragdiff import NumericsError
    from fragdiff.operators import Tridiagonal
    tri = Tridiagonal(lower=np.ones(7), diag=np.zeros(8), upper=np.zeros(7))
    with pytest.raises(NumericsError, match="singular"):
        tri.factor(0.0, 1.0)


# ---------------------------------------------------------------------------
# birth operator
# ---------------------------------------------------------------------------

def test_birth_triangular_and_nonnegative(mitosis_512):
    w = mitosis_512.birth.unit_weights()
    assert np.allclose(np.tril(w), 0.0)
    assert np.all(w >= 0.0)
    assert np.all(mitosis_512.death >= 0.0)


def test_binary_kernel_unit_weights(mitosis_512):
    # b = 2/y deposits uniformly: weights approach 2 / xbar_j per donor
    mesh = mitosis_512.mesh
    w = mitosis_512.birth.unit_weights()
    j = 400
    col = w[:j, j]
    assert np.allclose(col, col[0])
    assert col[0] == pytest.approx(2.0 / mesh.centers[j], rel=1e-4)


@pytest.mark.parametrize("nu", [0.0, -0.5, -1.0, -1.5])
@pytest.mark.parametrize("rate", [ConstantRate(1.0), PowerRate(1.0)])
def test_birth_death_mass_balance_exact(nu, rate):
    mesh = build_mesh(30.0, 192)
    bundle = assemble_bundle(mesh, rate, PowerLawKernel(nu))
    xc, dx = mesh.centers, mesh.widths
    rng = np.random.default_rng(7)
    for _ in range(5):
        phi = rng.random(mesh.n_cells)
        born = np.sum(xc * bundle.birth.apply(phi) * dx)
        died = np.sum(xc * bundle.death * phi * dx)
        assert born == pytest.approx(died, rel=1e-12)


def test_birth_per_donor_identity(mitosis_512):
    # column mass equals the donor's effective death mass, donor by donor
    mesh = mitosis_512.mesh
    xc, dx = mesh.centers, mesh.widths
    w_applied = mitosis_512.birth.applied_matrix()
    column_mass = (xc * dx) @ w_applied
    death_mass = xc * mitosis_512.death * dx
    assert np.allclose(column_mass, death_mass, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("rate", [ConstantRate(1.0), PowerRate(1.0)], ids=["constant", "power"])
@pytest.mark.parametrize("mesh", [build_mesh(20.0, 96),
                                  build_mesh(20.0, 96, "geometric", ratio=1.05)],
                         ids=["uniform", "geometric"])
def test_custom_kernel_birth_matches_powerlaw(rate, mesh):
    # the binary kernel written as a callable reproduces the closed-form weights
    exactk = assemble_bundle(mesh, rate, PowerLawKernel(0.0))
    custom = assemble_bundle(
        mesh, rate, CustomKernel(lambda x, y: 2.0 / y * np.ones_like(x), name="binary"))
    for got, want in ((custom.birth.applied_matrix(), exactk.birth.applied_matrix()),
                      (custom.death, exactk.death)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    phi = mesh.centers * np.exp(-mesh.centers)
    xc, dx = mesh.centers, mesh.widths
    born = np.sum(xc * custom.birth.apply(phi) * dx)
    died = np.sum(xc * custom.death * phi * dx)
    assert born == pytest.approx(died, rel=1e-12)


def test_zero_rate_gives_zero_birth(mesh_512):
    bundle_birth = assemble_birth(mesh_512, ConstantRate(1e-300), PowerLawKernel(0.0))
    assert np.max(bundle_birth.unit_weights()) < 1e-290


# ---------------------------------------------------------------------------
# full generator
# ---------------------------------------------------------------------------

def test_generator_linear_and_zero(mitosis_512):
    mesh = mitosis_512.mesh
    zero = State(values=np.zeros(mesh.n_cells), mesh=mesh)
    out = apply_generator(mitosis_512, zero)
    assert np.all(out.values == 0.0)


def test_generator_residual_second_order_on_equilibrium():
    errors = []
    for n in (256, 512, 1024):
        mesh = build_mesh(40.0, n)
        bundle = assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0))
        res = bundle.apply(exact_equilibrium(mesh.centers))
        errors.append(np.sum(mesh.centers * np.abs(res) * mesh.widths))
    assert errors[0] / errors[1] > 3.5
    assert errors[1] / errors[2] > 3.5


def test_generator_conserves_mass_of_interior_profile(linear_rate_512):
    mesh = linear_rate_512.mesh
    xc = mesh.centers
    phi = np.exp(-((xc - 15.0) / 2.0) ** 2)   # compactly supported in practice
    rate = np.sum(xc * linear_rate_512.apply(phi) * mesh.widths)
    assert abs(rate) < 1e-12


def test_generator_mesh_mismatch(mitosis_512):
    other = build_mesh(40.0, 256)
    state = State(values=np.ones(256), mesh=other)
    with pytest.raises(ConfigError):
        apply_generator(mitosis_512, state)


def test_dense_matches_apply(linear_rate_512, rng):
    dense = linear_rate_512.dense()
    phi = rng.random(linear_rate_512.mesh.n_cells)
    assert np.allclose(dense @ phi, linear_rate_512.apply(phi), rtol=1e-12, atol=1e-13)


# ---------------------------------------------------------------------------
# heat kernel and exact propagator
# ---------------------------------------------------------------------------

def test_kernel_point_values():
    assert kernel_value(1.0 / (4.0 * np.pi), 0.0) == pytest.approx(1.0, rel=1e-14)
    assert kernel_value(0.7, 1.3) == pytest.approx(kernel_value(0.7, -1.3), rel=1e-15)
    with pytest.raises(ConfigError):
        kernel_value(0.0, 1.0)


def test_kernel_normalization_quadrature():
    val, _ = quad(lambda z: kernel_value(0.37, z), -np.inf, np.inf)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_image_kernel_vanishes_at_origin():
    y = np.linspace(0.1, 30.0, 50)
    assert np.max(np.abs(image_kernel_value(0.5, 0.0, y))) == 0.0


def test_image_kernel_nonnegative(rng):
    t = rng.uniform(1e-3, 10.0, 300)
    x = rng.uniform(0.0, 40.0, 300)
    y = rng.uniform(0.0, 40.0, 300)
    assert np.min(image_kernel_value(t, x, y)) >= -1e-15


def test_heat_apply_odd_gaussian_closed_form(mesh_2048):
    xc = mesh_2048.centers
    f = State(values=xc * np.exp(-xc ** 2 / 4.0), mesh=mesh_2048)
    out = heat_apply_exact(f, 1.0)
    exact = 0.5 ** 1.5 * xc * np.exp(-xc ** 2 / 8.0)
    err = np.sum(xc * np.abs(out.values - exact) * mesh_2048.widths)
    assert err <= 1e-6
    assert out.time == pytest.approx(1.0)


def test_heat_apply_preserves_mass(mesh_2048, rng):
    # exponentially localized data: the only mass defect is the truncation
    # tail, which sits below 1e-10 for unit-scale decay on [0, 40]
    xc = mesh_2048.centers
    f = State(values=(1 + rng.random(mesh_2048.n_cells)) * np.exp(-xc),
              mesh=mesh_2048)
    m0 = np.sum(xc * f.values * mesh_2048.widths)
    for t in (0.1, 1.0):
        out = heat_apply_exact(f, t)
        m1 = np.sum(xc * out.values * mesh_2048.widths)
        assert abs(m1 - m0) / m0 <= 1e-10


def test_heat_apply_rejects_nonpositive_time(mesh_512):
    f = State(values=np.ones(mesh_512.n_cells), mesh=mesh_512)
    with pytest.raises(ConfigError):
        heat_apply_exact(f, 0.0)


def test_growth_bound_values():
    assert heat_growth_bound(1.0) == 0.0
    assert heat_growth_bound(3.0) == pytest.approx(6.0, rel=1e-14)
    assert heat_growth_bound(4.0) == pytest.approx(4.0 ** (4.0 / 3.0), rel=1e-14)
    with pytest.raises(ConfigError):
        heat_growth_bound(2.0)


def test_heat_apply_growth_envelope(mesh_1024, rng):
    xc = mesh_1024.centers
    for m in (3.0, 4.0):
        bound = heat_growth_bound(m)
        for _ in range(4):
            s = rng.uniform(0.5, 2.0)
            f = State(values=xc ** rng.integers(0, 3) * np.exp(-xc / s),
                      mesh=mesh_1024)
            base = weighted_norm(f, m)
            for t in (0.25, 1.0):
                grown = weighted_norm(heat_apply_exact(f, t), m)
                assert grown <= np.exp(bound * t) * base


def test_birth_strict_domination(linear_rate_512, rng):
    # gain bounded by (1 - delta_2) times the weighted loss, m = 2
    from fragdiff import delta_m
    from fragdiff.checks import birth_domination
    delta = delta_m(linear_rate_512.kernel, 2.0)
    xc = linear_rate_512.mesh.centers
    for _ in range(10):
        values = rng.random(xc.size) * np.exp(-rng.uniform(0.1, 0.5) * xc)
        report = birth_domination(linear_rate_512, values, 2.0, delta)
        assert report["ok"], report


def test_diffusion_coefficient_scales_operator(mesh_512):
    one = assemble_diffusion(mesh_512, diffusion_rate=1.0)
    two = assemble_diffusion(mesh_512, diffusion_rate=2.0)
    assert np.allclose(two.diag, 2.0 * one.diag)
    assert np.allclose(two.upper, 2.0 * one.upper)
