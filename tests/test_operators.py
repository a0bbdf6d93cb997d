import numpy as np
import pytest
from scipy.integrate import quad

from fragdiff import (ConfigError, ConstantRate, CustomKernel, NumericsError, PowerLawKernel,
                      PowerRate, PropertyViolation, ShiftedPowerRate, State, Stepper, TableRate,
                      assemble_birth, assemble_bundle, assemble_diffusion,
                      build_mesh, heat_apply_exact, heat_growth_bound,
                      image_kernel_value, kernel_value, solve_steady,
                      weighted_norm)
from fragdiff import operators
from fragdiff.config import build_bundle, preset_config
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
    got = tri.factor(-theta * dt)(tri.symmetriser * rhs)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_singular_tridiagonal_raises(mesh_512):
    # L has eigenvalues on both sides of -1, so I + L is indefinite: LDL^T must refuse it
    from fragdiff import NumericsError
    with pytest.raises(NumericsError, match="not positive definite"):
        assemble_diffusion(mesh_512).factor(1.0)


@pytest.mark.parametrize("rate", [1.0, 0.3])
@pytest.mark.parametrize("right_bc", ["noflux", "dirichlet"])
@pytest.mark.parametrize("grading", ["uniform", "geometric"])
def test_diffusion_is_symmetrised_by_cell_widths(grading, right_bc, rate):
    # dx_i upper_i = dx_{i+1} lower_i = rate / (xbar_{i+1} - xbar_i)
    mesh = build_mesh(40.0, 300, grading, ratio=1.01 if grading == "geometric" else None)
    tri = assemble_diffusion(mesh, right_bc, rate)
    dx = mesh.widths
    assert tri.symmetriser is mesh.widths
    upper, lower = dx[:-1] * tri.upper, dx[1:] * tri.lower
    assert np.max(np.abs(upper / lower - 1.0)) <= 1e-14
    assert np.allclose(upper, rate / np.diff(mesh.centers), rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# birth operator
# ---------------------------------------------------------------------------

def test_birth_triangular_and_nonnegative(mitosis_512):
    w = mitosis_512.birth.applied_matrix() / mitosis_512.mesh.widths
    assert np.allclose(np.tril(w), 0.0)
    assert np.all(w >= 0.0)
    assert np.all(mitosis_512.death >= 0.0)


def test_negative_power_law_birth_weight_raises():
    class NegativeIntegrals(ConstantRate):
        def cell_integrals(self, edges, q):
            return -super().cell_integrals(edges, q)

    with pytest.raises(PropertyViolation, match="negative birth weight"):
        assemble_birth(build_mesh(20.0, 32), NegativeIntegrals(1.0), PowerLawKernel(0.0))


def test_negative_custom_birth_weight_raises():
    # mass exact (int x b = y) but b < 0 for x > 11 y / 15
    signed = CustomKernel(lambda x, y: (22.0 - 30.0 * x / y) / y, name="signed")
    with pytest.raises(PropertyViolation, match="negative birth weight"):
        assemble_birth(build_mesh(20.0, 32), ConstantRate(1.0), signed)


def test_binary_kernel_unit_weights(mitosis_512):
    # b = 2/y deposits uniformly: weights approach 2 / xbar_j per donor
    mesh = mitosis_512.mesh
    w = mitosis_512.birth.applied_matrix() / mesh.widths     # per unit donor density
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


CUSTOM_KERNELS = {"binary": lambda x, y: 2.0 / y * np.ones_like(x),
                  "near-parent": lambda x, y: 8.0 * x ** 6 / y ** 7,
                  "parabolic": lambda x, y: 12.0 * x * (y - x) / y ** 3}


@pytest.mark.parametrize("rate", [ConstantRate(1.0), PowerRate(1.0),
                                  TableRate([0.0, 3.0, 7.0, 40.0], [0.5, 2.0, 0.2, 1.5])],
                         ids=["constant", "linear", "table"])
@pytest.mark.parametrize("mesh", [build_mesh(20.0, 64),
                                  build_mesh(20.0, 64, "geometric", ratio=1.05)],
                         ids=["uniform", "geometric"])
@pytest.mark.parametrize("name", list(CUSTOM_KERNELS))
def test_custom_kernel_death_is_the_mass_each_donor_sends(name, mesh, rate):
    birth = assemble_birth(mesh, rate, CustomKernel(CUSTOM_KERNELS[name], name=name))
    cell_mass = mesh.centers * mesh.widths
    sent = cell_mass @ birth.applied_matrix()
    lost = birth.death * cell_mass
    assert sent[0] == lost[0] == 0.0
    assert np.max(np.abs(sent[1:] - lost[1:]) / lost[1:]) <= 1e-15


def _power_difference(hi, lo, p: int):
    # hi^p - lo^p without cancellation: (hi - lo) sum_k hi^k lo^(p-1-k)
    return (hi - lo) * sum(hi ** k * lo ** (p - 1 - k) for k in range(p))


# integral of x b(x, y) over [lo, hi], for each kernel of CUSTOM_KERNELS
CELL_MASS = {"binary": lambda hi, lo, y: _power_difference(hi, lo, 2) / y,
             "near-parent": lambda hi, lo, y: _power_difference(hi, lo, 8) / y ** 7,
             "parabolic": lambda hi, lo, y: (4 * y * _power_difference(hi, lo, 3)
                                             - 3 * _power_difference(hi, lo, 4)) / y ** 3}


@pytest.mark.parametrize("mesh", [build_mesh(40.0, 256),
                                  build_mesh(20.0, 64, "geometric", ratio=1.05)],
                         ids=["uniform", "geometric"])
@pytest.mark.parametrize("name", list(CUSTOM_KERNELS))
def test_custom_birth_weights_match_closed_forms_per_cell(name, mesh):
    # each weight integrates x b(x, y) over its receiver cell, at the donor
    # cell's 24 Gauss nodes y; the oracle takes the same donor rule and the
    # cell integrals in closed form, in long double
    birth = assemble_birth(mesh, PowerRate(1.0), CustomKernel(CUSTOM_KERNELS[name], name=name))
    ld = np.longdouble
    edges, xc, dx = mesh.edges.astype(ld), mesh.centers.astype(ld), mesh.widths.astype(ld)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    half = 0.5 * mesh.widths[:, None]
    y_nodes = mesh.centers[:, None] + half * nodes
    y_weights = half.astype(ld) * weights.astype(ld) * y_nodes.astype(ld)    # a(y) = y
    worst = 0.0
    for j in range(1, mesh.n_cells):
        y = y_nodes[j].astype(ld)
        sent = CELL_MASS[name](edges[1:j + 1, None], edges[:j, None], y) @ y_weights[j]
        exact = sent / (xc[:j] * dx[:j])
        got = birth.dense_applied[:j, j]
        assert np.all(got > 0.0)
        worst = max(worst, float(np.max(np.abs(got - exact) / exact)))
    assert worst <= 1e-14


def test_zero_rate_gives_zero_birth(mesh_512):
    bundle_birth = assemble_birth(mesh_512, ConstantRate(1e-300), PowerLawKernel(0.0))
    assert np.max(bundle_birth.applied_matrix() / mesh_512.widths) < 1e-290


# ---------------------------------------------------------------------------
# full generator
# ---------------------------------------------------------------------------

def test_generator_linear_and_zero(mitosis_512):
    out = mitosis_512.apply(np.zeros(mitosis_512.mesh.n_cells))
    assert np.all(out == 0.0)


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


def test_dense_matches_apply(linear_rate_512, rng):
    dense = linear_rate_512.dense()
    phi = rng.random(linear_rate_512.mesh.n_cells)
    assert np.allclose(dense @ phi, linear_rate_512.apply(phi), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("rate", [ConstantRate(1.0), PowerRate(1.0), ShiftedPowerRate(1.0, 2.0)],
                         ids=["constant", "power", "shifted-power"])
@pytest.mark.parametrize("kernel", [PowerLawKernel(0.0), PowerLawKernel(-1.5),
                                    CustomKernel(lambda x, y: 4.0 * x ** 2 / y ** 3,
                                                 name="near-parent")],
                         ids=["binary", "nu=-1.5", "custom"])
@pytest.mark.parametrize("right_bc", ["noflux", "dirichlet"])
@pytest.mark.parametrize("grading", ["uniform", "geometric"])
def test_generator_is_metzler(grading, right_bc, kernel, rate):
    # the exact discrete form of a positive semigroup: exp(tG) >= 0 for all
    # t >= 0 exactly when no off-diagonal entry of G is negative
    mesh = build_mesh(20.0, 24, grading, ratio=1.1 if grading == "geometric" else None)
    dense = assemble_bundle(mesh, rate, kernel, right_bc=right_bc).dense()
    assert np.min(dense[~np.eye(mesh.n_cells, dtype=bool)]) >= 0.0


@pytest.mark.parametrize("alpha, beta", [(1.0, -1e-3), (1.0, -0.1), (-1.0, 1.0)])
@pytest.mark.parametrize("right_bc", ["noflux", "dirichlet"])
@pytest.mark.parametrize("grading", ["uniform", "geometric"])
@pytest.mark.parametrize("rate", [ConstantRate(1.0), PowerRate(1.0)],
                         ids=["mitosis", "linear-rate"])
def test_unpinned_factor_matches_dense_solve(rate, grading, right_bc, alpha, beta, rng):
    mesh = build_mesh(40.0, 512, grading, ratio=1.01 if grading == "geometric" else None)
    bundle = assemble_bundle(mesh, rate, PowerLawKernel(0.0), right_bc=right_bc)
    rhs = rng.random(mesh.n_cells)
    expected = np.linalg.solve(alpha * np.eye(mesh.n_cells) + beta * bundle.dense(), rhs)
    got = operators.factor(bundle, alpha, beta)(rhs)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def _scattered_bands(bundle, alpha, beta):
    """Reference band array: each entry scattered to ab[4 + row - col, col]."""
    tri, birth, mesh = bundle.diffusion, bundle.birth, bundle.mesh
    phi = 2 * np.arange(mesh.n_cells)
    s = phi + 1
    ab = np.zeros((7, 2 * mesh.n_cells), order="F")

    def put(rows, cols, values):
        ab[4 + rows - cols, cols] = values

    diag = alpha + beta * (tri.diag - birth.death)
    put(phi, phi, diag)
    put(phi[1:], phi[:-1], beta * tri.lower)
    put(phi[:-1], phi[1:], beta * tri.upper)
    put(phi, s, beta * birth.receiver)
    unit = float(np.max(np.abs(diag)))
    put(s, s, unit)
    put(s[:-1], s[1:], -unit)
    put(s[:-1], phi[1:], -unit * birth.donor[1:])
    return ab


@pytest.mark.parametrize("alpha, beta", [(1.0, -1e-3), (-1.0, 1.0), (0.0, 1.0)])
@pytest.mark.parametrize("rate", [ConstantRate(1.0), PowerRate(1.0)],
                         ids=["mitosis", "linear-rate"])
def test_band_rows_equal_entrywise_scatter(rate, alpha, beta):
    mesh = build_mesh(40.0, 128, "geometric", ratio=1.02)
    bundle = assemble_bundle(mesh, rate, PowerLawKernel(0.0), right_bc="dirichlet")
    got = operators._interleaved_bands(bundle, alpha, beta)
    assert got.flags.f_contiguous
    assert np.array_equal(got, _scattered_bands(bundle, alpha, beta))


@pytest.mark.parametrize("alpha, beta", [(1.0, -1e-3), (-1.0, 1.0), (1.0, -1.0)])
@pytest.mark.parametrize("grading, right_bc", [("uniform", "noflux"), ("geometric", "noflux"),
                                               ("uniform", "dirichlet")])
@pytest.mark.parametrize("rate", [ConstantRate(1.0), PowerRate(1.0)],
                         ids=["mitosis", "linear-rate"])
def test_pivot_free_factor_solves_by_band_sweeps(monkeypatch, rate, grading, right_bc,
                                                 alpha, beta, rng):
    # I - dt G (dt = 1e-3 and fully_implicit's dt = 1) and G - I are negated
    # M-matrices: partial pivoting interchanges no rows, and factor's sweeps,
    # the unit-lower one on the phi rows alone, give dgbtrs's result on the
    # same LU bit for bit
    lapack = operators.lapack
    dgbtrs = lapack.dgbtrs

    def unused(*args, **kwargs):
        raise AssertionError("dgbtrs called on a pivot-free LU")

    monkeypatch.setattr(lapack, "dgbtrs", unused)
    for n in (512, 2048):
        mesh = build_mesh(40.0, n, grading, ratio=1.01 if grading == "geometric" else None)
        bundle = assemble_bundle(mesh, rate, PowerLawKernel(0.0), right_bc=right_bc)
        lu, piv, info = lapack.dgbtrf(operators._interleaved_bands(bundle, alpha, beta), 2, 2)
        assert info == 0 and np.array_equal(piv, np.arange(2 * n))
        rhs = rng.random(n)
        z = np.zeros(2 * n)
        z[::2] = rhs
        expected = dgbtrs(lu, 2, 2, z, piv)[0][::2]
        assert operators.factor(bundle, alpha, beta)(rhs).tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pivot_free_solve_of_a_non_finite_rhs_is_not_finite(mitosis_2048, bad):
    # the phi-only forward sweep skips the s rows, yet a NaN or inf in the
    # right-hand side still spoils the solve, so fill raises on the implicit path
    n = mitosis_2048.mesh.n_cells
    piv = operators.lapack.dgbtrf(operators._interleaved_bands(mitosis_2048, 1.0, -1.0),
                                  2, 2)[1]
    assert np.array_equal(piv, np.arange(2 * n))
    values = np.exp(-mitosis_2048.mesh.centers)
    values[n // 3] = bad
    assert not np.all(np.isfinite(operators.factor(mitosis_2048, 1.0, -1.0)(values)))
    with pytest.raises(NumericsError, match="non-finite"):
        Stepper(mitosis_2048, 1.0, "fully_implicit").fill(np.empty((2, n)), values)


def test_pivoting_factor_keeps_dgbtrs(monkeypatch, linear_rate_512):
    # G itself (zero shift) interchanges rows here and on both CLI presets
    # (whether it does depends on the mesh), so zero-shift inverse iteration
    # and the steady solves go through dgbtrs
    calls = []
    dgbtrs = operators.lapack.dgbtrs

    def spy(*args, **kwargs):
        calls.append(1)
        return dgbtrs(*args, **kwargs)

    monkeypatch.setattr(operators.lapack, "dgbtrs", spy)
    presets = [build_bundle(preset_config(name)) for name in ("mitosis", "linear-rate")]
    for bundle in [linear_rate_512, *presets]:
        calls.clear()
        operators.factor(bundle, 0.0, 1.0)(np.ones(bundle.mesh.n_cells))
        assert calls == [1]
        solve_steady(bundle)
        assert calls == [1, 1]


@pytest.mark.parametrize("alpha, beta", [(1.0, -1e-3), (-1.0, 1.0), (0.0, 1.0)])
def test_every_banded_factor_is_2n_wide_with_half_bandwidth_2(monkeypatch, mitosis_512,
                                                                alpha, beta):
    # the unknowns are (phi_i, s_i), kl = ku = 2, for every shift, zero included
    calls = []
    dgbtrf = operators.lapack.dgbtrf

    def spy(ab, kl, ku, *args, **kwargs):
        calls.append((ab.shape[1], kl, ku))
        return dgbtrf(ab, kl, ku, *args, **kwargs)

    monkeypatch.setattr(operators.lapack, "dgbtrf", spy)
    operators.factor(mitosis_512, alpha, beta)
    assert calls == [(2 * mitosis_512.mesh.n_cells, 2, 2)]


def test_banded_factor_overwrites_its_band_array(monkeypatch, mitosis_512):
    # the band array is built Fortran-ordered for dgbtrf, which factors it in
    # place instead of factoring a copy
    shared = []
    dgbtrf = operators.lapack.dgbtrf

    def spy(ab, *args, **kwargs):
        lu, piv, info = dgbtrf(ab, *args, **kwargs)
        shared.append(np.shares_memory(lu, ab))
        return lu, piv, info

    monkeypatch.setattr(operators.lapack, "dgbtrf", spy)
    operators.factor(mitosis_512, 1.0, -1e-3)
    assert shared == [True]


@pytest.mark.parametrize("kernel", [
    PowerLawKernel(0.0),
    CustomKernel(lambda x, y: 2.0 / y * np.ones_like(x), name="binary"),
], ids=["banded", "dense"])
def test_factor_of_a_singular_system_is_a_numerics_error(kernel):
    bundle = assemble_bundle(build_mesh(40.0, 16), ConstantRate(1.0), kernel)
    with pytest.raises(NumericsError, match="generator system is singular"):
        operators.factor(bundle, 0.0, 0.0)     # the zero matrix


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


@pytest.mark.parametrize("x_max,n_cells", [(1.0, 32), (10.0, 64), (40.0, 256), (100.0, 512)])
def test_heat_apply_keeps_nonnegative_data_nonnegative_unclamped(x_max, n_cells):
    # no clamp: (x - y)^2 <= (x + y)^2 survives rounding, so the image kernel
    # is >= 0 in floating point and so are its products with nonnegative data
    mesh = build_mesh(x_max, n_cells)
    x = mesh.centers / x_max
    profiles = [np.exp(-x), x * np.exp(-10.0 * x), np.exp(-((x - 0.5) / 0.05) ** 2),
                (x < 0.1) * 1.0, np.random.default_rng(0).random(n_cells)]
    for values in profiles:
        for t in np.geomspace(1e-4, 1e6, 7):
            out = heat_apply_exact(State(values=values, mesh=mesh), t)
            assert out.values.min() >= 0.0


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
    from fragdiff.checks import birth_domination
    xc = linear_rate_512.mesh.centers
    for _ in range(10):
        values = rng.random(xc.size) * np.exp(-rng.uniform(0.1, 0.5) * xc)
        report = birth_domination(linear_rate_512, values, 2.0)
        assert report["ok"], report


def test_diffusion_coefficient_scales_operator(mesh_512):
    one = assemble_diffusion(mesh_512, diffusion_rate=1.0)
    two = assemble_diffusion(mesh_512, diffusion_rate=2.0)
    assert np.allclose(two.diag, 2.0 * one.diag)
    assert np.allclose(two.upper, 2.0 * one.upper)


@pytest.mark.parametrize("grading", ["uniform", "geometric"])
def test_integer_input_applies_like_float(grading):
    # scipy's LinearOperator probes its matvec with an integer vector, and
    # the gain term must not be truncated to the input's dtype
    mesh = build_mesh(10.0, 16, grading, ratio=1.1 if grading == "geometric" else None)
    bundle = assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0))
    for dtype in (int, np.int8):
        ones = np.ones(16, dtype=dtype)
        for apply in (bundle.apply, bundle.apply_reaction, bundle.birth.apply):
            got = apply(ones)
            assert got.dtype == np.float64
            assert np.array_equal(got, apply(np.ones(16)))
