import math

import numpy as np
import pytest

from fragdiff import (ConfigError, Mesh, State, build_mesh, mass, moment,
                      tail_mass_fraction, weighted_norm, x1_distance)


def test_uniform_widths():
    mesh = build_mesh(10.0, 10)
    assert np.allclose(mesh.widths, 1.0)
    assert mesh.edges[0] == 0.0
    assert mesh.edges[-1] == 10.0


def test_uniform_width_value():
    mesh = build_mesh(40.0, 2048)
    assert mesh.widths[0] == pytest.approx(0.01953125, abs=0.0)


def test_geometric_first_width_matches_series():
    r, n, x_max = 1.02, 256, 40.0
    mesh = build_mesh(x_max, n, "geometric", ratio=r)
    expected = x_max * (r - 1.0) / (r ** n - 1.0)
    assert mesh.widths[0] == pytest.approx(expected, rel=1e-12)
    # sum of widths telescopes back to the domain length
    assert mesh.widths.sum() == pytest.approx(x_max, rel=1e-12)
    assert np.allclose(mesh.widths[1:] / mesh.widths[:-1], r, rtol=1e-9)


@pytest.mark.parametrize("bad", [
    dict(x_max=-1.0, n_cells=16),
    dict(x_max=10.0, n_cells=4),
    dict(x_max=10.0, n_cells=16, grading="geometric", ratio=1.5),
    dict(x_max=10.0, n_cells=16, grading="geometric"),
    dict(x_max=10.0, n_cells=16, grading="cubic"),
    # x_max * ratio^n_cells overflows in the edge formula's product, or
    # ratio^n_cells overflows by itself
    dict(x_max=40.0, n_cells=3893, grading="geometric", ratio=1.2),
    dict(x_max=40.0, n_cells=5000, grading="geometric", ratio=1.2),
])
def test_build_mesh_rejects_bad_input(bad):
    with pytest.raises(ConfigError):
        build_mesh(**bad)


@pytest.mark.parametrize("edges,message", [
    ([0.0], "at least two edges"),
    ([[0.0, 1.0], [1.0, 2.0]], "at least two edges"),
    ([0.5, 1.0, 2.0], "first edge must be exactly 0"),
    ([0.0, 1.0, 1.0], "strictly increasing"),
    ([0.0, 2.0, 1.0], "strictly increasing"),
])
def test_mesh_rejects_bad_edges(edges, message):
    with pytest.raises(ConfigError, match=message):
        Mesh(edges=edges)


def test_largest_geometric_mesh_below_overflow_builds():
    # 1.2^3872 * 40 fits a float: the edges come from the same formula
    mesh = build_mesh(40.0, 3872, "geometric", ratio=1.2)
    assert mesh.edges[-1] == 40.0 and mesh.widths.min() > 0.0


def test_moment_of_zero_state(mesh_512):
    zero = State(values=np.zeros(mesh_512.n_cells), mesh=mesh_512)
    for m in (-0.5, 0.0, 1.0, 2.5):
        assert moment(zero, m) == 0.0


def test_moments_match_gamma_integrals(mesh_2048):
    xc = mesh_2048.centers
    state = State(values=xc * np.exp(-xc), mesh=mesh_2048)
    # integral of x^(m+1) e^-x = Gamma(m+2)
    assert moment(state, 1.0) == pytest.approx(2.0, abs=1e-4)
    assert moment(state, 0.0) == pytest.approx(1.0, abs=1e-4)
    assert mass(state) == pytest.approx(2.0, abs=1e-4)


def test_moment_rejects_nonintegrable_order(mesh_512):
    state = State(values=np.ones(mesh_512.n_cells), mesh=mesh_512)
    with pytest.raises(ConfigError, match="moment_order must be finite and exceed -1"):
        moment(state, -1.0)


def test_quadrature_second_order_convergence():
    # moments of x^k e^-x converge to Gamma(k+m+1) at second order
    for k, m in ((0, 1.0), (1, 2.0), (2, 1.5), (3, 0.5)):
        errors = []
        for n in (256, 512, 1024):
            mesh = build_mesh(40.0, n)
            xc = mesh.centers
            state = State(values=xc ** k * np.exp(-xc), mesh=mesh)
            errors.append(abs(moment(state, m) - math.gamma(k + m + 1)))
        assert errors[0] / errors[1] > 3.5
        assert errors[1] / errors[2] > 3.5


def test_weighted_norm_definitions(mesh_512, rng):
    xc = mesh_512.centers
    state = State(values=rng.random(mesh_512.n_cells), mesh=mesh_512)
    # nonnegative data: the norm is the sum of the two moments
    assert weighted_norm(state, 2.0) == pytest.approx(
        moment(state, 1.0) + moment(state, 2.0), rel=1e-13)
    # m = 1 duplicates the mass weight
    assert weighted_norm(state, 1.0) == pytest.approx(2.0 * moment(state, 1.0),
                                                      rel=1e-13)
    profile = State(values=xc * np.exp(-xc), mesh=mesh_512)
    assert weighted_norm(profile, 2.0) == pytest.approx(8.0, abs=2e-3)


def test_weighted_norm_is_a_norm(mesh_512, rng):
    for _ in range(20):
        u = rng.standard_normal(mesh_512.n_cells)
        v = rng.standard_normal(mesh_512.n_cells)
        c = rng.uniform(-3, 3)
        nu = weighted_norm(State(values=u, mesh=mesh_512), 3.0)
        nv = weighted_norm(State(values=v, mesh=mesh_512), 3.0)
        nuv = weighted_norm(State(values=u + v, mesh=mesh_512), 3.0)
        ncu = weighted_norm(State(values=c * u, mesh=mesh_512), 3.0)
        assert nuv <= nu + nv + 1e-12 * (nu + nv)
        assert ncu == pytest.approx(abs(c) * nu, rel=1e-12)


def test_x1_distance_requires_same_mesh(mesh_512):
    other = build_mesh(40.0, 256)
    a = State(values=np.ones(512), mesh=mesh_512)
    b = State(values=np.ones(256), mesh=other)
    with pytest.raises(ConfigError):
        x1_distance(a, b)


def test_tail_mass_fraction(mesh_512):
    xc = mesh_512.centers
    inner = State(values=np.exp(-xc), mesh=mesh_512)
    assert tail_mass_fraction(inner) < 1e-12
    outer = State(values=(xc > 39.0).astype(float), mesh=mesh_512)
    assert tail_mass_fraction(outer) == pytest.approx(1.0)


def test_state_validation(mesh_512):
    with pytest.raises(ConfigError):
        State(values=np.ones(5), mesh=mesh_512)
    bad = np.ones(mesh_512.n_cells)
    bad[3] = np.nan
    with pytest.raises(ConfigError):
        State(values=bad, mesh=mesh_512)


@pytest.mark.parametrize("n", [64, 2048])
@pytest.mark.parametrize("grading", ["uniform", "geometric"])
def test_dot_reductions_match_pairwise_sums(grading, n):
    # the weight-row dot products against the elementwise formulas they
    # replaced (numpy's pairwise sum), on signed data
    from fragdiff.mesh import moment_of, weighted_norm_of, x1_distance_of
    mesh = build_mesh(40.0, n, grading, ratio=1.01 if grading == "geometric" else None)
    xc, dx = mesh.centers, mesh.widths
    rng = np.random.default_rng(n)
    for _ in range(10):
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        for m in (-0.5, 0.0, 1.0, 2.0, 3.0):
            # a signed sum can cancel: its rounding scales with the sum of |terms|
            scale = np.sum(xc ** m * np.abs(u) * dx)
            assert abs(moment_of(mesh, u, m) - np.sum(xc ** m * u * dx)) <= 1e-13 * scale
            if m >= 1.0:
                old = np.sum((xc + xc ** m) * np.abs(u) * dx)
                assert weighted_norm_of(mesh, u, m) == pytest.approx(old, rel=1e-13, abs=0)
        old = np.sum(xc * np.abs(u - v) * dx)
        assert x1_distance_of(mesh, u, v) == pytest.approx(old, rel=1e-13, abs=0)
        weighted = xc * np.abs(u) * dx
        old = np.sum(weighted[mesh.tail_slice()]) / np.sum(weighted)
        assert tail_mass_fraction(State(u, mesh)) == pytest.approx(old, rel=1e-13, abs=0)
