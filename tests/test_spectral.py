from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import eig, svdvals

from fragdiff import (ConfigError, ConstantRate, IntegratorConfig, NumericsError, PowerLawKernel,
                      PowerRate, PropertyViolation, State, assemble_bundle,
                      build_mesh, decay_rate, dominant_eigenpair, evolve,
                      mass, moment, solve_steady, spectral_gap,
                      subdominant_spectrum, x1_distance)
from conftest import exact_equilibrium


def test_dominant_eigenpair_mitosis(mitosis_512):
    lam, psi = dominant_eigenpair(mitosis_512)
    scale = float(np.max(np.abs(mitosis_512.dense())))
    assert abs(lam) <= 1e-8 * scale
    mesh = mitosis_512.mesh
    err = np.sum(mesh.centers * np.abs(psi.values - exact_equilibrium(mesh.centers))
                 * mesh.widths)
    assert err < 1e-3          # discretization-level agreement
    steady = solve_steady(mitosis_512).state
    assert x1_distance(psi, steady) <= 1e-8


def test_dominant_eigenpair_without_fragmentation(mesh_512):
    # pure absorption-free diffusion on the truncated domain: no conserved
    # profile survives, the leading mode decays
    bundle = assemble_bundle(mesh_512, ConstantRate(1e-14), PowerLawKernel(0.0),
                             right_bc="dirichlet")
    lam, _ = dominant_eigenpair(bundle)
    assert lam < 0.0


@pytest.mark.parametrize("value", [1e-14, 0.05])
def test_dominant_eigenpair_matches_dense_eig(mesh_512, value):
    # lambda0 is well away from 0 here, so inverse iteration converges only
    # linearly, at |lambda0 / lambda1| per step
    bundle = assemble_bundle(mesh_512, ConstantRate(value), PowerLawKernel(0.0),
                             right_bc="dirichlet")
    lam, psi = dominant_eigenpair(bundle)
    values, vectors = eig(bundle.dense())
    top = int(np.argmax(values.real))
    expected = State(values=vectors[:, top].real, mesh=mesh_512)
    expected = expected.copy_with(expected.values / moment(expected, 1.0))
    assert abs(lam - values[top].real) <= 1e-8 * abs(values[top].real)
    assert x1_distance(psi, expected) <= 1e-9


def test_spectral_gap_positive_and_stable():
    gaps = {}
    for n in (512, 1024):
        mesh = build_mesh(40.0, n)
        bundle = assemble_bundle(mesh, PowerRate(1.0), PowerLawKernel(0.0))
        gaps[n] = spectral_gap(bundle, k=8)
    assert gaps[512] > 0
    assert abs(gaps[512] - gaps[1024]) / gaps[1024] <= 0.05


def test_subdominant_modes_decay(linear_rate_512):
    values = subdominant_spectrum(linear_rate_512, k=8)
    assert values.size > 0
    assert np.all(values.real < 0)


def test_linear_rate_spectrum_matches_airy_zeros_second_order():
    # a = x, b = 2/y: the eigenfunctions are -(x + a_k) Ai(x + a_k) with
    # eigenvalues a_k, the zeros of Ai; truncating at x = 20 moves them far
    # less than the O(h^2) error
    from scipy.special import ai_zeros
    zeros = ai_zeros(4)[0]
    errors = []
    for n in (512, 1024, 2048, 4096):
        bundle = assemble_bundle(build_mesh(20.0, n), PowerRate(1.0), PowerLawKernel(0.0))
        errors.append(np.abs(subdominant_spectrum(bundle, k=4) - zeros))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all(ratios >= 3.9), ratios        # O(h^2) for k = 1..4
    assert errors[-1][0] <= 2e-6, errors[-1]


def test_mitosis_spectrum_matches_mellin_closed_form():
    """a = 1, b = 2/y: the subdominant eigenvalues are -k/(k+1), k = 1, 2, ...

    Empirical oracle: the closed form comes from the Mellin moments of the
    model and is not proven here.  The error is set by the truncation x_max,
    not by the cells (N = 2048 and 4096 agree at x_max = 40):

        x_max   k = 1    k = 2    k = 3    k = 4
        40      1.7e-8   9.3e-5   6.3e-3   4.4e-2
        80      2.9e-11  4.6e-11  3.9e-8   2.7e-5   (N = 4096)

    so the presets' domain pollutes every mode past the gap.
    """
    bundle = assemble_bundle(build_mesh(80.0, 4096), ConstantRate(1.0), PowerLawKernel(0.0))
    values = subdominant_spectrum(bundle, k=4)
    k = np.arange(1, 5)
    assert np.all(values.imag == 0.0), values
    errors = np.abs(values.real + k / (k + 1.0))
    assert np.all(errors <= [1e-10, 1e-10, 1e-7, 1e-4]), errors


def test_subdominant_spectrum_gives_k_values_or_refuses():
    # Arnoldi finds at most n_cells - 2 eigenvalues, and the dominant one is dropped
    bundle = assemble_bundle(build_mesh(20.0, 12), PowerRate(1.0), PowerLawKernel(0.0))
    assert subdominant_spectrum(bundle, k=9).size == 9
    with pytest.raises(ConfigError, match=r"k must be <= n_cells - 3 = 9, got 10"):
        subdominant_spectrum(bundle, k=10)


def test_spectral_gap_requires_positive_rate(mesh_512):
    from fragdiff import TableRate
    vanishing = TableRate(np.array([0.0, 40.0]), np.array([0.0, 0.0]))
    bundle = assemble_bundle(mesh_512, vanishing, PowerLawKernel(0.0))
    with pytest.raises(PropertyViolation):
        spectral_gap(bundle)


def test_spectral_gap_requires_a_positive_rate_at_every_cell_centre(mesh_512):
    # zero at the centre 30.04 only: a geometric sample of the rate steps over it
    from fragdiff import TableRate
    notch = TableRate([0.0, 29.9, 29.95, 30.05, 30.1, 40.0], [1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    assert notch.tail_infimum(1e-6, mesh_512.x_max) > 0.9
    bundle = assemble_bundle(mesh_512, notch, PowerLawKernel(0.0))
    with pytest.raises(PropertyViolation, match="strictly positive rate"):
        spectral_gap(bundle)


def test_dominant_eigenpair_that_does_not_settle_raises(monkeypatch, mitosis_512):
    monkeypatch.setattr("fragdiff.spectral._MAX_ITERATIONS", 1)
    with pytest.raises(NumericsError, match="did not settle in 1 iterations"):
        dominant_eigenpair(mitosis_512)


def test_failed_arnoldi_raises_numerics_error(monkeypatch, linear_rate_512):
    def fail(*args, **kwargs):
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(spla, "eigs", fail)
    with pytest.raises(NumericsError, match="subdominant eigensolve failed"):
        subdominant_spectrum(linear_rate_512)


def test_spectral_gap_rejects_a_subdominant_mode_that_does_not_decay(monkeypatch,
                                                                     linear_rate_512):
    monkeypatch.setattr("fragdiff.spectral.subdominant_spectrum",
                        lambda bundle, k: np.array([1e-3 + 0j, -1.0 + 0j]))
    with pytest.raises(PropertyViolation, match="nonpositive spectral gap -1.000e-03"):
        spectral_gap(linear_rate_512)


def test_decay_rate_matches_gap(linear_rate_512):
    mesh = linear_rate_512.mesh
    steady = solve_steady(linear_rate_512).state
    f = np.exp(-mesh.centers)
    f /= np.sum(mesh.centers * f * mesh.widths)
    config = IntegratorConfig(dt=0.005, t_end=25.0, output_every=200)
    trajectory = evolve(linear_rate_512, State(values=f, mesh=mesh), config,
                        reference=steady)
    fit = decay_rate(trajectory, steady)
    assert fit.status == "ok"
    assert fit.nu_hat > 0
    assert fit.r_squared >= 0.999
    gap = spectral_gap(linear_rate_512, k=6)
    assert abs(fit.nu_hat - gap) / gap <= 0.1


def test_decay_rate_not_applicable_at_equilibrium(linear_rate_512):
    steady = solve_steady(linear_rate_512).state
    config = IntegratorConfig(dt=0.01, t_end=1.0)
    trajectory = evolve(linear_rate_512, steady, config, reference=steady)
    fit = decay_rate(trajectory, steady)
    assert fit.status in ("not_applicable", "no_decay")


@pytest.mark.parametrize("tail, status", [
    (np.full(20, 1e-12), "not_applicable"),                 # below the window at once
    (np.geomspace(1e-4, 1e-3, 20), "no_decay"),             # rising inside it
], ids=["not-applicable", "no-decay"])
def test_decay_rate_status_from_the_distance_series(linear_rate_512, tail, status):
    steady = solve_steady(linear_rate_512).state
    trajectory = evolve(linear_rate_512, steady, IntegratorConfig(dt=0.01, t_end=0.2),
                        reference=steady)
    dist = np.r_[1.0, tail]
    fit = decay_rate(replace(trajectory, times=0.01 * np.arange(dist.size), dist_ref=dist),
                     steady)
    assert fit.status == status and fit.nu_hat is None


def test_decay_rate_threshold_is_relative_to_the_x1_norm(linear_rate_512):
    # d = d0 e^{-t}: fitted once d0 exceeds 1e-8 |ref|_X1, skipped below it
    steady = solve_steady(linear_rate_512).state
    trajectory = evolve(linear_rate_512, steady, IntegratorConfig(dt=0.01, t_end=0.1),
                        reference=steady)
    mesh, times = steady.mesh, np.linspace(0.0, 25.0, 101)
    ref_x1 = float(np.sum(mesh.centers * np.abs(steady.values) * mesh.widths))
    fits = [decay_rate(replace(trajectory, times=times, dist_ref=scale * ref_x1 * np.exp(-times)),
                       steady) for scale in (1.5e-8, 0.5e-8)]
    assert fits[0].status == "ok" and fits[0].nu_hat == pytest.approx(1.0, rel=1e-9)
    assert fits[1].status == "not_applicable"


def test_decay_rate_needs_a_run_with_the_reference(linear_rate_512):
    steady = solve_steady(linear_rate_512).state
    trajectory = evolve(linear_rate_512, steady, IntegratorConfig(dt=0.01, t_end=0.1))
    with pytest.raises(ConfigError, match="no reference distances"):
        decay_rate(trajectory, steady)


def test_limit_depends_on_initial_mass_only(linear_rate_512):
    # two different shapes with the same mass end at the same profile
    mesh = linear_rate_512.mesh
    xc = mesh.centers
    shapes = [np.exp(-xc), xc ** 2 * np.exp(-2.0 * xc)]
    finals = []
    config = IntegratorConfig(dt=0.01, t_end=30.0, output_every=500)
    for shape in shapes:
        f = shape / np.sum(xc * shape * mesh.widths)
        trajectory = evolve(linear_rate_512, State(values=f, mesh=mesh), config)
        assert mass(trajectory.final) == pytest.approx(1.0, abs=1e-9)
        finals.append(trajectory.final)
    assert x1_distance(finals[0], finals[1]) <= 1e-6


def test_projection_identity(linear_rate_512, rng):
    # long-time limit is the steady profile scaled by the initial mass
    mesh = linear_rate_512.mesh
    steady = solve_steady(linear_rate_512).state
    f = rng.random(mesh.n_cells) * np.exp(-0.5 * mesh.centers)
    state = State(values=f, mesh=mesh)
    m0 = mass(state)
    config = IntegratorConfig(dt=0.01, t_end=30.0, output_every=500)
    trajectory = evolve(linear_rate_512, state, config)
    projected = steady.copy_with(steady.values * m0)
    assert x1_distance(trajectory.final, projected) <= 1e-6 * max(m0, 1.0)


def kernel_dimension_check(bundle, gap_estimate: float) -> dict:
    """Dense oracle: smallest two singular values of the generator; the first
    should vanish under refinement while the second stays on the order of the gap."""
    svals = svdvals(bundle.dense())
    return {"smallest": float(svals[-1]), "second_smallest": float(svals[-2]),
            "separated": bool(svals[-2] > 0.1 * gap_estimate)}


def test_near_null_space_is_one_dimensional(mitosis_512):
    gap = spectral_gap(mitosis_512, k=6)
    check = kernel_dimension_check(mitosis_512, gap)
    assert check["separated"]
    assert check["smallest"] < 1e-8 * check["second_smallest"]


def test_spectral_gap_reproducible(linear_rate_1024):
    # ARPACK starts from a fixed vector, so repeated calls agree bit for bit
    first = spectral_gap(linear_rate_1024, k=8)
    assert spectral_gap(linear_rate_1024, k=8) == first
    assert abs(first - 2.33801) <= 1e-5
