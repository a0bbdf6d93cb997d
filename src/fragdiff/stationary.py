"""Stationary profiles: direct solve and the vanishing-regularization sequence.

The kernel of the generator is one-dimensional, so the steady state solves
G psi = 0 off the tail cell (where the profile is numerically zero) with mass
sum_i xbar_i psi_i dx_i = mass.  That system is G plus a rank-one change, so
by Sherman-Morrison psi is the tail response u = G^-1 e_{N-1} scaled to the
mass, from `operators.factor` (banded in O(N) for power-law kernels).

For rates that are merely bounded below, the steady state is reached as the
limit of profiles for lifted rates a(x) + x/n.  The sequence converges like
1/n; the reported limit removes the first-order term with the exact response
of the base steady state to the lift direction and Richardson-extrapolates
the quadratic remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .coefficients import PowerRate, RegularizedRate
from .errors import ConfigError, NumericsError, PropertyViolation
from .mesh import State, moment_of, require_count, weighted_norm_of, x1_distance_of
from .operators import OperatorBundle, assemble_birth, factor

NEGATIVITY_TOL = 1e-10
PAIRWISE_ORDER = 3.0    # m of the X_1 + X_m norm in RegularizedResult.pairwise_xm


@dataclass(frozen=True)
class SteadyResult:
    state: State
    residual_x1: float
    mass: float
    min_value: float


def require_mass(mass: float) -> None:
    """A mass to normalise a profile to must be finite and nonnegative."""
    if not 0 <= mass < np.inf:
        raise ConfigError(f"mass must be finite and >= 0, got {mass}")


def solve_steady(bundle: OperatorBundle, normalize_mass: float = 1.0) -> SteadyResult:
    """Mass-normalized steady profile with its generator residual.

    Raises PropertyViolation when the solution dips below -1e-10 times its
    peak: the one-dimensional-kernel structure did not survive discretization
    (coefficients outside the uniqueness hypotheses, or a too-coarse mesh).
    """
    require_mass(normalize_mass)
    return _steady(bundle, factor(bundle, 0.0, 1.0), normalize_mass)


def _steady(bundle: OperatorBundle, solve: Callable, normalize_mass: float) -> SteadyResult:
    u = solve(np.append(np.zeros(bundle.mesh.n_cells - 1), 1.0))     # G u = e_{N-1}
    u_mass = moment_of(bundle.mesh, u, 1.0)
    if u_mass == 0.0 or not np.isfinite(u_mass):
        raise NumericsError(f"tail response has mass {u_mass}; no steady profile")
    psi = u * (normalize_mass / u_mass)
    if not np.all(np.isfinite(psi)):
        raise NumericsError("steady profile is not finite")
    peak = float(np.max(np.abs(psi))) or 1.0
    low = float(psi.min())
    if low < -NEGATIVITY_TOL * peak:
        raise PropertyViolation(
            f"steady profile has negative part {low:.3e} (peak {peak:.3e}); "
            "kernel is not numerically one-dimensional")
    return SteadyResult(state=State(values=psi, mesh=bundle.mesh, time=float("inf")),
                        residual_x1=x1_distance_of(bundle.mesh, bundle.apply(psi), 0.0),
                        mass=moment_of(bundle.mesh, psi, 1.0), min_value=low)


def lift_response(bundle: OperatorBundle, base_steady: np.ndarray,
                  solve: Callable) -> np.ndarray:
    """First-order steady-state response to the rate lift a -> a + eps * x.

    chi solves G chi = -(E psi) off the last row with zero mass, where psi is
    `base_steady` and E the reaction operator of the pure lift direction (rate
    x, same kernel): with `solve = factor(bundle, 0, 1)` and m = xbar dx,
    w = G^-1 (-(E psi)) and chi = w - psi (m . w) / (m . psi).
    """
    mesh = bundle.mesh
    lift = assemble_birth(mesh, PowerRate(1.0), bundle.kernel)
    w = solve(lift.death * base_steady - lift.apply(base_steady))
    return w - base_steady * (moment_of(mesh, w, 1.0) / moment_of(mesh, base_steady, 1.0))


@dataclass(frozen=True)
class RegularizedResult:
    n_values: tuple
    states: list
    pairwise_x1: np.ndarray
    pairwise_xm: np.ndarray
    residual_base_x1: np.ndarray
    limit: State
    limit_residual_x1: float
    distance_ratios: np.ndarray = field(repr=False)


def regularization_indices(n_sequence) -> tuple:
    """The lift indices n as a tuple: at least two, positive and increasing."""
    seq = tuple(require_count("n_sequence", n, 1) for n in n_sequence)
    if len(seq) < 2 or any(b <= a for a, b in zip(seq, seq[1:])):
        raise ConfigError(
            f"n_sequence must be two or more increasing positive integers, got {seq}")
    return seq


def solve_steady_regularized(bundle: OperatorBundle,
                             n_sequence=(4, 16, 64, 256)) -> RegularizedResult:
    """Unit-mass steady profiles for lifted rates a + x/n and their extrapolated limit.

    Precondition: the base rate is positive on a sample of the outer decade of
    the domain, else PropertyViolation (no stationary profile is expected).

    The 1/n rate is asymptotic: consecutive factor-4 distance ratios approach
    4 only once x/n is small where the mass sits (2.51 at n = 4 for mitosis).
    """
    seq = regularization_indices(n_sequence)
    # weaker than the paper's liminf a > 0 at infinity: (1 + x)^-2 passes it
    if not bundle.rate.tail_infimum(bundle.mesh.x_max / 10.0, bundle.mesh.x_max) > 0.0:
        raise PropertyViolation(
            "base rate vanishes on the outer decade; stationary profile "
            "hypotheses are not met")
    mesh = bundle.mesh
    states, residuals = [], []
    for n in seq:
        rate = RegularizedRate(bundle.rate, n)
        lifted = replace(bundle, rate=rate, birth=assemble_birth(mesh, rate, bundle.kernel))
        states.append(solve_steady(lifted).state)
        residuals.append(x1_distance_of(mesh, bundle.apply(states[-1].values), 0.0))
    pair_x1 = np.array([x1_distance_of(mesh, a.values, b.values)
                        for a, b in zip(states, states[1:])])
    pair_xm = np.array([weighted_norm_of(mesh, a.values - b.values, PAIRWISE_ORDER)
                        for a, b in zip(states, states[1:])])
    if not np.all(np.diff(pair_x1) < 0.0):
        raise NumericsError(
            "regularized sequence is not contracting; no convergence "
            f"(pairwise X1 distances {pair_x1})")

    # remove the exact 1/n term, then Richardson on the n^-2 remainder
    solve = factor(bundle, 0.0, 1.0)
    chi = lift_response(bundle, _steady(bundle, solve, 1.0).state.values, solve)
    corrected = [st.values - chi / n for st, n in zip(states, seq)]
    richardson = (seq[-1] / seq[-2]) ** 2 - 1.0
    limit_values = corrected[-1] + (corrected[-1] - corrected[-2]) / richardson
    limit_residual = x1_distance_of(mesh, bundle.apply(limit_values), 0.0)
    limit = State(values=limit_values, mesh=mesh, time=float("inf"))
    return RegularizedResult(n_values=seq, states=states, pairwise_x1=pair_x1,
                             pairwise_xm=pair_xm, residual_base_x1=np.asarray(residuals),
                             limit=limit, limit_residual_x1=limit_residual,
                             distance_ratios=pair_x1[:-1] / pair_x1[1:])
