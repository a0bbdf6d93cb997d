"""Stationary profiles: direct solve and the vanishing-regularization sequence.

The kernel of the generator is one-dimensional, so the steady state is the
solution of the singular system G psi = 0 pinned by the mass constraint
sum_i xbar_i psi_i dx_i = mass: one generator row (the tail cell, where the
profile is numerically zero) is replaced by the mass row, and the system is
solved by `operators.factor` (banded in O(N) for power-law kernels).

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

from .coefficients import PowerRate, RegularizedRate, rate_tail_positive
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
    return _steady(bundle, factor(bundle, 0.0, 1.0, pin=True), normalize_mass)


def _steady(bundle: OperatorBundle, pinned: Callable, normalize_mass: float) -> SteadyResult:
    # pinned solves G psi = rhs off the last cell, with the mass rhs[-1] there
    psi = pinned(np.append(np.zeros(bundle.mesh.n_cells - 1), normalize_mass))
    peak = float(np.max(np.abs(psi))) or 1.0
    low = float(psi.min())
    if low < -NEGATIVITY_TOL * peak:
        raise PropertyViolation(
            f"steady profile has negative part {low:.3e} (peak {peak:.3e}); "
            "kernel is not numerically one-dimensional")
    residual = x1_distance_of(bundle.mesh, bundle.apply(psi), 0.0)
    got_mass = moment_of(bundle.mesh, psi, 1.0)
    state = State(values=psi, mesh=bundle.mesh, time=float("inf"))
    return SteadyResult(state=state, residual_x1=residual, mass=got_mass,
                        min_value=low)


def lift_response(bundle: OperatorBundle, base_steady: np.ndarray,
                  pinned: Callable) -> np.ndarray:
    """First-order steady-state response to the rate lift a -> a + eps * x.

    Solves G chi = -(E psi) with zero mass by `pinned = factor(bundle, 0, 1, pin=True)`,
    where E is the reaction operator of the pure lift direction (rate x, same kernel).
    """
    lift = assemble_birth(bundle.mesh, PowerRate(1.0), bundle.kernel)
    forcing = lift.apply(base_steady) - lift.death * base_steady
    return pinned(np.append(-forcing[:-1], 0.0))


@dataclass(frozen=True)
class RegularizedResult:
    n_values: tuple
    states: list
    pairwise_x1: np.ndarray
    pairwise_xm: np.ndarray
    residual_base_x1: np.ndarray
    limit: State
    limit_residual_x1: float
    cauchy_ok: bool
    distance_ratios: np.ndarray = field(repr=False, default=None)


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

    Preconditions: the base rate must stay positive on the outer decade of
    the domain (otherwise no stationary profile is expected at all).

    The 1/n rate is asymptotic: consecutive factor-4 distance ratios approach
    4 only once x/n is small where the mass sits (2.51 at n = 4 for mitosis).
    """
    seq = regularization_indices(n_sequence)
    if not rate_tail_positive(bundle.rate, bundle.mesh.x_max):
        raise PropertyViolation(
            "base rate vanishes on the outer decade; stationary profile "
            "hypotheses are not met")
    mesh = bundle.mesh
    states, residuals = [], []
    for n in seq:
        rate = RegularizedRate(bundle.rate, n)
        lifted = replace(bundle, rate=rate, birth=assemble_birth(mesh, rate, bundle.kernel))
        res = solve_steady(lifted)
        states.append(res.state)
        residuals.append(x1_distance_of(mesh, bundle.apply(res.state.values), 0.0))
    pair_x1 = np.array([x1_distance_of(mesh, a.values, b.values)
                        for a, b in zip(states, states[1:])])
    pair_xm = np.array([weighted_norm_of(mesh, a.values - b.values, PAIRWISE_ORDER)
                        for a, b in zip(states, states[1:])])
    ratios = pair_x1[:-1] / pair_x1[1:]
    cauchy_ok = bool(np.all(np.diff(pair_x1) < 0.0))
    if not cauchy_ok:
        raise NumericsError(
            "regularized sequence is not contracting; no convergence "
            f"(pairwise X1 distances {pair_x1})")

    # remove the exact 1/n term, then Richardson on the n^-2 remainder
    pinned = factor(bundle, 0.0, 1.0, pin=True)
    chi = lift_response(bundle, _steady(bundle, pinned, 1.0).state.values, pinned)
    corrected = [st.values - chi / n for st, n in zip(states, seq)]
    richardson = (seq[-1] / seq[-2]) ** 2 - 1.0
    limit_values = corrected[-1] + (corrected[-1] - corrected[-2]) / richardson
    limit_residual = x1_distance_of(mesh, bundle.apply(limit_values), 0.0)
    limit = State(values=limit_values, mesh=mesh, time=float("inf"))
    return RegularizedResult(n_values=seq, states=states, pairwise_x1=pair_x1,
                             pairwise_xm=pair_xm,
                             residual_base_x1=np.asarray(residuals),
                             limit=limit, limit_residual_x1=limit_residual,
                             cauchy_ok=cauchy_ok, distance_ratios=ratios)
