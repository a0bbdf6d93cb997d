"""Stationary profiles: direct solve and the vanishing-regularization sequence.

The kernel of the generator is one-dimensional, so the steady state is the
solution of the singular system G psi = 0 pinned by the mass constraint
sum_i xbar_i psi_i dx_i = mass.  By default one generator row (the tail
cell, where the profile is numerically zero) is replaced by the mass row;
a least-squares bordered solve is available as a fallback.

For rates that are merely bounded below, the steady state is reached as the
limit of profiles for lifted rates a(x) + x/n.  The sequence converges like
1/n; the reported limit removes the first-order term with the exact response
of the base steady state to the lift direction and Richardson-extrapolates
the quadratic remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .coefficients import PowerRate, RegularizedRate, rate_tail_positive
from .errors import ConfigError, NumericsError, PropertyViolation
from .mesh import State, weighted_norm_of, x1_distance_of
from .operators import OperatorBundle, assemble_birth

NEGATIVITY_TOL = 1e-10


@dataclass(frozen=True)
class SteadyResult:
    state: State
    residual_x1: float
    mass: float
    min_value: float
    method: str


def _mass_row(bundle: OperatorBundle) -> np.ndarray:
    return bundle.mesh.centers * bundle.mesh.widths


def _solve_pinned(bundle: OperatorBundle, rhs_interior: np.ndarray,
                  target_mass: float, method: str) -> np.ndarray:
    """Solve G psi = rhs subject to the mass constraint."""
    dense = bundle.dense()
    row = _mass_row(bundle)
    if method == "row_replace":
        system = dense.copy()
        system[-1, :] = row
        rhs = rhs_interior.copy()
        rhs[-1] = target_mass
        try:
            return sla.solve(system, rhs)
        except sla.LinAlgError as exc:
            raise NumericsError(f"pinned steady system is singular: {exc}") from exc
    if method == "lstsq":
        n = dense.shape[0]
        stacked = np.vstack([dense, row[None, :] * n])
        rhs = np.concatenate([rhs_interior, [target_mass * n]])
        sol, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
        return sol
    raise ConfigError(f"unknown steady method {method!r}")


def solve_steady(bundle: OperatorBundle, normalize_mass: float = 1.0,
                 method: str = "row_replace") -> SteadyResult:
    """Mass-normalized steady profile with its generator residual.

    Raises PropertyViolation when the solution dips below -1e-10 times its
    peak: the one-dimensional-kernel structure did not survive discretization
    (coefficients outside the uniqueness hypotheses, or a too-coarse mesh).
    """
    psi = _solve_pinned(bundle, np.zeros(bundle.mesh.n_cells), normalize_mass, method)
    peak = float(np.max(np.abs(psi))) or 1.0
    low = float(psi.min())
    if low < -NEGATIVITY_TOL * peak:
        raise PropertyViolation(
            f"steady profile has negative part {low:.3e} (peak {peak:.3e}); "
            "kernel is not numerically one-dimensional")
    residual = float(np.sum(bundle.mesh.centers * np.abs(bundle.apply(psi))
                            * bundle.mesh.widths))
    got_mass = float(np.dot(_mass_row(bundle), psi))
    state = State(values=psi, mesh=bundle.mesh, time=float("inf"))
    return SteadyResult(state=state, residual_x1=residual, mass=got_mass,
                        min_value=low, method=method)


def lift_response(bundle: OperatorBundle, base_steady: np.ndarray) -> np.ndarray:
    """First-order steady-state response to the rate lift a -> a + eps * x.

    Solves G chi = -(E psi) with zero mass, where E is the reaction operator
    of the pure lift direction (rate x, same kernel).
    """
    lift = assemble_birth(bundle.mesh, PowerRate(1.0), bundle.kernel)
    forcing = lift.apply(base_steady) - lift.death * base_steady
    return _solve_pinned(bundle, -forcing, 0.0, "row_replace")


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
    seq = tuple(int(n) for n in n_sequence)
    if len(seq) < 2 or any(n < 1 for n in seq) or any(
            b <= a for a, b in zip(seq, seq[1:])):
        raise ConfigError(
            f"n_sequence must be two or more increasing positive integers, got {seq}")
    return seq


def solve_steady_regularized(bundle: OperatorBundle, n_sequence=(4, 16, 64, 256),
                             m: float = 3.0, normalize_mass: float = 1.0) -> RegularizedResult:
    """Steady profiles for lifted rates a + x/n and their extrapolated limit.

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
        lifted = OperatorBundle(
            mesh=mesh,
            diffusion=bundle.diffusion,
            birth=assemble_birth(mesh, RegularizedRate(bundle.rate, n), bundle.kernel),
            rate=RegularizedRate(bundle.rate, n),
            kernel=bundle.kernel,
            right_bc=bundle.right_bc,
            diffusion_rate=bundle.diffusion_rate)
        res = solve_steady(lifted, normalize_mass)
        states.append(res.state)
        residuals.append(float(np.sum(mesh.centers * np.abs(bundle.apply(res.state.values))
                                      * mesh.widths)))
    pair_x1 = np.array([x1_distance_of(mesh, a.values, b.values)
                        for a, b in zip(states, states[1:])])
    pair_xm = np.array([weighted_norm_of(mesh, a.values - b.values, m)
                        for a, b in zip(states, states[1:])])
    ratios = pair_x1[:-1] / pair_x1[1:] if pair_x1.size > 1 else np.array([])
    cauchy_ok = bool(np.all(np.diff(pair_x1) < 0.0)) if pair_x1.size > 1 else True
    if not cauchy_ok:
        raise NumericsError(
            "regularized sequence is not contracting; no convergence "
            f"(pairwise X1 distances {pair_x1})")

    # remove the exact 1/n term, then Richardson on the n^-2 remainder
    base = solve_steady(bundle, normalize_mass)
    chi = lift_response(bundle, base.state.values)
    corrected = [st.values - chi / n for st, n in zip(states, seq)]
    factor = (seq[-1] / seq[-2]) ** 2 - 1.0
    limit_values = corrected[-1] + (corrected[-1] - corrected[-2]) / factor
    limit_residual = float(np.sum(mesh.centers * np.abs(bundle.apply(limit_values))
                                  * mesh.widths))
    limit = State(values=limit_values, mesh=mesh, time=float("inf"))
    return RegularizedResult(n_values=seq, states=states, pairwise_x1=pair_x1,
                             pairwise_xm=pair_xm,
                             residual_base_x1=np.asarray(residuals),
                             limit=limit, limit_residual_x1=limit_residual,
                             cauchy_ok=cauchy_ok, distance_ratios=ratios)
