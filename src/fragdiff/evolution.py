"""Time integration of the fragmentation-diffusion dynamics.

Diffusion is treated implicitly (it carries the stiffness), birth and death
explicitly and always at the same time level: evaluating them together keeps
the discrete mass identity exact per step, so the only mass flux is through
the truncation boundary.  Schemes:

    imex_euler          backward-Euler diffusion + forward reaction (default)
    crank_nicolson_imex trapezoidal diffusion + Heun reaction, second order
    fully_implicit      backward Euler on the whole generator (operators.factor)

A `Stepper` factors its system once: the diffusion system of the IMEX
schemes through `Tridiagonal.factor`, the whole generator through `factor`.
`Stepper.step` maps cell values to cell values; `evolve` steps raw arrays
and takes every recorded reduction from weights built once per run.

imex_euler preserves nonnegativity when dt * max(death) <= 1 (the right-hand
side stays nonnegative and the diffusion system is an M-matrix); the default
step size keeps a factor-2 margin.  `positivity_budget` states each scheme's
bound; fully_implicit is unconditionally positivity preserving.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError, PropertyViolation
# re-exported: evolve() records what tail_mass_fraction and x1_distance_of give
from .mesh import (State, moment_of, require_moment_order,  # noqa: F401
                   require_same_mesh, tail_mass_fraction, x1_distance_of)
from .operators import OperatorBundle, factor

SCHEMES = ("imex_euler", "crank_nicolson_imex", "fully_implicit")
POSITIVITY_FLOOR = -1e-13


def _check_step(scheme: str, dt: float | None) -> None:
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if dt is not None and not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")


def step_count(t_end: float, dt: float, name: str = "t_end") -> int:
    """The number of steps of size dt that end at t_end > 0; dt must divide t_end."""
    if not 0 < t_end < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {t_end}")
    n_steps = round(t_end / dt) if dt > 0 else 0     # a dt <= 0 divides nothing
    if abs(n_steps * dt - t_end) > 1e-9 * t_end:
        raise ConfigError(f"{name} = {t_end} is not a multiple of dt = {dt}")
    return n_steps


def positivity_budget(bundle: OperatorBundle, dt: float, scheme: str) -> float:
    """The scheme's positivity budget; warns the caller's caller when it exceeds 1.
    imex_euler keeps nonnegative data nonnegative while dt * max(death) <= 1.  The
    crank_nicolson_imex half step I + dt/2 (L - death) needs dt/2 * max(death -
    diag L) <= 1, its predictor the imex_euler bound; not proven sufficient."""
    cfl = dt * float(np.max(bundle.death))
    half_step = 0.5 * dt * float(np.max(bundle.death - bundle.diffusion.diag))
    budget = {"imex_euler": cfl, "crank_nicolson_imex": max(cfl, half_step)}.get(scheme, 0.0)
    if budget > 1.0:
        warnings.warn(f"positivity budget {budget:.2f} > 1: the explicit part of the "
                      "step may lose positivity", stacklevel=3)
    return budget


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-loop settings.  An explicit dt must divide t_end; without one,
    evolve() takes the fewest equal steps no longer than default_dt."""

    scheme: str = "imex_euler"
    dt: float | None = None
    t_end: float = 1.0
    output_every: int = 1
    moment_order: float = 3.0

    def __post_init__(self):
        _check_step(self.scheme, self.dt)
        # t_end is positive and finite, and an explicit dt divides it
        step_count(self.t_end, self.t_end if self.dt is None else self.dt)
        if self.output_every < 1:
            raise ConfigError(f"output_every must be >= 1, got {self.output_every}")
        require_moment_order(self.moment_order)


def default_dt(bundle: OperatorBundle) -> float:
    """min(0.25 h_min^2, 0.5 / max death): conservative accuracy/positivity cap."""
    h_min = float(np.min(bundle.mesh.widths))
    d_max = float(np.max(bundle.death))
    dt = 0.25 * h_min * h_min
    if d_max > 0:
        dt = min(dt, 0.5 / d_max)
    return dt


class Stepper:
    """Prefactored single-step map for one (bundle, dt, scheme) combination."""

    def __init__(self, bundle: OperatorBundle, dt: float, scheme: str = "imex_euler"):
        _check_step(scheme, dt)
        self.bundle = bundle
        self.dt = dt
        self.scheme = scheme
        self.reaction_cfl = dt * float(np.max(bundle.death))
        self.positivity_budget = positivity_budget(bundle, dt, scheme)
        if scheme == "fully_implicit":
            self._solve = factor(bundle, 1.0, -dt)
        else:   # the diffusion half of the IMEX schemes
            theta = 1.0 if scheme == "imex_euler" else 0.5
            self._solve = bundle.diffusion.factor(1.0, -theta * dt)

    def advance(self, values: np.ndarray) -> np.ndarray:
        dt, bundle, solve = self.dt, self.bundle, self._solve
        if self.scheme == "imex_euler":
            return solve(values + dt * bundle.apply_reaction(values))
        if self.scheme == "crank_nicolson_imex":
            half_l = values + 0.5 * dt * bundle.diffusion.apply(values)
            predictor = solve(half_l + dt * bundle.apply_reaction(values))
            reaction = 0.5 * (bundle.apply_reaction(values)
                              + bundle.apply_reaction(predictor))
            return solve(half_l + dt * reaction)
        return solve(values)

    def step(self, values: np.ndarray) -> np.ndarray:
        """Advance values by dt; nonnegative input stays nonnegative or raises."""
        new = self.advance(values)
        if not np.isfinite(new).all():
            raise NumericsError("integrator produced non-finite values")
        if values.min(initial=0.0) >= 0.0:
            low = float(new.min(initial=0.0))
            if low < POSITIVITY_FLOOR:
                raise PropertyViolation(
                    f"positivity violated: minimum {low:.3e} below {POSITIVITY_FLOOR}")
            if low < 0.0:
                new = np.maximum(new, 0.0)
        return new


@dataclass
class Trajectory:
    """Moment time series (every step) plus sparsely stored full states."""

    times: np.ndarray
    moments: dict
    mass_drift_rel: np.ndarray
    tail_fraction: np.ndarray
    dist_ref: np.ndarray | None
    states: list = field(repr=False)
    final: State
    min_value: float = 0.0
    reaction_cfl: float = 0.0

    @property
    def max_drift(self) -> float:
        return float(np.max(np.abs(self.mass_drift_rel)))


def evolve(bundle: OperatorBundle, initial: State, config: IntegratorConfig,
           reference: State | None = None) -> Trajectory:
    """Integrate to t_end recording moments {0, 1, 2, m} at every step.

    `reference` adds an X1 distance column (convergence diagnostics).  States
    themselves are kept only every `output_every` steps to bound memory.
    """
    require_same_mesh(bundle.mesh, initial, "initial state")
    if reference is not None:
        require_same_mesh(bundle.mesh, reference, "reference state")
    dt = config.dt if config.dt is not None else \
        config.t_end / math.ceil(config.t_end / default_dt(bundle))
    n_steps = step_count(config.t_end, dt)
    stepper = Stepper(bundle, dt, config.scheme)
    mesh = bundle.mesh
    xc, dx = mesh.centers, mesh.widths
    orders = (0.0, 1.0, 2.0, float(config.moment_order))
    powers = np.stack([xc ** m for m in orders])     # recording weights
    weighted, buffer, tail_cells = np.empty_like(powers), np.empty_like(xc), mesh.tail_slice()

    times, tail = np.empty(n_steps + 1), np.empty(n_steps + 1)
    sums = np.empty((len(orders), n_steps + 1))
    dist = np.empty(n_steps + 1) if reference is not None else None

    def record(k: int, values: np.ndarray, nonneg: bool):
        np.multiply(np.multiply(powers, values, out=weighted), dx, out=weighted)
        sums[:, k] = weighted.sum(axis=1)
        absolute = weighted[1] if nonneg else xc * np.abs(values) * dx
        total = sums[1, k] if nonneg else absolute.sum()    # |values| = values if nonneg
        tail[k] = 0.0 if total == 0.0 else absolute[tail_cells].sum() / total
        if dist is not None:
            gap = np.abs(np.subtract(values, reference.values, out=buffer), out=buffer)
            dist[k] = np.multiply(np.multiply(gap, xc, out=gap), dx, out=gap).sum()

    values, times[0] = initial.values, initial.time
    low = min_seen = float(values.min(initial=0.0))
    record(0, values, low >= 0.0)
    stored = []
    for k in range(1, n_steps + 1):
        values, times[k] = stepper.step(values), times[k - 1] + dt
        if low < 0.0:   # signed data; step() keeps nonnegative data nonnegative
            min_seen = min(min_seen, low := float(values.min(initial=0.0)))
        record(k, values, low >= 0.0)
        if k % config.output_every == 0 or k == n_steps:
            stored.append(State(values, mesh, float(times[k])))

    mass0 = moment_of(mesh, initial.values, 1.0)
    drift = np.zeros(n_steps + 1) if mass0 == 0.0 else (sums[1] - mass0) / mass0
    return Trajectory(times=times, moments=dict(zip(orders, sums)), mass_drift_rel=drift,
                      tail_fraction=tail, dist_ref=dist, states=stored, final=stored[-1],
                      min_value=min_seen, reaction_cfl=stepper.reaction_cfl)
