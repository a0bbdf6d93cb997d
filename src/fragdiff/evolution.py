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

imex_euler preserves nonnegativity when dt * max(death) <= 1 (the right-hand
side stays nonnegative and the diffusion system is an M-matrix); the default
step size keeps a factor-2 margin.  fully_implicit is unconditionally
positivity preserving.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError, PropertyViolation
from .mesh import (State, mass, moment_of, require_moment_order,
                   tail_mass_fraction, x1_distance_of)
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


def warn_explicit_death(cfl: float) -> None:
    """A forward-Euler death step keeps nonnegative data nonnegative only
    while cfl = dt * max(death) <= 1; warn the caller's caller beyond that."""
    if cfl > 1.0:
        warnings.warn(f"dt * max(death) = {cfl:.2f} > 1: explicit reaction "
                      "may lose positivity", stacklevel=3)


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
        if scheme == "imex_euler":
            warn_explicit_death(self.reaction_cfl)
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

    def step(self, state: State) -> State:
        new = self.advance(state.values)
        if not np.all(np.isfinite(new)):
            raise NumericsError("integrator produced non-finite values")
        if np.all(state.values >= 0.0):
            low = float(new.min(initial=0.0))
            if low < POSITIVITY_FLOOR:
                raise PropertyViolation(
                    f"positivity violated: minimum {low:.3e} below {POSITIVITY_FLOOR}")
            if low < 0.0:
                new = np.maximum(new, 0.0)
        return state.copy_with(new, time=state.time + self.dt)


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
    dt = config.dt if config.dt is not None else \
        config.t_end / math.ceil(config.t_end / default_dt(bundle))
    n_steps = step_count(config.t_end, dt)
    stepper = Stepper(bundle, dt, config.scheme)
    mesh = bundle.mesh
    orders = (0.0, 1.0, 2.0, float(config.moment_order))

    times = np.empty(n_steps + 1)
    series = {m: np.empty(n_steps + 1) for m in orders}
    drift = np.empty(n_steps + 1)
    tail = np.empty(n_steps + 1)
    dist = np.empty(n_steps + 1) if reference is not None else None

    state = initial
    mass0 = mass(initial)
    stored = []
    min_seen = float(initial.values.min(initial=0.0))

    def record(k: int, st: State):
        times[k] = st.time
        for m in orders:
            series[m][k] = moment_of(mesh, st.values, m)
        drift[k] = 0.0 if mass0 == 0.0 else (series[1.0][k] - mass0) / mass0
        tail[k] = tail_mass_fraction(st)
        if dist is not None:
            dist[k] = x1_distance_of(mesh, st.values, reference.values)

    record(0, state)
    for k in range(1, n_steps + 1):
        state = stepper.step(state)
        min_seen = min(min_seen, float(state.values.min(initial=0.0)))
        record(k, state)
        if k % config.output_every == 0:
            stored.append(state)
    if not stored or stored[-1] is not state:
        stored.append(state)

    return Trajectory(times=times, moments=series, mass_drift_rel=drift,
                      tail_fraction=tail, dist_ref=dist, states=stored,
                      final=state, min_value=min_seen,
                      reaction_cfl=stepper.reaction_cfl)
