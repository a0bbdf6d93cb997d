"""Time integration of the fragmentation-diffusion dynamics.

Diffusion is treated implicitly (it carries the stiffness), birth and death
explicitly and always at the same time level: evaluating them together keeps
the discrete mass identity exact per step, so the only mass flux is through
the truncation boundary.  Schemes:

    imex_euler      backward-Euler diffusion + forward reaction (default)
    fully_implicit  backward Euler on the whole generator (operators.factor)

A `Stepper` builds its step map once in `operators`: imex_euler's by
`imex_step` (one `pttrs`, or one product with a custom kernel's matrix M),
fully_implicit's as a solve through `factor`.

`Stepper.fill`, the one stepping loop, writes each state of a block into its
row and checks the block once: a non-finite state raises NumericsError, a
negative state after a nonnegative one PropertyViolation, at any data scale;
nothing is clamped.  Rounding is monotone, so no run within its positivity
budget raises on a sign.  imex_euler with dt * max(death) <= 1 has keep >= 0:
its right-hand side is sums and products of nonnegative numbers, which `pttrs`
only adds and divides (L D L^T has D > 0, L <= 0 off its diagonal), and M,
that step applied to each column of I, is >= 0.  fully_implicit's I - dt G is
a Z-matrix with a positive diagonal in the (phi_i, s_i) layout: when `dgbtrf`
interchanges no row (the `dtbsv` path), L and U keep off-diagonals <= 0, and
with diag(U) > 0 the sweeps add and divide nonnegative numbers.  `dgbtrf`
pivoted only at dt = 1e4 in a survey, with no dip there either.
`evolve` steps in blocks of 256 KB, never fewer than RECORD_BLOCK rows, so a
small mesh pays the per-block calls once per hundreds of states.  It takes
every recorded reduction of a block as one `np.vecdot` with a weight row
built once per run, the same BLAS dot as the public reduction's, so the
records equal them bit for bit, and keeps a block's states by one copy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError, PropertyViolation
# re-exported: perfbench/spans.py traces tail_mass_fraction and x1_distance_of here
from .mesh import (State, moment_of, moment_row, require_count,  # noqa: F401
                   require_moment_order, require_same_mesh, tail_mass_fraction,
                   x1_distance_of)
from .operators import OperatorBundle, factor, imex_step, positivity_budget

SCHEMES = ("imex_euler", "fully_implicit")
RECORD_BLOCK = 16   # fewest states per recording block: 256 KB at N = 2048
RECORD_BYTES = 1 << 18  # bytes per recording block where that takes more rows
SERIES = 8  # float64 series evolve keeps per step: t, 4 moments, drift, tail, X1 distance


def _check_step(scheme: str, dt: float | None) -> None:
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if dt is not None and not 0 < dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-loop settings.  `grid` gives the steps and states their rules."""

    scheme: str = "imex_euler"
    dt: float | None = None
    t_end: float = 1.0
    output_every: int = 1
    moment_order: float = 3.0

    def __post_init__(self):
        _check_step(self.scheme, self.dt)
        if not 0 < self.t_end < math.inf:
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end}")
        if self.dt is not None:
            self.grid(None)     # an explicit dt's rules need no bundle
        # evolve stores every output_every-th state: a whole number of steps
        object.__setattr__(self, "output_every",
                           require_count("output_every", self.output_every, 1))
        require_moment_order(self.moment_order)

    def grid(self, bundle: OperatorBundle | None) -> tuple[float, int]:
        """(dt, n_steps) to t_end: the explicit dt, or the fewest equal steps <= default_dt."""
        dt = default_dt(bundle) if self.dt is None else self.dt
        ratio = self.t_end / dt
        if not 0 < ratio < math.inf:
            raise ConfigError(f"t_end / dt = {self.t_end} / {dt} overflows or underflows")
        n_steps = math.ceil(ratio) if self.dt is None else round(ratio)
        if self.dt is not None and not abs(n_steps * dt - self.t_end) <= 1e-9 * self.t_end:
            raise ConfigError(f"t_end = {self.t_end} is not a multiple of dt = {dt}")
        need = 8 * SERIES * (n_steps + 1)     # bytes, before any is allocated
        if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            raise ConfigError(f"t_end / dt = {self.t_end} / {dt} takes {n_steps} steps, whose "
                              f"series need {need} bytes: more than the physical memory")
        return self.dt or self.t_end / n_steps, n_steps


def record_rows(n_cells: int) -> int:
    """Rows per recording block: RECORD_BYTES of them, never fewer than RECORD_BLOCK."""
    return max(RECORD_BLOCK, RECORD_BYTES // (8 * n_cells))


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
        if scheme == "fully_implicit":
            self.reaction_cfl = dt * float(np.max(bundle.death))
            solve = factor(bundle, 1.0, -dt)
            self._map = lambda values, out: np.copyto(out, solve(values)) or out
        else:
            self.reaction_cfl = positivity_budget(bundle, dt)    # warns beyond 1
            self._map = imex_step(bundle, dt)

    def advance(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The state dt after values, unchecked: in out (a contiguous row) if given."""
        return self._map(values, np.empty(len(values)) if out is None else out)

    def step(self, values: np.ndarray) -> np.ndarray:
        """Advance values by dt: fill() of one row, with its checks."""
        return self.fill(np.empty((1, len(values))), values)

    def fill(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Write the len(rows) states after values, one step apart, into rows;
        return the last as an array of its own.  Each row is advance()'s state,
        written in place, and the block is checked once: in step order, the
        first state that is not finite raises NumericsError, the first to dip
        below zero after a nonnegative state PropertyViolation."""
        state = values
        for row in rows:
            state = self.advance(state, row)
        if not (rows.min() >= 0.0 and math.isfinite(rows.max())):     # NaN fails the first
            lows = rows.min(axis=1)
            before = [values.min(initial=0.0), *lows]   # each row's predecessor's minimum
            for low, high, prior in zip(lows, rows.max(axis=1), before):
                if not (math.isfinite(low) and math.isfinite(high)):
                    raise NumericsError("integrator produced non-finite values")
                if low < 0.0 <= prior:
                    raise PropertyViolation(
                        f"positivity violated: minimum {low:.3e} after a nonnegative state")
        return state.copy()


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
    dt, n_steps = config.grid(bundle)
    stepper = Stepper(bundle, dt, config.scheme)
    mesh = bundle.mesh
    orders = (0.0, 1.0, 2.0, float(config.moment_order))
    # the weight rows of the public reductions, each dotted with the block by
    # itself (a block @ (N, 4) matrix product sums in another order than the
    # public reductions' dots, so it can differ from them in the last bit)
    weights = [moment_row(mesh, m) for m in orders]
    mass_row, tail_cells = weights[1], mesh.tail_slice()
    tail_row = mass_row[tail_cells]

    # t_k = t_{k-1} + dt in order, as a stepwise sum gives them
    times = np.cumsum(np.append(initial.time, np.full(n_steps, dt)))
    tail, sums = np.zeros(n_steps + 1), np.empty((len(orders), n_steps + 1))
    dist = np.empty(n_steps + 1) if reference is not None else None
    # preallocated: a fresh block-sized temporary per record costs page faults
    size = record_rows(mesh.n_cells)
    block = np.empty((min(size, n_steps), mesh.n_cells))
    buffer = np.empty_like(block)

    values, every, stored = initial.values, config.output_every, []
    # fill() raises before nonnegative data turn negative: the start decides the recording path
    min_seen = float(values.min(initial=0.0))
    signed = min_seen < 0.0

    def record(start: int, rows: np.ndarray):
        """Fill every series from step `start` on with the states in rows."""
        stop, work = start + len(rows), buffer[:len(rows)]
        for i, row in enumerate(weights):
            np.vecdot(rows, row, out=sums[i, start:stop])
        # a block of nonnegative states is its own absolute value
        absolute = np.abs(rows, out=work) if signed else rows
        total = np.vecdot(absolute, mass_row) if signed else sums[1, start:stop]
        np.divide(np.vecdot(absolute[:, tail_cells], tail_row), total,
                  out=tail[start:stop], where=total != 0.0)
        if dist is not None:
            np.abs(np.subtract(rows, reference.values, out=work), out=work)
            np.vecdot(work, mass_row, out=dist[start:stop])

    block[0] = values
    record(0, block[:1])
    for start in range(1, n_steps + 1, size):
        rows = block[:min(size, n_steps + 1 - start)]
        values = stepper.fill(rows, values)
        if signed:
            min_seen = min(min_seen, float(rows.min(initial=0.0)))
        record(start, rows)
        first = -start % every     # kept: one copy of the rows, which the next fill reuses
        kept = rows[first::every].copy(), times[start:start + len(rows)][first::every].tolist()
        stored += [State._checked(row, mesh, t) for row, t in zip(*kept)]
    if n_steps % every:     # the final state is kept too
        stored.append(State._checked(values, mesh, float(times[-1])))

    mass0 = moment_of(mesh, initial.values, 1.0)
    drift = np.zeros(n_steps + 1) if mass0 == 0.0 else (sums[1] - mass0) / mass0
    return Trajectory(times=times, moments=dict(zip(orders, sums)), mass_drift_rel=drift,
                      tail_fraction=tail, dist_ref=dist, states=stored, final=stored[-1],
                      min_value=min_seen, reaction_cfl=stepper.reaction_cfl)
