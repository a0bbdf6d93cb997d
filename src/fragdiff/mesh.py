"""Cell-centered grids on a truncated size domain and weighted-L1 reductions.

The size axis (0, infinity) is truncated to [0, x_max] and split into N
cells with edges 0 = x_0 < x_1 < ... < x_N = x_max.  States hold one
density value per cell.  All integral quantities use the midpoint rule

    integral of x^m * phi  ~  sum_i  xbar_i^m * phi_i * dx_i,

which is exact for linear integrands and second-order accurate otherwise.
Each such sum is one dot product of the values with a weight row
(`moment_row`, `norm_row`), the same formula wherever it is taken.
Moments of order m are defined for m > -1 only; below that the weight is
not integrable at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

GRADINGS = ("uniform", "geometric")
TAIL_FRACTION = 0.05    # the outer share of [0, x_max] whose mass tail_mass_fraction reports


def require_count(name: str, value, low: int) -> int:
    """`value` as an int; ConfigError unless it is a whole number >= low (not NaN or inf)."""
    if not (low <= value < np.inf and value % 1 == 0):
        raise ConfigError(f"{name} must be a whole number >= {low}, got {value}")
    return int(value)


@dataclass(frozen=True)
class Mesh:
    """Immutable 1-D cell mesh: finite edges from 0, with centers and widths."""

    edges: np.ndarray
    centers: np.ndarray = field(init=False, repr=False)
    widths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ConfigError("mesh needs at least two edges")
        if not np.all(np.isfinite(edges)):
            raise ConfigError("mesh edges must be finite")
        if edges[0] != 0.0:
            raise ConfigError("first edge must be exactly 0")
        if np.any(np.diff(edges) <= 0):
            raise ConfigError("edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "centers", 0.5 * (edges[:-1] + edges[1:]))
        object.__setattr__(self, "widths", np.diff(edges))

    @property
    def n_cells(self) -> int:
        return self.widths.size

    @property
    def x_max(self) -> float:
        return float(self.edges[-1])

    def tail_slice(self) -> slice:
        """Index range of the outermost cells covering TAIL_FRACTION of [0, x_max]."""
        cut = self.x_max * (1.0 - TAIL_FRACTION)
        start = int(np.searchsorted(self.centers, cut))
        return slice(min(start, self.n_cells - 1), self.n_cells)


def build_mesh(x_max: float, n_cells: int, grading: str = "uniform",
               ratio: float | None = None) -> Mesh:
    """Build a uniform or geometrically graded mesh on [0, x_max].

    Geometric grading uses dx_{i+1} = ratio * dx_i with ratio in (1, 1.2],
    so the first cell has width x_max * (ratio - 1) / (ratio^N - 1).
    """
    if not 0 < x_max < np.inf:
        raise ConfigError(f"x_max must be positive and finite, got {x_max}")
    n_cells = require_count("n_cells", n_cells, 8)
    if grading not in GRADINGS:
        raise ConfigError(f"grading must be one of {GRADINGS}, got {grading!r}")
    if grading == "uniform":
        return Mesh(edges=np.linspace(0.0, x_max, n_cells + 1))
    if ratio is None or not (1.0 < ratio <= 1.2):
        raise ConfigError(f"ratio must lie in (1, 1.2] for geometric grading, got {ratio}")
    if n_cells * np.log(ratio) + max(np.log(x_max), 0.0) >= np.log(np.finfo(float).max):
        raise ConfigError(f"ratio = {ratio} and n_cells = {n_cells} give geometric edges "
                          "beyond the float range (x_max * ratio^n_cells overflows)")
    k = np.arange(n_cells + 1, dtype=float)
    edges = x_max * (ratio ** k - 1.0) / (ratio ** n_cells - 1.0)
    edges[0] = 0.0
    edges[-1] = x_max
    return Mesh(edges=edges)


@dataclass
class State:
    """Cell-averaged size distribution at one instant."""

    values: np.ndarray
    mesh: Mesh
    time: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.mesh.n_cells,):
            raise ConfigError(
                f"state length {values.shape} does not match mesh ({self.mesh.n_cells},)")
        if not np.all(np.isfinite(values)):
            raise ConfigError("state contains non-finite values")
        self.values = values

    @classmethod
    def _checked(cls, values: np.ndarray, mesh: Mesh, time: float) -> "State":
        """A State without __post_init__'s second scan, for values that meet its
        rules already (float64, shape (n_cells,), finite): `Stepper.fill` checked them."""
        state = object.__new__(cls)
        state.values, state.mesh, state.time = values, mesh, time
        return state

    def copy_with(self, values: np.ndarray, time: float | None = None) -> "State":
        return State(values=values, mesh=self.mesh,
                     time=self.time if time is None else time)


def require_moment_order(m: float) -> None:
    if not -1.0 < m < np.inf:
        raise ConfigError(f"moment_order must be finite and exceed -1, got {m}")


def moment_row(mesh: Mesh, m: float) -> np.ndarray:
    """Weights xbar_i^m dx_i: every moment is one dot product with this row."""
    return mesh.centers ** m * mesh.widths


def moment_of(mesh: Mesh, values: np.ndarray, m: float) -> float:
    """Signed moment sum_i xbar_i^m values_i dx_i; requires m > -1."""
    require_moment_order(m)
    return float(moment_row(mesh, m) @ values)


def moment(state: State, m: float) -> float:
    return moment_of(state.mesh, state.values, m)


def mass(state: State) -> float:
    """First moment, the conserved quantity of the dynamics."""
    return moment(state, 1.0)


def norm_row(mesh: Mesh, m: float) -> np.ndarray:
    """Weights (xbar_i + xbar_i^m) dx_i of the X_1 + X_m norm; needs m >= 1."""
    if not 1.0 <= m < np.inf:
        raise ConfigError(f"weighted norm needs finite m >= 1, got {m}")
    return (mesh.centers + mesh.centers ** m) * mesh.widths


def weighted_norm_of(mesh: Mesh, values: np.ndarray, m: float) -> float:
    """Norm with weight x + x^m (equal to |.|_{X_1} + |.|_{X_m})."""
    return float(norm_row(mesh, m) @ np.abs(values))


def weighted_norm(state: State, m: float) -> float:
    return weighted_norm_of(state.mesh, state.values, m)


def x1_distance_of(mesh: Mesh, u: np.ndarray, v: np.ndarray) -> float:
    return float(moment_row(mesh, 1.0) @ np.abs(u - v))


def require_same_mesh(mesh: Mesh, state: State, what: str = "state") -> None:
    """Raise ConfigError unless `state` lives on `mesh` (the same edges)."""
    if state.mesh is not mesh and not np.array_equal(state.mesh.edges, mesh.edges):
        raise ConfigError(f"{what} lives on a different mesh")


def x1_distance(a: State, b: State) -> float:
    require_same_mesh(a.mesh, b)
    return x1_distance_of(a.mesh, a.values, b.values)


def tail_mass_fraction(state: State) -> float:
    """Share of |mass| sitting in the outermost cells; truncation-leak monitor."""
    sl = state.mesh.tail_slice()
    row, absolute = moment_row(state.mesh, 1.0), np.abs(state.values)
    total = row @ absolute
    if total == 0.0:
        return 0.0
    return float(row[sl] @ absolute[sl] / total)
