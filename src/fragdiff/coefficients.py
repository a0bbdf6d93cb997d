"""Fragmentation coefficients: overall rate a(x) and daughter distribution b(x,y).

Rate models are positive, locally bounded functions on [0, infinity).  Every
model also knows how to integrate a(y) * y^q exactly (or by Gauss quadrature)
over mesh cells; the discrete birth operator is built from those integrals.

Daughter kernels satisfy the mass condition

    integral_0^y  x b(x,y) dx  =  y,

and for m > 1 a contraction defect delta_m in (0,1) with

    integral_0^y  x^m b(x,y) dx  <=  (1 - delta_m) y^m.

The built-in power-law family b(x,y) = (nu+2) x^nu y^(-nu-1), nu in (-2, 0],
has delta_m = (m-1)/(nu+m+1) in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, NotApplicableError, PropertyViolation

_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(64)


def power_integral(lo, hi, q: float):
    """Elementwise integral of y^q over [lo, hi], with the log branch at q = -1.

    Entries with lo = 0 and q <= -1 come out infinite; callers that skip the
    first cell never read them.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    with np.errstate(divide="ignore"):
        if abs(q + 1.0) < 1e-13:
            return np.log(hi / lo)
        return (hi ** (q + 1.0) - lo ** (q + 1.0)) / (q + 1.0)


def _gauss_on(lo, hi, fn):
    """Elementwise 64-node Gauss integral of fn over [lo, hi]; fn gets nodes (..., 64)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return half * (fn(mid[..., None] + half[..., None] * _GAUSS_NODES) @ _GAUSS_WEIGHTS)


# ---------------------------------------------------------------------------
# rate models
# ---------------------------------------------------------------------------

class RateModel:
    """Base class for overall fragmentation rates."""

    def __call__(self, x) -> np.ndarray:
        raise NotImplementedError

    def cell_integrals(self, edges: np.ndarray, q: float) -> np.ndarray:
        """Per-cell integrals of a(y) * y^q; Gauss fallback, exact in subclasses.

        Entries whose integrand is not integrable (first cell with q <= -1)
        come out infinite; callers that skip the first cell never read them.
        """
        lo, hi = edges[:-1], edges[1:]
        out = _gauss_on(lo, hi, lambda y: self(y) * y ** q)
        return np.where((lo <= 0.0) & (q <= -1.0), np.inf, out)

    def threshold_crossing(self, level: float, x_hi: float) -> float | None:
        """Smallest x with a >= level on [x, x_hi], or None if never reached.

        Numeric fallback: coarse scan then bisection on the continuous model.
        """
        grid = np.linspace(0.0, x_hi, 4097)
        vals = np.asarray(self(grid), dtype=float)
        above = vals >= level
        if not above[-1]:
            return None
        # last index below the level before the final run of "above"
        idx = np.nonzero(~above)[0]
        if idx.size == 0:
            return 0.0
        lo, hi = grid[idx[-1]], grid[idx[-1] + 1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self(np.array([mid]))[0]) >= level:
                hi = mid
            else:
                lo = mid
        return hi

    def tail_infimum(self, x_lo: float, x_hi: float) -> float:
        grid = np.geomspace(max(x_lo, 1e-12), x_hi, 1024)
        return float(np.min(self(grid)))

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantRate(RateModel):
    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ConfigError(f"value must be positive for a constant rate, got {self.value}")

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)

    def cell_integrals(self, edges, q):
        return self.value * power_integral(edges[:-1], edges[1:], q)

    def threshold_crossing(self, level, x_hi):
        return 0.0 if self.value >= level else None

    def describe(self):
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class PowerRate(RateModel):
    """a(x) = x^gamma with gamma >= 0."""

    gamma: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0 (local boundedness), got {self.gamma}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.gamma == 0.0:
            return np.ones_like(x)
        return x ** self.gamma

    def cell_integrals(self, edges, q):
        return power_integral(edges[:-1], edges[1:], q + self.gamma)

    def threshold_crossing(self, level, x_hi):
        if self.gamma == 0.0:
            return 0.0 if level <= 1.0 else None
        x_star = level ** (1.0 / self.gamma)
        return x_star if x_star <= x_hi else None

    def describe(self):
        return {"kind": "power", "gamma": self.gamma}


@dataclass(frozen=True)
class ShiftedPowerRate(RateModel):
    """a(x) = c + x^gamma."""

    offset: float
    gamma: float

    def __post_init__(self):
        if self.offset <= 0:
            raise ConfigError(f"offset must be positive, got {self.offset}")
        PowerRate(self.gamma)   # the x^gamma part holds the rule on gamma

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.offset + x ** self.gamma

    def cell_integrals(self, edges, q):
        lo, hi = edges[:-1], edges[1:]
        return self.offset * power_integral(lo, hi, q) + power_integral(lo, hi, q + self.gamma)

    def threshold_crossing(self, level, x_hi):
        if self.offset >= level:
            return 0.0
        if self.gamma == 0.0:
            return 0.0 if self.offset + 1.0 >= level else None
        x_star = (level - self.offset) ** (1.0 / self.gamma)
        return x_star if x_star <= x_hi else None

    def describe(self):
        return {"kind": "shifted_power", "offset": self.offset, "gamma": self.gamma}


@dataclass(frozen=True)
class TableRate(RateModel):
    """Piecewise-linear rate from tabulated nodes, held constant beyond the table."""

    x_nodes: np.ndarray
    a_nodes: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_nodes, dtype=float)
        a = np.asarray(self.a_nodes, dtype=float)
        if x.ndim != 1 or x.size < 2 or x.shape != a.shape:
            raise ConfigError("table rate needs matching 1-D node arrays")
        if np.any(np.diff(x) <= 0):
            raise ConfigError("table abscissae must be strictly increasing")
        if np.any(a < 0):
            raise ConfigError("table rate must be nonnegative")
        object.__setattr__(self, "x_nodes", x)
        object.__setattr__(self, "a_nodes", a)

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.x_nodes, self.a_nodes)

    def describe(self):
        return {"kind": "table", "nodes": len(self.x_nodes)}


@dataclass(frozen=True)
class RegularizedRate(RateModel):
    """base(x) + x / n; the strength-1/n linear lift used by the stationary solver."""

    base: RateModel
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be >= 1 for the lift x/n, got {self.n}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.base(x) + x / self.n

    def cell_integrals(self, edges, q):
        return self.base.cell_integrals(edges, q) + \
            power_integral(edges[:-1], edges[1:], q + 1.0) / self.n

    def describe(self):
        return {"kind": "regularized", "n": self.n, "base": self.base.describe()}


def rate_diverges(rate: RateModel, x_max_probe: float, bound: float = 1.0) -> bool:
    """Proxy for a(x) -> infinity: the outer decade stays above `bound`."""
    return rate.tail_infimum(x_max_probe / 10.0, x_max_probe) >= bound


def rate_tail_positive(rate: RateModel, x_max_probe: float) -> bool:
    """Proxy for liminf a > 0 at infinity: outer-decade infimum is positive."""
    return rate.tail_infimum(x_max_probe / 10.0, x_max_probe) > 0.0


# ---------------------------------------------------------------------------
# daughter kernels
# ---------------------------------------------------------------------------

class DaughterKernel:
    """Base class for daughter distributions b(x, y), supported on 0 < x < y."""

    def density(self, x, y):
        raise NotImplementedError

    def fragment_mass_below(self, z, y):
        """integral_0^z x b(x, y) dx for 0 <= z <= y."""
        raise NotImplementedError

    def fragment_moment(self, m: float, y):
        """integral_0^y x^m b(x, y) dx."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLawKernel(DaughterKernel):
    """b(x,y) = (nu+2) x^nu y^(-nu-1), nu in (-2, 0].

    The mass condition holds identically; nu = 0 is binary-style breakup
    b = 2/y, decreasing nu concentrates fragments at small sizes.
    """

    nu: float = 0.0

    def __post_init__(self):
        if not (-2.0 < self.nu <= 0.0):
            raise ConfigError(f"power-law exponent nu must lie in (-2, 0], got {self.nu}")

    def density(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = (self.nu + 2.0) * x ** self.nu * y ** (-self.nu - 1.0)
        return np.where(x < y, out, 0.0)

    def fragment_mass_below(self, z, y):
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        return y ** (-self.nu - 1.0) * z ** (self.nu + 2.0)

    def fragment_moment(self, m, y):
        y = np.asarray(y, dtype=float)
        if m + self.nu + 1.0 <= 0.0:
            raise ConfigError("fragment moment diverges for m <= -nu - 1")
        return (self.nu + 2.0) / (self.nu + m + 1.0) * y ** m

    def describe(self):
        return {"kind": "powerlaw", "nu": self.nu}


@dataclass(frozen=True)
class CustomKernel(DaughterKernel):
    """Daughter distribution given as a callable; integrals by 64-node Gauss.

    `fn(x, y)` gets an array `x` of any shape and a float donor size `y`, and
    returns b(x, y) elementwise; each integral is one vectorised call.

    The mass condition is verified at construction on a log grid of donor
    sizes and the kernel is rejected (never silently rescaled) on failure.
    """

    fn: Callable[[np.ndarray, float], np.ndarray]
    name: str = "custom"
    mass_tol: float = 1e-8
    y_check: tuple = (0.01, 0.1, 1.0, 10.0, 100.0)

    def __post_init__(self):
        report = verify_mass_condition(self, self.y_check, tol=self.mass_tol)
        if not report.passed:
            raise PropertyViolation(
                f"kernel {self.name!r} violates the mass condition: defect "
                f"{report.max_defect:.3e} at y = {report.worst_y:g}")

    def density(self, x, y):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.fn(x, y), dtype=float)
        return np.where(x < np.asarray(y), out, 0.0)

    def fragment_mass_below(self, z, y):
        return _gauss_on(0.0, z, lambda x: x * self.density(x, y))

    def fragment_moment(self, m, y):
        return _gauss_on(0.0, y, lambda x: x ** m * self.density(x, y))

    def describe(self):
        return {"kind": "custom", "name": self.name}


@dataclass(frozen=True)
class MassConditionReport:
    max_defect: float
    worst_y: float
    tol: float
    passed: bool
    defects: np.ndarray = field(repr=False, default=None)


def verify_mass_condition(kernel: DaughterKernel, y_samples,
                          tol: float = 1e-10) -> MassConditionReport:
    """Relative defect |int x b dx - y| / y over donor samples."""
    ys = np.asarray(y_samples, dtype=float)
    if np.any(ys <= 0):
        raise ConfigError("donor samples must be positive")
    masses = np.array([float(kernel.fragment_mass_below(y, y)) for y in ys])
    if isinstance(kernel, CustomKernel):     # Gauss quadrature, not closed form
        tol = max(tol, 1e-8)
    defects = np.abs(masses - ys) / ys
    worst = int(np.argmax(defects))
    return MassConditionReport(max_defect=float(defects[worst]), worst_y=float(ys[worst]),
                               tol=tol, passed=bool(defects[worst] <= tol), defects=defects)


def delta_m(kernel: DaughterKernel, m: float,
            y_range: tuple = (1e-2, 1e2)) -> float:
    """Contraction defect of the m-th fragment moment, in (0, 1).

    Closed form for the power-law family; for custom kernels a supremum over
    a fixed 32-points-per-decade log grid of donor sizes (lower-confidence).
    """
    if m <= 1.0:
        raise ConfigError(f"contraction defect is defined for m > 1, got {m}")
    if isinstance(kernel, PowerLawKernel):
        return (m - 1.0) / (kernel.nu + m + 1.0)
    decades = np.log10(y_range[1] / y_range[0])
    ys = np.geomspace(y_range[0], y_range[1], max(int(32 * decades) + 1, 16))
    ratios = np.array([float(kernel.fragment_moment(m, y)) / y ** m for y in ys])
    value = 1.0 - float(np.max(ratios))
    if value <= 0.0:
        raise PropertyViolation(
            f"kernel admits no moment contraction at m = {m} (defect {value:.3e})")
    return min(value, 1.0)


# ---------------------------------------------------------------------------
# moment ceiling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentCeiling:
    """Invariant bound M_m(t) <= max(M_m(0), mu) for trajectories, m >= 3."""

    m: float
    delta: float
    x_star: float
    mu: float


@dataclass(frozen=True)
class ContractionConstants:
    delta: dict
    mu: dict
    x_star: float


def moment_ceiling(rate: RateModel, kernel: DaughterKernel, m: float,
                   x_max_probe: float) -> MomentCeiling:
    """Ceiling for the m-th moment along trajectories, for rates that grow.

    Requires a size x_star beyond which a >= 1 (divergence proxy); the
    ceiling combines the contraction defect with the sub-threshold region:

        mu = (2/delta) * [ 2m (2m(m-3)/delta)^((m-3)/2) + delta x_star^(m-1) ].
    """
    if m < 3.0:
        raise ConfigError(f"moment ceiling needs m >= 3, got {m}")
    if not rate_diverges(rate, x_max_probe):
        raise NotApplicableError(
            "rate does not stay above 1 on the probe tail; no moment ceiling")
    x_star = rate.threshold_crossing(1.0, x_max_probe)
    if x_star is None:
        raise NotApplicableError("rate never reaches 1 within the probe range")
    delta = delta_m(kernel, m)
    power_term = 2.0 * m * (2.0 * m * (m - 3.0) / delta) ** ((m - 3.0) / 2.0)
    mu = (2.0 / delta) * (power_term + delta * x_star ** (m - 1.0))
    return MomentCeiling(m=m, delta=delta, x_star=float(x_star), mu=float(mu))


def contraction_constants(rate: RateModel, kernel: DaughterKernel, orders,
                          x_max_probe: float) -> ContractionConstants:
    """Bundle delta_m and mu_m for several orders, sharing one x_star."""
    deltas = {float(m): delta_m(kernel, float(m)) for m in orders}
    mus = {}
    x_star = None
    for m in orders:
        if m >= 3.0:
            ceiling = moment_ceiling(rate, kernel, float(m), x_max_probe)
            mus[float(m)] = ceiling.mu
            x_star = ceiling.x_star
    if x_star is None:
        x_star = rate.threshold_crossing(1.0, x_max_probe) or float("nan")
    return ContractionConstants(delta=deltas, mu=mus, x_star=x_star)
