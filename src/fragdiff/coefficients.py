"""Fragmentation coefficients: overall rate a(x) and daughter distribution b(x,y).

Rate models are positive, locally bounded functions on [0, infinity).  Every
model also knows how to integrate a(y) * y^q exactly (or by Gauss quadrature)
over mesh cells; the discrete birth operator is built from those integrals.

Daughter kernels satisfy the mass condition

    integral_0^y  x b(x,y) dx  =  y,

and for m > 1 a contraction defect delta_m in (0,1) with

    integral_0^y  x^m b(x,y) dx  <=  (1 - delta_m) y^m.

The built-in power-law family b(x,y) = (nu+2) x^nu y^(-nu-1), nu in (-2, 0],
has delta_m = (m-1)/(nu+m+1) in closed form.  Kernels given as callables are
integrated on the one 64-node Gauss rule defined here: moments over [0, y],
and, in the birth operator, fragment mass over each receiver cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, PropertyViolation

_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(64)
# the same rule on (0, 1)
_UNIT_NODES = 0.5 * (_GAUSS_NODES + 1.0)
# donor sizes and tolerance at which a CustomKernel's mass condition is checked
_MASS_CHECK_Y = (0.01, 0.1, 1.0, 10.0, 100.0)
_QUADRATURE_MASS_TOL = 1e-8
# donor sizes of a custom kernel's delta_m: 32 per decade on [1e-2, 1e2]
_DELTA_Y = np.geomspace(1e-2, 1e2, 129)


def power_integral(lo, hi, q: float):
    """Elementwise integral of y^q over [lo, hi], free of cancellation near q = -1.

    With e = q + 1 and span = log(hi / lo), the integral is
    hi^e (1 - exp(-e span)) / e, which is span at e = 0.  Entries with lo = 0
    and q <= -1 come out infinite; callers that skip the first cell never
    read them.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    e = q + 1.0
    with np.errstate(divide="ignore"):
        span = np.log1p((hi - lo) / lo)
    if e == 0.0:
        return span
    return hi ** e * -np.expm1(-e * span) / e


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

        A coarse scan, then bisection on the continuous model to its fixed point.
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
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if float(self(np.array([mid]))[0]) >= level:
                hi = mid
            else:
                lo = mid
        return float(hi)

    def tail_infimum(self, x_lo: float, x_hi: float) -> float:
        grid = np.geomspace(max(x_lo, 1e-12), x_hi, 1024)
        return float(np.min(self(grid)))


@dataclass(frozen=True)
class ConstantRate(RateModel):
    value: float

    def __post_init__(self):
        if not 0 < self.value < np.inf:
            raise ConfigError(
                f"value must be positive and finite for a constant rate, got {self.value}")

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)

    def cell_integrals(self, edges, q):
        return self.value * power_integral(edges[:-1], edges[1:], q)


@dataclass(frozen=True)
class PowerRate(RateModel):
    """a(x) = x^gamma with gamma >= 0."""

    gamma: float

    def __post_init__(self):
        if not 0 <= self.gamma < np.inf:
            raise ConfigError(
                f"gamma must be finite and >= 0 (local boundedness), got {self.gamma}")

    def __call__(self, x):
        return np.asarray(x, dtype=float) ** self.gamma

    def cell_integrals(self, edges, q):
        return power_integral(edges[:-1], edges[1:], q + self.gamma)


@dataclass(frozen=True)
class ShiftedPowerRate(RateModel):
    """a(x) = c + x^gamma."""

    offset: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.offset < np.inf:
            raise ConfigError(f"offset must be positive and finite, got {self.offset}")
        PowerRate(self.gamma)   # the x^gamma part holds the rule on gamma

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.offset + x ** self.gamma

    def cell_integrals(self, edges, q):
        lo, hi = edges[:-1], edges[1:]
        return self.offset * power_integral(lo, hi, q) + power_integral(lo, hi, q + self.gamma)


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
        if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
            raise ConfigError("table abscissae must be finite and strictly increasing")
        if not np.all((a >= 0) & (a < np.inf)):
            raise ConfigError("table rate must be finite and nonnegative")
        object.__setattr__(self, "x_nodes", x)
        object.__setattr__(self, "a_nodes", a)

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.x_nodes, self.a_nodes)


@dataclass(frozen=True)
class RegularizedRate(RateModel):
    """base(x) + x / n; the strength-1/n linear lift used by the stationary solver."""

    base: RateModel
    n: int

    def __post_init__(self):
        if not 1 <= self.n < np.inf:
            raise ConfigError(f"n must be finite and >= 1 for the lift x/n, got {self.n}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.base(x) + x / self.n

    def cell_integrals(self, edges, q):
        return self.base.cell_integrals(edges, q) + \
            power_integral(edges[:-1], edges[1:], q + 1.0) / self.n


# ---------------------------------------------------------------------------
# daughter kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawKernel:
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

    def fragment_moment(self, m, y):
        """integral_0^y x^m b(x, y) dx."""
        y = np.asarray(y, dtype=float)
        if not m + self.nu + 1.0 > 0.0:
            raise ConfigError("fragment moment diverges for m <= -nu - 1")
        return (self.nu + 2.0) / (self.nu + m + 1.0) * y ** m


@dataclass(frozen=True)
class CustomKernel:
    """Daughter distribution given as a callable; integrals by 64-node Gauss.

    `fn(x, y)` gets an array `x` of any shape and a float donor size `y`, and
    returns b(x, y) elementwise.  A moment over [0, y] is one product of `fn`
    at the scaled nodes x = y u_k with fixed weights; the birth operator
    integrates x b(x, y) over each receiver cell below the donor on the same
    rule.  The nodes lie inside the support 0 < x < y, so no mask is applied.

    The mass condition is verified at construction on a log grid of donor
    sizes, to the quadrature's 1e-8, and the kernel is rejected (never
    silently rescaled) on failure.
    """

    fn: Callable[[np.ndarray, float], np.ndarray]
    name: str = "custom"

    def __post_init__(self):
        report = verify_mass_condition(self, _MASS_CHECK_Y, tol=_QUADRATURE_MASS_TOL)
        if not report.passed:
            raise PropertyViolation(
                f"kernel {self.name!r} violates the mass condition: defect "
                f"{report.max_defect:.3e} at y = {report.worst_y:g}")

    def density(self, x, y):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.fn(x, y), dtype=float)
        return np.where(x < np.asarray(y), out, 0.0)

    def fragment_moment(self, m, y):
        weights = 0.5 * _GAUSS_WEIGHTS * _UNIT_NODES ** m
        return y ** (m + 1.0) * (self.fn(y * _UNIT_NODES, y) @ weights)


@dataclass(frozen=True)
class MassConditionReport:
    max_defect: float
    worst_y: float
    tol: float
    passed: bool


def verify_mass_condition(kernel: PowerLawKernel | CustomKernel, y_samples,
                          tol: float = 1e-10) -> MassConditionReport:
    """Relative defect |int x b dx - y| / y over donor samples."""
    ys = np.asarray(y_samples, dtype=float)
    if not np.all(ys > 0):
        raise ConfigError("donor samples must be positive")
    masses = np.array([float(kernel.fragment_moment(1.0, y)) for y in ys])
    defects = np.abs(masses - ys) / ys
    worst = int(np.argmax(defects))
    return MassConditionReport(max_defect=float(defects[worst]), worst_y=float(ys[worst]),
                               tol=tol, passed=bool(defects[worst] <= tol))


def delta_m(kernel: PowerLawKernel | CustomKernel, m: float) -> float:
    """Contraction defect of the m-th fragment moment, in (0, 1).

    Closed form for the power-law family; for custom kernels a supremum over
    a fixed 32-points-per-decade log grid of donor sizes (lower-confidence).
    """
    if not 1.0 < m < np.inf:
        raise ConfigError(f"contraction defect is defined for finite m > 1, got {m}")
    if isinstance(kernel, PowerLawKernel):
        return (m - 1.0) / (kernel.nu + m + 1.0)
    ratios = np.array([float(kernel.fragment_moment(m, y)) / y ** m for y in _DELTA_Y])
    value = 1.0 - float(np.max(ratios))
    if not 0.0 < value < 1.0:
        raise PropertyViolation(
            f"contraction defect at m = {m} is {value:.3e}, outside (0, 1)")
    return value


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


def moment_ceiling(rate: RateModel, kernel: PowerLawKernel | CustomKernel, m: float,
                   x_max_probe: float) -> MomentCeiling:
    """Ceiling for the m-th moment along trajectories, for rates that grow.

    Requires a >= 1 beyond some x_star <= x_max_probe / 10 (else PropertyViolation);
    the ceiling combines the contraction defect with the sub-threshold region:

        mu = (2/delta) * [ 2m (2m(m-3)/delta)^((m-3)/2) + delta x_star^(m-1) ].
    """
    if not 3.0 <= m < np.inf:
        raise ConfigError(f"moment ceiling needs finite m >= 3, got {m}")
    x_star = rate.threshold_crossing(1.0, x_max_probe)
    if x_star is None or x_star > x_max_probe / 10.0:
        raise PropertyViolation(
            "rate does not stay above 1 on the probe tail; no moment ceiling")
    delta = delta_m(kernel, m)
    power_term = 2.0 * m * (2.0 * m * (m - 3.0) / delta) ** ((m - 3.0) / 2.0)
    mu = (2.0 / delta) * (power_term + delta * x_star ** (m - 1.0))
    return MomentCeiling(m=m, delta=delta, x_star=float(x_star), mu=float(mu))
