"""Numerical verification of the auxiliary inequalities behind the model.

Every check evaluates both sides of an inequality with adaptive quadrature
on analytically supplied profiles (function plus first two derivatives, with
known sign changes), so reported margins are dominated by quadrature error
rather than differencing noise.  Reports always carry both side values and
the margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import ConfigError, NumericsError
from .evolution import positivity_budget, step_count
from .mesh import State, moment_row, norm_row, weighted_norm_of
from .operators import OperatorBundle, image_kernel_value, kernel_value

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-11, limit=400)
_SCAN_END = 60.0                  # profiles are scanned pointwise on (0, _SCAN_END]
_KATO_TOL = 1e-8                  # Kato margin allowed below zero, relative to its scale
_EPS_VALUES = (0.5, 1.0, 2.0)     # epsilons of the interpolation inequality's epsilon form


@dataclass(frozen=True)
class SampleProfile:
    """Smooth test function on (0, inf) with analytic derivatives and known sign changes."""

    name: str
    f: Callable
    d1: Callable
    d2: Callable
    sign_roots: tuple = ()


def default_catalog() -> list[SampleProfile]:
    e = np.exp
    return [
        SampleProfile("x_exp", lambda x: x * e(-x), lambda x: (1 - x) * e(-x),
                      lambda x: (x - 2) * e(-x)),
        SampleProfile("shifted_exp", lambda x: (x - 1) * e(-x),
                      lambda x: (2 - x) * e(-x), lambda x: (x - 3) * e(-x),
                      sign_roots=(1.0,)),
        SampleProfile("sin_exp", lambda x: np.sin(x) * e(-x),
                      lambda x: (np.cos(x) - np.sin(x)) * e(-x),
                      lambda x: -2 * np.cos(x) * e(-x),
                      sign_roots=tuple(k * np.pi for k in range(1, 12))),
        SampleProfile("odd_gauss", lambda x: x * e(-x * x / 4),
                      lambda x: (1 - x * x / 2) * e(-x * x / 4),
                      lambda x: (x ** 3 / 4 - 3 * x / 2) * e(-x * x / 4)),
        SampleProfile("two_roots", lambda x: (x - 1) * (x - 3) * e(-x),
                      lambda x: (-x * x + 6 * x - 7) * e(-x),
                      lambda x: (x * x - 8 * x + 13) * e(-x),
                      sign_roots=(1.0, 3.0)),
    ]


def _integrate(fn, points) -> float:
    """Adaptive quadrature on (0, inf) split at those of the points inside it."""
    pts = [0.0] + sorted({p for p in points if 0.0 < p < np.inf}) + [np.inf]
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err = quad(fn, lo, hi, **_QUAD_OPTS)
        if not np.isfinite(val):
            raise NumericsError(f"quadrature failed on ({lo}, {hi})")
        total += val
    return total


def _verify_roots(profile: SampleProfile) -> bool:
    """The catalog's sign roots must account for every resolvable sign change.

    Flips where the profile is already at roundoff scale do not move the
    integrals and are ignored.
    """
    grid = np.linspace(1e-9, _SCAN_END, 20001)
    vals = profile.f(grid)
    peak = float(np.max(np.abs(vals)))
    sign_flips = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    roots = np.asarray(profile.sign_roots)
    for idx in sign_flips:
        if max(abs(vals[idx]), abs(vals[idx + 1])) <= 1e-12 * peak:
            continue
        if roots.size == 0 or np.min(np.abs(roots - grid[idx])) > 2 * (grid[1] - grid[0]):
            return False
    return True


# ---------------------------------------------------------------------------
# weighted Kato inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """Weight ell(x) = min(x, cap)^m; plain x by default."""

    m: float = 1.0
    cap: float = np.inf

    def __post_init__(self):
        if not self.cap > 0:
            raise ConfigError(f"weight cap must be positive, got {self.cap}")

    @property
    def label(self) -> str:
        """The weight's name in reports: x, power or capped_power."""
        if self.cap < np.inf:
            return "capped_power"
        return "x" if self.m == 1.0 else "power"

    def ell(self, x):
        return np.minimum(np.asarray(x, dtype=float), self.cap) ** self.m

    def ell_prime(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self.cap, self.m * x ** (self.m - 1.0), 0.0)


@dataclass(frozen=True)
class KatoReport:
    profile: str
    weight: str
    lhs: float
    rhs: float
    margin: float
    scale: float
    status: str          # "pass", "fail", "inconclusive"


def check_kato(profile: SampleProfile, weight: WeightSpec = WeightSpec()) -> KatoReport:
    """Weighted one-sided inequality for |f| under the second derivative:

        -int ell sign(f) f''  >=  int ell' sign(f) f'.

    Both sides are integrated adaptively, split at the profile's sign roots;
    equality holds (to quadrature accuracy) when f never changes sign.
    """
    if not _verify_roots(profile):
        return KatoReport(profile.name, weight.label, np.nan, np.nan, np.nan,
                          np.nan, "inconclusive")
    pts = profile.sign_roots + (weight.cap,)

    def sign_f(x):
        return np.sign(profile.f(x))

    lhs = _integrate(lambda x: -weight.ell(x) * sign_f(x) * profile.d2(x), pts)
    rhs = _integrate(lambda x: weight.ell_prime(x) * sign_f(x) * profile.d1(x), pts)
    scale = max(1.0, abs(lhs), abs(rhs))
    margin = lhs - rhs
    status = "pass" if margin >= -_KATO_TOL * scale else "fail"
    return KatoReport(profile.name, weight.label, lhs, rhs, margin, scale, status)


# ---------------------------------------------------------------------------
# interpolation and pointwise bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationReport:
    profile: str
    m: float
    lhs: float
    rhs: float
    margin: float
    pointwise_sup: float
    pointwise_slope: float
    d2_norm: float
    status: str


def check_interpolation(profile: SampleProfile, m: float) -> InterpolationReport:
    """Low-order moment controlled by mass and second-derivative mass:

        |f|_{X_m} <= 2 (1-m)^((m-1)/2) / (m+1) * |f''|_{X_1}^((1-m)/2) |f|_{X_1}^((m+1)/2)

    for m in (-1, 1), together with its epsilon form and the pointwise bounds
    sup |f| <= |f''|_{X_1} and x |f'(x)| <= |f''|_{X_1}.
    """
    if not (-1.0 < m < 1.0):
        raise ConfigError(f"interpolation order must lie in (-1, 1), got {m}")
    pts = profile.sign_roots
    norm_m = _integrate(lambda x: x ** m * np.abs(profile.f(x)), pts)
    norm_1 = _integrate(lambda x: x * np.abs(profile.f(x)), pts)
    d2_roots = tuple(np.linspace(0.5, 50, 25))   # generic split; |f''| is smooth between
    d2_norm = _integrate(lambda x: x * np.abs(profile.d2(x)), d2_roots)
    coeff = 2.0 * (1.0 - m) ** ((m - 1.0) / 2.0) / (m + 1.0)
    rhs = coeff * d2_norm ** ((1.0 - m) / 2.0) * norm_1 ** ((m + 1.0) / 2.0)
    eps_margins = [eps ** (m + 1.0) / (m + 1.0) * d2_norm + eps ** (m - 1.0) * norm_1 - norm_m
                   for eps in _EPS_VALUES]
    grid = np.linspace(1e-6, _SCAN_END, 60001)
    sup_f = float(np.max(np.abs(profile.f(grid))))
    sup_slope = float(np.max(grid * np.abs(profile.d1(grid))))
    ok = (norm_m <= rhs * (1 + 1e-10)
          and all(v >= -1e-10 * max(1.0, norm_m) for v in eps_margins)
          and sup_f <= d2_norm * (1 + 1e-10)
          and sup_slope <= d2_norm * (1 + 1e-10))
    return InterpolationReport(profile.name, m, norm_m, rhs, rhs - norm_m,
                               sup_f, sup_slope, d2_norm, "pass" if ok else "fail")


# ---------------------------------------------------------------------------
# time-integrated smallness of the gain along the absorption flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainSmallnessReport:
    m: float
    t_grid: np.ndarray = field(repr=False)
    ratio: np.ndarray = field(repr=False)
    crossing_time: float | None
    ratio_at_end: float
    status: str


def check_gain_smallness(bundle: OperatorBundle, initial: State, m: float,
                         t_max: float = 0.5, dt: float = 1e-3) -> GainSmallnessReport:
    """Integrates |B F(s)| along the absorption-only flow F and reports where

        integral_0^t |B F(s)|_{X_{1,m}} ds  /  |f|_{X_{1,m}}

    crosses 1.  A crossing time bounded away from 0 is the smallness property
    that lets the gain be treated as a tame perturbation of the loss flow.
    """
    if not m > 1.0:
        raise ConfigError("gain-smallness check needs m > 1")
    mesh = bundle.mesh
    denom = weighted_norm_of(mesh, initial.values, m)
    if denom == 0.0:
        raise ConfigError("gain-smallness check needs a nonzero profile")
    n_steps = step_count(t_max, dt, "t_max")
    # the absorption flow: implicit diffusion, explicit death (IMEX Euler without gain)
    positivity_budget(bundle, dt, "imex_euler")      # warns beyond 1
    solve = bundle.diffusion.factor(-dt)
    values, row = initial.values, norm_row(mesh, m)     # weighted_norm_of's dot
    gain_norm = np.empty(n_steps + 1)
    gain_norm[0] = row @ np.abs(bundle.birth.apply(values))
    for k in range(1, n_steps + 1):
        values = solve(values - dt * (bundle.death * values))
        gain_norm[k] = row @ np.abs(bundle.birth.apply(values))
    t_grid = dt * np.arange(n_steps + 1)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * dt * (gain_norm[1:] + gain_norm[:-1]))])
    ratio = integral / denom
    above = np.nonzero(ratio >= 1.0)[0]
    crossing = float(t_grid[above[0]]) if above.size else None
    status = "pass" if (ratio[-1] < 1.0 or (crossing is not None and crossing > dt)) \
        else "fail"
    return GainSmallnessReport(m=m, t_grid=t_grid, ratio=ratio, crossing_time=crossing,
                               ratio_at_end=float(ratio[-1]), status=status)


# ---------------------------------------------------------------------------
# heat-kernel pointwise inequalities and gain domination
# ---------------------------------------------------------------------------

def kernel_positivity_samples(rng: np.random.Generator, n_samples: int = 500) -> dict:
    """Reflection kernel is nonnegative, and stays dominated after the
    (1 + z^2/4t) weighting that controls its time derivative."""
    t = rng.uniform(1e-3, 10.0, n_samples)
    x = rng.uniform(1e-6, 40.0, n_samples)
    y = rng.uniform(1e-6, 40.0, n_samples)
    plain = image_kernel_value(t, x, y)
    lhs = (1 + (x - y) ** 2 / (4 * t)) * kernel_value(t, x - y)
    rhs = (1 + (x + y) ** 2 / (4 * t)) * kernel_value(t, x + y)
    weighted = lhs - rhs
    return {
        "n": n_samples,
        "min_plain": float(plain.min()),
        "min_weighted": float(weighted.min()),
        "positivity_ok": bool(plain.min() >= -1e-15),
        "monotone_ok": bool(weighted.min() >= -1e-15),
    }


def birth_domination(bundle: OperatorBundle, values: np.ndarray, m: float,
                     delta: float) -> dict:
    """Gain strictly dominated by weighted loss: |B f|_{X_m} <= (1-delta)|a f|_{X_m}."""
    mesh, absolute = bundle.mesh, np.abs(values)
    row = moment_row(mesh, m)
    lhs = float(row @ np.abs(bundle.birth.apply(absolute)))
    rhs = (1.0 - delta) * float(row @ (bundle.rate(mesh.centers) * absolute))
    return {"lhs": lhs, "rhs": rhs, "margin": rhs - lhs, "ok": bool(lhs <= rhs * (1 + 1e-12))}
