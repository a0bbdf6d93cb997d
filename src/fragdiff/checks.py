"""Numerical verification of the auxiliary inequalities behind the model.

Every check evaluates both sides of an inequality with adaptive quadrature
on analytically supplied profiles (function plus first two derivatives, with
known sign changes), so reported margins are dominated by quadrature error
rather than differencing noise.  Reports always carry both side values and
the margin.

The quadrature is QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al.,
1983), vectorised in numpy: (0, inf) is split at the given points, the last
piece [lo, inf) is mapped by x = lo + t/(1-t), and each round evaluates the
integrand once on all new intervals, then splits those whose error estimate
exceeds their equal share of the tolerance max(1e-12, 1e-11 |I|).  A piece
is bisected, except one whose left end is x = 0: that piece is cut at 1/64
of its width, so an endpoint singularity such as x^m, m > -1, is closed in
geometrically (a fixed number of rounds per decade) rather than one halving
per round.  The estimate is QUADPACK's scaled one; an integral that does not
meet the tolerance within 400 intervals, or is not finite, raises
NumericsError.

Profile-only quantities (the root scan, the X_1 norms of f and f'' and the
pointwise sups) are cached on the `SampleProfile`, so each is computed once
however many weights or orders check that profile.

The half-line heat propagator by reflection (`kernel_value`,
`image_kernel_value`, the O(N^2) `heat_apply_exact`, `heat_growth_bound`) is
an oracle beside the kernel samples that use it; no solver calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .coefficients import delta_m
from .errors import ConfigError, NumericsError
from .mesh import State, moment_row, norm_row, weighted_norm_of
from .operators import OperatorBundle, positivity_budget

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-11, limit=400)
# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21): the positive Kronrod
# nodes, their weights, and the 10-point Gauss weights of the nodes 1, 3, ..., 9
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_GK_NODES = np.concatenate([-np.array(_XK), _XK[-2::-1]])
_GK_RULES = np.zeros((21, 2))                   # columns: Kronrod weights, Gauss weights
_GK_RULES[:, 0] = _WK + _WK[-2::-1]
_GK_RULES[1::2, 1] = _WG + _WG[::-1]
_ZERO_SPLIT = 1.0 / 64.0          # where a piece starting at x = 0 is cut, per its width
_SCAN_END = 60.0                  # profiles are scanned pointwise on (0, _SCAN_END]
_KATO_TOL = 1e-8                  # Kato margin allowed below zero, relative to its scale
_EPS_VALUES = (0.5, 1.0, 2.0)     # epsilons of the interpolation inequality's epsilon form
_MIN_INTERP_ORDER = -0.9          # below it the quadrature cannot close in on x^m
_GAIN_T_MAX = 0.5                 # horizon of the integrated gain
_GAIN_DT = 1e-3                   # step of the absorption flow it integrates along


@dataclass(frozen=True)
class SampleProfile:
    """Smooth test function on (0, inf) with analytic derivatives and known sign changes.

    The properties below depend on the profile alone; each is computed on
    first use and then kept.
    """

    name: str
    f: Callable
    d1: Callable
    d2: Callable
    sign_roots: tuple = ()

    @cached_property
    def roots_ok(self) -> bool:
        """The sign roots account for every resolvable sign change.

        Flips where the profile is already at roundoff scale do not move the
        integrals and are ignored.
        """
        grid = np.linspace(1e-9, _SCAN_END, 20001)
        vals = self.f(grid)
        peak = float(np.max(np.abs(vals)))
        sign_flips = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        roots = np.asarray(self.sign_roots)
        for idx in sign_flips:
            if max(abs(vals[idx]), abs(vals[idx + 1])) <= 1e-12 * peak:
                continue
            if roots.size == 0 or np.min(np.abs(roots - grid[idx])) > 2 * (grid[1] - grid[0]):
                return False
        return True

    @cached_property
    def interpolation_terms(self) -> tuple[float, float, float, float]:
        """|f|_{X_1}, |f''|_{X_1}, sup |f| and sup x |f'(x)|, scanned on (0, _SCAN_END]."""
        norm_1 = _integrate(lambda x: x * np.abs(self.f(x)), self.sign_roots)
        # a generic split, not at the roots of f'': the adaptive rule resolves the
        # kinks of |f''| (x_exp's f'' vanishes at x = 2, inside [0.5, 2.5625])
        d2_roots = tuple(np.linspace(0.5, 50, 25))
        d2_norm = _integrate(lambda x: x * np.abs(self.d2(x)), d2_roots)
        grid = np.linspace(1e-6, _SCAN_END, 60001)
        sup_f = float(np.max(np.abs(self.f(grid))))
        sup_slope = float(np.max(grid * np.abs(self.d1(grid))))
        return norm_1, d2_norm, sup_f, sup_slope


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
    """Adaptive Gauss-Kronrod quadrature on (0, inf) split at those of the points inside it.

    Intervals [a, b] live in the variable t: x = t on the finite pieces, and
    x = lo + t/(1-t), t in [0, 1), on the last piece [lo, inf).
    """
    epsabs, epsrel, limit = _QUAD_OPTS["epsabs"], _QUAD_OPTS["epsrel"], _QUAD_OPTS["limit"]
    cuts = [0.0] + sorted({p for p in points if 0.0 < p < np.inf})
    n = len(cuts)                                   # intervals in use
    a, b, mapped, value, error = np.zeros((5, limit))
    a[:n - 1], b[:n - 1], b[n - 1], mapped[n - 1] = cuts[:-1], cuts[1:], 1.0, 1.0
    new = np.arange(n)                              # the intervals still to evaluate
    while True:
        half = 0.5 * (b[new] - a[new])
        t = (a[new] + half)[:, None] + half[:, None] * _GK_NODES
        u = mapped[new][:, None]
        s = 1.0 / (1.0 - u * t)                     # x = t where u = 0, lo + t/(1-t) where 1
        f = fn(cuts[-1] * u + t * s) * (s * s)
        kronrod, gauss = (f @ _GK_RULES).T
        value[new] = half * kronrod
        diff = half * np.abs(kronrod - gauss)
        resasc = half * (np.abs(f - 0.5 * kronrod[:, None]) @ _GK_RULES[:, 0])
        scaled = np.minimum(1.0, 200.0 * diff / np.where(resasc > 0.0, resasc, 1.0)) ** 1.5
        error[new] = np.where(resasc > 0.0, resasc * scaled, diff)
        total, total_error = float(np.sum(value[:n])), float(np.sum(error[:n]))
        if not (math.isfinite(total) and math.isfinite(total_error)):
            raise NumericsError("quadrature failed: the integral is not finite")
        tol = max(epsabs, epsrel * abs(total))
        if total_error <= tol:
            return total
        split = np.nonzero(error[:n] > tol / n)[0]     # above an equal share of tol
        if n + split.size > limit:
            raise NumericsError(f"quadrature failed: error {total_error:.3g} above "
                                f"{tol:.3g} within {limit} intervals")
        right = np.arange(n, n + split.size)
        at_zero = (a[split] == 0.0) & (mapped[split] * cuts[-1] == 0.0)   # x(a) = 0
        mid = np.where(at_zero, _ZERO_SPLIT * b[split], 0.5 * (a[split] + b[split]))
        a[right], b[right], mapped[right] = mid, b[split], mapped[split]
        b[split] = mid
        new, n = np.concatenate([split, right]), n + split.size


# ---------------------------------------------------------------------------
# weighted Kato inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """Weight ell(x) = min(x, cap)^m; plain x by default."""

    m: float = 1.0
    cap: float = np.inf

    def __post_init__(self):
        if not -np.inf < self.m < np.inf:
            raise ConfigError(f"weight exponent m must be finite, got {self.m}")
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
    if not profile.roots_ok:
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

    for m in [_MIN_INTERP_ORDER, 1) (it holds on (-1, 1)), together with its epsilon
    form and the pointwise bounds sup |f| <= |f''|_{X_1} and x |f'(x)| <= |f''|_{X_1}.
    """
    if not _MIN_INTERP_ORDER <= m < 1.0:
        raise ConfigError(f"interpolation order must lie in [{_MIN_INTERP_ORDER}, 1), got {m}")
    norm_m = _integrate(lambda x: x ** m * np.abs(profile.f(x)), profile.sign_roots)
    norm_1, d2_norm, sup_f, sup_slope = profile.interpolation_terms
    coeff = 2.0 * (1.0 - m) ** ((m - 1.0) / 2.0) / (m + 1.0)
    rhs = coeff * d2_norm ** ((1.0 - m) / 2.0) * norm_1 ** ((m + 1.0) / 2.0)
    eps_margins = [eps ** (m + 1.0) / (m + 1.0) * d2_norm + eps ** (m - 1.0) * norm_1 - norm_m
                   for eps in _EPS_VALUES]
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


def check_gain_smallness(bundle: OperatorBundle, initial: State,
                         m: float) -> GainSmallnessReport:
    """Integrates |B F(s)| along the absorption-only flow F and reports where

        integral_0^t |B F(s)|_{X_{1,m}} ds  /  |f|_{X_{1,m}}

    crosses 1.  A crossing time bounded away from 0 is the smallness property
    that lets the gain be treated as a tame perturbation of the loss flow.
    """
    if not 1.0 < m < np.inf:
        raise ConfigError(f"gain-smallness check needs finite m > 1, got {m}")
    mesh = bundle.mesh
    denom = weighted_norm_of(mesh, initial.values, m)
    if denom == 0.0:
        raise ConfigError("gain-smallness check needs a nonzero profile")
    dt, n_steps = _GAIN_DT, round(_GAIN_T_MAX / _GAIN_DT)
    # the absorption flow: implicit diffusion, explicit death (IMEX Euler without gain)
    positivity_budget(bundle, dt)      # warns beyond 1
    solve = bundle.diffusion.factor(-dt)    # takes w-weighted right-hand sides
    keep = bundle.diffusion.symmetriser * (1.0 - dt * bundle.death)
    values, row = initial.values, norm_row(mesh, m)     # weighted_norm_of's dot
    gain_norm = np.empty(n_steps + 1)
    gain_norm[0] = row @ np.abs(bundle.birth.apply(values))
    for k in range(1, n_steps + 1):
        values = solve(keep * values)
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
# half-line heat propagator by reflection, its inequalities, gain domination
# ---------------------------------------------------------------------------

def kernel_value(t, z) -> np.ndarray:
    """Gaussian heat kernel exp(-z^2 / 4t) / sqrt(4 pi t); t broadcastable."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ConfigError("kernel time must be positive")
    z = np.asarray(z, dtype=float)
    return np.exp(-z * z / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)


def image_kernel_value(t: float, x, y) -> np.ndarray:
    """Dirichlet half-line kernel k(t, x-y) - k(t, x+y); nonnegative for x, y > 0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return kernel_value(t, x - y) - kernel_value(t, x + y)


def heat_apply_exact(state: State, t: float) -> State:
    """Evolve a state by the half-line heat propagator, as a dense quadrature.

    O(N^2) reference evaluator for validation; never used in the time loop.
    Nonnegative input yields nonnegative output: the image kernel is >= 0
    in floating point too (the squares round monotonically and
    (x - y)^2 <= (x + y)^2), so no clamp is applied.
    """
    xc = state.mesh.centers
    f_dx = state.values * state.mesh.widths
    out = np.empty_like(f_dx)
    chunk = 1024
    for lo in range(0, xc.size, chunk):
        rows = slice(lo, lo + chunk)
        out[rows] = image_kernel_value(t, xc[rows, None], xc[None, :]) @ f_dx
    return state.copy_with(out, time=state.time + t)


def heat_growth_bound(m: float) -> float:
    """Growth-rate envelope for the weighted norm under pure diffusion.

    Defined for m = 1 (contraction) and m >= 3, where the dissipativity
    constant is 4^(1/(m-1)) * m * (m-3)^((m-3)/(m-1)); equal to 6 at m = 3.
    """
    if m == 1.0:
        return 0.0
    if not 3.0 <= m < np.inf:
        raise ConfigError(f"growth envelope available for m = 1 or finite m >= 3, got {m}")
    return float(4.0 ** (1.0 / (m - 1.0)) * m * (m - 3.0) ** ((m - 3.0) / (m - 1.0)))


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


def birth_domination(bundle: OperatorBundle, values: np.ndarray, m: float) -> dict:
    """Gain strictly dominated by weighted loss: |B f|_{X_m} <= (1-delta_m)|a f|_{X_m}."""
    mesh, absolute = bundle.mesh, np.abs(values)
    delta = delta_m(bundle.kernel, m)
    row = moment_row(mesh, m)
    lhs = float(row @ np.abs(bundle.birth.apply(absolute)))
    rhs = (1.0 - delta) * float(row @ (bundle.rate(mesh.centers) * absolute))
    return {"lhs": lhs, "rhs": rhs, "margin": rhs - lhs, "ok": bool(lhs <= rhs * (1 + 1e-12))}
