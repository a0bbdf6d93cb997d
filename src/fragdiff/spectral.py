"""Spectral diagnostics: dominant eigenpair, gap, and measured decay rates.

The conservative dynamics has spectral bound 0 with the steady profile as
eigenvector; everything else of interest is the distance from 0 to the rest
of the spectrum (the gap), which controls the exponential approach to
equilibrium.  The gap is computed by shift-invert Arnoldi on the generator
itself about a real shift right of the spectrum, with every solve going
through the one factorisation of `operators.factor`; the dominant mode is
then dropped.  ARPACK (`scipy.sparse.linalg`) loads on the first such call,
so no other task pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError, PropertyViolation
from .evolution import Trajectory
from .mesh import State, moment_of, require_count, x1_distance_of
from .operators import OperatorBundle, factor

_SHIFT = 1.0     # real shift sigma > 0 of the Arnoldi spectral transformation
_EIGEN_TOL = 1e-12   # inverse iteration settles once its unit vector moves by this
_MAX_ITERATIONS = 60
_FIT_WINDOW = (1e-10, 1e-2)     # decay fit: distances within these multiples of the first
_MIN_FIT_POINTS = 6


def require_modes(k: int, n_cells: int) -> int:
    """The number k of subdominant eigenvalues to report, 1 <= k <= n_cells - 3.

    Arnoldi finds at most n_cells - 2 eigenvalues and the dominant one is
    dropped, so a larger k could not be honoured.
    """
    k = require_count("k", k, 1)
    if k > n_cells - 3:
        raise ConfigError(f"k must be <= n_cells - 3 = {n_cells - 3}, got {k}")
    return k


def _start_vector(mesh) -> np.ndarray:
    """Fixed positive unit vector, so that iterative eigensolves are reproducible."""
    v = np.exp(-mesh.centers / max(1.0, mesh.x_max / 10.0))
    return v / np.linalg.norm(v)


def dominant_eigenpair(bundle: OperatorBundle) -> tuple[float, State]:
    """Eigenvalue of smallest magnitude and its eigenvector, mass-normalized.

    Inverse iteration with zero shift through `operators.factor`, which
    converges at |lambda0 / lambda1| per step; it stops once the unit vector
    moves by at most _EIGEN_TOL.
    """
    solve = factor(bundle, 0.0, 1.0)
    v = _start_vector(bundle.mesh)
    for _ in range(_MAX_ITERATIONS):
        w = solve(v)
        # scaled to v's orientation: with lambda0 ~ 0 the sign of G^-1 v is arbitrary
        w /= np.copysign(np.linalg.norm(w), w @ v)
        v, step = w, np.linalg.norm(w - v)
        if step <= _EIGEN_TOL:
            break
    else:
        raise NumericsError(
            f"inverse iteration did not settle in {_MAX_ITERATIONS} iterations")
    lam = float(v @ bundle.apply(v))
    mass_v = moment_of(bundle.mesh, v, 1.0)
    if abs(mass_v) > 1e-300:        # also makes the mass positive
        v = v / mass_v
    return lam, State(values=v, mesh=bundle.mesh, time=float("inf"))


def subdominant_spectrum(bundle: OperatorBundle, k: int = 8) -> np.ndarray:
    """The k eigenvalues of largest real part after the dominant mode.

    Shift-invert Arnoldi on G about the real shift _SHIFT > 0, solving with
    `operators.factor`; G - _SHIFT*I is nonsingular because the weighted-L1
    semigroup is a contraction.  The dominant mode, the one of largest real
    part, is real and simple by positivity and is dropped.
    """
    k = require_modes(k, bundle.mesh.n_cells)
    if not float(np.min(bundle.rate(bundle.mesh.centers))) > 0.0:
        raise PropertyViolation(
            "spectral run requires a strictly positive rate on the grid")
    # here, not at the top: about 15 ms and 3.6 MB that no other task reads
    import scipy.sparse.linalg as spla

    n = bundle.mesh.n_cells
    op = spla.LinearOperator((n, n), matvec=bundle.apply)
    op_inv = spla.LinearOperator((n, n), matvec=factor(bundle, -_SHIFT, 1.0))
    try:
        values = spla.eigs(op, k=min(k + 5, n - 2), sigma=_SHIFT, OPinv=op_inv,
                           which="LM", v0=_start_vector(bundle.mesh),
                           return_eigenvectors=False)
    except spla.ArpackError as exc:
        raise NumericsError(f"subdominant eigensolve failed: {exc}") from exc
    return values[np.argsort(-values.real)][1:k + 1]


def spectral_gap(bundle: OperatorBundle, k: int = 8) -> float:
    """Distance from 0 to the subdominant spectrum; positive under the
    growth-and-positivity hypotheses, reported as a violation otherwise."""
    values = subdominant_spectrum(bundle, k)
    gap = -float(np.max(values.real))
    if gap <= 0.0:
        raise PropertyViolation(
            f"nonpositive spectral gap {gap:.3e}: subdominant mode does not decay "
            f"(eigenvalues near 0: {np.array2string(values[:4], precision=4)})")
    return gap


@dataclass(frozen=True)
class DecayFit:
    status: str                  # "ok", "not_applicable", "no_decay"
    nu_hat: float | None = None
    r_squared: float | None = None
    n_points: int = 0


def decay_rate(trajectory: Trajectory, reference: State) -> DecayFit:
    """Exponential rate fitted to the recorded distance-to-reference series.

    The fit window keeps distances within _FIT_WINDOW times the initial one,
    skipping the early transient and the discretization floor.  Requires a
    trajectory evolved with this reference attached.
    """
    if trajectory.dist_ref is None:
        raise ConfigError("trajectory carries no reference distances; "
                          "evolve(..., reference=...) first")
    t = trajectory.times
    d = trajectory.dist_ref
    d0 = float(d[0])
    ref_scale = x1_distance_of(reference.mesh, reference.values, 0.0)
    if d0 <= 1e-8 * max(ref_scale, 1e-300):
        return DecayFit(status="not_applicable")
    low, high = _FIT_WINDOW
    mask = (d <= high * d0) & (d >= low * d0) & (d > 0)
    if int(mask.sum()) < _MIN_FIT_POINTS:
        late = d[-max(3, d.size // 10):]
        if np.all(late >= high * d0):
            return DecayFit(status="no_decay")
        return DecayFit(status="not_applicable")
    tw, dw = t[mask], np.log(d[mask])
    design = np.column_stack([tw, np.ones_like(tw)])
    coef, *_ = np.linalg.lstsq(design, dw, rcond=None)
    slope = float(coef[0])
    if slope >= 0.0:
        return DecayFit(status="no_decay")
    fitted = design @ coef
    ss_res = float(np.sum((dw - fitted) ** 2))
    ss_tot = float(np.sum((dw - dw.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(status="ok", nu_hat=-slope, r_squared=r2, n_points=int(mask.sum()))
