"""Spectral diagnostics: dominant eigenpair, gap, and measured decay rates.

The conservative dynamics has spectral bound 0 with the steady profile as
eigenvector; everything else of interest is the distance from 0 to the rest
of the spectrum (the gap), which controls the exponential approach to
equilibrium.  The gap is computed after deflating the known null direction
with a rank-one update that moves the zero eigenvalue far into the left
half-plane, so shift-invert Arnoldi near the origin sees only the
subdominant modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import ConfigError, NumericsError, PropertyViolation
from .evolution import Trajectory
from .mesh import State, weighted_norm_of
from .operators import OperatorBundle

_DENSE_CUTOFF = 700


def require_modes(k: int) -> None:
    """The number k of subdominant eigenvalues to report must be at least one."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def _start_vector(mesh) -> np.ndarray:
    """Fixed positive unit vector, so that iterative eigensolves are reproducible."""
    v = np.exp(-mesh.centers / max(1.0, mesh.x_max / 10.0))
    return v / np.linalg.norm(v)


def dominant_eigenpair(bundle: OperatorBundle, tol: float = 1e-10,
                       max_iterations: int = 60) -> tuple[float, State]:
    """Eigenvalue of smallest magnitude and its eigenvector, mass-normalized.

    Inverse iteration with zero shift: the generator is numerically singular
    along the steady direction, which is exactly what makes the iteration
    converge in a couple of steps.
    """
    dense = bundle.dense()
    mesh = bundle.mesh
    try:
        lu = sla.lu_factor(dense)
    except sla.LinAlgError as exc:
        raise NumericsError(f"generator factorization failed: {exc}") from exc
    v = _start_vector(mesh)
    lam = 0.0
    scale = float(np.max(np.abs(dense)))
    for iteration in range(max_iterations):
        try:
            w = sla.lu_solve(lu, v)
        except (sla.LinAlgError, ValueError) as exc:
            raise NumericsError(f"inverse iteration solve failed: {exc}") from exc
        norm = np.linalg.norm(w)
        if not np.isfinite(norm) or norm == 0.0:
            raise NumericsError("inverse iteration broke down")
        v_new = w / norm
        lam_new = float(v_new @ (dense @ v_new))
        if iteration > 0 and abs(lam_new - lam) <= tol * scale:
            v, lam = v_new, lam_new
            break
        v, lam = v_new, lam_new
    else:
        raise NumericsError(
            f"inverse iteration did not settle in {max_iterations} iterations")
    mass_v = float(np.dot(mesh.centers * mesh.widths, v))
    if mass_v < 0:
        v, mass_v = -v, -mass_v
    if abs(mass_v) > 1e-300:
        v = v / mass_v
    return lam, State(values=v, mesh=mesh, time=float("inf"))


def _deflated(bundle: OperatorBundle, null_vector: np.ndarray) -> tuple[np.ndarray, float]:
    dense = bundle.dense()
    row = bundle.mesh.centers * bundle.mesh.widths
    pairing = float(np.dot(row, null_vector))
    if pairing == 0.0:
        raise NumericsError("null vector carries no mass; cannot deflate")
    shift = 100.0 * (1.0 + float(np.max(bundle.death))) * bundle.diffusion_rate
    dense -= (shift / pairing) * np.outer(null_vector, row)
    return dense, shift


def subdominant_spectrum(bundle: OperatorBundle, k: int = 8) -> np.ndarray:
    """The k eigenvalues nearest 0 after removing the conserved direction."""
    require_modes(k)
    if float(bundle.rate.tail_infimum(1e-6, bundle.mesh.x_max)) <= 0.0:
        raise PropertyViolation(
            "spectral run requires a strictly positive rate on the grid")
    _, psi = dominant_eigenpair(bundle)
    deflated, shift = _deflated(bundle, psi.values)
    n = deflated.shape[0]
    if n <= _DENSE_CUTOFF or k >= n - 2:
        values = sla.eigvals(deflated)
    else:
        try:
            lu = sla.lu_factor(deflated)
            op_inv = spla.LinearOperator((n, n), matvec=lambda b: sla.lu_solve(lu, b))
            op = spla.LinearOperator((n, n), matvec=lambda b: deflated @ b)
            values = spla.eigs(op, k=min(k + 4, n - 2), sigma=0.0, OPinv=op_inv,
                               which="LM", v0=_start_vector(bundle.mesh),
                               return_eigenvectors=False)
        except (spla.ArpackNoConvergence, sla.LinAlgError) as exc:
            raise NumericsError(f"subdominant eigensolve failed: {exc}") from exc
    values = values[np.abs(values + shift) > 0.01 * shift]       # drop the moved mode
    values = values[np.argsort(-values.real)]
    return values[:k]


def spectral_gap(bundle: OperatorBundle, k: int = 8) -> float:
    """Distance from 0 to the subdominant spectrum; positive under the
    growth-and-positivity hypotheses, reported as a violation otherwise."""
    values = subdominant_spectrum(bundle, k)
    if values.size == 0:
        raise NumericsError("no subdominant eigenvalues recovered")
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
    window: tuple | None = None
    n_points: int = 0


def decay_rate(trajectory: Trajectory, reference: State,
               window=(1e-10, 1e-2), min_points: int = 6) -> DecayFit:
    """Exponential rate fitted to the recorded distance-to-reference series.

    The fit window keeps distances within `window` times the initial one,
    skipping the early transient and the discretization floor.  Requires a
    trajectory evolved with this reference attached.
    """
    if trajectory.dist_ref is None:
        raise NumericsError("trajectory carries no reference distances; "
                            "evolve(..., reference=...) first")
    t = trajectory.times
    d = trajectory.dist_ref
    d0 = float(d[0])
    ref_scale = weighted_norm_of(reference.mesh, reference.values, 1.0)
    if d0 <= 1e-8 * max(ref_scale, 1e-300):
        return DecayFit(status="not_applicable")
    mask = (d <= window[1] * d0) & (d >= window[0] * d0) & (d > 0)
    if int(mask.sum()) < min_points:
        late = d[-max(3, d.size // 10):]
        if np.all(late >= window[1] * d0):
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
    return DecayFit(status="ok", nu_hat=-slope, r_squared=r2,
                    window=(float(tw[0]), float(tw[-1])), n_points=int(mask.sum()))


def kernel_dimension_check(bundle: OperatorBundle, gap_estimate: float) -> dict:
    """Smallest two singular values of the generator: the first should vanish
    under refinement while the second stays on the order of the gap."""
    svals = sla.svdvals(bundle.dense())
    return {"smallest": float(svals[-1]), "second_smallest": float(svals[-2]),
            "separated": bool(svals[-2] > 0.1 * gap_estimate)}
