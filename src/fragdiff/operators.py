"""Discrete generator: diffusion, death and mass-conserving birth operators.

The generator acting on cell values phi is

    (G phi)_i = (L phi)_i - d_i phi_i + sum_{j>i} w_ij phi_j dx_j,

with L the flux-form second difference and d the effective death rate.

Diffusion uses two-point face fluxes; the Dirichlet condition phi(0) = 0
enters through the left face flux F_0 = phi_1 / xbar_1 (linear profile
through the boundary node).  This specific choice makes the discrete
x-weighted sum telescope exactly, so diffusion changes total mass only
through the truncation boundary at x_max.

Birth weights apportion fragment MASS exactly: donors in cell j are spread
over their cell, and the fragment mass a donor places in receiver cell i < j
is integrated over that cell, in closed form (power-law kernels) or by Gauss
quadrature on the cell itself, so no weight is a difference of cumulative
masses.  A donor's effective death is the mass it sends below its cell, so
for every donor

    birth mass rate  =  effective death mass rate      (by construction),

and the conservation defect of the full generator is the boundary flux
alone.  Cell averages of a are mass-weighted for the same reason.

Every linear solve with the generator goes through `factor`.  For power-law
kernels the birth term is semiseparable, so carrying its suffix sums as
unknowns makes the system banded and each solve O(N): 2N unknowns with
half-bandwidth 2, one layout for every shift.  Implicit steps (I - dt G) and
shifted solves (G - I) are M-matrices up to sign, whose LU needs no row
interchange; when LAPACK made none, a solve is two BLAS band sweeps.  Custom
kernels keep the one dense path.
Solves with the diffusion part alone go through `Tridiagonal.factor`;
imex_euler's step map `imex_step` and its `positivity_budget` sit beside
`factor`, so no other module reads the birth operator's storage.  The heat
propagator that tests check the generator against is an oracle in `checks`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import blas, lapack

from .coefficients import _GAUSS_NODES as _CELL_NODES, _GAUSS_WEIGHTS as _CELL_WEIGHTS
from .coefficients import CustomKernel, PowerLawKernel, RateModel
from .errors import ConfigError, NumericsError, PropertyViolation
from .mesh import Mesh

RIGHT_BCS = ("noflux", "dirichlet")
_DONOR_NODES, _DONOR_WEIGHTS = leggauss(24)


@dataclass(frozen=True)
class Tridiagonal:
    """Tridiagonal operator stored as bands (lower/diag/upper).

    `symmetriser` holds positive weights w that make diag(w) @ this
    symmetric, w[:-1] * upper == w[1:] * lower; the flux-form diffusion is
    self-adjoint in the dx-weighted inner product, so w is the cell widths.
    """

    lower: np.ndarray   # sub-diagonal, length n-1
    diag: np.ndarray    # length n
    upper: np.ndarray   # super-diagonal, length n-1
    symmetriser: np.ndarray     # length n

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.upper * v[1:]
        out[1:] += self.lower * v[:-1]
        return out

    def factor(self, beta: float) -> Callable[[np.ndarray], np.ndarray]:
        """Factor diag(w)(I + beta*this) once; return solve(rhs) -> x.

        x solves diag(w)(I + beta this) x = rhs, so the caller weights its
        right-hand side by w: solve(w * b) solves (I + beta this) x = b.  The
        symmetric matrix is factored as L D L^T (LAPACK pttrf, no pivoting),
        and solve runs pttrs in place: it writes x over a contiguous float64
        rhs and returns that array (`Stepper.fill` relies on it to leave each
        state in its row).  Raises NumericsError unless positive definite.
        """
        w = self.symmetriser
        d, e, info = lapack.dpttrf(w * (1.0 + beta * self.diag),
                                   beta * (w[:-1] * self.upper))
        if info != 0:
            raise NumericsError(
                f"tridiagonal system is not positive definite (LAPACK info {info})")

        def solve(rhs: np.ndarray) -> np.ndarray:
            return lapack.dpttrs(d, e, rhs, overwrite_b=True)[0]

        return solve


def assemble_diffusion(mesh: Mesh, right_bc: str = "noflux",
                       diffusion_rate: float = 1.0) -> Tridiagonal:
    """Flux-form second difference with Dirichlet at 0 and configurable right end."""
    if right_bc not in RIGHT_BCS:
        raise ConfigError(f"right_bc must be one of {RIGHT_BCS}, got {right_bc!r}")
    if not 0 < diffusion_rate < np.inf:
        raise ConfigError(f"diffusion_rate must be positive and finite, got {diffusion_rate}")
    xc, dx = mesh.centers, mesh.widths
    inv = 1.0 / (xc[1:] - xc[:-1])
    # interior face i + 1/2 couples cells i and i + 1 and drains both diagonals
    upper, lower = inv / dx[:-1], inv / dx[1:]
    diag = -np.append(upper, 0.0) - np.append(0.0, lower)
    # left face: F_0 = phi_0 / xbar_0 (profile vanishing at x = 0)
    diag[0] -= 1.0 / (xc[0] * dx[0])
    if right_bc == "dirichlet":
        diag[-1] -= 1.0 / ((mesh.x_max - xc[-1]) * dx[-1])
    return Tridiagonal(lower=diffusion_rate * lower, diag=diffusion_rate * diag,
                       upper=diffusion_rate * upper, symmetriser=dx)


@dataclass(frozen=True)
class BirthOperator:
    """Strictly upper-triangular gain term plus matching effective death.

    separable form: (B phi)_i = receiver_i * sum_{j>i} donor_j * phi_j, where
    donor_j already carries the donor-cell measure.  Custom kernels store the
    dense applied weights instead.
    """

    death: np.ndarray
    receiver: np.ndarray | None = None
    donor: np.ndarray | None = None
    dense_applied: np.ndarray | None = field(default=None, repr=False)

    @property
    def separable(self) -> bool:
        return self.receiver is not None

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Gain term B v, always float64; the suffix sums run in one buffer."""
        if not self.separable:
            return self.dense_applied @ v
        out = np.multiply(self.donor, v, out=np.empty(self.donor.shape))
        suffix = out[::-1]
        np.add.accumulate(suffix, out=suffix)
        np.multiply(self.receiver[:-1], out[1:], out=out[:-1])
        out[-1] = 0.0
        return out

    def applied_matrix(self) -> np.ndarray:
        """Dense matrix K with (B phi) = K phi (strictly upper triangle)."""
        if self.separable:
            return np.triu(np.outer(self.receiver, self.donor), 1)
        return self.dense_applied


def _assemble_birth_powerlaw(mesh: Mesh, rate: RateModel,
                             kernel: PowerLawKernel) -> BirthOperator:
    nu = kernel.nu
    edges, xc, dx = mesh.edges, mesh.centers, mesh.widths
    n = mesh.n_cells
    # receiver_i: fragment mass landing in cell i per unit donor strength,
    # converted to a density gain; exact power-law antiderivative.
    beta = edges[1:] ** (nu + 2.0) - edges[:-1] ** (nu + 2.0)
    receiver = beta / (xc * dx)
    # donor_j: integral over the donor cell of a(y) y^(-nu-1); the first cell
    # has no receivers below it, so its entry is never used.
    donor = np.zeros(n)
    donor[1:] = rate.cell_integrals(edges, -nu - 1.0)[1:]
    if np.any(donor < 0):
        raise PropertyViolation("negative birth weight from inadmissible coefficients")
    # death_j is the mass donor j sends below its cell: the receiver weights
    # times xbar dx telescope to x_j^(nu+2) * donor_j; donor 0 sends nothing.
    death = np.zeros(n)
    death[1:] = edges[1:-1] ** (nu + 2.0) * donor[1:] / (xc[1:] * dx[1:])
    return BirthOperator(death=death, receiver=receiver, donor=donor)


def _assemble_birth_custom(mesh: Mesh, rate: RateModel,
                           kernel: CustomKernel) -> BirthOperator:
    xc, dx = mesh.centers, mesh.widths
    n = mesh.n_cells
    half = 0.5 * dx[:, None]
    # donors on a 24-node rule per cell; receivers on the kernel's 64-node
    # rule per cell, weighted by x dx so each sum is a cell's fragment mass
    y_nodes = xc[:, None] + half * _DONOR_NODES
    y_weights = half * _DONOR_WEIGHTS * rate(y_nodes)
    x_nodes = xc[:, None] + half * _CELL_NODES
    x_weights = x_nodes * half * _CELL_WEIGHTS
    applied = np.zeros((n, n))
    death = np.zeros(n)
    for j in range(1, n):
        # mass each donor node sends to cells 0..j-1, all below it; death is the sum
        masses = [np.vecdot(kernel.fn(x_nodes[:j], y), x_weights[:j]) for y in y_nodes[j]]
        sent = y_weights[j] @ masses
        applied[:j, j] = sent / (xc[:j] * dx[:j])
        death[j] = sent.sum() / (xc[j] * dx[j])
    if np.any(applied < 0):
        raise PropertyViolation("negative birth weight from inadmissible coefficients")
    return BirthOperator(death=death, dense_applied=applied)


def assemble_birth(mesh: Mesh, rate: RateModel,
                   kernel: PowerLawKernel | CustomKernel) -> BirthOperator:
    if isinstance(kernel, PowerLawKernel):
        return _assemble_birth_powerlaw(mesh, rate, kernel)
    return _assemble_birth_custom(mesh, rate, kernel)


@dataclass(frozen=True)
class OperatorBundle:
    """Assembled generator pieces on one mesh; immutable and reusable."""

    mesh: Mesh
    diffusion: Tridiagonal
    birth: BirthOperator
    rate: RateModel
    kernel: PowerLawKernel | CustomKernel

    @property
    def death(self) -> np.ndarray:
        return self.birth.death

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.diffusion.apply(v) + self.apply_reaction(v)

    def apply_reaction(self, v: np.ndarray) -> np.ndarray:
        out = self.birth.apply(v)
        out -= self.death * v
        return out

    def dense(self) -> np.ndarray:
        """Dense generator: the custom-kernel path of `factor` and a test oracle."""
        tri = self.diffusion
        out = np.diag(tri.diag - self.death) + np.diag(tri.upper, 1) + np.diag(tri.lower, -1)
        return out + self.birth.applied_matrix()


def _interleaved_bands(bundle: OperatorBundle, alpha: float, beta: float) -> np.ndarray:
    """LAPACK band storage (kl = ku = 2) of alpha*I + beta*G in the unknowns (phi_i, s_i)."""
    tri, birth = bundle.diffusion, bundle.birth
    # entry (row, col) sits at ab[4 + row - col, col]; phi_i is column 2i and
    # s_i column 2i + 1, so each diagonal is a strided row slice
    ab = np.zeros((7, 2 * bundle.mesh.n_cells), order="F")     # dgbtrf factors it in place
    # phi rows: alpha phi_i + beta (L phi - d phi + receiver_i s_i) = rhs_i
    diag = alpha + beta * (tri.diag - birth.death)
    ab[4, ::2] = diag
    ab[6, :-2:2] = beta * tri.lower         # phi_i in row phi_{i+1}
    ab[2, 2::2] = beta * tri.upper          # phi_{i+1} in row phi_i
    ab[3, 1::2] = beta * birth.receiver     # s_i in row phi_i
    # s_i = sum_{j>i} donor_j phi_j by recurrence, scaled to the phi rows for
    # pivoting on G (unscaled, the mitosis steady M2 errs 9e-8, not 1e-9, at N = 2^18)
    unit = float(np.max(np.abs(diag)))
    ab[4, 1::2] = unit
    ab[2, 3::2] = -unit                     # s_{i+1} in row s_i
    ab[3, 2::2] = -unit * birth.donor[1:]   # phi_{i+1} in row s_i
    return ab


def factor(bundle: OperatorBundle, alpha: float,
           beta: float) -> Callable[[np.ndarray], np.ndarray]:
    """Factor alpha*I + beta*G once; return solve(rhs) -> phi.

    Power-law kernels: banded LU of the system in (phi_i, s_i), half-bandwidth
    2; when partial pivoting interchanged no row, each solve is two `dtbsv`
    sweeps, else `dgbtrs`.  The unit-lower one runs on the N phi rows alone,
    through L's second subdiagonal: the s rows have no entry left of the
    diagonal, so L's s rows hold no multiplier, and the s right-hand sides are
    0, so it skips only products with exact zeros and equals the 2N sweep
    bit for bit.  Custom kernels: LU of the same matrix built from
    `OperatorBundle.dense()`.  A singular system raises NumericsError.  G
    itself (alpha = 0) is singular only up to roundoff; were it exactly
    singular, G with the mass row in place of its last row would be the
    alternative for the steady solves.
    """
    n = bundle.mesh.n_cells
    banded = bundle.birth.separable
    if banded:
        lu, piv, info = lapack.dgbtrf(_interleaved_bands(bundle, alpha, beta), 2, 2,
                                      overwrite_ab=True)
    else:
        lu, piv, info = lapack.dgetrf(alpha * np.eye(n) + beta * bundle.dense())
    if info != 0:
        raise NumericsError(f"generator system is singular (LAPACK info {info})")
    if not banded:
        return lambda rhs: lapack.dgetrs(lu, piv, rhs)[0]
    if np.array_equal(piv, np.arange(2 * n)):
        # no row interchange: U keeps 2 superdiagonals (its fill-in rows stay
        # zero); phi_lower[0] fills dtbsv's unit-diagonal row, which it never reads
        phi_lower, upper = np.asfortranarray(lu[5:, ::2]), np.asfortranarray(lu[2:5])

        def sweeps(z):
            z[::2] = blas.dtbsv(1, phi_lower, z[::2], lower=1, diag=1)
            return blas.dtbsv(2, upper, z, overwrite_x=1)
    else:
        def sweeps(z):
            return lapack.dgbtrs(lu, 2, 2, z, piv, overwrite_b=True)[0]

    def solve(rhs: np.ndarray) -> np.ndarray:
        z = np.zeros(2 * n)
        z[::2] = rhs
        # z is this solve's own: the sweeps may overwrite it.  The result is a
        # contiguous copy: the strided view would keep all 2N unknowns alive
        return sweeps(z)[::2].copy()

    return solve


def positivity_budget(bundle: OperatorBundle, dt: float) -> float:
    """dt * max(death), imex_step's; warns the caller's caller above 1."""
    budget = dt * float(np.max(bundle.death))
    if budget > 1.0:
        warnings.warn(f"positivity budget {budget:.2f} > 1: the explicit part of the "
                      "step may lose positivity", stacklevel=3)
    return budget


def imex_step(bundle: OperatorBundle,
              dt: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """imex_euler's step(values, out): the state dt after values, in out (a row).

    The diffusion solve takes right-hand sides weighted by the symmetriser
    w: dt w B v + keep v, keep = w (1 - dt d), formed in place before one
    `pttrs` for a power-law kernel.  A custom kernel's gain is dense, so its
    step is one product with M, the step applied once to the identity.
    """
    solve = bundle.diffusion.factor(-dt)
    w, birth = bundle.diffusion.symmetriser, bundle.birth
    keep = w * (1.0 - dt * bundle.death)
    if not birth.separable:
        # a dense gain makes the step dense anyway: one matrix, dt w K off
        # the diagonal and keep on it (K's diagonal is 0)
        explicit = (dt * w)[:, None] * birth.dense_applied
        np.fill_diagonal(explicit, keep)
        return solve(explicit).dot     # called as (values, out)
    gain, donor, suffix = dt * w * birth.receiver, birth.donor[1:], np.zeros(len(w))

    def step(values, out):
        # apply_reaction's roundings (x - (-k v) == x + k v, and + commutes)
        # and the solve, in out and suffix: keep v + gain s, s_i = sum_(j>i) donor_j v_j
        out = np.multiply(keep, values, out=out)
        np.multiply(donor, values[1:], out=suffix[:-1])     # suffix[-1] stays 0
        np.add.accumulate(suffix[-2::-1], out=suffix[-2::-1])
        out += np.multiply(gain, suffix, out=suffix)
        return solve(out)

    return step


def assemble_bundle(mesh: Mesh, rate: RateModel, kernel: PowerLawKernel | CustomKernel,
                    right_bc: str = "noflux", diffusion_rate: float = 1.0) -> OperatorBundle:
    diffusion = assemble_diffusion(mesh, right_bc, diffusion_rate)
    birth = assemble_birth(mesh, rate, kernel)
    return OperatorBundle(mesh=mesh, diffusion=diffusion, birth=birth, rate=rate, kernel=kernel)
