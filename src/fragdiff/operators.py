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
over their cell, and the fragment mass a donor places in receiver cell i is
integrated in closed form (power-law kernels) or by Gauss quadrature.
Fragments that land inside the donor's own cell cancel part of its death
instead of appearing in the strictly upper triangle, so for every donor

    birth mass rate  =  effective death mass rate      (exactly),

and the conservation defect of the full generator is the boundary flux
alone.  Cell averages of a are mass-weighted for the same reason.

Every linear solve with the generator goes through `factor`.  For power-law
kernels the birth term is semiseparable, so carrying its suffix sums (and
prefix masses, for the mass pin) as unknowns makes the system banded and
each solve O(N).  Custom kernels keep the one dense path.  Solves with the
diffusion part alone go through `Tridiagonal.factor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import lapack

from .coefficients import DaughterKernel, PowerLawKernel, RateModel
from .errors import ConfigError, NumericsError, PropertyViolation
from .mesh import Mesh, State, require_same_mesh

RIGHT_BCS = ("noflux", "dirichlet")
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(24)


@dataclass(frozen=True)
class Tridiagonal:
    """Tridiagonal operator stored as bands (lower/diag/upper)."""

    lower: np.ndarray   # sub-diagonal, length n-1
    diag: np.ndarray    # length n
    upper: np.ndarray   # super-diagonal, length n-1

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.upper * v[1:]
        out[1:] += self.lower * v[:-1]
        return out

    def factor(self, alpha: float, beta: float) -> Callable[[np.ndarray], np.ndarray]:
        """Factor alpha*I + beta*this once (LAPACK gttrf); return solve(rhs)."""
        dl, d, du, du2, piv, info = lapack.dgttrf(
            beta * self.lower, alpha + beta * self.diag, beta * self.upper)
        if info != 0:
            raise NumericsError(f"tridiagonal system is singular (LAPACK info {info})")

        def solve(rhs: np.ndarray) -> np.ndarray:
            return lapack.dgttrs(dl, d, du, du2, piv, rhs)[0]

        return solve


def assemble_diffusion(mesh: Mesh, right_bc: str = "noflux",
                       diffusion_rate: float = 1.0) -> Tridiagonal:
    """Flux-form second difference with Dirichlet at 0 and configurable right end."""
    if right_bc not in RIGHT_BCS:
        raise ConfigError(f"right_bc must be one of {RIGHT_BCS}, got {right_bc!r}")
    if diffusion_rate <= 0:
        raise ConfigError(f"diffusion_rate must be positive, got {diffusion_rate}")
    xc, dx = mesh.centers, mesh.widths
    n = mesh.n_cells
    gap = xc[1:] - xc[:-1]
    lower = np.zeros(n - 1)
    diag = np.zeros(n)
    upper = np.zeros(n - 1)
    inv = 1.0 / gap
    # interior faces couple neighbours
    diag[:-1] -= inv / dx[:-1]
    upper += inv / dx[:-1]
    lower += inv / dx[1:]
    diag[1:] -= inv / dx[1:]
    # left face: F_0 = phi_0 / xbar_0 (profile vanishing at x = 0)
    diag[0] -= 1.0 / (xc[0] * dx[0])
    if right_bc == "dirichlet":
        diag[-1] -= 1.0 / ((mesh.x_max - xc[-1]) * dx[-1])
    return Tridiagonal(lower=diffusion_rate * lower, diag=diffusion_rate * diag,
                       upper=diffusion_rate * upper)


@dataclass(frozen=True)
class BirthOperator:
    """Strictly upper-triangular gain term plus matching effective death.

    separable form: (B phi)_i = receiver_i * sum_{j>i} donor_j * phi_j, where
    donor_j already carries the donor-cell measure.  Custom kernels store the
    dense applied weights instead.
    """

    mesh: Mesh
    death: np.ndarray
    receiver: np.ndarray | None = None
    donor: np.ndarray | None = None
    dense_applied: np.ndarray | None = field(default=None, repr=False)

    @property
    def separable(self) -> bool:
        return self.receiver is not None

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.separable:
            suffix = np.cumsum((self.donor * v)[::-1])[::-1]
            out = np.zeros_like(v)
            out[:-1] = self.receiver[:-1] * suffix[1:]
            return out
        return self.dense_applied @ v

    def applied_matrix(self) -> np.ndarray:
        """Dense matrix K with (B phi) = K phi (strictly upper triangle)."""
        if self.separable:
            return np.triu(np.outer(self.receiver, self.donor), 1)
        return self.dense_applied

    def unit_weights(self) -> np.ndarray:
        """Weights per unit donor density, w_ij = K_ij / dx_j."""
        return self.applied_matrix() / self.mesh.widths[None, :]


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
    if np.any(donor < 0) or np.any(receiver < 0):
        raise PropertyViolation("negative birth weight from inadmissible coefficients")
    # in-cell fragments cancel death down to x_{i-1}^(nu+2) * donor_i / (xbar dx);
    # donor 1 keeps all its fragments and loses nothing.
    death = np.zeros(n)
    death[1:] = edges[1:-1] ** (nu + 2.0) * donor[1:] / (xc[1:] * dx[1:])
    return BirthOperator(mesh=mesh, death=death, receiver=receiver, donor=donor)


def _assemble_birth_custom(mesh: Mesh, rate: RateModel,
                           kernel: DaughterKernel) -> BirthOperator:
    edges, xc, dx = mesh.edges, mesh.centers, mesh.widths
    n = mesh.n_cells
    half = 0.5 * dx
    y_nodes = xc[:, None] + half[:, None] * _GAUSS_NODES[None, :]   # (n, q)
    y_weights = half[:, None] * _GAUSS_WEIGHTS[None, :]
    a_nodes = rate(y_nodes)
    mass_prod = np.sum(y_weights * a_nodes * y_nodes, axis=1)       # int a(y) y dy
    applied = np.zeros((n, n))
    death = np.zeros(n)
    for j in range(n):
        # fragment mass below edges 0..j and below the donor itself, per node:
        # its differences are the mass sent to cells 0..j-1 and kept in cell j
        below = np.array([kernel.fragment_mass_below(np.append(edges[:j + 1], y), y)
                          for y in y_nodes[j]])
        mass_to = (y_weights[j] * a_nodes[j]) @ np.diff(below, axis=1)
        raw_total = mass_to.sum()
        if raw_total <= 0.0:
            continue
        # enforce exact balance against the quadrature defect
        mass_to *= mass_prod[j] / raw_total
        applied[:j, j] = mass_to[:j] / (xc[:j] * dx[:j])
        death[j] = (mass_prod[j] - mass_to[j]) / (xc[j] * dx[j])
    if np.any(applied < 0) or np.any(death < -1e-14):
        raise PropertyViolation("negative birth weight from inadmissible coefficients")
    return BirthOperator(mesh=mesh, death=np.maximum(death, 0.0),
                         dense_applied=applied)


def assemble_birth(mesh: Mesh, rate: RateModel, kernel: DaughterKernel) -> BirthOperator:
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
    kernel: DaughterKernel
    right_bc: str = "noflux"
    diffusion_rate: float = 1.0

    @property
    def death(self) -> np.ndarray:
        return self.birth.death

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.diffusion.apply(v) - self.death * v + self.birth.apply(v)

    def apply_reaction(self, v: np.ndarray) -> np.ndarray:
        return self.birth.apply(v) - self.death * v

    def dense(self) -> np.ndarray:
        """Dense generator: the custom-kernel path of `factor` and a test oracle."""
        tri = self.diffusion
        out = np.diag(tri.diag - self.death) + np.diag(tri.upper, 1) + np.diag(tri.lower, -1)
        return out + self.birth.applied_matrix()


def _interleaved_bands(bundle: OperatorBundle, alpha: float, beta: float,
                       pin: bool) -> np.ndarray:
    """LAPACK band storage (kl = ku = 3) of alpha*I + beta*G, unknowns (phi_i, s_i, p_i)."""
    tri, birth, mesh = bundle.diffusion, bundle.birth, bundle.mesh
    phi = 3 * np.arange(mesh.n_cells)
    s, p = phi + 1, phi + 2
    ab = np.zeros((10, 3 * mesh.n_cells))

    def put(rows, cols, values):
        ab[6 + rows - cols, cols] = values

    # phi rows: alpha phi_i + beta (L phi - d phi + receiver_i s_i) = rhs_i
    diag = alpha + beta * (tri.diag - birth.death)
    lower = beta * tri.lower
    receiver = beta * birth.receiver
    if pin:     # the last phi row becomes p_{N-1} = rhs_{N-1}
        diag[-1] = lower[-1] = receiver[-1] = 0.0
        put(phi[-1], p[-1], 1.0)
    put(phi, phi, diag)
    put(phi[1:], phi[:-1], lower)
    put(phi[:-1], phi[1:], beta * tri.upper)
    put(phi, s, receiver)
    # s_i = sum_{j>i} donor_j phi_j, p_i = sum_{j<=i} xbar_j dx_j phi_j by recurrences,
    # scaled to the phi rows (else pivoting lets the mass pin drift 1e-10 at N = 2^16)
    unit = float(np.max(np.abs(diag)))
    put(s, s, unit)
    put(s[:-1], s[1:], -unit)
    put(s[:-1], phi[1:], -unit * birth.donor[1:])
    put(p, p, unit)
    put(p[1:], p[:-1], -unit)
    put(p, phi, -unit * mesh.centers * mesh.widths)
    return ab


def factor(bundle: OperatorBundle, alpha: float, beta: float,
           pin: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """Factor alpha*I + beta*G once; return solve(rhs) -> phi.

    With `pin`, the last equation is the mass row instead,
    sum_i xbar_i dx_i phi_i = rhs[-1].  Power-law kernels: banded LU of the
    system in (phi_i, s_i, p_i).  Custom kernels: LU of the same matrix built
    from `OperatorBundle.dense()`.
    """
    n = bundle.mesh.n_cells
    banded = bundle.birth.separable
    if banded:
        lu, piv, info = lapack.dgbtrf(_interleaved_bands(bundle, alpha, beta, pin), 3, 3)
    else:
        matrix = alpha * np.eye(n) + beta * bundle.dense()
        if pin:
            matrix[-1] = bundle.mesh.centers * bundle.mesh.widths
        lu, piv, info = lapack.dgetrf(matrix)
    if info != 0:
        raise NumericsError(f"generator system is singular (LAPACK info {info})")

    def solve(rhs: np.ndarray) -> np.ndarray:
        if not banded:
            return lapack.dgetrs(lu, piv, rhs)[0]
        z = np.zeros(3 * n)
        z[::3] = rhs
        return lapack.dgbtrs(lu, 3, 3, z, piv)[0][::3]

    return solve


def assemble_bundle(mesh: Mesh, rate: RateModel, kernel: DaughterKernel,
                    right_bc: str = "noflux", diffusion_rate: float = 1.0) -> OperatorBundle:
    diffusion = assemble_diffusion(mesh, right_bc, diffusion_rate)
    birth = assemble_birth(mesh, rate, kernel)
    return OperatorBundle(mesh=mesh, diffusion=diffusion, birth=birth,
                          rate=rate, kernel=kernel, right_bc=right_bc,
                          diffusion_rate=diffusion_rate)


def apply_generator(bundle: OperatorBundle, state: State) -> State:
    require_same_mesh(bundle.mesh, state)
    return state.copy_with(bundle.apply(state.values))


# ---------------------------------------------------------------------------
# half-line heat propagator by reflection
# ---------------------------------------------------------------------------

def kernel_value(t, z) -> np.ndarray:
    """Gaussian heat kernel exp(-z^2 / 4t) / sqrt(4 pi t); t broadcastable."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ConfigError("kernel time must be positive")
    z = np.asarray(z, dtype=float)
    return np.exp(-z * z / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)


def image_kernel_value(t: float, x, y) -> np.ndarray:
    """Dirichlet half-line kernel k(t, x-y) - k(t, x+y); nonnegative for x, y > 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return kernel_value(t, x - y) - kernel_value(t, x + y)


def heat_apply_exact(state: State, t: float) -> State:
    """Evolve a state by the half-line heat propagator, as a dense quadrature.

    O(N^2) reference evaluator for validation; never used in the time loop.
    Nonnegative input yields nonnegative output (kernel positivity), enforced
    against roundoff.
    """
    xc = state.mesh.centers
    f_dx = state.values * state.mesh.widths
    out = np.empty_like(f_dx)
    chunk = 1024
    for lo in range(0, xc.size, chunk):
        hi = min(lo + chunk, xc.size)
        block = image_kernel_value(t, xc[lo:hi, None], xc[None, :])
        out[lo:hi] = block @ f_dx
    if np.all(state.values >= 0.0):
        np.maximum(out, 0.0, out=out)
    return state.copy_with(out, time=state.time + t)


def heat_growth_bound(m: float) -> float:
    """Growth-rate envelope for the weighted norm under pure diffusion.

    Defined for m = 1 (contraction) and m >= 3, where the dissipativity
    constant is 4^(1/(m-1)) * m * (m-3)^((m-3)/(m-1)); equal to 6 at m = 3.
    """
    if m == 1.0:
        return 0.0
    if m < 3.0:
        raise ConfigError("growth envelope available for m = 1 or m >= 3")
    return float(4.0 ** (1.0 / (m - 1.0)) * m * (m - 3.0) ** ((m - 3.0) / (m - 1.0)))
