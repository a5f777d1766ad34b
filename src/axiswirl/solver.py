"""Time integration of the unit-viscosity axisymmetric Navier-Stokes system with swirl.

IMEX Runge-Kutta (Ascher, Ruuth & Spiteri 1997, the L-stable (2,2,2) scheme):
advection and the curvature terms are explicit, the viscous terms implicit,
with a pressure projection after each stage.  The implicit solves are exact:
each viscous operator is a sum of a radial and an axial 1D operator, both
tridiagonal, diagonalised once per grid (Lynch, Rice & Thomas 1964): the radial
ones by a tridiagonal eigensolver, the axial ones by sine and cosine bases in
closed form.  With no viscous stability limit, dt is set by the advective CFL
alone.  The projection uses the adjoint D^T of the divergence D (both applied
from D's 1D factors), so the post-projection divergence equals the
Poisson solve residual (times the stage's time increment) at every node,
boundary rows included.  Its pressure operator is diagonalised from two dense
generalised eigenproblems (the axial one split in two by z-reversal), so the
pressure solve is one application of its exact inverse: no factor is stored,
and no state is kept from one projection to the next.

A step works in place: ``_apply_bcs``, ``solve`` and ``project`` write into the
field they are handed, so each stage lives in one buffer, and a step holds at most
six velocity fields above its state: a right-hand side, the stage-1 solution and
one explicit tendency with its upwind scratch (5.85 at 128^2, by tracemalloc).

Axis terms (1/r, 1/r^2) are handled by parity ghosts; r is never clamped.
The boundary conditions own the axis: vr and vtheta vanish there, and vz's
axis row is an unknown of the implicit solve and of the projection, whose
stencils take its even-parity limit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from .fields import (
    AxisymField,
    Grid,
    boundary_max,
    max_rspeed,
    max_rvtheta,
    max_speed,
)


class PoissonError(RuntimeError):
    """Pressure solve failed to reach the requested residual."""

    def __init__(self, msg: str, achieved: float):
        super().__init__(msg)
        self.achieved = achieved


class UnstableError(RuntimeError):
    """NaN/Inf detected during time stepping."""

    def __init__(self, msg: str, t: float):
        super().__init__(msg)
        self.t = t


@dataclass
class SolverConfig:
    dt: float | None = None
    cfl: float | None = None
    t_end: float = 1.0
    projection_tol: float = 1e-10
    snapshot_every: int = 1
    boundary: str = "dirichlet0"  # "dirichlet0" | "hold"

    def __post_init__(self):
        if (self.dt is None) == (self.cfl is None):
            raise ValueError("exactly one of dt / cfl must be given")
        name, step = ("cfl", self.cfl) if self.dt is None else ("dt", self.dt)
        if not step > 0:
            raise ValueError(f"{name} must be positive, got {step}")
        if self.cfl is not None and self.cfl > 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not (0 < self.projection_tol <= 1e-4):
            raise ValueError(f"projection_tol must lie in (0, 1e-4], got {self.projection_tol}")
        if self.boundary not in ("dirichlet0", "hold"):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


# ---------------------------------------------------------------------------
# spatial operators
# ---------------------------------------------------------------------------

def _pad(f: np.ndarray, parity: int | None = None, axis: int = 0) -> np.ndarray:
    """``f`` with 2 ghost rows on each end of ``axis``, quadratically extrapolated;
    at the start (the axis) the parity images parity f[1] and parity f[2], if given."""
    out = np.empty([m + 4 * (k == axis) for k, m in enumerate(f.shape)])
    o, f = out.swapaxes(0, axis), f.swapaxes(0, axis)
    o[2:-2] = f
    if parity is None:
        o[1] = 3 * f[0] - 3 * f[1] + f[2]
        o[0] = 3 * o[1] - 3 * f[0] + f[1]
    else:
        o[1], o[0] = parity * f[1], parity * f[2]
    o[-2] = 3 * f[-1] - 3 * f[-2] + f[-3]
    o[-1] = 3 * o[-2] - 3 * f[-1] + f[-2]
    return out


def _upwind(f: np.ndarray, pos: np.ndarray, neg: np.ndarray, h: float, axis: int = 0,
            out: np.ndarray | None = None) -> np.ndarray:
    """pos times the backward and neg times the forward second-order difference
    along ``axis`` of the padded ``f`` (index i+2 is node i), spacing h, into ``out`` if given."""
    f0, f1, f2, f3, f4 = (f[(slice(None),) * axis + (slice(k, k - 4 or None),)] for k in range(5))
    c3 = 3 * f2
    back = np.multiply(4, f1, out=out)
    np.subtract(c3, back, out=back)
    back += f0
    back /= 2 * h
    back *= pos
    fwd = 4 * f3
    fwd -= c3  # -3 f_i + 4 f_i+1 by commutation
    fwd -= f4
    fwd /= 2 * h
    fwd *= neg
    return np.add(back, fwd, out=back)


def upwind_split(b: AxisymField) -> tuple[np.ndarray, ...]:
    """b's advecting velocities split by sign: max(vr, 0), min(vr, 0), max(vz, 0), min(vz, 0)."""
    return tuple(op(v, 0.0) for v in (b.vr, b.vz) for op in (np.maximum, np.minimum))


def advect(b: AxisymField, vals: np.ndarray, parity: int = 1, split=None, out=None) -> np.ndarray:
    """Upwind evaluation of b.grad f = vr d_r f + vz d_z f (second-order biased)
    for the nodal values ``vals`` of f on b's grid, written into ``out`` if
    given: a velocity's positive part (``split`` = upwind_split(b), if made)
    takes the backward difference, its negative part the forward one.
    ``parity`` gives the axis symmetry of f (+1 even, -1 odd) for the ghost rows.
    """
    vr_p, vr_m, vz_p, vz_m = upwind_split(b) if split is None else split
    out = _upwind(_pad(vals, parity), vr_p, vr_m, b.grid.dr, out=out)
    out += _upwind(_pad(vals, axis=1), vz_p, vz_m, b.grid.dz, axis=1)
    return out


def momentum_rhs(state: AxisymField) -> AxisymField:
    """Explicit tendencies of the three momentum equations (pressure-free):

    vr:     -b.grad vr + vtheta^2/r
    vtheta: -b.grad vtheta - vr vtheta/r
    vz:     -b.grad vz
    The curvature source terms vanish at the axis (both factors are odd).  The
    viscous terms are the implicit part of the step (HelmholtzSolver), and the
    boundary nodes are left to the boundary conditions.  Each advection term goes
    straight into its row of the returned field; the curvature terms share one scratch.
    """
    g = state.grid
    rinv = np.r_[0.0, 1.0 / g.r[1:]][:, None]
    split = upwind_split(state)
    out = AxisymField(g, np.empty((3, *g.shape)))
    for vals, parity, row in zip(state.v, (-1, -1, 1), out.v):
        np.negative(advect(state, vals, parity, split, out=row), out=row)
    curvature = state.vtheta**2 * rinv
    out.vr += curvature
    np.multiply(state.vr, state.vtheta, out=curvature)
    curvature *= rinv
    out.vtheta -= curvature
    return out


# ---------------------------------------------------------------------------
# divergence, weights and the projection operator
# ---------------------------------------------------------------------------

class Csr(NamedTuple):
    """A sparse matrix as the index arrays of its compressed rows: row i holds
    data[indptr[i]:indptr[i+1]] in the columns indices[indptr[i]:indptr[i+1]].
    Each 1D operator is one, built once per grid and applied by _product."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def banded(cls, band: np.ndarray, lo: int, ncols: int) -> Csr:
        """The matrix with ``ncols`` columns whose row i holds band[i, k] in
        column i + lo + k.  Zeros of band are not stored; band is zero wherever
        that column lies outside the matrix."""
        rows, k = np.nonzero(band)  # row-major: by row, then by column
        indptr = np.searchsorted(rows, np.arange(len(band) + 1))
        return cls(indptr, rows + lo + k, band[rows, k], (len(band), ncols))


def _product(A: Csr, X: np.ndarray, out: np.ndarray | None = None,
             transpose: bool = False) -> np.ndarray:
    """out + A @ X, or out + A^T @ X if ``transpose``, for a 2D X (out zero if not
    given, else C-contiguous and updated in place) by scipy's private CSR kernel,
    the one its ``A @ X`` calls; A^T by its CSC kernel, reading A's rows as A^T's
    columns, which adds each output row's terms in the CSR kernel's order."""
    m, n = A.shape[::-1] if transpose else A.shape
    out = np.zeros((m, X.shape[1])) if out is None else out
    kernel = csc_matvecs if transpose else csr_matvecs
    kernel(m, n, X.shape[1], A.indptr, A.indices, A.data, X.ravel(), out.ravel())
    return out


class DivergenceFactors(NamedTuple):
    """The discrete divergence D = [Ar (x) I_z, I_r (x) Az] on the nodal (vr, vz)
    arrays, never assembled: its 1D factors.  Ar = d_r + 1/r on the nr+1 radial
    nodes, whose axis row is the limit 2 d_r of an odd vr, and Az = d_z on the
    nz+1 axial nodes."""
    Ar: Csr
    Az: Csr


def build_divergence_matrix(g: Grid) -> DivergenceFactors:
    """D's factors on ``g``: centred in the interior, second-order one-sided at
    the outer ends."""
    def d1(n: int, h: float) -> np.ndarray:
        band = np.zeros((n + 1, 5))  # row i: the coefficients of columns i-2 .. i+2
        band[:, 1], band[:, 3] = -1.0 / (2 * h), 1.0 / (2 * h)
        band[0] = np.array([0.0, 0.0, -3.0, 4.0, -1.0]) / (2 * h)
        band[-1] = np.array([1.0, -4.0, 3.0, 0.0, 0.0]) / (2 * h)
        return band

    Ar, Az = d1(g.nr, g.dr), d1(g.nz, g.dz)
    Ar[0] = [0.0, 0.0, 0.0, 2.0 / g.dr, 0.0]
    i = np.arange(1, g.nr)
    Ar[i, 2] = 1.0 / (i * g.dr)
    Ar[-1, 2] += 1.0 / (g.nr * g.dr)
    return DivergenceFactors(Csr.banded(Ar, -2, g.nr + 1), Csr.banded(Az, -2, g.nz + 1))


def divergence(D: DivergenceFactors, fld: AxisymField) -> np.ndarray:
    """The nodal divergence Ar vr + vz Az^T of ``fld``."""
    return _product(D.Ar, fld.vr, _product(D.Az, fld.vz.T).T.copy())


def gradient(D: DivergenceFactors, s: np.ndarray) -> np.ndarray:
    """D^T applied to the nodal array ``s``: (Ar^T s, s Az), stacked like v[::2]."""
    return np.stack([_product(D.Ar, s, transpose=True), _product(D.Az, s.T, transpose=True).T])


def volume_weights(g: Grid) -> np.ndarray:
    """Cylindrical trapezoid-style volume weights per node (without the 2*pi)."""
    wr = g.r.copy()
    wr[0] = g.dr / 8.0  # quarter-cell volume next to the axis
    wr[-1] = g.r[-1] / 2.0
    wz = np.ones(g.nz + 1)
    wz[0] = wz[-1] = 0.5
    return np.outer(wr, wz) * g.dr * g.dz


def kinetic_energy(fld: AxisymField) -> float:
    """Cylindrically weighted kinetic energy: the R^3 integral of |v|^2/2."""
    w = volume_weights(fld.grid)
    return float(2 * np.pi * 0.5 * np.sum(w * (fld.vr**2 + fld.vtheta**2 + fld.vz**2)))


def _mirror_eigh(K: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, V) with K V = B V diag(theta) and V^T B V = I, as scipy.linalg.eigh
    gives, for a definite pencil of persymmetric matrices (J K J = K, J the
    reversal): the mirror-even vectors [u; J u] (overlapping in the middle node
    of odd n) and the mirror-odd ones [u; -J u] each solve a half-size pencil."""
    n = len(K)
    h, m = n // 2, n - n // 2
    theta_e, Ye = scipy.linalg.eigh(*(A[:m, :m] + A[:m, h:][:, ::-1] for A in (K, B)))
    theta_o, Yo = scipy.linalg.eigh(*(A[:h, :h] - A[:h, m:][:, ::-1] for A in (K, B)))
    V = np.zeros((n, n))
    V[:m, :m], V[:h, m:] = Ye, Yo
    V[h:, :m] += Ye[::-1]
    V[m:, m:] -= Yo[::-1]
    return np.r_[theta_e, theta_o], V / np.sqrt(2.0)


class ProjectionOperator:
    """Exact discrete Helmholtz projection onto divergence-free fields.

    Solves K s = div(u*)/dt, K = D_f W^-1 D_f^T, directly.  On the free nodes
    K = Kr (x) Pz + Mr (x) Kz, from D's 1D factors Ar and Az: Kr = Ar_f Wr^-1
    Ar_f^T, Mr = Wr^-1 on the free vz rows, Kz = Az_f Az_f^T and Pz the
    identity on the free vr columns.  The generalised eigenvectors (V^T B V =
    I) of the definite pencils (Kr, Kr + Mr) and (Kz, Kz + Pz) diagonalise K
    (Lynch, Rice & Thomas 1964).  The radial pencil (pentadiagonal, with no
    symmetry) is solved dense.  Az is odd under the z-reversal J (J Az J =
    -Az), so J commutes with Kz and Pz and the axial pencil splits into two of
    half the size (_mirror_eigh).
    s = Vr [(Vr^T R Vz) / lam] Vz^T is K's exact inverse applied to R on
    K's range.  It is zero on K's 6-dimensional kernel, so s has no kernel
    component: the pressure is set by the flow alone.  The velocity update is
    the adjoint gradient B W^-1 D^T s (``gradient``), in the interior the
    centered-difference pressure gradient matching the divergence stencil.

    ``tol`` bounds the divergence of the projected field in the 2-norm, and so
    at every node: the remaining divergence is dt times the residual of the
    solve, and a projection that leaves more raises PoissonError.  ``D`` is
    the divergence, whose factors give Kr and Kz; the diagnostics apply it too.
    """

    def __init__(self, grid: Grid, tol: float = SolverConfig.projection_tol):
        self.grid = grid
        self.tol = tol
        self.D = D = build_divergence_matrix(grid)
        self._w = w = volume_weights(grid)
        # the nodes of (vr, vz) (v[::2]) that the projection moves: the free rows
        # of Kr (vr) and Mr (vz) on an inner column, Pz's free columns on vr's
        self._free = free = np.zeros((2, *grid.shape), bool)
        free[0, 1:-1, 1:-1] = free[1, :-1, 1:-1] = True
        wr = w[:, 1]  # an inner z column: the radial weights times dr dz
        pz = free[0, 1].astype(float)
        # each factor applied to its dense transpose with the fixed rows zeroed
        # (and scaled by Wr^-1 in Kr)
        Kr = _product(D.Ar, (free[0, :, 1] / wr)[:, None]
                      * _product(D.Ar, np.eye(grid.nr + 1), transpose=True))
        Kz = _product(D.Az, pz[:, None] * _product(D.Az, np.eye(grid.nz + 1), transpose=True))
        phi, self._Vr = scipy.linalg.eigh(Kr, Kr + np.diag(free[1, :, 1] / wr))
        theta, self._Vz = _mirror_eigh(Kz, Kz + np.diag(pz))
        lam = phi[:, None] * (1.0 - theta) + (1.0 - phi[:, None]) * theta
        # lam lies in [0, 1]: roundoff (< 1e-13) on the kernel, O(h^2) above it
        self._lam_inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam >= 1e-9)

    def _inverse(self, r: np.ndarray) -> np.ndarray:
        """K's exact inverse on its range applied to the nodal array ``r``."""
        Vr, Vz = self._Vr, self._Vz
        return Vr @ ((Vr.T @ r @ Vz) * self._lam_inv) @ Vz.T

    def project(self, u_star: AxisymField, dt: float) -> tuple[AxisymField, np.ndarray]:
        """(``u_star`` projected in place, nodal pressure): the pressure gradient
        is subtracted from u_star's vr and vz, which is returned, also when the
        projection raises.  A field whose divergence has 2-norm below ``tol``
        comes back with its bits unchanged and a zero pressure."""
        div = divergence(self.D, u_star)
        div_norm = float(np.linalg.norm(div))
        if div_norm < self.tol:
            return u_star, np.zeros(self.grid.shape)
        s = self._inverse(np.divide(div, dt, out=div))
        grad = np.divide(gradient(self.D, s), self._w, out=np.zeros(self._free.shape),
                         where=self._free)
        u_star.v[::2] -= dt * grad
        left = float(np.linalg.norm(divergence(self.D, u_star)))
        if left > self.tol:
            raise PoissonError(
                f"projection left divergence {left:.3e} above tol {self.tol:.3e} "
                f"(residual {left / div_norm:.3e})",
                left / div_norm,
            )
        s /= self._w
        return u_star, np.negative(s, out=s)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def stable_dt(g: Grid, cfl: float, qmax: float) -> float:
    """Advective CFL step; the implicit viscous terms set no limit."""
    return cfl * min(g.dr, g.dz) / max(1.0, qmax)


def _radial_operator(g: Grid, swirllike: bool) -> np.ndarray:
    """The radial part of L as a band: row k holds the coefficients of f_{i-1},
    f_i and f_{i+1} in L's row i = k + 1 (swirl-like, for fields odd at the axis:
    d_rr + (1/r) d_r - 1/r^2 = d_r (1/r) d_r r at rows 1..nr-1 in flux form on
    G = r f, whose zero row sums in G keep the solves from raising max |G|) or
    i = k (d_rr + (1/r) d_r at rows 0..nr-1, whose axis row is the limit
    2 d_rr f = 4 (f_1 - f_0)/dr^2 of a field even at the axis).  Both are
    symmetric under the radial volume weights (r_i, and dr/8 on the axis row)."""
    dr, r = g.dr, g.r[1:-1]
    if swirllike:
        i = np.arange(1.0, g.nr)
        return np.stack([(i - 1) / (i - 0.5), -i * (1 / (i + 0.5) + 1 / (i - 0.5)),
                         (i + 1) / (i + 0.5)], axis=1) / dr**2
    up = 1.0 / dr**2 + 1.0 / (2 * dr * r)  # coefficient of f_{i+1} in row i
    down = 1.0 / dr**2 - 1.0 / (2 * dr * r)  # coefficient of f_{i-1} in row i
    return np.r_[[[0.0, -4.0 / dr**2, 4.0 / dr**2]],
                 np.stack([down, np.full(r.shape, -2.0 / dr**2), up], axis=1)]


def _axial_operator(g: Grid) -> Csr:
    """d_zz at the nodes strictly inside the z ends, acting on all nz+1 columns."""
    return Csr.banded(np.tile(np.array([1.0, -2.0, 1.0]) / g.dz**2, (g.nz - 1, 1)), 0, g.nz + 1)


def _axial_basis(g: Grid, neumann: bool) -> tuple[np.ndarray, np.ndarray]:
    """(V, lam), orthonormal eigenvectors and eigenvalues of L's axial block, d_zz
    on the n = nz-1 unknown columns, in closed form (Strang 1999): with Dirichlet
    ends the sine vectors sqrt(2/nz) sin(pi (j+1)(k+1)/nz), with Neumann-folded
    ends the DCT-II vectors cos(pi k (j+1/2)/n), normalised; read from a table
    over one period at angles reduced in integers."""
    n, j, k = g.nz - 1, np.arange(g.nz - 1)[:, None], np.arange(g.nz - 1)
    if neumann:
        table = np.cos(np.pi * np.arange(4 * n) / (2 * n))
        V = table[k * (2 * j + 1) % (4 * n)] * np.sqrt(np.where(k, 2.0, 1.0) / n)
        theta = np.pi * k / (2 * n)
    else:
        table = np.sqrt(2.0 / g.nz) * np.sin(np.pi * np.arange(2 * g.nz) / g.nz)
        V = table[(j + 1) * (k + 1) % (2 * g.nz)]
        theta = np.pi * (k + 1) / (2 * g.nz)
    return V, -4.0 / g.dz**2 * np.sin(theta) ** 2


def _diagonalise(d: np.ndarray, e: np.ndarray,
                 w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, w, lam) with A = V diag(lam) V^-1 and V^-1 = V^T diag(w), for the
    tridiagonal A with diagonal d and superdiagonal e, symmetric under the
    weights w (diag(w) A symmetric): from the orthogonal eigenvectors Q of the
    symmetric tridiagonal W^1/2 A W^-1/2, found by LAPACK's divide and conquer,
    V = W^-1/2 Q."""
    s = np.sqrt(w)
    lam, Q = scipy.linalg.eigh_tridiagonal(d, e * (s[:-1] / s[1:]), lapack_driver="stevd")
    return Q / s[:, None], w, lam


class HelmholtzSolver:
    """The viscous operator L per unit viscosity, and exact solves of (I - c L) U = B.

    L is (Lap - 1/r^2) on vr and vtheta and Lap on vz, on the nodes no boundary
    condition fixes (vz's axis row is one of them).  On a component's nodal
    array X it is R X + X Z^T, R the radial and Z the axial operator, both
    built once, here.  In a solve the fixed nodes are known, so the unknowns
    see the square blocks of R and Z on the unknown rows and columns; with
    ``neumann_swirl`` vtheta's z ends copy their neighbour, which folds Z's end
    columns onto those neighbours.  With the blocks R = V_r diag(lr) V_r^-1 and
    Z = V_z diag(lz) V_z^-1 the solve is
    X = V_r [(V_r^-1 B V_z^-T) / (1 - c (lr_i + lz_j))] V_z^T.  The blocks are
    tridiagonal, decomposed once, at construction: the radial ones by a
    tridiagonal eigensolver (_diagonalise), the axial ones in closed form
    (_axial_basis); only the denominator depends on c.
    """

    def __init__(self, grid: Grid, neumann_swirl: bool):
        w = volume_weights(grid)[:, 1]  # an inner z column: the radial weights times dr dz
        swirl = _radial_operator(grid, swirllike=True)
        plain = _radial_operator(grid, swirllike=False)
        # the square blocks on the unknown rows: the bands' middle and upper diagonals
        radial_swirl = _diagonalise(swirl[:, 1], swirl[:-1, 2], w[1:-1])
        radial_plain = _diagonalise(plain[:, 1], plain[:-1, 2], w[:-1])
        R_swirl = Csr.banded(swirl, 0, grid.nr + 1)
        self._Z = Z = _axial_operator(grid)
        end_z = Z.data[0]  # row 0's coefficient of column 0, the z_min end
        dirichlet = _axial_basis(grid, neumann=False)
        neumann = _axial_basis(grid, neumann=True) if neumann_swirl else dirichlet
        # per component of v: radial operator, first unknown row, radial and axial
        # decompositions, and L's couplings of the last unknown row to r_max and of
        # the end unknown columns to the z ends (folded into vtheta's operator if Neumann)
        self._ops = ((R_swirl, 1, radial_swirl, dirichlet, swirl[-1, 2], end_z),
                     (R_swirl, 1, radial_swirl, neumann, swirl[-1, 2],
                      0.0 if neumann_swirl else end_z),
                     (Csr.banded(plain, -1, grid.nr + 1), 0, radial_plain, dirichlet,
                      plain[-1, 2], end_z))

    def laplacian(self, fld: AxisymField) -> AxisymField:
        """L applied to every component; zero on the boundary nodes it does not reach."""
        out = AxisymField.zeros(fld.grid)
        for x, lx, (R, lo, *_) in zip(fld.v, out.v, self._ops):
            lx[lo:-1, 1:-1] = _product(R, x)[:, 1:-1] + _product(self._Z, x[lo:-1].T).T
        return out

    def solve(self, bounded: AxisymField, c: float) -> AxisymField:
        """U = ``bounded`` on the fixed nodes and (I - c L) U = ``bounded`` on the
        others, for a right-hand side with the boundary conditions applied, zero on
        the vr and vtheta axis rows.  The fixed values enter through L's couplings
        of the unknowns next to them: the last row and the end columns.  U is
        written over the unknowns of ``bounded``, which is returned."""
        for x, (_, lo, (vr_, wr, lr), (vz_, lz), up_r, end_z) in zip(bounded.v, self._ops):
            unk = (slice(lo, -1), slice(1, -1))
            b = x[unk].copy()
            b[-1] += c * up_r * x[-1, 1:-1]
            b[:, [0, -1]] += c * end_z * x[unk[0], [0, -1]]
            y = (vr_.T @ (wr[:, None] * b) @ vz_) / (1.0 - c * (lr[:, None] + lz))
            x[unk] = vr_ @ y @ vz_.T
        return bounded


# ARS(2,2,2): implicit diagonal GAMMA, explicit weight DELTA on the first stage
GAMMA = 1.0 - 1.0 / np.sqrt(2.0)
DELTA = 1.0 - 1.0 / (2.0 * GAMMA)


@dataclass
class DiagnosticsRecord:
    step: int
    t: float
    q: float
    argmax_r: float
    argmax_z: float
    r_speed: float
    max_rvtheta: float
    energy: float
    max_divergence: float
    boundary_max: float


class AxisymSolver:
    """Marching state from time ``t0`` and step ``step0``; it keeps no history."""

    def __init__(self, initial: AxisymField, config: SolverConfig, t0: float = 0.0,
                 step0: int = 0):
        self.config = config
        self.grid = initial.grid
        self.t = float(t0)
        self.step_count = step0
        self.projection = ProjectionOperator(self.grid, tol=config.projection_tol)
        self.helmholtz = HelmholtzSolver(self.grid, neumann_swirl=config.boundary == "hold")
        self.pressure = np.zeros(self.grid.shape)
        self._held = None
        if config.boundary == "hold":
            # the r = r_max row of every component, the z_min and z_max columns of vr and vz
            v = initial.v
            self._held = (v[:, -1, :].copy(), v[::2, :, 0].copy(), v[::2, :, -1].copy())
        # clean the initial divergence (of a copy) so every reported state is projected
        self.state = self.projection.project(self._apply_bcs(initial.copy()), 1.0)[0]

    def _apply_bcs(self, fld: AxisymField) -> AxisymField:
        """``fld`` with its far-field nodes set by the boundary mode, then vr and
        vtheta zero on the axis, in place; vz's axis row is an unknown."""
        v = fld.v
        if self._held is None:
            v[:, -1, :] = v[:, :, 0] = v[:, :, -1] = 0.0
        else:
            v[:, -1, :], v[::2, :, 0], v[::2, :, -1] = self._held
            # swirl: hold the lateral profile, zero normal gradient in z so a
            # z-independent far field can keep decaying in time
            fld.vtheta[:, 0] = fld.vtheta[:, 1]
            fld.vtheta[:, -1] = fld.vtheta[:, -2]
        v[:2, 0, :] = 0.0
        return fld

    def current_dt(self, q: float | None = None) -> float:
        """The step's dt from the state's max |v|, ``q`` if it is already measured."""
        cfg = self.config
        q = max_speed(self.state)[0] if q is None else q
        if cfg.dt is not None:
            limit = stable_dt(self.grid, 1.0, q)
            if cfg.dt > limit * 1.0001:
                raise ValueError(
                    f"dt={cfg.dt} violates the stability limit {limit:.3e} at t={self.t:.6g}"
                )
            return cfg.dt
        return stable_dt(self.grid, cfg.cfl, q)

    def _stage(self, rhs: np.ndarray, dt: float, increment: float):
        """Solve (I - GAMMA dt L) U = rhs, apply the BCs, project over ``increment``; in place."""
        u = self.helmholtz.solve(self._apply_bcs(AxisymField(self.grid, rhs)), GAMMA * dt)
        return self.projection.project(self._apply_bcs(u), increment)

    def step(self, dt: float | None = None) -> None:
        """One ARS(2,2,2) step of ``dt`` (by default ``current_dt()``).  Each stage's
        right-hand side (0 + 1.0 u) + a e0 + ... adds its terms in this order as they
        appear (0 + turns -0.0 into +0.0), then is solved and projected in place; e0 and
        the stage-1 pressure are dropped before e1 is made.  ``self.state`` is only read."""
        dt = self.current_dt() if dt is None else dt
        u = self.state
        e0 = momentum_rhs(u).v
        rhs = 0 + 1.0 * u.v
        u1 = rhs + GAMMA * dt * e0
        rhs += DELTA * dt * e0
        del e0
        u1 = self._stage(u1, dt, GAMMA * dt)[0]
        rhs += (1.0 - DELTA) * dt * momentum_rhs(u1).v
        rhs += (1.0 - GAMMA) * dt * self.helmholtz.laplacian(u1).v
        u2, p = self._stage(rhs, dt, dt)

        if not u2.is_finite():
            raise UnstableError(f"non-finite state at t={self.t + dt:.6g}", self.t + dt)
        self.state = u2
        self.pressure = p
        self.t += dt
        self.step_count += 1

    def record_diagnostics(self) -> DiagnosticsRecord:
        sp = self.state.speed()
        q, (qr, qz) = max_speed(self.state, sp)
        rsp, _ = max_rspeed(self.state, sp)
        return DiagnosticsRecord(
            step=self.step_count,
            t=self.t,
            q=q,
            argmax_r=qr,
            argmax_z=qz,
            r_speed=rsp,
            max_rvtheta=max_rvtheta(self.state),
            energy=kinetic_energy(self.state),
            max_divergence=float(np.max(np.abs(divergence(self.projection.D, self.state)))),
            boundary_max=boundary_max(self.state, sp),
        )

    def run(self, t_end: float, on_snapshot=None, on_diagnostics=None) -> None:
        """Step until ``t_end``, the last step shortened to land on it, calling
        ``on_diagnostics(record)`` after every step and ``on_snapshot(self)`` when
        the step count is a multiple of ``config.snapshot_every``.  The caller
        reports the state it starts from.  The callbacks read the solver and do
        not change ``state``: the next dt takes the q of the record just made."""
        record = None
        while self.t < t_end - 1e-14:
            dt = self.current_dt(None if record is None else record.q)
            # a remainder within 1e-9 dt of dt is a full step: a run stopped at a
            # time the uninterrupted run reaches then ends exactly where it does
            self.step(dt if t_end - self.t >= (1.0 - 1e-9) * dt else t_end - self.t)
            if on_diagnostics is not None:
                on_diagnostics(record := self.record_diagnostics())
            if on_snapshot is not None and self.step_count % self.config.snapshot_every == 0:
                on_snapshot(self)

