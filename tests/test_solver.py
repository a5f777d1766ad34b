"""Spatial operators, projection, stepping and residual norms."""
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import axiswirl.solver
from axiswirl.checks import (
    InvariantConfig,
    lamb_oseen_convergence,
    lamb_oseen_run,
    run_invariant_suite,
)
from axiswirl.config import parse_config
from axiswirl.fields import (
    AxisymField,
    Grid,
    SnapshotHistory,
)
from axiswirl.initial import DataSpec, generate, lamb_oseen_field, lamb_oseen_profile
from axiswirl.solver import (
    DELTA,
    GAMMA,
    AxisymSolver,
    Csr,
    HelmholtzSolver,
    PoissonError,
    ProjectionOperator,
    SolverConfig,
    _axial_basis,
    _mirror_eigh,
    _pad,
    _product,
    advect,
    build_divergence_matrix,
    divergence,
    gradient,
    kinetic_energy,
    momentum_rhs,
    stable_dt,
    upwind_split,
    volume_weights,
)

from conftest import peak_above_entry, rigid_rotation


def interior(arr, m=2):
    return arr[m:-m, m:-m]


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_solver_config_needs_exactly_one_timestep_rule():
    with pytest.raises(ValueError):
        SolverConfig()
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, cfl=0.4)
    SolverConfig(dt=1e-3)
    SolverConfig(cfl=0.4)


@pytest.mark.parametrize("kwargs", [
    {"dt": -1e-3},
    {"cfl": 0.4, "projection_tol": 1e-3},
    {"cfl": 0.4, "projection_tol": 0.0},
    {"cfl": 0.4, "boundary": "periodic"},
    {"cfl": 0.4, "snapshot_every": 0},
    {"cfl": 1.5},
])
def test_solver_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


# ---------------------------------------------------------------------------
# advection
# ---------------------------------------------------------------------------

def test_advect_zero_drift(grid16):
    b = AxisymField.zeros(grid16)
    f = np.sin(grid16.r)[:, None] * np.ones(grid16.shape)
    np.testing.assert_allclose(advect(b, f), 0.0, atol=1e-14)


def test_advect_linear_profile(grid16):
    # vr = 1, f = r: upwind derivative of a linear function is exact
    b = AxisymField.zeros(grid16)
    b.vr[:] = 1.0
    f = grid16.r[:, None] * np.ones(grid16.shape)
    got = advect(b, f, parity=-1)
    np.testing.assert_allclose(interior(got), 1.0, atol=1e-12)


def test_advect_manufactured_profile():
    # f = sin(r) cos(z), vr = r, vz = -2z -> r cos(r) cos(z) + 2z sin(r) sin(z)
    errs = []
    for n in (64, 128):
        g = Grid(n, n, 2.0, -1.0, 1.0)
        R, Z = np.meshgrid(g.r, g.z, indexing="ij")
        b = AxisymField(g, np.stack([R, np.zeros(g.shape), -2.0 * Z]))
        f = np.sin(R) * np.cos(Z)
        exact = R * np.cos(R) * np.cos(Z) + 2.0 * Z * np.sin(R) * np.sin(Z)
        got = advect(b, f, parity=1)
        errs.append(float(np.max(np.abs(interior(got - exact)))))
    assert errs[0] < 2e-3
    assert errs[0] / errs[1] > 3.0  # the biased stencil is second order on smooth data


def _advect_nested_where(b, vals, parity):
    """Oracle: the one-sided derivatives picked per node by the sign of the
    velocity, with their mean where it is zero, then multiplied by it."""
    dr, dz = b.grid.dr, b.grid.dz
    fr = _pad(vals, parity)
    back_r = (3 * fr[2:-2] - 4 * fr[1:-3] + fr[:-4]) / (2 * dr)
    fwd_r = (-3 * fr[2:-2] + 4 * fr[3:-1] - fr[4:]) / (2 * dr)
    d_r = np.where(b.vr > 0, back_r, np.where(b.vr < 0, fwd_r, 0.5 * (back_r + fwd_r)))
    fz = _pad(vals.T).T
    back_z = (3 * fz[:, 2:-2] - 4 * fz[:, 1:-3] + fz[:, :-4]) / (2 * dz)
    fwd_z = (-3 * fz[:, 2:-2] + 4 * fz[:, 3:-1] - fz[:, 4:]) / (2 * dz)
    d_z = np.where(b.vz > 0, back_z, np.where(b.vz < 0, fwd_z, 0.5 * (back_z + fwd_z)))
    return b.vr * d_r + b.vz * d_z


def test_upwind_split_matches_nested_where_oracle(grid32):
    # velocities with positive, negative and exactly zero entries, each
    # component zero on its own nodes and both zero on some
    rng = np.random.default_rng(11)
    vr, vtheta, vz = rng.normal(size=(3,) + grid32.shape)
    vr[rng.random(grid32.shape) < 0.3] = 0.0
    vz[rng.random(grid32.shape) < 0.3] = 0.0
    b = AxisymField(grid32, np.stack([vr, vtheta, vz]))
    still = (vr == 0.0) & (vz == 0.0)
    assert (vr > 0).any() and (vr < 0).any() and (vz > 0).any() and (vz < 0).any()
    assert still.any() and ((vr == 0.0) & ~still).any() and ((vz == 0.0) & ~still).any()
    split = upwind_split(b)
    for vals, parity in ((vr, -1), (vtheta, -1), (vz, 1), (rng.normal(size=grid32.shape), 1)):
        want = _advect_nested_where(b, vals, parity)
        for got in (advect(b, vals, parity), advect(b, vals, parity, split)):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
            assert np.all(got[still] == 0.0)
    rinv = np.r_[0.0, 1.0 / grid32.r[1:]][:, None]
    rhs = momentum_rhs(b)
    np.testing.assert_allclose(rhs.vr, -_advect_nested_where(b, vr, -1) + vtheta**2 * rinv,
                               rtol=1e-14, atol=0)
    np.testing.assert_allclose(rhs.vtheta, -_advect_nested_where(b, vtheta, -1)
                               - vr * vtheta * rinv, rtol=1e-14, atol=0)
    np.testing.assert_allclose(rhs.vz, -_advect_nested_where(b, vz, 1), rtol=1e-14, atol=0)


def _advect_by_transposed_pads(b, vals, parity, split=None):
    """Oracle: the upwind sum with each axis's ghost rows on a padded copy, the
    axial one made from vals.T and its differences transposed back."""
    def pad(f, parity=None):
        out = np.empty((f.shape[0] + 4, f.shape[1]))
        out[2:-2] = f
        if parity is None:
            out[1] = 3 * f[0] - 3 * f[1] + f[2]
            out[0] = 3 * out[1] - 3 * f[0] + f[1]
        else:
            out[1], out[0] = parity * f[1], parity * f[2]
        out[-2] = 3 * f[-1] - 3 * f[-2] + f[-3]
        out[-1] = 3 * out[-2] - 3 * f[-1] + f[-2]
        return out

    def upwind(f, pos, neg, h):
        back = (3 * f[2:-2] - 4 * f[1:-3] + f[:-4]) / (2 * h)
        fwd = (-3 * f[2:-2] + 4 * f[3:-1] - f[4:]) / (2 * h)
        return pos * back + neg * fwd

    vr_p, vr_m, vz_p, vz_m = upwind_split(b) if split is None else split
    radial = upwind(pad(vals, parity), vr_p, vr_m, b.grid.dr)
    return radial + upwind(pad(vals.T), vz_p.T, vz_m.T, b.grid.dz).T


def test_advect_and_momentum_rhs_equal_the_transposed_pads_bit_for_bit():
    # a non-square grid, so that differences taken along the wrong axis fail
    g = Grid(24, 40, 2.0, -1.5, 2.5)
    rng = np.random.default_rng(5)
    vr, vtheta, vz = rng.normal(size=(3,) + g.shape)
    vr[rng.random(g.shape) < 0.3] = 0.0
    vz[rng.random(g.shape) < 0.3] = 0.0
    b = AxisymField(g, np.stack([vr, vtheta, vz]))
    split = upwind_split(b)
    for vals, parity in ((vr, -1), (vtheta, -1), (vz, 1), (rng.normal(size=g.shape), 1)):
        want = _advect_by_transposed_pads(b, vals, parity).tobytes()
        assert advect(b, vals, parity).tobytes() == want
        assert advect(b, vals, parity, split).tobytes() == want
    rinv = np.r_[0.0, 1.0 / g.r[1:]][:, None]
    rhs = momentum_rhs(b)
    for got, want in ((rhs.vr, -_advect_by_transposed_pads(b, vr, -1) + vtheta**2 * rinv),
                      (rhs.vtheta, -_advect_by_transposed_pads(b, vtheta, -1) - vr * vtheta * rinv),
                      (rhs.vz, -_advect_by_transposed_pads(b, vz, 1))):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# viscous operator
# ---------------------------------------------------------------------------

def _diffuse_swirllike(v, g):
    """Oracle: the hand-written stencil of [d_rr + (1/r) d_r - 1/r^2 + d_zz] f
    for a field odd at the axis, on the interior nodes, its radial part in the
    flux form of d_r((1/r) d_r G), G = r f: the difference of the fluxes
    (G_{i+1} - G_i)/(dr r_{i+1/2}) over dr."""
    dr, dz = g.dr, g.dz
    out = np.zeros(g.shape)
    G = g.r[:, None] * v
    flux = (G[1:, 1:-1] - G[:-1, 1:-1]) / (dr * (g.r[1:, None] - dr / 2))  # at r_{i+1/2}
    out[1:-1, 1:-1] = (
        (flux[1:] - flux[:-1]) / dr
        + (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / dz**2
    )
    return out


def _diffuse_plain(v, g):
    """Oracle: the hand-written stencil of [d_rr + (1/r) d_r + d_zz] f for a
    field even at the axis, on the interior nodes and the axis row, where the
    limit 2 d_rr f + d_zz f is taken with the even ghost."""
    dr, dz = g.dr, g.dz
    out = np.zeros(g.shape)
    r = g.r[1:-1, None]
    out[1:-1, 1:-1] = (
        (v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / dr**2
        + (v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * dr * r)
        + (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / dz**2
    )
    out[0, 1:-1] = 4 * (v[1, 1:-1] - v[0, 1:-1]) / dr**2 + (
        v[0, 2:] - 2 * v[0, 1:-1] + v[0, :-2]
    ) / dz**2
    return out


def _laplacian(g, values, name):
    """The solver's viscous operator applied to ``values`` as velocity component ``name``."""
    fld = AxisymField.zeros(g)
    setattr(fld, name, values)
    return getattr(HelmholtzSolver(g, neumann_swirl=False).laplacian(fld), name)


def test_diffuse_swirllike_rigid_rotation(grid16):
    # (d_rr + d_r/r - 1/r^2) (Omega r) = 0 exactly, node by node
    got = _laplacian(grid16, 0.7 * grid16.r[:, None] * np.ones(grid16.shape), "vr")
    np.testing.assert_allclose(interior(got, 1), 0.0, atol=1e-11)


def test_diffuse_swirllike_zero(grid16):
    np.testing.assert_allclose(_laplacian(grid16, np.zeros(grid16.shape), "vtheta"), 0.0)


def test_diffuse_swirllike_separable_profile():
    # f = r e^{-z^2}: the radial part cancels as for rigid rotation, leaving
    # r (4z^2 - 2) e^{-z^2}; nodal error is second order
    errs = []
    for n in (32, 64):
        g = Grid(n, n, 2.0, -1.0, 1.0)
        R, Z = np.meshgrid(g.r, g.z, indexing="ij")
        exact = R * (4 * Z**2 - 2) * np.exp(-(Z**2))
        got = _laplacian(g, R * np.exp(-(Z**2)), "vtheta")
        errs.append(float(np.max(np.abs(interior(got - exact, 1)))))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_diffuse_plain_constant(grid16):
    np.testing.assert_allclose(_laplacian(grid16, np.full(grid16.shape, 2.0), "vz"), 0.0,
                               atol=1e-12)


def test_diffuse_plain_quadratic(grid16):
    # (d_rr + d_r/r) r^2 = 2 + 2 = 4, including the axis row limit
    got = _laplacian(grid16, (grid16.r**2)[:, None] * np.ones(grid16.shape), "vz")
    np.testing.assert_allclose(got[:-1, 1:-1], 4.0, atol=1e-10)


def test_diffuse_plain_bessel_like_profile():
    errs = []
    for n in (32, 64):
        g = Grid(n, n, 2.0, -1.0, 1.0)
        R, Z = np.meshgrid(g.r, g.z, indexing="ij")
        exact = (4 * R**2 - 4) * np.exp(-(R**2))
        got = _laplacian(g, np.exp(-(R**2)), "vz")
        errs.append(float(np.max(np.abs((got - exact)[:-1, 1:-1]))))
    assert 3.0 < errs[0] / errs[1] < 5.0


# ---------------------------------------------------------------------------
# momentum right-hand side
# ---------------------------------------------------------------------------

def test_momentum_rhs_zero_state(grid16):
    rhs = momentum_rhs(AxisymField.zeros(grid16))
    np.testing.assert_allclose(rhs.vr, 0.0)
    np.testing.assert_allclose(rhs.vtheta, 0.0)
    np.testing.assert_allclose(rhs.vz, 0.0)


def test_momentum_rhs_rigid_rotation(grid16):
    # pure centrifugal source: rhs_vr = (Omega r)^2 / r, swirl tendency zero
    omega = 0.7
    rhs = momentum_rhs(rigid_rotation(grid16, omega))
    expect = omega**2 * grid16.r[1:-1, None] * np.ones((grid16.nr - 1, grid16.nz - 1))
    np.testing.assert_allclose(rhs.vr[1:-1, 1:-1], expect, atol=1e-10)
    np.testing.assert_allclose(rhs.vtheta, 0.0, atol=1e-10)
    np.testing.assert_allclose(rhs.vz, 0.0, atol=1e-12)


def test_momentum_rhs_lamb_oseen_heat_operator():
    # with vr = vz = 0 the swirl tendency reduces to the analytic time
    # derivative of the diffusing-vortex profile; second-order convergent
    circ, t = 1.0, 0.5
    errs = []
    for n in (64, 128):
        g = Grid(n, n, 6.0, -1.0, 1.0)
        fld = lamb_oseen_field(circ, t, g)
        swirl = momentum_rhs(fld).vtheta + HelmholtzSolver(g, False).laplacian(fld).vtheta
        r = g.r[1:-1]
        # d/dt of (circ/2 pi r)(1 - e^{-r^2/4 t})
        exact = -circ / (2 * np.pi * r) * np.exp(-(r**2) / (4 * t)) * (r**2 / (4 * t**2))
        # measured away from the axis: the (1/r) d_r stencil is only
        # first-order consistent at the very first node off the axis
        keep = r >= 0.5
        err = np.max(np.abs(swirl[1:-1, 1:-1] - exact[:, None])[keep])
        errs.append(float(err))
    assert 3.0 < errs[0] / errs[1] < 5.0


# ---------------------------------------------------------------------------
# divergence matrix and projection
# ---------------------------------------------------------------------------

def _loop_divergence_matrix(g):
    """The node-by-node assembly that build_divergence_matrix replaced; kept
    as the oracle for its entries."""
    nr, nz = g.nr, g.nz
    dr, dz = g.dr, g.dz
    npts = (nr + 1) * (nz + 1)
    pidx = lambda i, j: i * (nz + 1) + j  # noqa: E731
    rows, cols, vals = [], [], []
    for i in range(nr + 1):
        for j in range(nz + 1):
            row = pidx(i, j)
            if i == 0:
                rows.append(row); cols.append(pidx(1, j)); vals.append(2.0 / dr)
            elif i == nr:
                rows += [row, row, row]
                cols += [pidx(nr, j), pidx(nr - 1, j), pidx(nr - 2, j)]
                vals += [3 / (2 * dr) + 1.0 / (nr * dr), -4 / (2 * dr), 1 / (2 * dr)]
            else:
                rows += [row, row, row]
                cols += [pidx(i + 1, j), pidx(i - 1, j), pidx(i, j)]
                vals += [1 / (2 * dr), -1 / (2 * dr), 1.0 / (i * dr)]
            if j == 0:
                rows += [row, row, row]
                cols += [npts + pidx(i, 0), npts + pidx(i, 1), npts + pidx(i, 2)]
                vals += [-3 / (2 * dz), 4 / (2 * dz), -1 / (2 * dz)]
            elif j == nz:
                rows += [row, row, row]
                cols += [npts + pidx(i, nz), npts + pidx(i, nz - 1), npts + pidx(i, nz - 2)]
                vals += [3 / (2 * dz), -4 / (2 * dz), 1 / (2 * dz)]
            else:
                rows += [row, row]
                cols += [npts + pidx(i, j + 1), npts + pidx(i, j - 1)]
                vals += [1 / (2 * dz), -1 / (2 * dz)]
    D = sp.coo_matrix((vals, (rows, cols)), shape=(npts, 2 * npts)).tocsr()
    D.sort_indices()
    return D


# spacings that are not powers of two, so that a reordered product shows up
# in the last bit
ORACLE_GRIDS = [
    (16, 16, 2.0, -1.0, 1.0),
    (64, 64, 6.0, -3.0, 3.0),
    (24, 40, 2.7, -2.0, 5.0),
    (20, 33, 2.0, -1.5, 2.5),
]
ORACLE_IDS = ["16", "64", "24x40", "20x33"]


@pytest.mark.parametrize("dims", ORACLE_GRIDS, ids=ORACLE_IDS)
def test_divergence_matrix_equals_loop_oracle(dims):
    # D applied to a nodal unit (vr, vz) pair reads one stored entry times 1,
    # so its columns are the oracle's bit for bit; the gradient D^T agrees to
    # roundoff
    g = Grid(*dims)
    D = build_divergence_matrix(g)
    want = _loop_divergence_matrix(g).tocsc()
    n = want.shape[1]
    fld = AxisymField.zeros(g)
    for lo in range(0, n, 512):
        cols = range(lo, min(lo + 512, n))
        got = np.empty((want.shape[0], len(cols)))
        for k, col in enumerate(cols):
            c, i, j = np.unravel_index(col, (2, *g.shape))
            fld.v[2 * c, i, j] = 1.0
            got[:, k] = divergence(D, fld).ravel()
            fld.v[2 * c, i, j] = 0.0
        assert np.array_equal(got, want[:, cols].toarray()), lo
    s = np.random.default_rng(7).normal(size=g.shape)
    adjoint = want.T @ s.ravel()
    assert np.linalg.norm(gradient(D, s).ravel() - adjoint) <= 1e-14 * np.linalg.norm(adjoint)


def _oracle_pressure_matrix(g):
    """K = D_f W^-1 D_f^T on the projection's free nodes, from the loop oracle."""
    op = ProjectionOperator(g)
    w = volume_weights(g).ravel()
    free = op._free.ravel()
    wu = np.concatenate([w, w])[free]
    Df = _loop_divergence_matrix(g)[:, free].tocsr()
    return op, (Df @ sp.diags(1.0 / wu) @ Df.T).tocsr()


def _walled_ring(g):
    """The ring with the solver's no-slip walls, so its boundary flux is compatible."""
    fld = generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), g)
    for arr in (fld.vr, fld.vtheta, fld.vz):
        arr[-1, :] = arr[:, 0] = arr[:, -1] = 0.0
    return fld


@pytest.mark.parametrize("dims", ORACLE_GRIDS, ids=ORACLE_IDS)
def test_preconditioner_inverts_the_operator_on_its_range(dims):
    # the fast-diagonalised inverse is K's exact inverse on every right-hand
    # side a velocity field's divergence can give
    g = Grid(*dims)
    op, K = _oracle_pressure_matrix(g)
    # b = D u for a random u on the nodes the projection moves
    u = AxisymField.zeros(g)
    u.v[::2] = np.where(op._free, np.random.default_rng(5).normal(size=op._free.shape), 0.0)
    b = divergence(op.D, u)
    assert np.linalg.norm(K @ op._inverse(b).ravel() - b.ravel()) <= 1e-10 * np.linalg.norm(b)
    # the ring that the projection cleans to the configured bound
    out, _ = op.project(_walled_ring(g), dt=1e-3)
    assert float(np.max(np.abs(divergence(op.D, out)))) <= op.tol


@pytest.mark.parametrize("dims", [ORACLE_GRIDS[0], ORACLE_GRIDS[2], ORACLE_GRIDS[3]],
                         ids=["16", "24x40", "20x33"])
def test_pressure_kernel_has_dimension_six(dims):
    # K = D W^-1 D^T has six null modes; the inverse drops exactly those
    g = Grid(*dims)
    op, K = _oracle_pressure_matrix(g)
    lam = np.linalg.eigvalsh(K.toarray())
    assert np.sum(lam < 1e-9 * lam[-1]) == 6
    M = np.stack([op._inverse(e.reshape(g.shape)).ravel() for e in np.eye(op._w.size)], axis=1)
    assert np.linalg.matrix_rank(M, tol=1e-9 * np.abs(M).max()) == op._w.size - 6


@pytest.mark.parametrize("nz", [8, 9, 40, 41])
def test_mirror_split_solves_the_axial_pencil(nz):
    # the even and odd halves of the persymmetric pencil (Kz, Kz + Pz), with
    # and without a middle node, give the full pencil's B-orthonormal
    # eigenvectors and its eigenvalues
    g = Grid(16, nz, 2.0, -1.5, 2.5)
    Az = _product(build_divergence_matrix(g).Az, np.eye(nz + 1))[:, 1:-1]
    K = Az @ Az.T
    B = K + np.diag(np.r_[0.0, np.ones(nz - 1), 0.0])
    theta, V = _mirror_eigh(K, B)
    np.testing.assert_allclose(V.T @ B @ V, np.eye(nz + 1), rtol=0, atol=1e-13)
    np.testing.assert_allclose(V.T @ K @ V, np.diag(theta), rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.sort(theta), scipy.linalg.eigh(K, B, eigvals_only=True),
                               rtol=0, atol=1e-13)


def _count_inverse_applications(monkeypatch):
    """List every application of a projection's inverse from now on in the
    returned list, by operator."""
    real = ProjectionOperator._inverse
    calls = []

    def counted(self, r):
        calls.append(self)
        return real(self, r)

    monkeypatch.setattr(ProjectionOperator, "_inverse", counted)
    return calls


def test_projection_raises_poisson_error_after_one_application_of_the_inverse(monkeypatch):
    # without the no-slip walls the ring keeps a flux through r = r_max that no
    # pressure can remove: the divergence left after the one solve exceeds
    # the tolerance, and the projection raises instead of returning the field
    calls = _count_inverse_applications(monkeypatch)
    g = Grid(24, 40, 1.5, -2.0, 5.0)
    op = ProjectionOperator(g)
    fld = generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), g)
    with pytest.raises(PoissonError) as err:
        op.project(fld, dt=1.0)
    assert calls == [op]
    assert err.value.achieved > op.tol


def test_projection_keeps_no_state_between_calls():
    # an operator that has projected another field returns the same bits for
    # one field as a fresh operator (each projects its own copy in place)
    g = Grid(64, 64, 4.0, -4.0, 4.0)
    fld = _walled_ring(g)
    fresh, used = ProjectionOperator(g), ProjectionOperator(g)
    other = fld.copy()
    other.vr *= 2.0
    used.project(other, dt=1e-3)
    u_fresh, p_fresh = fresh.project(fld.copy(), dt=1e-3)
    u_used, p_used = used.project(fld.copy(), dt=1e-3)
    for name in ("vr", "vtheta", "vz"):
        np.testing.assert_array_equal(getattr(u_used, name), getattr(u_fresh, name))
    np.testing.assert_array_equal(p_used, p_fresh)


def test_projection_operator_is_freed_without_cycle_collection(grid16):
    # a reference cycle would keep each factor alive until the cyclic
    # collector happens to run, so that two solvers' factors coexist
    op = ProjectionOperator(grid16)
    ref = weakref.ref(op)
    gc.disable()
    try:
        del op
        assert ref() is None
    finally:
        gc.enable()


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_project_in_one_preconditioner_application(monkeypatch, path):
    cfg = parse_config(path.read_text(encoding="utf-8"))
    calls = _count_inverse_applications(monkeypatch)
    real_project = ProjectionOperator.project
    applications, divs = [], []

    def project(self, u_star, dt):
        before = len(calls)
        out, p = real_project(self, u_star, dt)
        applications.append(len(calls) - before)
        divs.append(float(np.max(np.abs(divergence(self.D, out)))))
        return out, p

    monkeypatch.setattr(ProjectionOperator, "project", project)
    assert cfg.grid.shape == (65, 65)
    solver = AxisymSolver(generate(cfg.data, cfg.grid), cfg.solver)
    for _ in range(20):
        solver.step()
    # the initial projection and two per step, each one application of the
    # exact inverse that leaves the divergence within the tolerance
    assert len(applications) == 41
    assert max(applications) <= 1
    assert max(divs) <= cfg.solver.projection_tol


def _stencil_divergence(fld):
    """Oracle: the hand-written stencil of div b = d_r vr + vr/r + d_z vz,
    centred inside, 2 d_r vr + d_z vz at the axis (odd vr ghost), one-sided
    second order at the outer boundaries."""
    g = fld.grid
    dr, dz = g.dr, g.dz
    vr, vz = fld.vr, fld.vz
    rad = np.empty(g.shape)
    rad[1:-1, :] = (vr[2:, :] - vr[:-2, :]) / (2 * dr) + vr[1:-1, :] / g.r[1:-1, None]
    rad[0, :] = 2.0 * vr[1, :] / dr
    rad[-1, :] = (3 * vr[-1, :] - 4 * vr[-2, :] + vr[-3, :]) / (2 * dr) + vr[-1, :] / g.r[-1]
    ax = np.empty(g.shape)
    ax[:, 1:-1] = (vz[:, 2:] - vz[:, :-2]) / (2 * dz)
    ax[:, 0] = (-3 * vz[:, 0] + 4 * vz[:, 1] - vz[:, 2]) / (2 * dz)
    ax[:, -1] = (3 * vz[:, -1] - 4 * vz[:, -2] + vz[:, -3]) / (2 * dz)
    return rad + ax


def test_divergence_matrix_matches_operator(grid16):
    rng = np.random.default_rng(23)
    fld = AxisymField.zeros(grid16)
    fld.vr = rng.normal(size=grid16.shape)
    fld.vz = rng.normal(size=grid16.shape)
    D = build_divergence_matrix(grid16)
    np.testing.assert_allclose(divergence(D, fld), _stencil_divergence(fld), atol=1e-12)


def test_projection_diagnostics_and_check_read_one_divergence(monkeypatch, ring_field):
    # the projection's right-hand side, the diagnostics and the invariant
    # check apply one operator to a state: the same divergence, bit for bit
    solver = AxisymSolver(ring_field, SolverConfig(dt=1e-3))
    solver.step()
    seen = []
    real = axiswirl.solver.divergence
    monkeypatch.setattr(axiswirl.solver, "divergence",
                        lambda D, fld: seen.append(real(D, fld)) or seen[-1])
    solver.projection.project(solver.state.copy(), 1e-3)  # it projects in place
    record = solver.record_diagnostics()
    from_project, from_diagnostics = seen
    np.testing.assert_array_equal(from_project, from_diagnostics)
    sup = float(np.max(np.abs(from_project)))
    # the suite's divergence report reads the record's value
    reports = run_invariant_suite([record], SnapshotHistory(), 1.0, InvariantConfig(),
                                  solver.config)
    (checked,) = [r["measured"] for r in reports if r["name"] == "divergence"]
    assert 0.0 < sup == record.max_divergence == checked


def test_project_swirl_only_unchanged(grid16):
    fld = rigid_rotation(grid16)
    out, p = ProjectionOperator(grid16).project(fld.copy(), dt=1e-3)
    np.testing.assert_allclose(out.vr, fld.vr, atol=1e-14)
    np.testing.assert_allclose(out.vz, fld.vz, atol=1e-14)
    np.testing.assert_allclose(out.vtheta, fld.vtheta)


def test_project_removes_radial_divergence(grid16):
    # vr = r has divergence 2 everywhere; the projection must clean it to the
    # configured bound at every node, boundary rows included
    fld = AxisymField.zeros(grid16)
    fld.vr = grid16.r[:, None] * np.ones(grid16.shape)
    fld.vr[-1, :] = 0.0
    fld.vr[:, 0] = 0.0
    fld.vr[:, -1] = 0.0
    tol = 1e-10
    op = ProjectionOperator(grid16, tol=tol)
    out, p = op.project(fld, dt=1e-2)
    sup = float(np.max(np.abs(divergence(op.D, out))))
    assert sup <= 10 * tol


def test_project_divergence_free_fixed_point(grid32, ring_field):
    fld = ring_field.copy()
    op = ProjectionOperator(grid32)
    once, _ = op.project(fld, dt=1e-3)
    twice, p2 = op.project(once.copy(), dt=1e-3)
    np.testing.assert_allclose(twice.vr, once.vr, atol=1e-10)
    np.testing.assert_allclose(twice.vz, once.vz, atol=1e-10)


@pytest.mark.parametrize("boundary", ["dirichlet0", "hold"])
def test_project_and_solve_work_in_place_and_a_solver_keeps_its_data(grid32, boundary):
    # project and solve return the field they are handed, changed in place; the
    # constructor works on a copy of its data, and a step leaves its state alone
    op = ProjectionOperator(grid32)
    fld = _walled_ring(grid32)
    out, p = op.project(fld, dt=1e-3)
    assert out is fld and np.any(p != 0.0)
    # swirl with -0.0 meridional entries has zero divergence: the same bits, zero pressure
    swirl = rigid_rotation(grid32)
    swirl.v[::2, ::3] = -0.0
    bits = swirl.v.tobytes()
    out, p = op.project(swirl, dt=1e-3)
    assert out is swirl and out.v.tobytes() == bits
    assert p.tobytes() == np.zeros(grid32.shape).tobytes()
    rhs = _with_boundary_values(grid32, np.random.default_rng(3), fld, boundary == "hold")
    assert HelmholtzSolver(grid32, boundary == "hold").solve(rhs, 0.01) is rhs

    initial = _walled_ring(grid32)
    initial.vr[0] = 1.0  # a value the boundary conditions reset
    bits = initial.v.tobytes()
    solver = AxisymSolver(initial, SolverConfig(cfl=0.4, boundary=boundary))
    assert initial.v.tobytes() == bits and solver.state is not initial
    left = solver.state
    bits = left.v.tobytes()
    solver.step()
    assert solver.state is not left and left.v.tobytes() == bits


# ---------------------------------------------------------------------------
# implicit viscous solves
# ---------------------------------------------------------------------------

HELMHOLTZ_GRID = (24, 40, 2.7, -2.0, 5.0)


def _with_boundary_values(g, rng, fld, neumann_swirl):
    """A copy of ``fld`` with vr and vtheta zero on the axis (vz's axis row, a
    node the solve treats as unknown, keeps its value), random values on the
    outer boundaries and, if asked, vtheta's z ends copying their neighbour."""
    out = fld.copy()
    out.vr[0, :] = out.vtheta[0, :] = 0.0
    for arr in (out.vr, out.vtheta, out.vz):
        arr[-1, :] = rng.normal(size=g.nz + 1)
        arr[:, 0] = rng.normal(size=g.nr + 1)
        arr[:, -1] = rng.normal(size=g.nr + 1)
    if neumann_swirl:
        out.vtheta[:, 0] = out.vtheta[:, 1]
        out.vtheta[:, -1] = out.vtheta[:, -2]
    return out


@pytest.mark.parametrize("name, neumann", [("vr", False), ("vtheta", True), ("vz", False)],
                         ids=["vr", "vtheta-hold", "vz"])
def test_helmholtz_operators_match_diffusion_stencils(name, neumann):
    # the radial and axial operators, applied to all rows and columns, are the
    # oracle stencils on every node they reach; their square blocks, which the
    # solve diagonalises, are the stencils on the nodes the solve treats as
    # unknown, for a field whose fixed nodes are zero (copies, on Neumann ends)
    g = Grid(*HELMHOLTZ_GRID)
    rng = np.random.default_rng(5)
    diffuse, lo = (_diffuse_plain, 0) if name == "vz" else (_diffuse_swirllike, 1)
    solver = HelmholtzSolver(g, neumann)
    unk = (slice(lo, -1), slice(1, -1))
    f = rng.normal(size=g.shape)
    got = getattr(solver.laplacian(AxisymField(g, np.stack([f, f, f]))), name)
    np.testing.assert_allclose(got, diffuse(f, g), rtol=0, atol=1e-12)

    f[-1, :] = f[:, 0] = f[:, -1] = 0.0
    if lo:
        f[0, :] = 0.0
    if neumann:
        f[:, 0], f[:, -1] = f[:, 1], f[:, -2]
    _, _, (vr_, wr, lr), (vz_, lz), *_ = solver._ops[("vr", "vtheta", "vz").index(name)]
    R = (vr_ * lr) @ (vr_.T * wr)
    Z = (vz_ * lz) @ vz_.T
    x = f[unk]
    want = diffuse(f, g)[unk]
    np.testing.assert_allclose(R @ x + x @ Z.T, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))


@pytest.mark.parametrize("neumann_swirl", [False, True], ids=["dirichlet0", "hold"])
def test_helmholtz_solve_residual(neumann_swirl):
    g = Grid(*HELMHOLTZ_GRID)
    rng = np.random.default_rng(6)
    rhs = AxisymField(g, rng.normal(size=(3,) + g.shape))
    bounded = _with_boundary_values(g, rng, rhs, neumann_swirl)
    c = GAMMA * stable_dt(g, cfl=0.4, qmax=1.0)
    helmholtz = HelmholtzSolver(g, neumann_swirl)
    u = helmholtz.solve(bounded.copy(), c)  # it solves in place
    if neumann_swirl:
        u.vtheta[:, 0] = u.vtheta[:, 1]
        u.vtheta[:, -1] = u.vtheta[:, -2]
    lap = helmholtz.laplacian(u)
    for name, lo in (("vr", 1), ("vtheta", 1), ("vz", 0)):
        unk = (slice(lo, -1), slice(1, -1))
        # the nodes the BCs fix keep their values
        np.testing.assert_array_equal(getattr(u, name)[-1], getattr(bounded, name)[-1])
        res = (getattr(u, name) - c * getattr(lap, name) - getattr(rhs, name))[unk]
        assert np.max(np.abs(res)) <= 1e-12 * np.max(np.abs(getattr(rhs, name)[unk])), name


@pytest.mark.parametrize("boundary", ["dirichlet0", "hold"])
def test_solve_applies_no_laplacian_and_a_step_one(boundary, monkeypatch):
    # the fixed values enter a solve through the edge couplings alone; a step
    # applies L once, to the first stage's solution for its explicit term
    calls = []
    laplacian = HelmholtzSolver.laplacian
    monkeypatch.setattr(HelmholtzSolver, "laplacian",
                        lambda self, fld: calls.append(1) or laplacian(self, fld))
    g = Grid(*HELMHOLTZ_GRID)
    solver = AxisymSolver(lamb_oseen_field(1.0, 0.5, g),
                          SolverConfig(cfl=0.4, boundary=boundary))
    solver.helmholtz.solve(solver._apply_bcs(solver.state.copy()), 0.01)
    assert calls == []
    solver.step()
    assert calls == [1]


def test_changing_dt_rebuilds_no_eigenvectors(monkeypatch):
    calls = []
    eigh = scipy.linalg.eigh_tridiagonal
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                        lambda d, e, **kw: calls.append(len(d)) or eigh(d, e, **kw))
    g = Grid(*HELMHOLTZ_GRID)
    solver = AxisymSolver(lamb_oseen_field(1.0, 0.5, g),
                          SolverConfig(cfl=0.4, boundary="hold"))
    # swirl-like and plain radial; the axial bases are in closed form
    assert sorted(calls) == [23, 24]
    dt = solver.current_dt()
    for k in (1.0, 0.3, 0.05):
        solver.step(k * dt)
    assert len(calls) == 2


@pytest.mark.parametrize("nz", [16, 33, 40])
@pytest.mark.parametrize("neumann", [False, True], ids=["dirichlet", "neumann"])
def test_axial_bases_diagonalise_the_axial_blocks(nz, neumann):
    # d_zz on the nz-1 unknown columns, with Dirichlet ends or with the ends
    # folded onto their neighbours (corners -1): the closed-form bases are
    # orthonormal eigenvectors
    g = Grid(16, nz, 2.0, -1.5, 2.5)
    n = nz - 1
    Z = (np.eye(n, k=1) - 2.0 * np.eye(n) + np.eye(n, k=-1)) / g.dz**2
    if neumann:
        Z[0, 0] = Z[-1, -1] = -1.0 / g.dz**2
    V, lam = _axial_basis(g, neumann)
    assert np.linalg.norm(Z @ V - V * lam, 2) <= 1e-12 * np.linalg.norm(Z, 2)
    np.testing.assert_allclose(V.T @ V, np.eye(n), rtol=0, atol=1e-13)


def test_set_up_decomposes_no_dense_matrix_beyond_the_radial_pencil(monkeypatch):
    # the viscous factors are tridiagonal, and the projection's axial pencil
    # splits into its mirror-even and mirror-odd halves: the only full-size
    # dense eigensolve left is the projection's radial pencil
    sizes = []
    np_eigh, sc_eigh = np.linalg.eigh, scipy.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw:
                        sizes.append(len(a)) or np_eigh(a, *args, **kw))
    monkeypatch.setattr(scipy.linalg, "eigh", lambda a, *args, **kw:
                        sizes.append(len(a)) or sc_eigh(a, *args, **kw))
    g = Grid(*HELMHOLTZ_GRID)
    AxisymSolver(lamb_oseen_field(1.0, 0.5, g), SolverConfig(cfl=0.4, boundary="hold"))
    radial, *axial = sorted(sizes, reverse=True)
    assert radial == g.nr + 1
    assert axial and max(axial) <= g.nz // 2 + 1


def test_set_up_and_a_step_construct_no_scipy_sparse_object(monkeypatch):
    # every 1D operator is a Csr of index arrays applied by _product
    made = []
    init = sp._base._spbase.__init__
    monkeypatch.setattr(sp._base._spbase, "__init__", lambda self, *args, **kw:
                        made.append(type(self).__name__) or init(self, *args, **kw))
    g = Grid(*HELMHOLTZ_GRID)
    solver = AxisymSolver(lamb_oseen_field(1.0, 0.5, g),
                          SolverConfig(cfl=0.4, boundary="hold"))
    solver.step()
    solver.record_diagnostics()
    assert made == []
    sp.csr_array(np.eye(2))
    assert made  # the recorder sees a construction


def _csr(A):
    """A scipy CSR matrix's index arrays as the solver's Csr."""
    return Csr(A.indptr, A.indices, A.data, A.shape)


@pytest.mark.parametrize("seed", range(4))
def test_product_equals_the_dense_product(seed):
    # _product calls scipy's private CSR kernel directly: a change of its
    # signature must fail here, not give wrong numbers
    rng = np.random.default_rng(seed)
    m, n, k = rng.integers(5, 40, size=3)
    dense = np.where(rng.random((m, n)) < 0.3, rng.normal(size=(m, n)), 0.0)
    A = sp.csr_array(dense)
    square = np.where(rng.random((n, n)) < 0.3, rng.normal(size=(n, n)), 0.0)
    operators = [
        (_csr(sp.csr_array(square)), False, square),
        (_csr(A), False, dense),
        (_csr(A[:, 1:-1]), False, dense[:, 1:-1]),  # a rectangular column slice
        (_csr(A.T.tocsr()), False, dense.T),
        (_csr(A), True, dense.T),  # the transpose through the CSC kernel
    ]
    for op, transpose, want in operators:
        X = rng.normal(size=(want.shape[1], k))
        acc = rng.normal(size=(want.shape[0], k))
        got = _product(op, X, transpose=transpose)
        assert np.linalg.norm(got - want @ X) <= 1e-14 * np.linalg.norm(want @ X)
        # out is accumulated in place
        out = acc.copy()
        assert _product(op, X, out, transpose) is out
        assert np.linalg.norm(out - (acc + want @ X)) <= 1e-14 * np.linalg.norm(acc + want @ X)
    # the CSC kernel adds each row's terms in the CSR kernel's order on the sorted transpose
    X = rng.normal(size=(m, k))
    np.testing.assert_array_equal(_product(_csr(A), X, transpose=True),
                                  _product(_csr(A.T.tocsr()), X))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_stable_dt_limits():
    # the advective CFL alone: cfl * h / max(1, q), whatever the viscosity
    g = Grid(32, 64, 4.0, -4.0, 4.0)
    slow = stable_dt(g, cfl=0.4, qmax=0.0)
    assert slow == pytest.approx(0.4 * g.dz)
    fast = stable_dt(g, cfl=0.4, qmax=10.0)
    assert fast == pytest.approx(0.4 * g.dz / 10.0)


def test_step_zero_state_fixed_point(grid16):
    solver = AxisymSolver(AxisymField.zeros(grid16), SolverConfig(cfl=0.4, t_end=1.0))
    for _ in range(3):
        solver.step()
    np.testing.assert_allclose(solver.state.vr, 0.0)
    np.testing.assert_allclose(solver.state.vtheta, 0.0)
    np.testing.assert_allclose(solver.state.vz, 0.0)


def test_fixed_dt_above_stability_rejected(grid16):
    cfg = SolverConfig(dt=1.0, t_end=1.0)
    solver = AxisymSolver(AxisymField.zeros(grid16), cfg)
    with pytest.raises(ValueError, match="stability"):
        solver.step()


def test_step_lamb_oseen_convergence_small():
    rep = lamb_oseen_convergence(32, t_end=0.1)
    assert rep["pass"]
    assert 3.0 < rep["ratio"] < 5.0


def test_step_energy_decays():
    hist = SnapshotHistory()
    solver, _ = lamb_oseen_run(32, 32, 0.05, r_max=4.0, z_half=4.0, history=hist)
    e0 = kinetic_energy(hist.snapshots[0].field)
    e1 = kinetic_energy(solver.state)
    assert e1 < e0
    # oracle: the analytic profile at the two times gives the same drop
    g = solver.state.grid
    w = volume_weights(g)
    drop = 0.0
    for t, sign in ((0.5, 1.0), (0.5 + solver.t, -1.0)):
        prof = lamb_oseen_profile(g.r, 1.0, t)
        drop += sign * float(2 * np.pi * 0.5 * np.sum(w * prof[:, None] ** 2))
    assert (e0 - e1) == pytest.approx(drop, rel=5e-2)


def test_snapshot_cadence(grid16):
    # run reports a snapshot after steps 3 and 6 and diagnostics after every
    # step; the starting state is the caller's to report, and the solver
    # itself keeps neither
    hist, steps = SnapshotHistory(), []
    solver = AxisymSolver(AxisymField.zeros(grid16), SolverConfig(dt=1e-3, snapshot_every=3))
    solver.run(7e-3, on_snapshot=hist.record, on_diagnostics=lambda rec: steps.append(rec.step))
    assert solver.step_count == 7
    assert steps == [1, 2, 3, 4, 5, 6, 7]
    np.testing.assert_allclose(hist.times, [3e-3, 6e-3])
    assert not hasattr(solver, "history") and not hasattr(solver, "diagnostics")


def test_history_record_keeps_a_copy(grid16):
    solver = AxisymSolver(rigid_rotation(grid16), SolverConfig(dt=1e-3))
    hist = SnapshotHistory()
    hist.record(solver)
    kept = hist.snapshots[0]
    assert kept.field is not solver.state
    np.testing.assert_array_equal(kept.field.vtheta, solver.state.vtheta)
    solver.state.vtheta[:] = 0.0
    assert np.any(kept.field.vtheta != 0.0)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("boundary", ["dirichlet0", "hold"])
def test_constructor_keeps_a_stepped_state_bit_for_bit(n, boundary):
    # a resumed run starts from a reported state through the constructor,
    # which applies the boundary conditions and projects: both must keep
    # every bit of it
    cfg = SolverConfig(cfl=0.4, boundary=boundary)
    g = Grid(n, n, 4.0, -4.0, 4.0)
    solver = AxisymSolver(generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), g), cfg)
    for _ in range(6):
        solver.step()
    again = AxisymSolver(solver.state, cfg)
    for name in ("vr", "vtheta", "vz"):
        assert getattr(again.state, name).tobytes() == getattr(solver.state, name).tobytes(), name


def _out_of_place_momentum_rhs(state):
    """Oracle: momentum_rhs as it was before it wrote into its output, each
    component a sum of fresh arrays."""
    g = state.grid
    rinv = np.r_[0.0, 1.0 / g.r[1:]][:, None]
    split = upwind_split(state)
    out = AxisymField(g, np.empty((3, *g.shape)))
    out.vr = -advect(state, state.vr, -1, split) + state.vtheta**2 * rinv
    out.vtheta = -advect(state, state.vtheta, -1, split) - state.vr * state.vtheta * rinv
    out.vz = -advect(state, state.vz, 1, split)
    return out


def _out_of_place_solve(helmholtz, bounded, c):
    """Oracle: HelmholtzSolver.solve as it was, into a copy of ``bounded``."""
    out = bounded.copy()
    for x, u, (_, lo, (vr_, wr, lr), (vz_, lz), up_r, end_z) in zip(
            bounded.v, out.v, helmholtz._ops):
        unk = (slice(lo, -1), slice(1, -1))
        b = x[unk].copy()
        b[-1] += c * up_r * x[-1, 1:-1]
        b[:, [0, -1]] += c * end_z * x[unk[0], [0, -1]]
        y = (vr_.T @ (wr[:, None] * b) @ vz_) / (1.0 - c * (lr[:, None] + lz))
        u[unk] = vr_ @ y @ vz_.T
    return out


def _out_of_place_project(op, u_star, dt):
    """Oracle: ProjectionOperator.project as it was, into a copy of ``u_star``."""
    div = divergence(op.D, u_star)
    if float(np.linalg.norm(div)) < op.tol:
        return u_star.copy(), np.zeros(op.grid.shape)
    s = op._inverse(div / dt)
    grad = np.divide(gradient(op.D, s), op._w, out=np.zeros(op._free.shape), where=op._free)
    out = u_star.copy()
    out.v[::2] -= dt * grad
    return out, -s / op._w


def _out_of_place_step(solver, dt, seen):
    """Oracle: the step as it was before it worked in place, each right-hand side
    the sum (0 + 1.0 u) + a e0 + ... of fresh arrays and each stage on copies;
    the bytes of each right-hand side handed to the solve go to ``seen``."""
    def combine(*terms):
        return AxisymField(solver.grid, sum(a * f.v for a, f in terms))

    def stage(rhs, increment):
        bounded = solver._apply_bcs(rhs.copy())
        seen.append(bounded.v.tobytes())
        u = _out_of_place_solve(solver.helmholtz, bounded, GAMMA * dt)
        return _out_of_place_project(solver.projection, solver._apply_bcs(u.copy()), increment)

    u = solver.state
    e0 = _out_of_place_momentum_rhs(u)
    u1, _ = stage(combine((1.0, u), (GAMMA * dt, e0)), GAMMA * dt)
    e1 = _out_of_place_momentum_rhs(u1)
    u2, p = stage(combine((1.0, u), (DELTA * dt, e0), ((1.0 - DELTA) * dt, e1),
                          ((1.0 - GAMMA) * dt, solver.helmholtz.laplacian(u1))), dt)
    solver.state, solver.pressure, solver.t = u2, p, solver.t + dt


@pytest.mark.parametrize("boundary", ["dirichlet0", "hold"])
def test_step_equals_the_out_of_place_step_bit_for_bit(boundary, monkeypatch):
    # spacings that are not powers of two, so that a reordered sum or a
    # coefficient applied after an add shows in the last bit; exact zeros and
    # -0.0 in the swirl, which the projection leaves alone, so that a right-hand
    # side that drops the leading 0 + keeps a -0.0 the sum turns into +0.0
    g = Grid(*HELMHOLTZ_GRID)
    data = generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), g)
    data.vtheta[:, 12:26] = 0.0
    data.vtheta[::2, 12:26:3] = -0.0
    data.vr[data.vr < 1e-3] = 0.0
    cfg = SolverConfig(cfl=0.4, boundary=boundary)
    solver, oracle = AxisymSolver(data, cfg), AxisymSolver(data, cfg)
    inner = solver.state.vtheta[1:-1, 1:-1]
    assert np.signbit(inner[inner == 0.0]).any()  # the -0.0 entries reach the state
    seen, want = [], []
    solve = solver.helmholtz.solve
    monkeypatch.setattr(solver.helmholtz, "solve",
                        lambda rhs, c: seen.append(rhs.v.tobytes()) or solve(rhs, c))
    for _ in range(3):
        dt = solver.current_dt()
        solver.step(dt)
        _out_of_place_step(oracle, dt, want)
        assert seen == want
        assert solver.state.v.tobytes() == oracle.state.v.tobytes()
        assert solver.pressure.tobytes() == oracle.pressure.tobytes()
        assert solver.t == oracle.t


@pytest.mark.parametrize("boundary", ["dirichlet0", "hold"])
def test_a_step_holds_at_most_six_fields_above_its_state(boundary):
    # a right-hand side, the stage-1 solution, one tendency and its upwind
    # scratch: 5.85 fields; the out-of-place step held 9.34 here
    g = Grid(128, 128, 4.0, -4.0, 4.0)
    solver = AxisymSolver(generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), g),
                          SolverConfig(cfl=0.4, boundary=boundary))
    solver.step()
    dt = solver.current_dt()
    field = 3 * (g.nr + 1) * (g.nz + 1) * 8
    assert peak_above_entry(lambda: solver.step(dt)) <= 6 * field


def test_run_measures_the_speed_once_per_step(monkeypatch):
    # the next dt takes the q of the record just made, which is the one
    # current_dt would measure: the same records and states bit for bit
    g = Grid(*HELMHOLTZ_GRID)
    data = generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), g)
    cfg, t_end = SolverConfig(cfl=0.4), 0.3
    twice, want = AxisymSolver(data, cfg), []
    while twice.t < t_end - 1e-14:
        dt = twice.current_dt()
        twice.step(dt if t_end - twice.t >= (1.0 - 1e-9) * dt else t_end - twice.t)
        want.append(twice.record_diagnostics())
    calls = []
    speed = AxisymField.speed
    monkeypatch.setattr(AxisymField, "speed", lambda self: calls.append(1) or speed(self))
    once, rows = AxisymSolver(data, cfg), []
    once.run(t_end, on_diagnostics=rows.append)
    assert len(rows) == len(want) >= 5
    assert len(calls) == len(rows) + 1  # and one for the first dt
    assert rows == want
    assert once.state.v.tobytes() == twice.state.v.tobytes()


# ---------------------------------------------------------------------------
# residual norms on snapshot sequences
# ---------------------------------------------------------------------------

def _centered(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(arr, -1, axis) - np.roll(arr, 1, axis)) / (2 * h)


def _second(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(arr, -1, axis) - 2 * arr + np.roll(arr, 1, axis)) / h**2


class _Kept(list):
    """The (t, field, pressure) of every state recorded, as an ``on_snapshot``
    sink: the MMS oracle's history, which needs the pressures."""

    def record(self, solver) -> None:
        self.append((solver.t, solver.state.copy(), solver.pressure.copy()))


def mms_residual(snaps: list, window: tuple[float, float] | None = None,
                 margin: int = 2) -> dict[str, dict[str, float]]:
    """Oracle: per-equation residual norms of the unit-viscosity momentum system on the
    time-ordered (t, field, pressure) triples ``snaps``.

    Time derivatives are centered over consecutive snapshots; spatial terms are
    centered second order, independent of the solver's stencils; norms are
    taken over interior nodes at least ``margin`` away from every boundary.
    Needs at least 3 snapshots in window.
    """
    if window is not None:
        snaps = [s for s in snaps if window[0] - 1e-14 <= s[0] <= window[1] + 1e-14]
    if len(snaps) < 3:
        raise ValueError(f"need at least 3 snapshots for the time derivative, have {len(snaps)}")
    g = snaps[0][1].grid
    dr, dz = g.dr, g.dz
    w = volume_weights(g)
    sl = (slice(margin, -margin), slice(margin, -margin))
    r = g.r[:, None]

    sup = {k: 0.0 for k in ("vr", "vtheta", "vz", "div")}
    ssq = {k: 0.0 for k in ("vr", "vtheta", "vz", "div")}
    wsum = 0.0

    for k in range(1, len(snaps) - 1):
        (tm, fm, _), (t0, f0, p), (tp, fp, _) = snaps[k - 1: k + 2]
        hm, hp = t0 - tm, tp - t0

        def dt_of(name: str) -> np.ndarray:
            am, a0, ap = getattr(fm, name), getattr(f0, name), getattr(fp, name)
            return (hm**2 * ap + (hp**2 - hm**2) * a0 - hp**2 * am) / (hm * hp * (hm + hp))

        vr, vt, vz = f0.vr, f0.vtheta, f0.vz
        adv = lambda a: vr * _centered(a, 0, dr) + vz * _centered(a, 1, dz)
        lap = lambda a: _second(a, 0, dr) + _centered(a, 0, dr) / r + _second(a, 1, dz)

        # the axis row divides by r=0; it lies outside the interior margin and
        # is discarded below
        with np.errstate(divide="ignore", invalid="ignore"):
            res = {
                "vr": dt_of("vr") + adv(vr) - vt**2 / r + _centered(p, 0, dr)
                      - (lap(vr) - vr / r**2),
                "vtheta": dt_of("vtheta") + adv(vt) + vr * vt / r - (lap(vt) - vt / r**2),
                "vz": dt_of("vz") + adv(vz) + _centered(p, 1, dz) - lap(vz),
                "div": _centered(vr, 0, dr) + vr / r + _centered(vz, 1, dz),
            }
        wi = w[sl]
        wsum += np.sum(wi)
        for name, arr in res.items():
            a = arr[sl]
            sup[name] = max(sup[name], float(np.max(np.abs(a))))
            ssq[name] += float(np.sum(wi * a**2))

    return {
        name: {"sup": sup[name], "l2": float(np.sqrt(ssq[name] / wsum))}
        for name in sup
    }


def _analytic_history(grid, times, circ=1.0):
    return [(t, lamb_oseen_field(circ, t, grid), np.zeros(grid.shape)) for t in times]


def test_mms_residual_needs_three_snapshots(grid16):
    hist = _analytic_history(grid16, [0.5, 0.51])
    with pytest.raises(ValueError):
        mms_residual(hist)


def test_mms_residual_constant_axial_flow(grid16):
    hist = []
    for t in (0.0, 0.1, 0.2):
        fld = AxisymField.zeros(grid16)
        fld.vz[:] = 1.5
        hist.append((t, fld, np.zeros(grid16.shape)))
    res = mms_residual(hist)
    for eq in ("vr", "vtheta", "vz", "div"):
        assert res[eq]["sup"] == 0.0


def test_mms_residual_analytic_snapshots_refine():
    # weighted L2: the near-axis first-order sliver carries vanishing volume
    norms = []
    for n in (32, 64):
        g = Grid(n, n, 6.0, -2.0, 2.0)
        dt = 1e-3 / (n / 32) ** 2
        hist = _analytic_history(g, [0.5 - dt, 0.5, 0.5 + dt])
        norms.append(mms_residual(hist)["vtheta"]["l2"])
    assert 3.0 < norms[0] / norms[1] < 5.5


def test_mms_residual_solver_snapshots_refine():
    norms = []
    for n in (32, 64):
        hist = _Kept()
        # 4 and 8 steps at the advective step, so the window holds 4 snapshots
        lamb_oseen_run(n, n, 0.2, r_max=4.0, z_half=4.0, snapshot_every=1, history=hist)
        window = (hist[-4][0], hist[-1][0])
        norms.append(mms_residual(hist, window=window)["vtheta"]["l2"])
    assert norms[0] / norms[1] > 3.0
