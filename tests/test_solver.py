"""Spatial operators, projection, stepping and residual norms."""
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from axiswirl.config import parse_config
from axiswirl.fields import (
    AxisymField,
    ScalarField,
    SnapshotHistory,
    apply_axis_conditions,
    divergence,
    make_grid,
)
from axiswirl.initial import DataSpec, generate, lamb_oseen_field, lamb_oseen_profile
from axiswirl.solver import (
    GAMMA,
    AxisymSolver,
    HelmholtzSolver,
    PoissonError,
    ProjectionOperator,
    SolverConfig,
    advect,
    build_divergence_matrix,
    diffuse_plain,
    diffuse_swirllike,
    kinetic_energy,
    mms_residual,
    momentum_rhs,
    stable_dt,
    viscous_terms,
    volume_weights,
)
from axiswirl.solver import _axial_operator, _radial_operator
from axiswirl.validation import lamb_oseen_convergence, lamb_oseen_run

from conftest import rigid_rotation


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
    {"cfl": 0.4, "mu": -1.0},
    {"cfl": 0.4, "projection_tol": 1e-3},
    {"cfl": 0.4, "projection_tol": 0.0},
    {"cfl": 0.4, "boundary": "periodic"},
    {"cfl": 0.4, "snapshot_every": 0},
])
def test_solver_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


# ---------------------------------------------------------------------------
# advection
# ---------------------------------------------------------------------------

def test_advect_zero_drift(grid16):
    b = AxisymField.zeros(grid16)
    f = ScalarField(grid16, np.sin(grid16.r)[:, None] * np.ones(grid16.shape))
    np.testing.assert_allclose(advect(b, f).values, 0.0, atol=1e-14)


def test_advect_linear_profile(grid16):
    # vr = 1, f = r: upwind derivative of a linear function is exact
    b = AxisymField.zeros(grid16)
    b.vr[:] = 1.0
    f = ScalarField(grid16, grid16.r[:, None] * np.ones(grid16.shape))
    got = advect(b, f, parity=-1).values
    np.testing.assert_allclose(interior(got), 1.0, atol=1e-12)


def test_advect_manufactured_profile():
    # f = sin(r) cos(z), vr = r, vz = -2z -> r cos(r) cos(z) + 2z sin(r) sin(z)
    errs = []
    for n in (64, 128):
        g = make_grid(n, n, 2.0, -1.0, 1.0)
        R, Z = np.meshgrid(g.r, g.z, indexing="ij")
        b = AxisymField(g, R.copy(), np.zeros(g.shape), -2.0 * Z)
        f = ScalarField(g, np.sin(R) * np.cos(Z))
        exact = R * np.cos(R) * np.cos(Z) + 2.0 * Z * np.sin(R) * np.sin(Z)
        got = advect(b, f, parity=1).values
        errs.append(float(np.max(np.abs(interior(got - exact)))))
    assert errs[0] < 2e-3
    assert errs[0] / errs[1] > 3.0  # the biased stencil is second order on smooth data


# ---------------------------------------------------------------------------
# diffusion operators
# ---------------------------------------------------------------------------

def test_diffuse_swirllike_rigid_rotation(grid16):
    # (d_rr + d_r/r - 1/r^2) (Omega r) = 0 exactly, node by node
    f = ScalarField(grid16, 0.7 * grid16.r[:, None] * np.ones(grid16.shape))
    got = diffuse_swirllike(f).values
    np.testing.assert_allclose(interior(got, 1), 0.0, atol=1e-11)


def test_diffuse_swirllike_zero(grid16):
    f = ScalarField(grid16, np.zeros(grid16.shape))
    np.testing.assert_allclose(diffuse_swirllike(f).values, 0.0)


def test_diffuse_swirllike_separable_profile():
    # f = r e^{-z^2}: the radial part cancels as for rigid rotation, leaving
    # r (4z^2 - 2) e^{-z^2}; nodal error is second order
    errs = []
    for n in (32, 64):
        g = make_grid(n, n, 2.0, -1.0, 1.0)
        R, Z = np.meshgrid(g.r, g.z, indexing="ij")
        f = ScalarField(g, R * np.exp(-(Z**2)))
        exact = R * (4 * Z**2 - 2) * np.exp(-(Z**2))
        got = diffuse_swirllike(f).values
        errs.append(float(np.max(np.abs(interior(got - exact, 1)))))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_diffuse_plain_constant(grid16):
    f = ScalarField(grid16, np.full(grid16.shape, 2.0))
    np.testing.assert_allclose(diffuse_plain(f).values, 0.0, atol=1e-12)


def test_diffuse_plain_quadratic(grid16):
    # (d_rr + d_r/r) r^2 = 2 + 2 = 4, including the axis row limit
    f = ScalarField(grid16, (grid16.r**2)[:, None] * np.ones(grid16.shape))
    got = diffuse_plain(f).values
    np.testing.assert_allclose(got[:-1, 1:-1], 4.0, atol=1e-10)


def test_diffuse_plain_bessel_like_profile():
    errs = []
    for n in (32, 64):
        g = make_grid(n, n, 2.0, -1.0, 1.0)
        R, Z = np.meshgrid(g.r, g.z, indexing="ij")
        f = ScalarField(g, np.exp(-(R**2)))
        exact = (4 * R**2 - 4) * np.exp(-(R**2))
        got = diffuse_plain(f).values
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
    circ, nu, t = 1.0, 1.0, 0.5
    errs = []
    for n in (64, 128):
        g = make_grid(n, n, 6.0, -1.0, 1.0)
        fld = lamb_oseen_field(circ, nu, t, g)
        rhs = momentum_rhs(fld, mu=nu)
        r = g.r[1:-1]
        # d/dt of (circ/2 pi r)(1 - e^{-r^2/4 nu t})
        exact = -circ / (2 * np.pi * r) * np.exp(-(r**2) / (4 * nu * t)) * (
            r**2 / (4 * nu * t**2)
        )
        # measured away from the axis: the (1/r) d_r stencil is only
        # first-order consistent at the very first node off the axis
        keep = r >= 0.5
        err = np.max(np.abs(rhs.vtheta[1:-1, 1:-1] - exact[:, None])[keep])
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
]


@pytest.mark.parametrize("dims", ORACLE_GRIDS, ids=["16", "64", "24x40"])
def test_divergence_matrix_equals_loop_oracle(dims):
    g = make_grid(*dims)
    got = build_divergence_matrix(g)
    want = _loop_divergence_matrix(g)
    assert got.has_canonical_format
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.all(a == b), name
    # the projection operator assembled from the oracle is bitwise the same
    op = ProjectionOperator(g)
    w = volume_weights(g).ravel()
    wu = np.concatenate([w, w])[op._mask]
    Df = want[:, op._mask].tocsr()
    K = (Df @ sp.diags(1.0 / wu) @ Df.T).tocsr()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(op._K, name), getattr(K, name)), name


@pytest.mark.parametrize("dims", [(64, 64, 4.0, -4.0, 4.0), (24, 40, 2.7, -2.0, 5.0)],
                         ids=["64", "24x40"])
def test_projection_factor_keeps_diagonal_pivots(dims):
    g = make_grid(*dims)
    tol = 1e-10
    op = ProjectionOperator(g, tol=tol)
    lu = op._lu
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert lu.L.dtype == np.float32 and lu.U.dtype == np.float32
    shifted = (op._K + 1e-3 * sp.identity(op._npts)).tocsc().astype(np.float32)
    default = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A")
    assert lu.L.nnz + lu.U.nnz <= 0.9 * (default.L.nnz + default.U.nnz)
    # the ring with the solver's no-slip walls, so the boundary flux is compatible
    fld = apply_axis_conditions(generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), g))
    for arr in (fld.vr, fld.vtheta, fld.vz):
        arr[-1, :] = arr[:, 0] = arr[:, -1] = 0.0
    out, _ = op.project(fld, dt=1e-3)
    assert float(np.max(np.abs(divergence(out).values))) <= 10 * tol


def test_projection_factors_float32_csc_through_module_splu(monkeypatch, grid16):
    # the factorisation must be looked up as scipy.sparse.linalg.splu at call
    # time, so that wrappers installed on that attribute see every factor
    calls = []
    real_splu = spla.splu

    def splu(A, *args, **kwargs):
        calls.append(A)
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    ProjectionOperator(grid16)
    (A,) = calls
    assert A.format == "csc" and A.dtype == np.float32


class _CountingFactor:
    """Stands in for a SuperLU factor and counts its solves."""

    def __init__(self, lu):
        self._lu = lu
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self._lu.solve(rhs)


def _count_factor_solves(monkeypatch):
    """Make every factor built from now on count its solves."""
    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: _CountingFactor(real_splu(*a, **k)))


def test_projection_gives_up_after_max_iter_on_incompatible_flux(monkeypatch):
    # without the no-slip walls the ring keeps a flux through r = r_max that no
    # pressure can remove: CG gives up after poisson_max_iter preconditioner
    # solves instead of running on
    _count_factor_solves(monkeypatch)
    g = make_grid(24, 40, 3.0, -2.0, 5.0)
    op = ProjectionOperator(g)
    assert op.max_iter == SolverConfig(cfl=0.4).poisson_max_iter
    before = op._lu.solves
    fld = apply_axis_conditions(generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), g))
    with pytest.raises(PoissonError):
        op.project(fld, dt=1.0)
    assert op._lu.solves - before == op.max_iter


def test_projection_setup_makes_no_factor_solve(monkeypatch, grid16):
    # the preconditioner declares its dtype, so scipy does not call the factor
    # on a zero vector to find it out
    _count_factor_solves(monkeypatch)
    op = ProjectionOperator(grid16)
    assert op._lu.solves == 0


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
def test_shipped_configs_project_in_at_most_two_solves(monkeypatch, path):
    cfg = parse_config(path.read_text(encoding="utf-8"))
    _count_factor_solves(monkeypatch)
    real_project = ProjectionOperator.project
    solves, divs = [], []

    def project(self, u_star, dt):
        before = self._lu.solves
        out, p = real_project(self, u_star, dt)
        solves.append(self._lu.solves - before)
        divs.append(float(np.max(np.abs(divergence(out).values))))
        return out, p

    monkeypatch.setattr(ProjectionOperator, "project", project)
    grid = make_grid(cfg.grid.nr, cfg.grid.nz, cfg.grid.r_max, cfg.grid.z_min, cfg.grid.z_max)
    assert grid.shape == (65, 65)
    solver = AxisymSolver(generate(cfg.data, grid), cfg.solver)
    for _ in range(20):
        solver.step()
    # the initial projection and two per step; the initial one starts CG from
    # zero, every later one from the previous pressure
    assert len(solves) == 41
    assert max(solves[1:]) <= 2
    assert max(divs) <= cfg.solver.projection_tol


def test_divergence_matrix_matches_operator(grid16):
    rng = np.random.default_rng(23)
    fld = AxisymField.zeros(grid16)
    fld.vr = rng.normal(size=grid16.shape)
    fld.vz = rng.normal(size=grid16.shape)
    D = build_divergence_matrix(grid16)
    stacked = np.concatenate([fld.vr.ravel(), fld.vz.ravel()])
    np.testing.assert_allclose(
        (D @ stacked).reshape(grid16.shape), divergence(fld).values, atol=1e-12
    )


def test_project_swirl_only_unchanged(grid16):
    fld = apply_axis_conditions(rigid_rotation(grid16))
    out, p = ProjectionOperator(grid16).project(fld, dt=1e-3)
    np.testing.assert_allclose(out.vr, fld.vr, atol=1e-14)
    np.testing.assert_allclose(out.vz, fld.vz, atol=1e-14)
    np.testing.assert_allclose(out.vtheta, fld.vtheta)


def test_project_removes_radial_divergence(grid16):
    # vr = r has divergence 2 everywhere; the projection must clean it to the
    # configured bound at every node, boundary rows included
    fld = AxisymField.zeros(grid16)
    fld.vr = grid16.r[:, None] * np.ones(grid16.shape)
    fld = apply_axis_conditions(fld)
    fld.vr[-1, :] = 0.0
    fld.vr[:, 0] = 0.0
    fld.vr[:, -1] = 0.0
    tol = 1e-10
    out, p = ProjectionOperator(grid16, tol=tol).project(fld, dt=1e-2)
    sup = float(np.max(np.abs(divergence(out).values)))
    assert sup <= 10 * tol


def test_project_divergence_free_fixed_point(grid32, ring_field):
    fld = ring_field.copy()
    op = ProjectionOperator(grid32)
    once, _ = op.project(fld, dt=1e-3)
    twice, p2 = op.project(once, dt=1e-3)
    np.testing.assert_allclose(twice.vr, once.vr, atol=1e-10)
    np.testing.assert_allclose(twice.vz, once.vz, atol=1e-10)


# ---------------------------------------------------------------------------
# implicit viscous solves
# ---------------------------------------------------------------------------

HELMHOLTZ_GRID = (24, 40, 2.7, -2.0, 5.0)


def _with_boundary_values(g, rng, fld, neumann_swirl):
    """``fld`` after the axis conditions (which also reset vz's axis row, a node
    the solve treats as unknown), with random values on the outer boundaries
    and, if asked, vtheta's z ends copying their neighbour."""
    out = apply_axis_conditions(fld)
    for arr in (out.vr, out.vtheta, out.vz):
        arr[-1, :] = rng.normal(size=g.nz + 1)
        arr[:, 0] = rng.normal(size=g.nr + 1)
        arr[:, -1] = rng.normal(size=g.nr + 1)
    if neumann_swirl:
        out.vtheta[:, 0] = out.vtheta[:, 1]
        out.vtheta[:, -1] = out.vtheta[:, -2]
    return out


@pytest.mark.parametrize("swirllike, neumann", [(True, False), (True, True), (False, False)],
                         ids=["vr", "vtheta-hold", "vz"])
def test_helmholtz_operators_match_diffusion_stencils(swirllike, neumann):
    # the 1D operators, summed over the two directions, are the stencils of
    # diffuse_swirllike / diffuse_plain on every node the solve treats as
    # unknown, for a field whose fixed nodes are zero (copies, on Neumann ends)
    g = make_grid(*HELMHOLTZ_GRID)
    f = np.random.default_rng(5).normal(size=g.shape)
    f[-1, :] = f[:, 0] = f[:, -1] = 0.0
    if swirllike:
        f[0, :] = 0.0
    if neumann:
        f[:, 0], f[:, -1] = f[:, 1], f[:, -2]
    diffuse, lo = (diffuse_swirllike, 1) if swirllike else (diffuse_plain, 0)
    R, _ = _radial_operator(g, swirllike)
    Z = _axial_operator(g, neumann)
    x = f[lo:-1, 1:-1]
    want = diffuse(ScalarField(g, f)).values[lo:-1, 1:-1]
    np.testing.assert_allclose(R @ x + x @ Z.T, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("neumann_swirl", [False, True], ids=["dirichlet0", "hold"])
def test_helmholtz_solve_residual(neumann_swirl):
    g = make_grid(*HELMHOLTZ_GRID)
    rng = np.random.default_rng(6)
    rhs = AxisymField(g, *rng.normal(size=(3,) + g.shape))
    bounded = _with_boundary_values(g, rng, rhs, neumann_swirl)
    c = GAMMA * stable_dt(g, cfl=0.4, qmax=1.0)
    u = HelmholtzSolver(g, neumann_swirl).solve(rhs, bounded, c)
    if neumann_swirl:
        u.vtheta[:, 0] = u.vtheta[:, 1]
        u.vtheta[:, -1] = u.vtheta[:, -2]
    lap = viscous_terms(u)
    for name, lo in (("vr", 1), ("vtheta", 1), ("vz", 0)):
        unk = (slice(lo, -1), slice(1, -1))
        # the nodes the BCs fix keep their values
        np.testing.assert_array_equal(getattr(u, name)[-1], getattr(bounded, name)[-1])
        res = (getattr(u, name) - c * getattr(lap, name) - getattr(rhs, name))[unk]
        assert np.max(np.abs(res)) <= 1e-12 * np.max(np.abs(getattr(rhs, name)[unk])), name


def test_changing_dt_rebuilds_no_eigenvectors(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    g = make_grid(*HELMHOLTZ_GRID)
    solver = AxisymSolver(lamb_oseen_field(1.0, 1.0, 0.5, g),
                          SolverConfig(cfl=0.4, boundary="hold"))
    # swirl-like and plain radial, Dirichlet and Neumann axial
    assert sorted(calls) == [(23, 23), (24, 24), (39, 39), (39, 39)]
    dt = solver.current_dt()
    for k in (1.0, 0.3, 0.05):
        solver.step(k * dt)
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_stable_dt_limits():
    # the advective CFL alone: cfl * h / max(1, q), whatever the viscosity
    g = make_grid(32, 64, 4.0, -4.0, 4.0)
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
    conv = lamb_oseen_convergence((32, 64), t_end=0.1)
    assert 3.0 < conv["ratios"][0] < 5.0


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
        prof = lamb_oseen_profile(g.r, 1.0, 1.0, t)
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
    assert kept.field is not solver.state and kept.pressure is not solver.pressure
    np.testing.assert_array_equal(kept.field.vtheta, solver.state.vtheta)
    solver.state.vtheta[:] = 0.0
    assert np.any(kept.field.vtheta != 0.0)


# ---------------------------------------------------------------------------
# residual norms on snapshot sequences
# ---------------------------------------------------------------------------

def _analytic_history(grid, times, circ=1.0, nu=1.0):
    hist = SnapshotHistory()
    for t in times:
        fld = lamb_oseen_field(circ, nu, t, grid)
        hist.push(t, fld, ScalarField(grid, np.zeros(grid.shape), role="pressure"))
    return hist


def test_mms_residual_needs_three_snapshots(grid16):
    hist = _analytic_history(grid16, [0.5, 0.51])
    with pytest.raises(ValueError):
        mms_residual(hist)


def test_mms_residual_constant_axial_flow(grid16):
    hist = SnapshotHistory()
    for t in (0.0, 0.1, 0.2):
        fld = AxisymField.zeros(grid16)
        fld.vz[:] = 1.5
        hist.push(t, fld, ScalarField(grid16, np.zeros(grid16.shape), role="pressure"))
    res = mms_residual(hist)
    for eq in ("vr", "vtheta", "vz", "div"):
        assert res[eq]["sup"] == 0.0


def test_mms_residual_analytic_snapshots_refine():
    # weighted L2: the near-axis first-order sliver carries vanishing volume
    norms = []
    for n in (32, 64):
        g = make_grid(n, n, 6.0, -2.0, 2.0)
        dt = 1e-3 / (n / 32) ** 2
        hist = _analytic_history(g, [0.5 - dt, 0.5, 0.5 + dt])
        norms.append(mms_residual(hist)["vtheta"]["l2"])
    assert 3.0 < norms[0] / norms[1] < 5.5


def test_mms_residual_solver_snapshots_refine():
    norms = []
    for n in (32, 64):
        hist = SnapshotHistory()
        # 4 and 8 steps at the advective step, so the window holds 4 snapshots
        lamb_oseen_run(n, n, 0.2, r_max=4.0, z_half=4.0, snapshot_every=1, history=hist)
        window = (hist.times[-4], hist.times[-1])
        norms.append(mms_residual(hist, window=window)["vtheta"]["l2"])
    assert norms[0] / norms[1] > 3.0
