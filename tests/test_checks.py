"""Tests for the invariant/property suite and the zoom-covariance check."""
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import axiswirl.checks
import axiswirl.solver
from axiswirl.checks import (
    ZOOM_TOL,
    InvariantConfig,
    check_divergence,
    check_energy,
    check_max_principle,
    check_scaling_covariance,
    check_short_time_bound,
    lamb_oseen_convergence,
    lamb_oseen_run,
    run_invariant_suite,
)
from axiswirl.config import parse_config
from axiswirl.fields import AxisymField, Grid, SnapshotHistory, max_rvtheta, max_speed
from axiswirl.initial import DataSpec, generate, lamb_oseen_field
from axiswirl.solver import (
    AxisymSolver,
    SolverConfig,
    advect,
    build_divergence_matrix,
    divergence,
    kinetic_energy,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _swirl(grid, amp):
    fld = AxisymField.zeros(grid)
    fld.vtheta = amp * grid.r[:, None] * np.exp(-grid.r[:, None] ** 2) * np.ones(grid.shape)
    return fld


def _sup_divergence(fld):
    return float(np.max(np.abs(divergence(build_divergence_matrix(fld.grid), fld))))


def test_invariant_config_validation():
    with pytest.raises(ValueError, match="h0"):
        InvariantConfig(h0=0.0)


def test_max_rvtheta_rigid_rotation(grid16):
    from conftest import rigid_rotation

    fld = rigid_rotation(grid16, omega=0.5)
    # r * |omega r| peaks at the rim: omega * r_max^2
    assert max_rvtheta(fld) == pytest.approx(0.5 * grid16.r_max**2)


def test_max_principle_decaying_series_passes(grid16):
    fields = [_swirl(grid16, a) for a in (1.0, 0.8, 0.5)]
    rep = check_max_principle([max_rvtheta(f) for f in fields],
                              n0=max_rvtheta(fields[0]) * 1.01)
    assert rep["pass"]
    assert rep["worst_step_increase"] <= 0.0


def test_max_principle_growth_fails(grid16):
    fields = [_swirl(grid16, a) for a in (0.5, 1.0)]
    rep = check_max_principle([max_rvtheta(f) for f in fields], n0=10.0)
    assert not rep["pass"]
    assert rep["worst_step_increase"] > 0.0


def test_max_principle_bound_violation_fails(grid16):
    fld = _swirl(grid16, 1.0)
    rep = check_max_principle([max_rvtheta(fld)], n0=0.5 * max_rvtheta(fld))
    assert not rep["pass"]


def test_max_principle_lamb_oseen_closed_form():
    # r vtheta = (Gamma / 2 pi)(1 - exp(-r^2 / 4 nu t)) is increasing in r and
    # decreasing in t, with sup over the disk (Gamma/2 pi)(1 - exp(-R^2/4 nu t))
    g = Grid(128, 8, 6.0, -0.5, 0.5)
    times = [0.5, 0.75, 1.0]
    rep = check_max_principle([max_rvtheta(lamb_oseen_field(1.0, 1.0, t, g)) for t in times],
                              n0=1.0 / (2 * np.pi))
    assert rep["pass"]
    expect = 1.0 / (2 * np.pi) * (1 - np.exp(-(6.0**2) / (4 * 0.5)))
    assert rep["measured"] == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("n", [32, 64])
def test_held_lamb_oseen_run_keeps_sup_r_vtheta_below_its_start(n):
    # the swirl-like band's rows sum to zero in r vtheta, so no step of the
    # held run lifts sup r|vtheta| above Gamma / 2 pi beyond roundoff
    hist = SnapshotHistory()
    lamb_oseen_run(n, n, 0.02, history=hist)
    sups = [max_rvtheta(snap.field) for snap in hist]
    assert max(sups) <= 1.0 / (2 * np.pi) * (1 + 1e-12)


def test_short_time_bound_pass_and_empirical_h0(grid16):
    fields = [_swirl(grid16, a) for a in (1.0, 1.5, 3.0)]
    times, qs = [0.0, 0.1, 0.2], [max_speed(f)[0] for f in fields]
    q0 = float(fields[0].speed().max())
    n0 = q0  # Q doubles at t=0.1 (still allowed), exceeds 2 N0 at t=0.2
    rep = check_short_time_bound(times, qs, n0=n0, h0=0.15)
    assert rep["pass"]
    assert rep["empirical_h0"] == pytest.approx(0.2)
    rep2 = check_short_time_bound(times, qs, n0=n0, h0=0.25)
    assert not rep2["pass"]


def test_short_time_bound_never_violated_reports_last_time(grid16):
    q = max_speed(_swirl(grid16, 1.0))[0]
    rep = check_short_time_bound([0.0, 0.7], [q, q], n0=1.0, h0=0.5)
    assert rep["pass"]
    assert rep["empirical_h0"] == pytest.approx(0.7)


def test_energy_nonincreasing_passes(grid16):
    fields = [_swirl(grid16, a) for a in (1.0, 0.9, 0.9)]
    e = [kinetic_energy(f) for f in fields]
    rep = check_energy(e)
    assert rep["pass"]
    assert np.all(np.diff(e) <= 0.0)


def test_energy_growth_fails(grid16):
    fields = [_swirl(grid16, a) for a in (0.9, 1.0)]
    e = [kinetic_energy(f) for f in fields]
    rep = check_energy(e)
    assert not rep["pass"]
    # worst relative increase matches the energy gap directly
    assert rep["measured"] == pytest.approx((e[1] - e[0]) / e[1])


def test_divergence_zero_field_passes(grid16):
    rep = check_divergence([_sup_divergence(AxisymField.zeros(grid16))], projection_tol=1e-10)
    assert rep["pass"]
    assert rep["measured"] == 0.0


def test_divergence_dirty_field_fails(grid16):
    fld = AxisymField.zeros(grid16)
    fld.vr = grid16.r[:, None] * np.ones(grid16.shape)  # div = 2
    rep = check_divergence([_sup_divergence(fld)], projection_tol=1e-10)
    assert not rep["pass"]
    assert rep["measured"] == pytest.approx(2.0)


def _run_history(initial, cfg, steps=2):
    """The initial state and ``steps`` steps of a solver run at its own dt."""
    solver = AxisymSolver(initial, cfg)
    hist = SnapshotHistory()
    hist.record(solver)
    for _ in range(steps):
        solver.step()
        hist.record(solver)
    return hist


def _ring_history(grid, boundary="dirichlet0"):
    ring = generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), grid)
    return _run_history(ring, SolverConfig(cfl=0.4, boundary=boundary))


# every shipped config in both boundary modes, but for stream_random in hold
# mode: its held far field carries a net flux, so no run exists (PoissonError)
@pytest.mark.parametrize("name, boundary", [
    ("lamb_oseen", "dirichlet0"), ("lamb_oseen", "hold"), ("stream_random", "dirichlet0"),
    ("vortex_ring", "dirichlet0"), ("vortex_ring", "hold"),
])
def test_scaling_covariance_passes_on_the_shipped_configs(name, boundary):
    cfg = parse_config((CONFIGS / f"{name}.yaml").read_text(encoding="utf-8"))
    solver_cfg = dataclasses.replace(cfg.solver, boundary=boundary)
    hist = _run_history(generate(cfg.data, cfg.grid), solver_cfg)
    rep = check_scaling_covariance(hist, solver_cfg)
    assert rep["pass"] and rep["steps"] == 2
    # measured roundoff is at most 5.6e-15
    assert rep["measured"] <= 1e-14


@pytest.mark.parametrize("boundary", ["dirichlet0", "hold"])
def test_scaling_covariance_at_a_zoom_factor_that_is_no_power_of_two(grid32, boundary):
    hist = _ring_history(grid32, boundary)
    rep = check_scaling_covariance(hist, SolverConfig(cfl=0.4, boundary=boundary), lam=1.7)
    assert rep["pass"]


def test_scaling_covariance_fails_when_the_zoomed_viscosity_is_off(grid32, monkeypatch):
    hist = _ring_history(grid32)
    real = AxisymSolver

    def off(initial, cfg):
        return real(initial, dataclasses.replace(cfg, mu=1.01 * cfg.mu))

    monkeypatch.setattr(axiswirl.checks, "AxisymSolver", off)
    rep = check_scaling_covariance(hist, SolverConfig(cfl=0.4))
    assert not rep["pass"]
    assert rep["measured"] > 1e6 * ZOOM_TOL


def test_scaling_covariance_fails_on_a_curvature_term_of_the_wrong_dimension(grid32,
                                                                             monkeypatch):
    # vtheta^2/r^2 in place of vtheta^2/r, in both runs: it scales as lam^4
    # under the zoom where every other term scales as lam^3
    def wrong(state):
        g = state.grid
        rinv = np.zeros(g.nr + 1)
        rinv[1:] = 1.0 / g.r[1:]
        rinv = rinv[:, None]
        return AxisymField(g, np.stack([
            -advect(state, state.vr, parity=-1) + state.vtheta**2 * rinv**2,
            -advect(state, state.vtheta, parity=-1) - state.vr * state.vtheta * rinv,
            -advect(state, state.vz, parity=1),
        ]))

    monkeypatch.setattr(axiswirl.solver, "momentum_rhs", wrong)
    hist = _ring_history(grid32)
    rep = check_scaling_covariance(hist, SolverConfig(cfl=0.4))
    assert not rep["pass"]
    assert rep["measured"] > 1e3 * ZOOM_TOL


def test_run_invariant_suite_names_and_gating(grid16):
    solver = AxisymSolver(generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), grid16),
                          SolverConfig(cfl=0.4))
    rows, hist = [solver.record_diagnostics()], SnapshotHistory()
    hist.record(solver)
    for _ in range(2):
        solver.step()
        rows.append(solver.record_diagnostics())
        hist.record(solver)
    one = SnapshotHistory()
    one.push(hist.snapshots[0].t, hist.snapshots[0].field)
    names = [r["name"] for r in run_invariant_suite(rows[:1], one, 10.0, InvariantConfig(),
                                                    SolverConfig(cfl=0.4))]
    # a single state has no step to zoom: the covariance check is skipped
    assert names == ["max_principle", "short_time_bound", "energy", "divergence"]
    reports = run_invariant_suite(rows, hist, 10.0, InvariantConfig(), SolverConfig(cfl=0.4))
    assert [r["name"] for r in reports] == names + ["scaling_covariance"]
    assert all(r["pass"] for r in reports)


def test_every_report_has_one_shape_and_a_pass_never_has_a_negative_margin(grid16):
    # sup r|vtheta| above N0 but within the per-step slack passes, and its
    # margin is taken against the slackened bound, so it reads >= 0
    reports = [
        check_max_principle([1.0 + 5e-7], n0=1.0),
        check_max_principle([1.0, 1.1], n0=10.0),
        check_short_time_bound([0.0, 0.1], [2.0, 2.0], n0=1.0, h0=0.1),
        check_energy([1.0, 1.0]),
        check_divergence([2e-9], projection_tol=1e-10),
    ]
    for rep in reports:
        assert list(rep)[:5] == ["name", "pass", "measured", "bound", "margin"]
        assert rep["margin"] == rep["bound"] - rep["measured"]
        assert rep["margin"] >= 0 or not rep["pass"], rep
    assert [rep["pass"] for rep in reports] == [True, False, True, True, False]


@pytest.mark.parametrize("ratio, ok", [(4.0, True), (3.0, True), (5.0, True), (2.0, False),
                                       (5.5, False)])
def test_lamb_oseen_convergence_passes_only_within_one_of_four(monkeypatch, ratio, ok):
    errors = {32: ratio * 1e-5, 64: 1e-5}
    monkeypatch.setattr(axiswirl.checks, "lamb_oseen_run",
                        lambda nr, nz, t_end: (None, errors[nr]))
    rep = lamb_oseen_convergence(32, t_end=0.1)
    assert rep["pass"] is ok
    assert rep["ratio"] == pytest.approx(ratio)
    assert rep["errors"] == [errors[32], errors[64]]
    assert rep["measured"] == pytest.approx(abs(ratio - 4.0)) and rep["bound"] == 1.0
