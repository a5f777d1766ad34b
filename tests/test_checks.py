"""Tests for the invariant/property suite and the zoom-covariance check."""
import numpy as np
import pytest

from axiswirl.checks import (
    InvariantConfig,
    check_divergence,
    check_energy,
    check_max_principle,
    check_scaling_covariance,
    check_short_time_bound,
    max_rvtheta,
    rescale_snapshot_sequence,
    run_invariant_suite,
)
from axiswirl.fields import AxisymField, ScalarField, SnapshotHistory, make_grid
from axiswirl.initial import DataSpec, generate, lamb_oseen_field
from axiswirl.solver import kinetic_energy


def _hist(grid, fields, times, pressures=None):
    hist = SnapshotHistory()
    for k, (t, fld) in enumerate(zip(times, fields)):
        p = pressures[k] if pressures else ScalarField(grid, np.zeros(grid.shape))
        hist.push(t, fld, p)
    return hist


def _swirl(grid, amp):
    fld = AxisymField.zeros(grid)
    fld.vtheta = amp * grid.r[:, None] * np.exp(-grid.r[:, None] ** 2) * np.ones(grid.shape)
    return fld


def _lamb_oseen_hist(grid, times, gamma=1.0, nu=1.0):
    return _hist(grid, [lamb_oseen_field(gamma, nu, t, grid) for t in times], times)


def test_invariant_config_validation():
    with pytest.raises(ValueError, match="h0"):
        InvariantConfig(h0=0.0)
    with pytest.raises(ValueError, match="energy_tol"):
        InvariantConfig(energy_tol=-1.0)


def test_max_rvtheta_rigid_rotation(grid16):
    from conftest import rigid_rotation

    fld = rigid_rotation(grid16, omega=0.5)
    # r * |omega r| peaks at the rim: omega * r_max^2
    assert max_rvtheta(fld) == pytest.approx(0.5 * grid16.r_max**2)


def test_max_principle_decaying_series_passes(grid16):
    fields = [_swirl(grid16, a) for a in (1.0, 0.8, 0.5)]
    hist = _hist(grid16, fields, [0.0, 0.1, 0.2])
    rep = check_max_principle(hist, n0=max_rvtheta(fields[0]) * 1.01)
    assert rep["pass"]
    assert rep["worst_step_increase"] <= 0.0


def test_max_principle_growth_fails(grid16):
    fields = [_swirl(grid16, a) for a in (0.5, 1.0)]
    hist = _hist(grid16, fields, [0.0, 0.1])
    rep = check_max_principle(hist, n0=10.0)
    assert not rep["pass"]
    assert rep["worst_step_increase"] > 0.0


def test_max_principle_bound_violation_fails(grid16):
    fields = [_swirl(grid16, 1.0)]
    hist = _hist(grid16, fields, [0.0])
    rep = check_max_principle(hist, n0=0.5 * max_rvtheta(fields[0]))
    assert not rep["pass"]


def test_max_principle_lamb_oseen_closed_form():
    # r vtheta = (Gamma / 2 pi)(1 - exp(-r^2 / 4 nu t)) is increasing in r and
    # decreasing in t, with sup over the disk (Gamma/2 pi)(1 - exp(-R^2/4 nu t))
    g = make_grid(128, 8, 6.0, -0.5, 0.5)
    times = [0.5, 0.75, 1.0]
    hist = _lamb_oseen_hist(g, times)
    rep = check_max_principle(hist, n0=1.0 / (2 * np.pi))
    assert rep["pass"]
    expect = 1.0 / (2 * np.pi) * (1 - np.exp(-(6.0**2) / (4 * 0.5)))
    assert rep["measured"] == pytest.approx(expect, rel=1e-10)


def test_short_time_bound_pass_and_empirical_h0(grid16):
    fields = [_swirl(grid16, a) for a in (1.0, 1.5, 3.0)]
    hist = _hist(grid16, fields, [0.0, 0.1, 0.2])
    q0 = float(fields[0].speed().max())
    n0 = q0  # Q doubles at t=0.1 (still allowed), exceeds 2 N0 at t=0.2
    rep = check_short_time_bound(hist, n0=n0, h0=0.15)
    assert rep["pass"]
    assert rep["empirical_h0"] == pytest.approx(0.2)
    rep2 = check_short_time_bound(hist, n0=n0, h0=0.25)
    assert not rep2["pass"]


def test_short_time_bound_never_violated_reports_last_time(grid16):
    hist = _hist(grid16, [_swirl(grid16, 1.0)] * 2, [0.0, 0.7])
    rep = check_short_time_bound(hist, n0=1.0, h0=0.5)
    assert rep["pass"]
    assert rep["empirical_h0"] == pytest.approx(0.7)


def test_energy_nonincreasing_passes(grid16):
    fields = [_swirl(grid16, a) for a in (1.0, 0.9, 0.9)]
    hist = _hist(grid16, fields, [0.0, 0.1, 0.2])
    rep = check_energy(hist)
    assert rep["pass"]
    assert np.all(np.diff(rep["series"]) <= 0.0)


def test_energy_growth_fails(grid16):
    fields = [_swirl(grid16, a) for a in (0.9, 1.0)]
    hist = _hist(grid16, fields, [0.0, 0.1])
    rep = check_energy(hist, rel_tol=1e-8)
    assert not rep["pass"]
    # worst relative increase matches the energy gap directly
    e = [kinetic_energy(f) for f in fields]
    assert rep["measured"] == pytest.approx((e[1] - e[0]) / e[1])


def test_divergence_zero_field_passes(grid16):
    hist = _hist(grid16, [AxisymField.zeros(grid16)], [0.0])
    rep = check_divergence(hist)
    assert rep["pass"]
    assert rep["measured"] == 0.0


def test_divergence_dirty_field_fails(grid16):
    fld = AxisymField.zeros(grid16)
    fld.vr = grid16.r[:, None] * np.ones(grid16.shape)  # div = 2
    hist = _hist(grid16, [fld], [0.0])
    rep = check_divergence(hist, projection_tol=1e-10)
    assert not rep["pass"]
    assert rep["measured"] == pytest.approx(2.0)


def test_rescale_sequence_rejects_bad_lambda(grid16):
    hist = _hist(grid16, [AxisymField.zeros(grid16)], [0.0])
    with pytest.raises(ValueError, match="lambda"):
        rescale_snapshot_sequence(hist, 0.0)


def test_rescale_sequence_lambda_one_is_identity(grid16):
    fld = _swirl(grid16, 1.0)
    hist = _hist(grid16, [fld], [0.3])
    out = rescale_snapshot_sequence(hist, 1.0)
    assert np.allclose(out.snapshots[0].field.vtheta, fld.vtheta, atol=1e-14)
    assert out.times[0] == pytest.approx(0.3)


@pytest.mark.parametrize("lam", [2.0, 1.7, 3.3])
def test_rescale_sequence_exact_on_nodes(grid16, lam):
    # the zoomed grid keeps the node counts with extents divided by lam, so lam
    # times its node (i, j) is the original node (i, j) for any lam: the zoomed
    # sequence is lam*v, lam^2*p at time t/lam^2, exactly
    fld = generate(DataSpec(kind="vortex_ring_swirl", n0=1.0, ring_r=1.0, core_radius=0.3),
                   grid16)
    p = np.sin(grid16.r)[:, None] * np.cos(grid16.z)[None, :]
    hist = _hist(grid16, [fld], [0.4], [ScalarField(grid16, p)])
    (snap,) = rescale_snapshot_sequence(hist, lam)
    g = grid16
    assert snap.field.grid == make_grid(g.nr, g.nz, g.r_max / lam, g.z_min / lam, g.z_max / lam)
    for name in ("vr", "vtheta", "vz"):
        assert np.all(getattr(snap.field, name) == lam * getattr(fld, name))
    assert np.all(snap.pressure.values == lam**2 * p)
    assert snap.t == 0.4 / lam**2


def test_scaling_covariance_constant_axial_flow(grid32):
    # steady uniform axial flow solves the equations at any zoom level: the
    # residual is zero before and after, so only r|v| invariance is exercised
    fld = AxisymField.zeros(grid32)
    fld.vz = 0.5 * np.ones(grid32.shape)
    hist = _hist(grid32, [fld.copy() for _ in range(3)], [0.1, 0.2, 0.3])
    rep = check_scaling_covariance(hist, lam=1.0)
    assert rep["measured"] == 1.0 or np.isnan(rep["measured"])
    assert rep["rspeed_invariance_error"] <= 1e-12


def test_scaling_covariance_lamb_oseen_ratio():
    g = make_grid(96, 96, 6.0, -3.0, 3.0)
    dt = 2e-3
    hist = _lamb_oseen_hist(g, [0.5 - dt, 0.5, 0.5 + dt])
    rep = check_scaling_covariance(hist, lam=2.0, mu=1.0)
    assert rep["pass"]
    assert 6.8 <= rep["measured"] <= 9.2
    assert rep["rspeed_invariance_error"] <= 0.01


def test_run_invariant_suite_names_and_gating(grid16):
    fields = [_swirl(grid16, a) for a in (1.0, 0.9)]
    hist = _hist(grid16, fields, [0.0, 0.1])
    reports = run_invariant_suite(hist, n0=10.0, config=InvariantConfig())
    names = [r["name"] for r in reports]
    # fewer than three snapshots: the covariance check is skipped
    assert names == ["max_principle", "short_time_bound", "energy", "divergence"]
    hist3 = _hist(grid16, fields + [_swirl(grid16, 0.8)], [0.0, 0.1, 0.2])
    names3 = [r["name"] for r in run_invariant_suite(hist3, 10.0, InvariantConfig())]
    assert names3[-1] == "scaling_covariance"
