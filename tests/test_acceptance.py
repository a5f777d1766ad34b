"""End-to-end acceptance runs at production resolutions.

Each test prints one PASS/FAIL line summarizing the measured numbers; run
with ``pytest -s tests/test_acceptance.py`` to see them as they complete.
The heavy simulations are shared module-scoped fixtures, so the whole file
runs each configuration once.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from axiswirl.checks import (
    check_divergence,
    check_energy,
    check_max_principle,
    check_scaling_covariance,
    check_short_time_bound,
    lamb_oseen_run,
)
from axiswirl.cli import main
from axiswirl.config import parse_config
from axiswirl.fields import SnapshotHistory, AxisymField, Grid
from axiswirl.initial import DataSpec, generate
from axiswirl.microscope import (
    MicroscopeConfig,
    ZoomParameters,
    constant_closeness,
    microscope_report,
    rescale_history,
)
from axiswirl.solver import AxisymSolver, SolverConfig

from conftest import lamb_oseen_peak, run_outputs

pytestmark = pytest.mark.acceptance

REPO_ROOT = Path(__file__).resolve().parents[1]
PROJECTION_TOL = 1e-10
RING_CFG = SolverConfig(cfl=0.4, t_end=1.0, snapshot_every=1, projection_tol=PROJECTION_TOL)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'}: {detail}")


# ------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def lamb_oseen_runs():
    """128^2 and 256^2 diffusing-vortex runs to t=0.5 with wall-clock times."""
    out = {}
    for n in (128, 256):
        start = time.perf_counter()
        hist = SnapshotHistory()
        _, err = lamb_oseen_run(
            n, n, 0.5, snapshot_every=4, projection_tol=PROJECTION_TOL, history=hist
        )
        out[n] = {"history": hist, "err": err, "seconds": time.perf_counter() - start}
    return out


@pytest.fixture(scope="module")
def ring_run():
    """Swirling vortex ring with N0=1 at 128^2 run to t=1: the diagnostics of
    every step and the first three states."""
    grid = Grid(128, 128, 4.0, -4.0, 4.0)
    initial = generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), grid)
    solver = AxisymSolver(initial, RING_CFG)
    rows, first = [solver.record_diagnostics()], SnapshotHistory()
    first.record(solver)

    def keep_first(s):
        if len(first) < 3:
            first.record(s)

    solver.run(1.0, on_snapshot=keep_first, on_diagnostics=rows.append)
    return rows, first


@pytest.fixture(scope="module")
def trend_runs():
    """Vortex-ring family with growing meridional intensity, fully microscoped.

    The swirl amplitude shrinks as the stream amplitude grows, so larger
    members reach larger zoom factors alpha with proportionally smaller swirl.
    """
    cfg_m = MicroscopeConfig(sigma0=8.0)
    runs = []
    for s in (2.5, 6.25, 15.625):
        grid = Grid(64, 64, 4.0, -4.0, 4.0)
        spec = DataSpec(
            kind="vortex_ring_swirl",
            n0=8.0 * s,
            ring_r=2.0,
            core_radius=0.6,
            swirl_amplitude=0.3 / s,
        )
        hist = SnapshotHistory()
        solver = AxisymSolver(
            generate(spec, grid),
            SolverConfig(cfl=0.4, t_end=0.15, snapshot_every=2,
                         projection_tol=PROJECTION_TOL),
        )
        hist.record(solver)
        solver.run(0.15, on_snapshot=hist.record)
        runs.append(microscope_report(hist, cfg_m))
    return runs


# ------------------------------------------------------------- criteria


def test_convergence_against_analytic_vortex(lamb_oseen_runs):
    err_lo = lamb_oseen_runs[128]["err"]
    err_hi = lamb_oseen_runs[256]["err"]
    factor = err_lo / err_hi
    # absolute tolerance scaled by the analytic swirl peak at the final time
    peak, _ = lamb_oseen_peak(1.0, 1.0)
    tol = 1e-3 * peak
    secs = [lamb_oseen_runs[n]["seconds"] for n in (128, 256)]
    ok = 3.5 <= factor <= 4.5 and err_hi <= tol and max(secs) <= 300.0
    _report(
        "convergence",
        ok,
        f"factor={factor:.3f} err256={err_hi:.3e} tol={tol:.3e} "
        f"seconds={secs[0]:.0f}/{secs[1]:.0f}",
    )
    assert 3.5 <= factor <= 4.5
    assert err_hi <= tol
    assert max(secs) <= 300.0


def test_swirl_max_principle_on_ring(ring_run):
    rows, _ = ring_run
    rep = check_max_principle([r.max_rvtheta for r in rows], n0=1.0)
    _report(
        "max_principle",
        rep["pass"],
        f"max r|vtheta|={rep['measured']:.6f} bound=1 "
        f"worst_step_increase={rep['worst_step_increase']:.2e}",
    )
    assert rep["pass"]


def test_divergence_and_energy_on_ring(ring_run):
    rows, _ = ring_run
    rep_div = check_divergence([r.max_divergence for r in rows], PROJECTION_TOL)
    rep_en = check_energy([r.energy for r in rows])
    ok = rep_div["pass"] and rep_en["pass"]
    _report(
        "divergence_energy",
        ok,
        f"max_div={rep_div['measured']:.2e} bound={rep_div['bound']:.1e} "
        f"worst_energy_increase={rep_en['measured']:.2e}",
    )
    assert rep_div["pass"]
    assert rep_en["pass"]


def test_zoom_covariance_of_residuals(ring_run):
    # the ring's first two steps, run again on the grid zoomed by 2 from twice
    # its initial state, reproduce twice the recorded states
    _, first = ring_run
    assert len(first) >= 3
    rep = check_scaling_covariance(first, RING_CFG)
    _report(
        "zoom_covariance",
        rep["pass"],
        f"max|2u - u_zoom|/(2 sup|u|)={rep['measured']:.2e} bound={rep['bound']:.0e} "
        f"steps={rep['steps']}",
    )
    assert rep["pass"]
    assert rep["steps"] == 2


def test_cube_centers_normalized(trend_runs):
    rows = [row for rows in trend_runs for row in rows]
    centers = np.array([np.linalg.norm(s.center_value) for _, s, _ in rows])
    in_band = (centers >= 0.9999) & (centers <= 1.0001)

    # a constant velocity field zooms to an exactly constant cube
    grid = Grid(32, 32, 4.0, -4.0, 4.0)
    fld = AxisymField.zeros(grid)
    fld.vz = 0.7 * np.ones(grid.shape)
    hist = SnapshotHistory()
    for t in (0.0, 0.3, 0.6):
        hist.push(t, fld.copy())
    cfg = MicroscopeConfig(sigma0=8.0)
    zoom = ZoomParameters(mode="A", t0=0.6, r0=2.0, z0=0.0, q=0.7, ratio=1.0)
    const_total = constant_closeness(rescale_history(hist, zoom, cfg), cfg).total

    ok = len(rows) >= 100 and bool(in_band.all()) and const_total == 0.0
    _report(
        "cube_centers",
        ok,
        f"rows={len(rows)} center_range=[{centers.min():.7f},{centers.max():.7f}] "
        f"constant_total={const_total!r}",
    )
    assert len(rows) >= 100
    assert in_band.all()
    assert const_total == 0.0


def test_closeness_decreases_with_zoom_factor(trend_runs):
    picks = []
    for rows in trend_runs:
        brows = [r for r in rows if r[0].mode == "B" and not r[1].capped]
        assert brows
        picks.append(max(brows, key=lambda r: (r[0].ratio, r[0].t0)))
    picks.sort(key=lambda r: r[0].alpha)
    alphas = [p[0].alpha for p in picks]
    totals = [p[2].total for p in picks]
    swirls = [p[2].swirl_ratio for p in picks]
    span = alphas[-1] / alphas[0]
    monotone = all(a < b for a, b in zip(totals[1:], totals[:-1])) and all(
        a < b for a, b in zip(swirls[1:], swirls[:-1])
    )
    ok = span >= 4.0 and monotone
    _report(
        "closeness_trend",
        ok,
        f"alpha={['%.2f' % a for a in alphas]} span={span:.1f}x "
        f"total={['%.4f' % t for t in totals]} "
        f"swirl={['%.5f' % s for s in swirls]}",
    )
    assert span >= 4.0
    assert monotone


def test_short_time_bound_on_shipped_configs():
    paths = sorted((REPO_ROOT / "configs").glob("*.yaml"))
    assert paths
    lines = []
    ok = True
    for path in paths:
        cfg = parse_config(path.read_text(encoding="utf-8"))
        solver = AxisymSolver(generate(cfg.data, cfg.grid), cfg.solver)
        rows = [solver.record_diagnostics()]
        solver.run(cfg.solver.t_end, on_diagnostics=rows.append)
        rep = check_short_time_bound([r.t for r in rows], [r.q for r in rows],
                                     cfg.data.n0, cfg.invariants.h0)
        good = rep["pass"] and rep["empirical_h0"] > 0
        ok = ok and good
        lines.append(f"{path.stem}: h0={rep['empirical_h0']:.3g} "
                     f"supQ={rep['measured']:.3g}<=2N0={rep['bound']:.3g}")
    _report("short_time_bound", ok, "; ".join(lines))
    assert ok


def test_pipeline_determinism(tmp_path):
    config_text = (
        "grid:\n  nr: 32\n  nz: 32\n  r_max: 4.0\n  z_min: -4.0\n  z_max: 4.0\n"
        # a pinned step keeps 21 snapshots, so the microscope has rows to compare
        "solver:\n  dt: 5e-3\n  t_end: 0.1\n  snapshot_every: 1\n"
        "data:\n  kind: vortex_ring_swirl\n  n0: 1.0\n"
        "microscope:\n  sigma0: 100.0\n"
    )
    blobs = []
    rows = 0
    for tag in ("first", "second"):
        out = tmp_path / tag
        cfg_path = tmp_path / f"{tag}.yaml"
        cfg_path.write_text(config_text + f"output:\n  directory: {out}\n",
                            encoding="utf-8")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert main(["microscope", "--config", str(cfg_path),
                     "--snapshots", str(out)]) == 0
        micro = (out / "microscope.csv").read_bytes()
        rows = len(micro.splitlines()) - 1
        blobs.append((run_outputs(out), micro))
    ok = blobs[0] == blobs[1] and rows > 0
    _report("determinism", ok,
            f"identical CSVs and snapshots across two runs, {rows} microscope rows")
    assert blobs[0] == blobs[1]
    assert rows > 0
