"""The benchmark's spans wrap the program from outside (perfbench/spans.py).

A refactor that calls around a wrapped name would make the benchmark's
per-layer counts silently wrong; this test sees that in the fast suite.
"""
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

from axiswirl import microscope  # noqa: E402
from axiswirl.cli import main  # noqa: E402
from axiswirl.fields import SnapshotHistory, read_snapshot  # noqa: E402


def test_spans_see_every_step_diagnostics_row_and_snapshot_of_a_simulate(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "grid:\n  nr: 16\n  nz: 16\n"
        "solver:\n  dt: 1e-3\n  t_end: 6e-3\n  snapshot_every: 2\n"
        f"output:\n  directory: {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    timer = spans.SetupTimer("solver")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["simulate", "--config", str(cfg)]) == 0
    finally:
        tracer.uninstall()
        timer.close()
    calls = Counter(name for name, _t0, _t1, _parent in tracer.spans)
    assert calls["solver.step"] == 6
    # the explicit part is evaluated at both stages of every step
    assert calls["solver.momentum_rhs"] == 12
    # one divergence matrix per solver: the projection, the diagnostics and
    # the viscous solves build no other
    assert calls["solver.divergence_matrix"] == 1
    # the starting state and every step
    assert calls["solver.record_diagnostics"] == 7
    # steps 0, 2, 4 and 6
    assert calls["fields.write_snapshot"] == 4
    assert calls["initial.generate"] == 1
    assert timer.total > 0


def test_spans_see_the_suite_the_zoom_check_and_its_two_steps_in_a_validate(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "grid:\n  nr: 16\n  nz: 16\n  r_max: 4.0\n  z_min: -2.0\n  z_max: 2.0\n"
        "solver:\n  dt: 5e-3\n  t_end: 0.02\n"
        "data:\n  kind: vortex_ring_swirl\n  n0: 1.0\n"
        "invariants:\n  h0: 0.01\n"
        f"output:\n  directory: {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["validate", "--config", str(cfg)]) == 0
    finally:
        tracer.uninstall()
    calls = Counter(name for name, _t0, _t1, _parent in tracer.spans)
    for name in ("checks.run_invariant_suite", "checks.check_scaling_covariance",
                 "validation.lamb_oseen_convergence"):
        assert calls[name] == 1, name
    (zoom,) = [k for k, s in enumerate(tracer.spans) if s[0] == "checks.check_scaling_covariance"]
    assert tracer.spans[zoom][3] == next(
        k for k, s in enumerate(tracer.spans) if s[0] == "checks.run_invariant_suite")
    # the zoomed solver retakes the run's first two steps
    assert [s[0] for s in tracer.spans if s[3] == zoom].count("solver.step") == 2


def test_spans_see_every_candidate_cube_and_row_of_a_microscope(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "grid:\n  nr: 16\n  nz: 16\n  r_max: 4.0\n  z_min: -2.0\n  z_max: 2.0\n"
        "solver:\n  dt: 5e-3\n  t_end: 0.02\n  snapshot_every: 2\n"
        "data:\n  kind: vortex_ring_swirl\n  n0: 1.0\n"
        "microscope:\n  sigma0: 80.0\n"
        f"output:\n  directory: {out}\n",
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    timer = spans.SetupTimer("snapshots")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["microscope", "--config", str(cfg), "--snapshots", str(out),
                     "--dump-cubes"]) == 0
    finally:
        tracer.uninstall()
        timer.close()
    # the candidates and the cubes that are not fully masked, found apart from the run
    history = SnapshotHistory()
    for path in sorted(out.glob("snap_*.bin")):
        history.push(*read_snapshot(path)[:2])
    config = microscope.MicroscopeConfig(sigma0=80.0)
    candidates = [z for mode in ("A", "B")
                  for z in microscope.find_almost_maximal(history, mode, config.ratio_threshold)]
    cubes = 0
    for zoom in candidates:
        try:
            microscope.rescale_history(history, zoom, config)
        except microscope.InsufficientSamplesError:
            continue
        cubes += 1
    calls = Counter(name for name, _t0, _t1, _parent in tracer.spans)
    assert calls["microscope.find_almost_maximal"] == 2
    assert calls["microscope.rescale_history"] == len(candidates) == \
        tracer.counters["microscope.candidates"]
    assert calls["microscope.constant_closeness"] == cubes > 0
    rows = len((out / "microscope.csv").read_text(encoding="utf-8").splitlines()) - 1
    assert tracer.counters["microscope.rows"] == rows > 0
    assert len(list(out.glob("cube_*.bin"))) == rows
    assert timer.total > 0
