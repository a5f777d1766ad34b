"""End-to-end tests of the command-line driver."""
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import axiswirl.cli
import axiswirl.microscope
from axiswirl.cli import DIAG_COLUMNS, MICRO_COLUMNS, main
from axiswirl.config import parse_config
from axiswirl.fields import AxisymField, Grid, SnapshotHistory, read_snapshot, write_snapshot
from axiswirl.initial import generate
from axiswirl.solver import AxisymSolver

from conftest import run_outputs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
sys.path.insert(0, str(CONFIGS.parent / "perfbench"))

import verify  # noqa: E402


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _small_ring_config(tmp_path, outdir, extra=""):
    return _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n  r_max: 4.0\n  z_min: -2.0\n  z_max: 2.0\n"
        # dt pinned at the step the explicit scheme took, so the run keeps
        # its 4 steps and 3 snapshot times
        "solver:\n  dt: 5e-3\n  t_end: 0.02\n  snapshot_every: 2\n"
        "data:\n  kind: vortex_ring_swirl\n  n0: 1.0\n"
        f"output:\n  directory: {outdir}\n" + extra,
    )


def test_simulate_writes_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = _small_ring_config(tmp_path, out)
    assert main(["simulate", "--config", cfg]) == 0
    diag = (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
    assert diag[0] == ",".join(DIAG_COLUMNS)
    # the header is derived from DiagnosticsRecord; its bytes are part of the format
    assert diag[0] == "step,t,Q,argmax_r,argmax_z,R,max_rvtheta,energy,max_divergence,boundary_max"
    assert len(diag) > 2
    snaps = sorted(out.glob("snap_*.bin"))
    assert snaps
    t0, fld, _ = read_snapshot(snaps[0])
    assert t0 == 0.0
    assert fld.grid.nr == 16
    # the config echo is parseable and reflects the run
    assert "directory:" in (out / "config.yaml").read_text(encoding="utf-8")


def test_simulate_zero_data_stays_zero(tmp_path):
    # no data kind generates the zero flow, so the run resumes from a zero snapshot
    out = tmp_path / "out"
    out.mkdir()
    write_snapshot(out / "snap_00000000.bin", 0.0, AxisymField.zeros(Grid(16, 16)),
                   np.zeros((17, 17)))
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n"
        "solver:\n  dt: 1e-4\n  t_end: 5e-4\n"
        f"output:\n  directory: {out}\n",
    )
    # the run directory holds the config that --resume continues
    _write(out / "config.yaml", Path(cfg).read_text(encoding="utf-8"))
    assert main(["simulate", "--config", cfg, "--resume"]) == 0
    rows = (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()[1:]
    q_col = DIAG_COLUMNS.index("Q")
    assert all(float(r.split(",")[q_col]) == 0.0 for r in rows)


def test_simulate_keeps_at_most_one_snapshot_in_memory(tmp_path, monkeypatch):
    # every snapshot goes straight to disk: none is kept in memory at all
    most = []
    push = SnapshotHistory.push

    def counting_push(self, t, fld):
        push(self, t, fld)
        most.append(len(self))

    monkeypatch.setattr(SnapshotHistory, "push", counting_push)
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n"
        "solver:\n  dt: 1e-3\n  t_end: 0.03\n  snapshot_every: 1\n"
        f"output:\n  directory: {out}\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    assert len(list(out.glob("snap_*.bin"))) == 31
    assert most == []


def test_hold_boundary_with_outward_flux_fails_fast(tmp_path):
    # held boundary values that carry flux out of the domain cannot be made
    # divergence free; the divergence left after the projection's one solve
    # exceeds projection_tol, and it raises PoissonError (exit 2)
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 24\n  nz: 40\n  r_max: 1.5\n  z_min: -2.0\n  z_max: 5.0\n"
        "solver:\n  t_end: 0.01\n  boundary: hold\n"
        "data:\n  kind: vortex_ring_swirl\n  n0: 1.0\n"
        f"output:\n  directory: {tmp_path / 'out'}\n",
    )
    assert main(["simulate", "--config", cfg]) == 2


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 1


def test_unreadable_config_is_usage_error_that_names_it(tmp_path, capsys):
    # a directory passed as the config cannot be read: exit 1, not a traceback
    assert main(["simulate", "--config", str(tmp_path)]) == 1
    assert str(tmp_path) in capsys.readouterr().err


def test_bad_config_is_usage_error(tmp_path):
    cfg = _write(tmp_path / "bad.yaml", "grid:\n  nx: 3\n")
    assert main(["simulate", "--config", cfg]) == 1


def test_microscope_requires_snapshots(tmp_path):
    cfg = _write(tmp_path / "run.yaml", "")
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["microscope", "--config", cfg, "--snapshots", str(empty)]) == 1


def test_microscope_single_snapshot_is_error(tmp_path):
    # a run that takes no step leaves only its starting snapshot
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n"
        "solver:\n  dt: 1e-4\n  t_end: 0.0\n  snapshot_every: 1000\n"
        f"output:\n  directory: {out}\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    assert len(list(out.glob("snap_*.bin"))) == 1
    assert main(["microscope", "--config", cfg, "--snapshots", str(out)]) == 1


def test_microscope_writes_report(tmp_path):
    out = tmp_path / "out"
    cfg = _small_ring_config(
        tmp_path, out, "microscope:\n  sigma0: 80.0\n"
    )
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["microscope", "--config", cfg, "--snapshots", str(out)]) == 0
    lines = (out / "microscope.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(MICRO_COLUMNS)
    assert len(lines) > 1
    alpha_col = MICRO_COLUMNS.index("alpha")
    alphas = [float(r.split(",")[alpha_col]) for r in lines[1:]]
    assert alphas == sorted(alphas, reverse=True)
    # every column but the mode is a plain number
    for row in lines[1:]:
        mode, *numbers = row.split(",")
        assert mode in ("A", "B")
        assert all(np.isfinite(float(x)) for x in numbers)


# the 64^2 member s = 2.5 of the acceptance suite's trend family, with dt pinned:
# the CFL rule's floor max(1, q) is not covariant under the scaling
ZOOM_RUN = (
    "grid:\n  nr: 64\n  nz: 64\n  r_max: {r}\n  z_min: {z_min}\n  z_max: {r}\n"
    "solver:\n  dt: {dt}\n  t_end: {t_end}\n  snapshot_every: 2\n"
    "data:\n  kind: vortex_ring_swirl\n  n0: 20.0\n  ring_r: 2.0\n  core_radius: 0.6\n"
    f"  swirl_amplitude: {0.3 / 2.5!r}\n"
    "microscope:\n  sigma0: 8.0\n"
    "output:\n  directory: {out}\n"
)


def _microscope_table(path):
    """(modes, numeric columns as a 2D array, their names) of a microscope.csv."""
    head, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = [row.split(",") for row in rows]
    return ([c[0] for c in cells], np.array([[float(x) for x in c[1:]] for c in cells]),
            head.split(",")[1:])


def test_simulate_and_microscope_commute_with_the_scaling(tmp_path):
    # with unit viscosity v_lam(x, t) = lam v(lam x, lam^2 t) is a solution
    # whenever v is: the image run, lam times the run's initial state on the
    # grid scaled by 1/lam, with dt and t_end scaled by 1/lam^2, zooms to the
    # same rescaled cubes, so every row of its microscope.csv is the run's row
    # with t0 scaled by 1/lam^2, the position and beta = r0/sqrt(alpha) by
    # 1/lam and Q by lam; every measure on the cube is invariant
    lam, run, image = 2.0, tmp_path / "run", tmp_path / "image"
    cfg_run = _write(tmp_path / "run.yaml",
                     ZOOM_RUN.format(r=4.0, z_min=-4.0, dt=0.005, t_end=0.15, out=run))
    cfg_image = _write(tmp_path / "image.yaml", ZOOM_RUN.format(
        r=4.0 / lam, z_min=-4.0 / lam, dt=0.005 / lam**2, t_end=0.15 / lam**2, out=image))
    assert main(["simulate", "--config", cfg_run]) == 0
    t0, fld, p = read_snapshot(run / "snap_00000000.bin")
    g = fld.grid
    small = Grid(g.nr, g.nz, g.r_max / lam, g.z_min / lam, g.z_max / lam)
    image.mkdir()
    write_snapshot(image / "snap_00000000.bin", t0, AxisymField(small, lam * fld.v), lam**2 * p)
    _write(image / "config.yaml", Path(cfg_image).read_text(encoding="utf-8"))
    assert main(["simulate", "--config", cfg_image, "--resume"]) == 0
    for out, cfg in ((run, cfg_run), (image, cfg_image)):
        assert main(["microscope", "--config", cfg, "--snapshots", str(out)]) == 0

    modes, got, names = _microscope_table(image / "microscope.csv")
    want_modes, want, _ = _microscope_table(run / "microscope.csv")
    assert modes == want_modes and set(modes) == {"A", "B"}
    scale = {"t0": lam**-2, "r0": 1 / lam, "z0": 1 / lam, "beta": 1 / lam, "Q": lam}
    want *= [scale.get(name, 1.0) for name in names]
    # each column within 1e-10 of its largest value
    bad = [name for name, a, b in zip(names, got.T, want.T)
           if np.max(np.abs(a - b)) > 1e-10 * np.max(np.abs(b))]
    assert not bad, bad


def test_microscope_dump_removes_cubes_of_an_earlier_run(tmp_path):
    out = tmp_path / "out"
    cfg = _small_ring_config(tmp_path, out, "microscope:\n  sigma0: 80.0\n")
    assert main(["simulate", "--config", cfg]) == 0
    # an earlier report with more rows left a cube that matches no row now
    (out / "cube_0099.bin").write_bytes(b"stale")
    assert main(["microscope", "--config", cfg, "--snapshots", str(out), "--dump-cubes"]) == 0
    rows = len((out / "microscope.csv").read_text(encoding="utf-8").splitlines()) - 1
    assert rows > 0
    assert sorted(p.name for p in out.glob("cube_*.bin")) == \
        [f"cube_{k:04d}.bin" for k in range(rows)]


def test_microscope_on_a_corrupted_snapshot_is_an_error(tmp_path, capsys):
    # a header whose node count no file of its size can hold: one error line, no traceback
    out = tmp_path / "out"
    cfg = _small_ring_config(tmp_path, out)
    assert main(["simulate", "--config", cfg]) == 0
    last = sorted(out.glob("snap_*.bin"))[-1]
    data = bytearray(last.read_bytes())
    data[8:16] = np.float64(1e13).tobytes()
    last.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["microscope", "--config", cfg, "--snapshots", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(last) in err[0]


def test_microscope_fault_is_not_swallowed(tmp_path, monkeypatch, capsys):
    # a ValueError out of the closeness measurement is a fault, not a
    # candidate to skip: the command fails instead of writing fewer rows
    out = tmp_path / "out"
    cfg = _small_ring_config(tmp_path, out, "microscope:\n  sigma0: 80.0\n")
    assert main(["simulate", "--config", cfg]) == 0

    def broken(sample, config):
        raise ValueError("broken closeness")

    monkeypatch.setattr(axiswirl.microscope, "constant_closeness", broken)
    assert main(["microscope", "--config", cfg, "--snapshots", str(out)]) == 1
    assert "broken closeness" in capsys.readouterr().err
    assert not (out / "microscope.csv").exists()


def test_repeat_runs_are_byte_identical(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = _small_ring_config(
            tmp_path, out, "microscope:\n  sigma0: 80.0\n"
        )
        assert main(["simulate", "--config", cfg]) == 0
        assert main(["microscope", "--config", cfg, "--snapshots", str(out)]) == 0
        blobs.append(
            (
                (out / "diagnostics.csv").read_bytes(),
                (out / "microscope.csv").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


def test_resume_continues_from_last_snapshot(tmp_path):
    out = tmp_path / "out"
    cfg1 = _write(
        tmp_path / "first.yaml",
        "grid:\n  nr: 16\n  nz: 16\n"
        "solver:\n  dt: 1e-3\n  t_end: 4e-3\n  snapshot_every: 2\n"
        f"output:\n  directory: {out}\n",
    )
    assert main(["simulate", "--config", cfg1]) == 0
    n_before = len(list(out.glob("snap_*.bin")))
    rows_before = len((out / "diagnostics.csv").read_text(encoding="utf-8").splitlines())
    cfg2 = _write(
        tmp_path / "second.yaml",
        "grid:\n  nr: 16\n  nz: 16\n"
        "solver:\n  dt: 1e-3\n  t_end: 8e-3\n  snapshot_every: 2\n"
        f"output:\n  directory: {out}\n",
    )
    assert main(["simulate", "--config", cfg2, "--resume"]) == 0
    assert len(list(out.glob("snap_*.bin"))) > n_before
    rows_after = (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows_after) > rows_before
    # appended rows continue the time axis rather than restarting it
    t_col = DIAG_COLUMNS.index("t")
    times = [float(r.split(",")[t_col]) for r in rows_after[rows_before:]]
    assert min(times) >= 4e-3 - 1e-12


def _resume_config(tmp_path, out, t_end):
    return _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n"
        f"solver:\n  dt: 1e-3\n  t_end: {t_end}\n  snapshot_every: 2\n"
        f"output:\n  directory: {out}\n",
    )


def _steps_and_snapshots(out):
    rows = (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()[1:]
    step_col = DIAG_COLUMNS.index("step")
    return ([int(r.split(",")[step_col]) for r in rows],
            [int(p.stem.split("_")[1]) for p in sorted(out.glob("snap_*.bin"))])


def test_resume_between_snapshots_keeps_each_step_once(tmp_path):
    # a run killed after step 5, before it wrote its end state, has rows up to
    # step 5 and its last snapshot at step 4; the resumed run restarts from
    # step 4, must not repeat step 5 and must not rewrite the snapshot it
    # starts from
    out = tmp_path / "out"
    start = out / "snap_00000004.bin"
    assert main(["simulate", "--config", _resume_config(tmp_path, out, "5e-3")]) == 0
    (out / "snap_00000005.bin").unlink()
    before = (start.stat().st_ino, start.stat().st_mtime_ns, start.read_bytes())
    assert main(["simulate", "--config", _resume_config(tmp_path, out, "9e-3"), "--resume"]) == 0
    assert (start.stat().st_ino, start.stat().st_mtime_ns, start.read_bytes()) == before
    assert _steps_and_snapshots(out) == (list(range(10)), [0, 2, 4, 6, 8, 9])


def test_resume_from_end_snapshot_off_cadence_keeps_each_step_once(tmp_path):
    # the first run ends at step 5, off the cadence, and writes it; the
    # resumed run starts there and ends at step 9, which it writes too
    out = tmp_path / "out"
    start = out / "snap_00000005.bin"
    assert main(["simulate", "--config", _resume_config(tmp_path, out, "5e-3")]) == 0
    assert _steps_and_snapshots(out) == (list(range(6)), [0, 2, 4, 5])
    before = (start.stat().st_ino, start.stat().st_mtime_ns, start.read_bytes())
    assert main(["simulate", "--config", _resume_config(tmp_path, out, "9e-3"), "--resume"]) == 0
    assert (start.stat().st_ino, start.stat().st_mtime_ns, start.read_bytes()) == before
    assert _steps_and_snapshots(out) == (list(range(10)), [0, 2, 4, 5, 6, 8, 9])


def test_last_snapshot_is_the_end_state(tmp_path):
    out = tmp_path / "out"
    cfg = _resume_config(tmp_path, out, "5e-3")
    assert main(["simulate", "--config", cfg]) == 0
    t, fld, p = read_snapshot(sorted(out.glob("snap_*.bin"))[-1])
    run = parse_config(Path(cfg).read_text(encoding="utf-8"))
    solver = AxisymSolver(generate(run.data, run.grid), run.solver)
    solver.run(run.solver.t_end)
    assert solver.step_count == 5 and t == solver.t
    for name in ("vr", "vtheta", "vz"):
        np.testing.assert_array_equal(getattr(fld, name), getattr(solver.state, name))
    np.testing.assert_array_equal(p, solver.pressure)


def test_fresh_run_removes_snapshots_of_an_earlier_run(tmp_path):
    # a short run after a longer one in the same directory: a later --resume
    # or microscope must see only the short run's snapshots
    out = tmp_path / "out"
    assert main(["simulate", "--config", _resume_config(tmp_path, out, "9e-3")]) == 0
    assert main(["simulate", "--config", _resume_config(tmp_path, out, "3e-3")]) == 0
    assert _steps_and_snapshots(out) == ([0, 1, 2, 3], [0, 2, 3])


def _simulate_ring(tmp_path, out, solver, t_end, n0=1.0, resume=False):
    """Run the 16² ring with the ``solver`` keys to ``t_end`` into ``out``;
    its run_outputs."""
    keys = "".join(f"  {k}: {v}\n" for k, v in {**solver, "t_end": t_end}.items())
    cfg = _write(tmp_path / "ring.yaml",
                 "grid:\n  nr: 16\n  nz: 16\n" f"solver:\n{keys}"
                 f"data:\n  kind: vortex_ring_swirl\n  n0: {n0}\n"
                 f"output:\n  directory: {out}\n")
    assert main(["simulate", "--config", cfg] + ["--resume"] * resume) == 0
    return run_outputs(out)


@pytest.mark.parametrize("boundary", ["dirichlet0", "hold"])
def test_resumed_run_writes_the_uninterrupted_runs_bytes(tmp_path, boundary):
    # stopped at step 30, on the snapshot cadence, and resumed to step 60
    solver = {"dt": "5e-3", "snapshot_every": 5, "boundary": boundary}
    whole = _simulate_ring(tmp_path, tmp_path / "whole", solver, 0.3)
    _simulate_ring(tmp_path, tmp_path / "resumed", solver, 0.15)
    assert len(whole) == 14  # diagnostics.csv and 13 snapshots
    assert _simulate_ring(tmp_path, tmp_path / "resumed", solver, 0.3, resume=True) == whole


@pytest.mark.parametrize("boundary", ["dirichlet0", "hold"])
def test_cfl_run_resumed_from_one_of_its_own_times_writes_its_bytes(tmp_path, boundary):
    # the step follows the decaying speed, so the stop is a sum of unequal
    # steps: the run to it must land on it with a full step, as the
    # uninterrupted run does
    solver = {"cfl": 0.2, "mu": 0.1, "snapshot_every": 2, "boundary": boundary}
    whole = _simulate_ring(tmp_path, tmp_path / "whole", solver, 0.1, n0=30.0)
    t = [row.split(",")[DIAG_COLUMNS.index("t")]
         for row in whole["diagnostics.csv"].decode().splitlines()[1:]]
    assert len(t) > 12 and np.ptp(np.diff(np.array(t, float))) > 0.5 * float(t[1])
    _simulate_ring(tmp_path, tmp_path / "resumed", solver, t[10], n0=30.0)
    assert _simulate_ring(tmp_path, tmp_path / "resumed", solver, 0.1, n0=30.0,
                          resume=True) == whole


@pytest.mark.parametrize("edits, key", [
    ({"nr: 16\n  nz: 16": "nr: 32\n  nz: 32", "dt: 5e-3": "dt: 5e-3\n  mu: 2.0"}, "grid.nr"),
    ({"dt: 5e-3": "dt: 5e-3\n  mu: 2.0"}, "solver.mu"),
    ({"dt: 5e-3": "dt: 5e-3\n  boundary: hold"}, "solver.boundary"),
], ids=["grid", "mu", "boundary"])
def test_a_resume_that_changes_the_run_is_a_config_error_that_keeps_it(tmp_path, capsys,
                                                                       edits, key):
    # a later t_end may change; the first other key that differs from the run's
    # config.yaml is named, and nothing of the run is touched
    out = tmp_path / "out"
    cfg = _small_ring_config(tmp_path, out)
    assert main(["simulate", "--config", cfg]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    text = Path(cfg).read_text(encoding="utf-8").replace("t_end: 0.02", "t_end: 0.04")
    for old, new in edits.items():
        text = text.replace(old, new)
    capsys.readouterr()
    assert main(["simulate", "--config", _write(tmp_path / "more.yaml", text), "--resume"]) == 1
    err = capsys.readouterr().err
    assert f"cannot resume: {key} is " in err and str(out / "config.yaml") in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("stored", [None, "grid: [\n", "grid:\n  nr: 16\n  bogus: 1\n"],
                         ids=["missing", "malformed", "unknown_key"])
def test_a_resume_without_a_readable_stored_config_is_an_error_that_names_it(tmp_path, capsys,
                                                                             stored):
    out = tmp_path / "out"
    cfg = _small_ring_config(tmp_path, out)
    assert main(["simulate", "--config", cfg]) == 0
    if stored is None:
        (out / "config.yaml").unlink()
    else:
        _write(out / "config.yaml", stored)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--resume"]) == 1
    assert str(out / "config.yaml") in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_sweep_writes_summary(tmp_path):
    out = tmp_path / "sweep"
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n"
        "solver:\n  dt: 1e-3\n  t_end: 2e-3\n"
        "data:\n  kind: stream_random\n"
        f"output:\n  directory: {out}\n"
        "sweep:\n  data.seed: [0, 1]\n",
    )
    assert main(["sweep", "--config", cfg]) == 0
    lines = (out / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[:2] == ["run", "data.seed"]
    assert len(lines) == 3
    assert (out / "sweep_0000" / "diagnostics.csv").exists()
    assert (out / "sweep_0001" / "diagnostics.csv").exists()
    # different seeds produce different final diagnostics
    assert lines[1].split(",")[2:] != lines[2].split(",")[2:]


def test_sweep_without_section_is_error(tmp_path):
    cfg = _write(tmp_path / "run.yaml", "")
    assert main(["sweep", "--config", cfg]) == 1


def test_validate_exits_zero_on_good_config(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n  r_max: 4.0\n  z_min: -2.0\n  z_max: 2.0\n"
        "solver:\n  cfl: 0.4\n  t_end: 0.02\n"
        "data:\n  kind: vortex_ring_swirl\n  n0: 1.0\n"
        "invariants:\n  h0: 0.01\n"
        f"output:\n  directory: {out}\n",
    )
    assert main(["validate", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "n0_bounds" in text and "PASS" in text and "FAIL" not in text
    assert "empirical_h0" in text
    assert "lamb_oseen_convergence" in text


def test_validate_checks_every_step(tmp_path, capsys):
    # 3 steps with snapshot_every 10: the suite still sees the initial state
    # and all three steps, enough for the scaling covariance
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n  r_max: 4.0\n  z_min: -2.0\n  z_max: 2.0\n"
        "solver:\n  dt: 5e-3\n  t_end: 0.015\n  snapshot_every: 10\n"
        "data:\n  kind: vortex_ring_swirl\n  n0: 1.0\n"
        "invariants:\n  h0: 0.01\n"
        f"output:\n  directory: {tmp_path / 'out'}\n",
    )
    assert main(["validate", "--config", cfg]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("scaling_covariance:")]
    assert line.endswith("PASS")


def test_validate_keeps_at_most_three_states(tmp_path, monkeypatch, capsys):
    # the suite reads every step's diagnostics; only the zoom check's first
    # three states stay in memory, whatever the step count
    most = []
    push = SnapshotHistory.push

    def counting_push(self, t, fld):
        push(self, t, fld)
        most.append(len(self))

    monkeypatch.setattr(SnapshotHistory, "push", counting_push)
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n  r_max: 4.0\n  z_min: -2.0\n  z_max: 2.0\n"
        "solver:\n  dt: 2e-3\n  t_end: 0.024\n"
        "data:\n  kind: vortex_ring_swirl\n  n0: 1.0\n"
        "invariants:\n  h0: 0.01\n"
        f"output:\n  directory: {tmp_path / 'out'}\n",
    )
    assert main(["validate", "--config", cfg]) == 0
    assert "scaling_covariance:" in capsys.readouterr().out
    assert most == [1, 2, 3]


def test_validate_reports_the_diagnostics_simulate_writes(tmp_path, capsys):
    # one run, two commands: validate's measured values are the extremes of
    # the diagnostics.csv columns that simulate writes for the same config
    out = tmp_path / "out"
    h0 = 0.012
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n  r_max: 4.0\n  z_min: -2.0\n  z_max: 2.0\n"
        "solver:\n  dt: 5e-3\n  t_end: 0.03\n  snapshot_every: 1\n"
        "data:\n  kind: vortex_ring_swirl\n  n0: 1.0\n"
        f"invariants:\n  h0: {h0}\n"
        f"output:\n  directory: {out}\n",
    )
    assert main(["validate", "--config", cfg]) == 0
    measured = {}
    for line in capsys.readouterr().out.splitlines():
        name, _, rest = line.partition(": measured=")
        if rest:
            measured[name] = rest.split()[0]
    assert main(["simulate", "--config", cfg]) == 0
    head, *rows = (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
    cols = {name: [float(row.split(",")[k]) for row in rows]
            for k, name in enumerate(head.split(","))}
    assert len(rows) == 7
    short_time = max(q for t, q in zip(cols["t"], cols["Q"]) if t <= h0)
    assert measured["max_principle"] == "%.6g" % max(cols["max_rvtheta"])
    assert measured["short_time_bound"] == "%.6g" % short_time
    assert measured["divergence"] == "%.6g" % max(cols["max_divergence"])


def test_validate_divergence_bound_follows_solver_tolerance(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n  r_max: 4.0\n  z_min: -2.0\n  z_max: 2.0\n"
        "solver:\n  cfl: 0.4\n  t_end: 0.02\n  projection_tol: 1e-6\n"
        "data:\n  kind: vortex_ring_swirl\n  n0: 1.0\n"
        "invariants:\n  h0: 0.01\n"
        f"output:\n  directory: {out}\n",
    )
    assert main(["validate", "--config", cfg]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("divergence:")]
    assert "bound=1e-05" in line and line.endswith("PASS")


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_validate_passes_on_every_shipped_config(path, capsys):
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    # each report the benchmark's output check reads, once, passing
    for name in verify.VALIDATE_REPORTS:
        (line,) = [ln for ln in out.splitlines() if ln.startswith(name + ":")]
        assert line.endswith("PASS"), line


def test_validate_uses_solver_mu_for_scaling_covariance(tmp_path, monkeypatch):
    # the suite takes the run's solver config, the one source of mu and
    # projection_tol for the zoomed run and the divergence bound
    seen = []
    suite = axiswirl.cli.run_invariant_suite

    def spy(rows, first, n0, invariants, solver):
        seen.append(solver)
        return suite(rows, first, n0, invariants, solver)

    monkeypatch.setattr(axiswirl.cli, "run_invariant_suite", spy)
    text = ("grid:\n  nr: 16\n  nz: 16\n  r_max: 4.0\n  z_min: -2.0\n  z_max: 2.0\n"
            "solver:\n  mu: 0.5\n  t_end: 0.02\n  projection_tol: 1e-9\n"
            f"output:\n  directory: {tmp_path / 'out'}\n")
    main(["validate", "--config", _write(tmp_path / "run.yaml", text)])
    assert seen == [parse_config(text).solver]
    assert (seen[0].mu, seen[0].projection_tol) == (0.5, 1e-9)


def test_lamb_oseen_nu_must_equal_solver_mu(tmp_path, capsys):
    cfg = _write(
        tmp_path / "run.yaml",
        "solver:\n  mu: 1.0\n"
        "data:\n  kind: lamb_oseen\n  nu: 0.5\n",
    )
    assert main(["simulate", "--config", cfg]) == 1
    assert "data.nu" in capsys.readouterr().err


# every line validate prints: one report, its measured value, bound, margin,
# any named extras, and the verdict
REPORT_LINE = re.compile(r"(\w+): measured=(\S+) bound=(\S+) margin=(\S+)(?: \w+=\S+)* (PASS|FAIL)")


def _validate_lines(capsys):
    lines = capsys.readouterr().out.splitlines()
    matches = [REPORT_LINE.fullmatch(line) for line in lines]
    assert all(matches), lines
    return matches


def test_validate_prints_one_line_per_report_in_order(tmp_path, capsys):
    assert main(["validate", "--config", _small_ring_config(tmp_path, tmp_path / "out")]) == 0
    matches = _validate_lines(capsys)
    assert tuple(m[1] for m in matches) == verify.VALIDATE_REPORTS
    assert all(m[5] == "PASS" and float(m[4]) >= 0 for m in matches)


def test_validate_exits_3_when_the_data_break_n0(tmp_path, capsys):
    # Lamb-Oseen data are not rescaled to n0: their weighted L2 norm (2.1)
    # and sup r|v| (0.16) both exceed n0 = 0.1
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n  r_max: 8.0\n  z_min: -8.0\n  z_max: 8.0\n"
        "solver:\n  cfl: 0.4\n  t_end: 0.02\n  boundary: hold\n"
        "data:\n  kind: lamb_oseen\n  n0: 0.1\n"
        f"output:\n  directory: {tmp_path / 'out'}\n",
    )
    assert main(["validate", "--config", cfg]) == 3
    verdicts = {m[1]: m[5] for m in _validate_lines(capsys)}
    assert list(verdicts) == list(verify.VALIDATE_REPORTS)
    assert verdicts["n0_bounds"] == verdicts["max_principle"] == "FAIL"


@pytest.mark.parametrize("key, value", [("cfl", 0), ("cfl", -0.4), ("dt", 0), ("dt", -0.01)])
def test_a_step_that_is_not_positive_is_a_config_error(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "run.yaml",
                 f"grid:\n  nr: 16\n  nz: 16\nsolver:\n  {key}: {value}\n"
                 f"output:\n  directory: {out}\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert f"solver.{key} must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_a_bad_sweep_value_stops_the_sweep_before_any_member_runs(tmp_path, capsys):
    out = tmp_path / "sweep"
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n"
        "solver:\n  dt: 1e-3\n  t_end: 2e-3\n"
        f"output:\n  directory: {out}\n"
        "sweep:\n  solver.snapshot_every: [1, 0]\n",
    )
    assert main(["sweep", "--config", cfg]) == 1
    assert "sweep.solver.snapshot_every" in capsys.readouterr().err
    assert not (out / "sweep_0000").exists()
    assert not out.exists()


def test_a_bad_grid_is_a_config_error_before_anything_is_written(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "run.yaml",
                 f"grid:\n  nr: 4\n  nz: 16\noutput:\n  directory: {out}\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert "error: grid: grid counts too small" in capsys.readouterr().err
    assert not out.exists()


def test_a_bad_sweep_grid_stops_the_sweep_before_any_member_runs(tmp_path, capsys):
    out = tmp_path / "sweep"
    cfg = _write(
        tmp_path / "run.yaml",
        "solver:\n  dt: 1e-3\n  t_end: 2e-3\n"
        f"output:\n  directory: {out}\n"
        "sweep:\n  grid.nr: [16, 4]\n",
    )
    assert main(["sweep", "--config", cfg]) == 1
    assert "sweep.grid.nr" in capsys.readouterr().err
    assert not (out / "sweep_0000").exists()
    assert not (out / "sweep_summary.csv").exists()


@pytest.mark.parametrize("data, message", [
    ("kind: vortex_ring_swirl\n  ring_r: 1.0", "must exceed 3x core radius"),
    ("kind: lamb_oseen\n  t_offset: 0.0", "data.t_offset must be positive"),
    ("kind: lamb_oseen\n  circulation: 0", "data.circulation must be nonzero"),
    ("kind: stream_random\n  modes: 0", "data.modes must be at least 1, got 0"),
    ("kind: stream_random\n  modes: -2", "data.modes must be at least 1, got -2"),
    ("kind: stream_random\n  seed: -1", "data.seed must be non-negative, got -1"),
], ids=["ring", "lamb_oseen", "circulation=0", "modes=0", "modes=-2", "seed=-1"])
def test_bad_data_is_a_config_error_that_keeps_the_earlier_snapshots(tmp_path, capsys,
                                                                      data, message):
    out = tmp_path / "out"
    assert main(["simulate", "--config", _small_ring_config(tmp_path, out)]) == 0
    before = run_outputs(out)
    cfg = _write(tmp_path / "bad.yaml", f"grid:\n  nr: 16\n  nz: 16\ndata:\n  {data}\n"
                 f"output:\n  directory: {out}\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    assert run_outputs(out) == before


def test_a_failed_first_projection_leaves_the_earlier_run_in_place(tmp_path):
    # the outward-flux ring of test_hold_boundary_with_outward_flux_fails_fast,
    # run into a directory that holds an earlier run: set-up fails before any delete
    out = tmp_path / "out"
    assert main(["simulate", "--config", _small_ring_config(tmp_path, out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cfg = _write(
        tmp_path / "flux.yaml",
        "grid:\n  nr: 24\n  nz: 40\n  r_max: 1.5\n  z_min: -2.0\n  z_max: 5.0\n"
        "solver:\n  t_end: 0.01\n  boundary: hold\n"
        "data:\n  kind: vortex_ring_swirl\n  n0: 1.0\n"
        f"output:\n  directory: {out}\n",
    )
    assert main(["simulate", "--config", cfg]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("section, message", [
    ("solver:\n  t_end: .inf", "solver.t_end: expected a finite number, got inf"),
    ("solver:\n  t_end: .nan", "solver.t_end: expected a finite number, got nan"),
    ("solver:\n  t_end: nan", "solver.t_end: expected a finite number, got 'nan'"),
    ("solver:\n  t_end: 1e400", "solver.t_end: expected a finite number, got '1e400'"),
    ("microscope:\n  sigma0: .nan", "microscope.sigma0: expected a finite number"),
    ("microscope:\n  sigma0: .inf", "microscope.sigma0: expected a finite number"),
    ("invariants:\n  h0: .nan", "invariants.h0: expected a finite number"),
    ("data:\n  n0: .nan", "data.n0: expected a finite number"),
    ("data:\n  core_radius: 0", "data.core_radius must be positive"),
    ("sweep:\n  solver.t_end: [0.02, .inf]",
     "sweep.solver.t_end = inf: solver.t_end: expected a finite number"),
], ids=["t_end=inf", "t_end=nan", "t_end='nan'", "t_end='1e400'", "sigma0=nan",
        "sigma0=inf", "h0=nan", "n0=nan", "core_radius=0", "sweep_t_end=inf"])
def test_a_non_finite_or_degenerate_value_is_a_config_error_that_keeps_the_snapshots(
        tmp_path, capsys, section, message):
    out = tmp_path / "out"
    assert main(["simulate", "--config", _small_ring_config(tmp_path, out)]) == 0
    before = run_outputs(out)
    cfg = _write(tmp_path / "bad.yaml", f"grid:\n  nr: 16\n  nz: 16\n{section}\n"
                 f"output:\n  directory: {out}\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    assert run_outputs(out) == before


def test_a_bad_sweep_ring_stops_the_sweep_before_any_member_runs(tmp_path, capsys):
    out = tmp_path / "sweep"
    cfg = _write(
        tmp_path / "run.yaml",
        "grid:\n  nr: 16\n  nz: 16\n"
        "solver:\n  dt: 1e-3\n  t_end: 2e-3\n"
        f"output:\n  directory: {out}\n"
        "sweep:\n  data.ring_r: [1.5, 1.0]\n",
    )
    assert main(["sweep", "--config", cfg]) == 1
    assert "sweep.data.ring_r = 1.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
def test_an_output_directory_that_is_a_file_is_an_error_that_names_it(tmp_path, capsys,
                                                                       command, under):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out = blocker / "out" if under else blocker
    cfg = _small_ring_config(tmp_path, out, "sweep:\n  data.n0: [1.0]\n")
    assert main([command, "--config", cfg]) == 1
    assert str(out) in capsys.readouterr().err


def test_a_microscope_report_path_that_is_a_directory_is_an_error_that_names_it(tmp_path,
                                                                                capsys):
    # and the cubes of an earlier dump stay in place
    out = tmp_path / "out"
    cfg = _small_ring_config(tmp_path, out, "microscope:\n  sigma0: 80.0\n")
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["microscope", "--config", cfg, "--snapshots", str(out), "--dump-cubes"]) == 0
    cubes = {p.name: p.read_bytes() for p in out.glob("cube_*.bin")}
    assert cubes
    report = tmp_path / "report"
    report.mkdir()
    assert main(["microscope", "--config", cfg, "--snapshots", str(out), "--dump-cubes",
                 "--out", str(report)]) == 1
    assert str(report) in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.glob("cube_*.bin")} == cubes
