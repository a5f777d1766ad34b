"""The benchmark's output checks pass on real program output and fail on corrupted output.

Run with:  python3 -m pytest perfbench/test_verify.py
"""
from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from axiswirl import cli  # noqa: E402

import verify  # noqa: E402
import workloads  # noqa: E402

SMALL_CUBES = dict(workloads.MC_CONFIG, cube_resolution=5)


def _simulate(tmp: Path, doc: dict) -> Path:
    out = tmp / "out"
    doc = dict(doc, output={"directory": str(out)})
    cfg = tmp / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    return out


def _rewrite(path: Path, **changes) -> None:
    s = verify.read_axns(path)
    arrays = {k: np.array(s[k]) for k in ("vr", "vtheta", "vz", "p")}
    for name, fn in changes.items():
        arrays[name] = fn(arrays[name])
    workloads.write_axns(path, s["t"], (s["nr"], s["nz"], s["r_max"], s["z_min"], s["z_max"]),
                         arrays["vr"], arrays["vtheta"], arrays["vz"], arrays["p"])


@pytest.fixture(scope="module")
def lamb_oseen_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lamb")
    out = _simulate(tmp, {
        "grid": {"nr": 32, "nz": 32, "r_max": 8.0, "z_min": -8.0, "z_max": 8.0},
        "solver": {"cfl": 0.4, "mu": 1.0, "t_end": 0.02, "snapshot_every": 5, "boundary": "hold"},
        "data": {"kind": "lamb_oseen", "circulation": 1.0, "nu": 1.0, "t_offset": 0.5, "n0": 1.0},
    })
    return out


@pytest.fixture(scope="module")
def ring_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ring")
    doc = yaml.safe_load((workloads.INPUTS / "vortex_ring.yaml").read_text(encoding="utf-8"))
    doc["grid"].update(nr=16, nz=16)
    doc["solver"].update(t_end=0.05, snapshot_every=5)
    return _simulate(tmp, doc)


@pytest.fixture(scope="module")
def microscope_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("micro")
    params = workloads.MicroscopeCubes(3).params[0]
    snaps = tmp / "set"
    workloads.write_snapshot_set(snaps, params)
    cfg = tmp / "micro.yaml"
    cfg.write_text(yaml.safe_dump({"microscope": SMALL_CUBES}), encoding="utf-8")
    csv = tmp / "microscope.csv"
    assert cli.main(["microscope", "--config", str(cfg), "--snapshots", str(snaps),
                     "--out", str(csv), "--dump-cubes"]) == 0
    return snaps, csv


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / src.name
    shutil.copytree(src, dst)
    return dst


def _lamb_check(out: Path) -> list[str]:
    h = 8.0 / 32
    return verify.check_lamb_oseen(out, 1.0, 1.0, 0.5, tol=workloads.LO_K * h * h,
                                   divergence_bound=1e-9)


def test_lamb_oseen_check_passes(lamb_oseen_run):
    assert _lamb_check(lamb_oseen_run) == []
    assert verify.check_diagnostics(lamb_oseen_run, 0.02) == []


@pytest.mark.parametrize("corruption, message", [
    ({"vtheta": lambda a: a + np.where(np.arange(a.shape[0])[:, None] == 10, 1e-3, 0.0)},
     "vtheta - exact"),
    ({"vr": lambda a: a + np.where(np.arange(a.size).reshape(a.shape) == 200, 1e-6, 0.0)},
     "sup |div|"),
    ({"vtheta": lambda a: a * 1.001}, "sup r|vtheta|"),
])
def test_lamb_oseen_check_fails_on_perturbed_snapshot(lamb_oseen_run, tmp_path, corruption, message):
    out = _copy(lamb_oseen_run, tmp_path)
    _rewrite(verify.snapshot_paths(out)[-1], **corruption)
    fails = _lamb_check(out)
    assert fails and any(message in f for f in fails), fails


def test_monotone_check_passes(ring_run):
    assert verify.check_monotone(ring_run) == []
    assert verify.check_diagnostics(ring_run, 0.05) == []


def _grow_last(out: Path, meridional: float, swirl: float) -> None:
    """Replace the last snapshot by the one before it, with scaled components."""
    *_, before, last = verify.snapshot_paths(out)
    s = verify.read_axns(before)
    _rewrite(last, vr=lambda a: meridional * s["vr"], vz=lambda a: meridional * s["vz"],
             vtheta=lambda a: swirl * s["vtheta"])


def test_monotone_check_fails_on_energy_increase(ring_run, tmp_path):
    out = _copy(ring_run, tmp_path)
    # meridional components only: the energy rises, sup r|vtheta| does not
    _grow_last(out, meridional=1.01, swirl=1.0)
    fails = verify.check_monotone(out)
    assert len(fails) == 1 and "energy rose" in fails[0], fails


def test_monotone_check_fails_on_swirl_increase(ring_run, tmp_path):
    out = _copy(ring_run, tmp_path)
    _grow_last(out, meridional=1.0, swirl=1.01)
    assert any("sup r|vtheta| rose" in f for f in verify.check_monotone(out))


def test_diagnostics_check_fails_on_duplicated_row(ring_run, tmp_path):
    out = _copy(ring_run, tmp_path)
    path = out / "diagnostics.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[4:5] + lines[5:]), encoding="utf-8")
    fails = verify.check_diagnostics(out, 0.05)
    assert fails and "row 4 has step 3" in fails[0], fails


def test_diagnostics_check_fails_before_t_end(ring_run, tmp_path):
    out = _copy(ring_run, tmp_path)
    path = out / "diagnostics.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    assert any("< t_end" in f for f in verify.check_diagnostics(out, 0.05))


def test_validate_report_check():
    good = "\n".join(f"{name}: measured=1 bound=2 PASS" for name in verify.VALIDATE_REPORTS)
    assert verify.check_validate_report(good) == []
    bad = good.replace("energy: measured=1 bound=2 PASS", "energy: measured=3 bound=2 FAIL")
    assert verify.check_validate_report(bad) == ["validate: report energy: "
                                                 "['energy: measured=3 bound=2 FAIL']"]
    missing = "\n".join(good.splitlines()[:-1])
    assert verify.check_validate_report(missing)


def _micro_check(snaps: Path, csv: Path, seed: int = 0) -> list[str]:
    return verify.check_microscope(snaps, csv, SMALL_CUBES, np.random.default_rng(seed))


def test_microscope_check_passes(microscope_run):
    snaps, csv = microscope_run
    rows = verify.read_rows(csv)
    # the cubes centred on the first snapshot reach before it and are skipped
    assert len(rows) == 2 * (workloads.MC_SNAPSHOTS - 1)
    for seed in range(5):
        assert _micro_check(snaps, csv, seed) == []


def test_microscope_check_fails_on_cube_centre_off_unit_speed(microscope_run, tmp_path):
    snaps, csv = microscope_run
    snaps = _copy(snaps, tmp_path)
    cube = snaps / "cube_0003.bin"
    buf = bytearray(cube.read_bytes())
    c = verify.read_cube(cube)
    n, nt = c["n"], c["nt"]
    # byte offset of v[-1, centre, centre, centre, :], three f64 after xs and ts
    centre = ((nt - 1) * n**3 + (n // 2) * (n * n + n + 1)) * 3
    at = 72 + 8 * (n + nt + centre)
    value = np.frombuffer(bytes(buf[at:at + 24]), "<f8")
    buf[at:at + 24] = (1.001 * value).astype("<f8").tobytes()
    cube.write_bytes(bytes(buf))
    fails = _micro_check(snaps, csv)
    assert any(f.startswith("cube_0003.bin: centre speed") for f in fails), fails


def test_microscope_check_fails_on_missing_or_unsorted_rows(microscope_run, tmp_path):
    snaps, csv = microscope_run
    lines = csv.read_text(encoding="utf-8").splitlines(keepends=True)
    dropped = tmp_path / "dropped.csv"
    dropped.write_text("".join(lines[:3] + lines[4:]), encoding="utf-8")
    assert any("measurable candidates" in f for f in _micro_check(snaps, dropped))
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("".join(lines[:1] + lines[-1:] + lines[2:-1] + lines[1:2]), encoding="utf-8")
    assert any("not sorted" in f for f in _micro_check(snaps, swapped))


def test_microscope_check_fails_on_wrong_sup_dist(microscope_run, tmp_path):
    snaps, csv = microscope_run
    rows = verify.read_rows(csv)
    k = int(np.random.default_rng(0).integers(len(rows)))
    header, *lines = csv.read_text(encoding="utf-8").splitlines(keepends=True)
    col = header.strip().split(",").index("sup_dist")
    fields = lines[k].rstrip("\n").split(",")
    fields[col] = repr(float(fields[col]) * (1 + 1e-9))
    lines[k] = ",".join(fields) + "\n"
    bad = tmp_path / "bad.csv"
    bad.write_text(header + "".join(lines), encoding="utf-8")
    fails = _micro_check(snaps, bad, seed=0)
    assert fails and "sup_dist" in fails[0], fails
