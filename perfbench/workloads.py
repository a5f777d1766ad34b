"""Workload definitions: seeded inputs, the CLI commands of one round, and their checks.

A round is a fixed list of operations; one operation is one ``axiswirl`` CLI
command.  Inputs depend only on the seed, and the amount of work in a round
does not depend on it, so rounds from different seeds take comparable time.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import verify

INPUTS = Path(__file__).resolve().parent / "inputs"


@dataclass
class Operation:
    name: str
    argv: list[str]
    # called after the timed part of the round with the captured stdout text;
    # returns the list of failed checks (empty when the output is correct)
    check: Callable[[str], list[str]]


def _write_yaml(path: Path, doc: dict) -> Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# lamb_oseen_256: one simulate of the diffusing line vortex on a 256^2 grid
# ---------------------------------------------------------------------------

LO_N = 256
LO_RMAX = 8.0
LO_NU = 1.0
LO_T_OFFSET = 0.5
LO_T_END = 0.02
LO_SNAPSHOT_EVERY = 49
LO_PROJECTION_TOL = 1e-10
# error constant of the accuracy gate: |vtheta - exact| <= LO_K * circulation * h^2
LO_K = 7e-3


class LambOseen256:
    name = "lamb_oseen_256"
    setup = "solver"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.circulation = float(rng.uniform(0.8, 1.2))

    def prepare(self, workdir: Path) -> None:
        pass

    def operations(self, round_dir: Path, round_no: int) -> list[Operation]:
        out = round_dir / "lamb_oseen_256"
        doc = {
            "grid": {"nr": LO_N, "nz": LO_N, "r_max": LO_RMAX, "z_min": -LO_RMAX, "z_max": LO_RMAX},
            "solver": {"cfl": 0.4, "mu": LO_NU, "t_end": LO_T_END,
                       "snapshot_every": LO_SNAPSHOT_EVERY, "boundary": "hold",
                       "projection_tol": LO_PROJECTION_TOL},
            "data": {"kind": "lamb_oseen", "circulation": self.circulation, "nu": LO_NU,
                     "t_offset": LO_T_OFFSET, "n0": self.circulation / (2 * math.pi)},
            "output": {"directory": str(out)},
        }
        cfg = _write_yaml(round_dir / "lamb_oseen_256.yaml", doc)
        h = LO_RMAX / LO_N

        def check(_stdout: str) -> list[str]:
            return verify.check_diagnostics(out, LO_T_END) + verify.check_lamb_oseen(
                out, self.circulation, LO_NU, LO_T_OFFSET,
                tol=LO_K * self.circulation * h * h,
                divergence_bound=10 * LO_PROJECTION_TOL,
            )

        return [Operation("simulate lamb_oseen_256", ["simulate", "--config", str(cfg)], check)]


# ---------------------------------------------------------------------------
# shipped_64: the three shipped configurations, plus validate on two of them
# ---------------------------------------------------------------------------

class Shipped64:
    name = "shipped_64"
    setup = "solver"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.docs = {name: yaml.safe_load((INPUTS / f"{name}.yaml").read_text(encoding="utf-8"))
                     for name in ("lamb_oseen", "stream_random", "vortex_ring")}
        # seeded data; every choice keeps q <= 1, so dt stays at the diffusion
        # limit and the step count does not depend on the seed.  The random
        # field keeps its shipped data seed: its CG iteration count, and so
        # the work, changes with the data seed (2610 against 3342 LU solves
        # per round for data seeds 1 and 3)
        self.docs["lamb_oseen"]["data"]["circulation"] = float(rng.uniform(0.8, 1.2))
        self.docs["vortex_ring"]["data"]["ring_r"] = float(rng.uniform(1.4, 1.6))
        self.docs["vortex_ring"]["data"]["swirl_amplitude"] = float(rng.uniform(0.2, 0.4))

    def prepare(self, workdir: Path) -> None:
        pass

    def operations(self, round_dir: Path, round_no: int) -> list[Operation]:
        ops = []
        for name, doc in self.docs.items():
            doc = dict(doc, output={"directory": str(round_dir / name)})
            cfg = _write_yaml(round_dir / f"{name}.yaml", doc)
            out = round_dir / name
            t_end = float(doc["solver"]["t_end"])

            def check_sim(_stdout: str, out=out, t_end=t_end) -> list[str]:
                return verify.check_diagnostics(out, t_end) + verify.check_monotone(out)

            ops.append(Operation(f"simulate {name}", ["simulate", "--config", str(cfg)], check_sim))
        for name in ("vortex_ring", "stream_random"):
            cfg = round_dir / f"{name}.yaml"
            ops.append(Operation(f"validate {name}", ["validate", "--config", str(cfg)],
                                 verify.check_validate_report))
        return ops


# ---------------------------------------------------------------------------
# microscope_cubes: the microscope on snapshot sets written from a closed form
# ---------------------------------------------------------------------------

MC_N = 64
MC_RMAX = 4.0
MC_SNAPSHOTS = 10
# wider than the rescaled time span L^2/Q^2 of every cube, so only the cubes
# centred on the first snapshot reach before it (and are skipped)
MC_DT = 0.5
MC_SETS = 2
MC_CONFIG = {
    "epsilon": 1.0,
    "sigma0": 1.0,
    "holder_alpha": 0.5,
    "ratio_threshold": 0.25,
    "cube_resolution": 7,
    "cube_time_levels": 5,
}


def peak_speed(t: float) -> float:
    """Grid maximum of |v| at time t: rises to a peak at t = 3, then falls."""
    return 2.0 + 0.8 * math.sin(math.pi * t / 6.0)


def closed_form_field(r: np.ndarray, z: np.ndarray, t: float, p: dict) -> tuple:
    """Unnormalised swirling ring: (vr, vtheta, vz) at (r, z, t).

    Meridional part from the Stokes stream function
    psi = r^2 exp(-((r - R)^2 + (z - Z(t))^2) / delta^2), with Z(t) = Z0 + c t,
    so vr = -(1/r) dpsi/dz and vz = (1/r) dpsi/dr are exactly divergence free;
    swirl vtheta = s(t) (r/R) exp(...), with s(t) = s0 (1 + w t).
    """
    zc = p["z0"] + p["c"] * t
    d2 = p["delta"] ** 2
    e = np.exp(-((r - p["ring_r"]) ** 2 + (z - zc) ** 2) / d2)
    vr = r * e * 2 * (z - zc) / d2
    vz = e * (2 - 2 * r * (r - p["ring_r"]) / d2)
    vtheta = p["s0"] * (1 + p["w"] * t) * (r / p["ring_r"]) * e
    return vr, vtheta, vz


def write_axns(path: Path, t: float, grid: tuple, vr, vtheta, vz, p) -> None:
    """Snapshot in the documented AXNS format: magic, version 1 (u32), then
    nr, nz, r_max, z_min, z_max, t (f64), then vr, vtheta, vz, p row-major (f64)."""
    nr, nz, r_max, z_min, z_max = grid
    header = b"AXNS" + struct.pack("<I6d", 1, float(nr), float(nz), r_max, z_min, z_max, float(t))
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (vr, vtheta, vz, p):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def write_snapshot_set(directory: Path, params: dict) -> None:
    """MC_SNAPSHOTS snapshots of the closed form, each scaled so that its grid
    maximum of |v| equals peak_speed(t)."""
    directory.mkdir(parents=True, exist_ok=True)
    grid = (MC_N, MC_N, MC_RMAX, -MC_RMAX, MC_RMAX)
    r = np.linspace(0.0, MC_RMAX, MC_N + 1)[:, None]
    z = np.linspace(-MC_RMAX, MC_RMAX, MC_N + 1)[None, :]
    r, z = np.broadcast_arrays(r, z)
    for k in range(MC_SNAPSHOTS):
        t = k * MC_DT
        vr, vt, vz = closed_form_field(r, z, t, params)
        scale = peak_speed(t) / float(np.sqrt(vr**2 + vt**2 + vz**2).max())
        write_axns(directory / f"snap_{k:08d}.bin", t, grid,
                   scale * vr, scale * vt, scale * vz, np.zeros(r.shape))


class MicroscopeCubes:
    name = "microscope_cubes"
    setup = "snapshots"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.params = [
            {
                "ring_r": float(rng.uniform(1.3, 1.7)),
                "z0": float(rng.uniform(-0.5, 0.0)),
                "c": float(rng.uniform(0.1, 0.3)),
                "delta": float(rng.uniform(0.35, 0.5)),
                "s0": float(rng.uniform(0.3, 0.6)),
                "w": float(rng.uniform(0.1, 0.3)),
            }
            for _ in range(MC_SETS)
        ]
        self.sets: list[Path] = []
        self.config: Path | None = None

    def prepare(self, workdir: Path) -> None:
        self.config = _write_yaml(workdir / "microscope.yaml", {
            "microscope": MC_CONFIG,
            "output": {"directory": str(workdir)},
        })
        self.sets = []
        for k, params in enumerate(self.params):
            directory = workdir / f"set_{k}"
            write_snapshot_set(directory, params)
            self.sets.append(directory)

    def operations(self, round_dir: Path, round_no: int) -> list[Operation]:
        ops = []
        for k, source in enumerate(self.sets):
            # --dump-cubes writes next to the snapshots: a fresh directory per
            # round makes the cubes new files, as on a first run, instead of
            # files truncated and rewritten
            directory = round_dir / source.name
            directory.mkdir()
            for path in verify.snapshot_paths(source):
                os.link(path, directory / path.name)
            csv = round_dir / f"microscope_{k}.csv"
            # one row per set and round has its cube recomputed in full
            pick = np.random.default_rng([self.seed, k, round_no])

            def check(_stdout: str, directory=directory, csv=csv, pick=pick) -> list[str]:
                return verify.check_microscope(directory, csv, MC_CONFIG, pick)

            ops.append(Operation(
                f"microscope set_{k}",
                ["microscope", "--config", str(self.config), "--snapshots", str(directory),
                 "--out", str(csv), "--dump-cubes"],
                check,
            ))
        return ops


WORKLOADS = {w.name: w for w in (LambOseen256, Shipped64, MicroscopeCubes)}
