"""Output checks, computed apart from the program from the files it writes.

Every check returns a list of failure messages; an empty list means the output
is correct.  Snapshots and cubes are read with the readers below, which follow
the documented binary formats and share no code with the program.
"""
from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

# the program's own invariant tolerances (InvariantConfig defaults): the
# discrete scheme keeps energy and sup r|vtheta| non-increasing up to these
ENERGY_REL_TOL = 1e-8
MAX_PRINCIPLE_REL_TOL = 1e-6
# the CLI stops at t >= t_end - 1e-14; the slack covers that and rounding
T_END_SLACK = 1e-12
CENTRE_SPEED_TOL = 1e-4
RECOMPUTE_TOL = 1e-12
VALIDATE_REPORTS = ("n0_bounds", "max_principle", "short_time_bound", "energy",
                    "divergence", "scaling_covariance", "lamb_oseen_convergence")


def read_axns(path: Path) -> dict:
    """AXNS snapshot: magic, version u32, nr, nz, r_max, z_min, z_max, t (f64 LE),
    then vr, vtheta, vz, p as row-major (nr+1, nz+1) f64 arrays."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"AXNS":
        raise ValueError(f"{path}: bad magic {buf[:4]!r}")
    (version,) = struct.unpack("<I", buf[4:8])
    nr, nz, r_max, z_min, z_max, t = struct.unpack("<6d", buf[8:56])
    nr, nz = int(nr), int(nz)
    n = (nr + 1) * (nz + 1)
    if version != 1 or len(buf) != 56 + 32 * n:
        raise ValueError(f"{path}: version {version}, {len(buf)} bytes")
    arrs = np.frombuffer(buf, "<f8", offset=56).reshape(4, nr + 1, nz + 1)
    dr, dz = r_max / nr, (z_max - z_min) / nz
    return {
        "t": t, "nr": nr, "nz": nz, "r_max": r_max, "z_min": z_min, "z_max": z_max,
        "dr": dr, "dz": dz, "r": np.arange(nr + 1) * dr,
        "vr": arrs[0], "vtheta": arrs[1], "vz": arrs[2], "p": arrs[3],
    }


def read_cube(path: Path) -> dict:
    """CUBE dump: magic, version u32, n, nt, L, t0, q, r0, z0, capped (f64 LE),
    then xs (n), ts (nt), v (nt, n, n, n, 3) and valid (nt, n, n, n) as f64."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"CUBE":
        raise ValueError(f"{path}: bad magic {buf[:4]!r}")
    n, nt, length, t0, q, r0, z0, capped = struct.unpack("<8d", buf[8:72])
    n, nt = int(n), int(nt)
    data = np.frombuffer(buf, "<f8", offset=72)
    sizes = [n, nt, nt * n**3 * 3, nt * n**3]
    if len(data) != sum(sizes):
        raise ValueError(f"{path}: {len(buf)} bytes for n={n}, nt={nt}")
    xs, ts, v, valid = np.split(data, np.cumsum(sizes)[:-1])
    return {
        "n": n, "nt": nt, "L": length, "t0": t0, "q": q, "r0": r0, "z0": z0,
        "xs": xs, "ts": ts, "v": v.reshape(nt, n, n, n, 3),
        "valid": valid.reshape(nt, n, n, n) != 0.0,
    }


def snapshot_paths(directory: Path) -> list[Path]:
    return sorted(Path(directory).glob("snap_*.bin"))


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def divergence(s: dict) -> np.ndarray:
    """The documented discrete divergence d_r vr + vr/r + d_z vz: centred inside,
    2 d_r vr on the axis, second-order one-sided on the outer boundaries."""
    vr, vz, dr, dz, r = s["vr"], s["vz"], s["dr"], s["dz"], s["r"]
    rad = np.empty(vr.shape)
    rad[1:-1] = (vr[2:] - vr[:-2]) / (2 * dr) + vr[1:-1] / r[1:-1, None]
    rad[0] = 2.0 * vr[1] / dr
    rad[-1] = (3 * vr[-1] - 4 * vr[-2] + vr[-3]) / (2 * dr) + vr[-1] / r[-1]
    ax = np.empty(vz.shape)
    ax[:, 1:-1] = (vz[:, 2:] - vz[:, :-2]) / (2 * dz)
    ax[:, 0] = (-3 * vz[:, 0] + 4 * vz[:, 1] - vz[:, 2]) / (2 * dz)
    ax[:, -1] = (3 * vz[:, -1] - 4 * vz[:, -2] + vz[:, -3]) / (2 * dz)
    return rad + ax


def kinetic_energy(s: dict) -> float:
    """pi * sum w |v|^2 with trapezoid weights of the cylindrical volume r dr dz."""
    dr, dz, r = s["dr"], s["dz"], s["r"]
    wr = r * dr
    wr[0] = dr * dr / 8.0
    wr[-1] = r[-1] * dr / 2.0
    wz = np.full(s["nz"] + 1, dz)
    wz[0] = wz[-1] = dz / 2.0
    v2 = s["vr"] ** 2 + s["vtheta"] ** 2 + s["vz"] ** 2
    return float(math.pi * np.sum(np.outer(wr, wz) * v2))


def max_rvtheta(s: dict) -> float:
    return float(np.max(s["r"][:, None] * np.abs(s["vtheta"])))


def lamb_oseen_vtheta(r: np.ndarray, circulation: float, nu: float, t: float) -> np.ndarray:
    """Gamma/(2 pi r) (1 - exp(-r^2 / (4 nu t))), zero on the axis."""
    safe = np.where(r > 0, r, 1.0)
    return np.where(r > 0, circulation / (2 * math.pi * safe) * -np.expm1(-safe**2 / (4 * nu * t)), 0.0)


# ---------------------------------------------------------------------------
# solve workloads
# ---------------------------------------------------------------------------

def check_diagnostics(out: Path, t_end: float) -> list[str]:
    """diagnostics.csv has one row per step, steps 0..N contiguous, final t >= t_end."""
    path = Path(out) / "diagnostics.csv"
    if not path.exists():
        return [f"{path}: missing"]
    rows = read_rows(path)
    if not rows:
        return [f"{path}: no rows"]
    fails = []
    steps = [int(row["step"]) for row in rows]
    if steps != list(range(len(steps))):
        bad = next(k for k, s in enumerate(steps) if s != k)
        fails.append(f"{path}: row {bad} has step {steps[bad]}, expected {bad} "
                     f"({len(rows)} rows, last step {steps[-1]})")
    t_last = float(rows[-1]["t"])
    if t_last < t_end - T_END_SLACK:
        fails.append(f"{path}: final t={t_last!r} < t_end={t_end!r}")
    return fails


def check_lamb_oseen(out: Path, circulation: float, nu: float, t_offset: float,
                     tol: float, divergence_bound: float) -> list[str]:
    """Closed-form accuracy of the last snapshot; divergence and sup r|vtheta| of every one."""
    paths = snapshot_paths(out)
    if not paths:
        return [f"{out}: no snapshots"]
    fails = []
    ceiling = circulation / (2 * math.pi) * (1 + MAX_PRINCIPLE_REL_TOL)
    for path in paths:
        s = read_axns(path)
        div = float(np.max(np.abs(divergence(s))))
        if not div <= divergence_bound:
            fails.append(f"{path.name}: sup |div| = {div:.3e} > {divergence_bound:.1e}")
        rvt = max_rvtheta(s)
        if not rvt <= ceiling:
            fails.append(f"{path.name}: sup r|vtheta| = {rvt!r} > Gamma/2pi = {ceiling!r}")
    s = read_axns(paths[-1])
    exact = lamb_oseen_vtheta(s["r"], circulation, nu, t_offset + s["t"])
    err = float(np.max(np.abs(s["vtheta"] - exact[:, None])))
    if not err <= tol:
        fails.append(f"{paths[-1].name}: |vtheta - exact| = {err:.3e} > {tol:.3e} at t={s['t']!r}")
    return fails


def check_monotone(out: Path) -> list[str]:
    """Kinetic energy and sup r|vtheta| do not increase from snapshot to snapshot."""
    paths = snapshot_paths(out)
    if len(paths) < 2:
        return [f"{out}: {len(paths)} snapshots, need at least 2"]
    snaps = [read_axns(p) for p in paths]
    fails = []
    for label, values, rel in (
        ("energy", [kinetic_energy(s) for s in snaps], ENERGY_REL_TOL),
        ("sup r|vtheta|", [max_rvtheta(s) for s in snaps], MAX_PRINCIPLE_REL_TOL),
    ):
        scale = max(abs(v) for v in values) or 1.0
        for k in range(1, len(values)):
            if values[k] - values[k - 1] > rel * scale:
                fails.append(f"{paths[k].name}: {label} rose from {values[k - 1]!r} to {values[k]!r}")
    return fails


def check_validate_report(stdout: str) -> list[str]:
    """Every report of `validate` is printed, and each one passes."""
    fails = []
    for name in VALIDATE_REPORTS:
        lines = [ln for ln in stdout.splitlines() if ln.startswith(name + ":")]
        if len(lines) != 1 or not lines[0].endswith("PASS"):
            fails.append(f"validate: report {name}: {lines}")
    return fails


# ---------------------------------------------------------------------------
# microscope
# ---------------------------------------------------------------------------

def candidates(snaps: list[dict], mode: str, ratio_threshold: float) -> list[dict]:
    """Per-snapshot argmax of |v| (mode A) or r|v| (mode B), kept when at least
    ratio_threshold of the supremum over this and all earlier snapshots."""
    out = []
    running = 0.0
    for s in snaps:
        speed = np.sqrt(s["vr"] ** 2 + s["vtheta"] ** 2 + s["vz"] ** 2)
        weighted = speed if mode == "A" else speed * s["r"][:, None]
        i, j = np.unravel_index(int(np.argmax(weighted)), weighted.shape)
        val = float(weighted[i, j])
        running = max(running, val)
        if val <= 0.0 or val / running < ratio_threshold:
            continue
        out.append({"mode": mode, "t0": s["t"], "r0": float(i * s["dr"]),
                    "z0": float(s["z_min"] + j * s["dz"]), "q": float(speed[i, j])})
    return out


def cube_validity(cand: dict, snaps: list[dict], config: dict) -> np.ndarray:
    """Which (time level, x1, x2, x3) samples of the candidate's cube lie inside
    the stored times and the grid: the cube has half-edge L = 1/(sigma0 epsilon),
    capped at r0 q / 2, and spans [-L^2, 0] in rescaled time."""
    q, r0, z0, t0 = cand["q"], cand["r0"], cand["z0"], cand["t0"]
    length = 1.0 / (config["sigma0"] * config["epsilon"])
    cap = 0.5 * q * r0
    if cap > 0 and length > cap:
        length = cap
    n, nt = config["cube_resolution"], config["cube_time_levels"]
    xs = np.linspace(-length, length, n)
    t_phys = np.linspace(-length * length, 0.0, nt) / q**2 + t0
    in_time = (t_phys >= snaps[0]["t"] - 1e-12) & (t_phys <= snaps[-1]["t"] + 1e-12)
    x1, x2, x3 = np.meshgrid(xs / q + r0, xs / q, xs / q + z0, indexing="ij")
    g = snaps[0]
    in_space = (np.hypot(x1, x2) <= g["r_max"]) & (x3 >= g["z_min"]) & (x3 <= g["z_max"])
    return in_time[:, None, None, None] & in_space[None]


def measurable(valid: np.ndarray) -> bool:
    """The closeness measurement needs 5 valid points along x1 and 3 valid time levels."""
    return bool(valid.any()) and valid.any(axis=(0, 2, 3)).sum() >= 5 \
        and valid.any(axis=(1, 2, 3)).sum() >= 3


def check_microscope(directory: Path, csv_path: Path, config: dict,
                     rng: np.random.Generator) -> list[str]:
    """Rows are exactly the measurable candidates, sorted by alpha = r0 Q
    descending, each with the expected masked fraction and a unit-speed cube
    centre; one row picked by rng has its sup_dist recomputed from its cube."""
    if not Path(csv_path).exists():
        return [f"{csv_path}: missing"]
    snaps = [read_axns(p) for p in snapshot_paths(directory)]
    rows = read_rows(csv_path)
    fails = []

    expected = {}
    skipped = 0
    for mode in ("A", "B"):
        for cand in candidates(snaps, mode, config["ratio_threshold"]):
            valid = cube_validity(cand, snaps, config)
            if cand["q"] > 0 and measurable(valid):
                expected[(mode, cand["t0"])] = (cand, 1.0 - float(np.mean(valid)))
            else:
                skipped += 1
    got = {(row["mode"], float(row["t0"])) for row in rows}
    if got != set(expected) or len(rows) != len(expected):
        fails.append(f"{csv_path.name}: rows {sorted(got)} != measurable candidates "
                     f"{sorted(expected)} ({skipped} skipped)")
        return fails

    alphas = [float(row["alpha"]) for row in rows]
    if any(a < b for a, b in zip(alphas, alphas[1:])):
        fails.append(f"{csv_path.name}: rows not sorted by alpha descending")
    for k, row in enumerate(rows):
        cand, masked = expected[(row["mode"], float(row["t0"]))]
        r0, q, alpha = float(row["r0"]), float(row["Q"]), float(row["alpha"])
        if not (math.isclose(r0, cand["r0"], abs_tol=1e-12)
                and math.isclose(float(row["z0"]), cand["z0"], abs_tol=1e-12)
                and math.isclose(q, cand["q"], rel_tol=1e-12)):
            fails.append(f"{csv_path.name} row {k}: (r0, z0, Q) = ({r0}, {row['z0']}, {q}), "
                         f"expected ({cand['r0']}, {cand['z0']}, {cand['q']})")
        if not math.isclose(alpha, r0 * q, rel_tol=1e-12):
            fails.append(f"{csv_path.name} row {k}: alpha {alpha!r} != r0 Q {r0 * q!r}")
        if not math.isclose(float(row["masked_fraction"]), masked, abs_tol=RECOMPUTE_TOL):
            fails.append(f"{csv_path.name} row {k}: masked_fraction {row['masked_fraction']} "
                         f"!= {masked!r}")
        cube_path = Path(directory) / f"cube_{k:04d}.bin"
        if not cube_path.exists():
            fails.append(f"{cube_path.name}: missing")
            continue
        cube = read_cube(cube_path)
        c = cube["n"] // 2
        centre = float(np.linalg.norm(cube["v"][-1, c, c, c]))
        if not abs(centre - 1.0) <= CENTRE_SPEED_TOL:
            fails.append(f"{cube_path.name}: centre speed {centre!r}")
        if (cube["t0"], cube["q"], cube["r0"], cube["z0"]) != \
                (float(row["t0"]), q, r0, float(row["z0"])):
            fails.append(f"{cube_path.name}: header does not match row {k}")
    if fails or not rows:
        return fails

    k = int(rng.integers(len(rows)))
    cube = read_cube(Path(directory) / f"cube_{k:04d}.bin")
    c = cube["n"] // 2
    dist = np.linalg.norm(cube["v"] - cube["v"][-1, c, c, c], axis=-1)
    sup_dist = float(dist[cube["valid"]].max())
    masked = 1.0 - float(np.mean(cube["valid"]))
    for name, value in (("sup_dist", sup_dist), ("masked_fraction", masked)):
        if not math.isclose(float(rows[k][name]), value, rel_tol=RECOMPUTE_TOL, abs_tol=RECOMPUTE_TOL):
            fails.append(f"{csv_path.name} row {k}: {name} {rows[k][name]} != {value!r} from its cube")
    return fails
