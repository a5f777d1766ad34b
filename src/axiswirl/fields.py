"""Grids, axisymmetric velocity fields, interpolation, maxima scans and snapshot I/O.

All fields live on a collocated node grid in the meridional (r, z) plane.  A
velocity is one stacked array v of shape (3, nr+1, nz+1), v[0], v[1] and v[2]
holding vr, vtheta and vz; operators that act on all components act on v,
and the named components are views of it.  The axis r = 0 is a grid line;
radial/azimuthal components are odd across it, the axial component and
pressure are even.  The solver's boundary conditions are the one place that
sets the axis nodes.
"""
from __future__ import annotations

import os
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

SNAPSHOT_MAGIC = b"AXNS"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class Grid:
    """Uniform node grid: r_i = i*dr for i=0..nr, z_j = z_min + j*dz for j=0..nz;
    also the config's ``grid`` section, with its defaults."""

    nr: int = 64
    nz: int = 64
    r_max: float = 4.0
    z_min: float = -4.0
    z_max: float = 4.0

    def __post_init__(self):
        if self.nr < 8 or self.nz < 8:
            raise ValueError(f"grid counts too small: nr={self.nr}, nz={self.nz} (minimum 8)")
        if not 0 < self.r_max < np.inf:
            raise ValueError(f"r_max must be positive and finite, got {self.r_max}")
        if not -np.inf < self.z_min < self.z_max < np.inf:
            raise ValueError(f"need z_max > z_min, both finite, got [{self.z_min}, {self.z_max}]")
        # the viscous operators scale as 1/h^2, which must be a finite number
        for key, h in (("r_max", self.dr), ("z_max - z_min", self.dz)):
            if not (h < np.inf and h * h >= 1.0 / sys.float_info.max):
                raise ValueError(f"{key} gives a spacing {h!r} out of range: 1/h^2 must be finite")

    @property
    def dr(self) -> float:
        return self.r_max / self.nr

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / self.nz

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nr + 1, self.nz + 1)

    @property
    def r(self) -> np.ndarray:
        return np.arange(self.nr + 1) * self.dr

    @property
    def z(self) -> np.ndarray:
        return self.z_min + np.arange(self.nz + 1) * self.dz


def _component(k: int) -> property:
    """The read/write view v[k]: assigning to it writes into v."""
    def put(self, value) -> None:
        self.v[k] = value
    return property(lambda self: self.v[k], put)


@dataclass
class AxisymField:
    """Cylindrical velocity on grid nodes: ``v`` is a C-contiguous float64 array
    of shape (3, nr+1, nz+1), and vr, vtheta and vz are read/write views of it."""

    grid: Grid
    v: np.ndarray

    vr, vtheta, vz = (_component(k) for k in range(3))

    @classmethod
    def zeros(cls, grid: Grid) -> "AxisymField":
        return cls(grid, np.zeros((3, *grid.shape)))

    def copy(self) -> "AxisymField":
        return AxisymField(self.grid, self.v.copy())

    def speed(self) -> np.ndarray:
        return np.sqrt(self.vr**2 + self.vtheta**2 + self.vz**2)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.v)))


@dataclass
class Snapshot:
    t: float
    field: AxisymField


@dataclass
class SnapshotHistory:
    """Time-ordered list of snapshots."""

    snapshots: list[Snapshot] = field(default_factory=list)

    def push(self, t: float, fld: AxisymField) -> None:
        if self.snapshots and t <= self.snapshots[-1].t:
            raise ValueError(f"snapshot times must increase: {t} after {self.snapshots[-1].t}")
        self.snapshots.append(Snapshot(float(t), fld))

    def record(self, solver) -> None:
        """Push a copy of a solver's time and state (an ``on_snapshot`` sink)."""
        self.push(solver.t, solver.state.copy())

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self) -> Iterator[Snapshot]:
        return iter(self.snapshots)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def sample_cartesian(fields, pts) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian velocities v = vr e_r + vtheta e_theta + vz e_z of each of the
    ``fields`` (k, all on one grid) at the (m, 3) points (x1, x2, z): (k, m, 3)
    and the (m,) mask of points inside the meridional domain, boundary
    included.  Each component is bilinear in (r, z); the cell, its weights and
    the azimuthal frame are worked out once for all fields.  Outside points
    read 0; on the axis, where the frame is undefined, only vz."""
    g = fields[0].grid
    pts = np.asarray(pts, dtype=float)
    r, z = np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2]
    inside = (r <= g.r_max) & (z >= g.z_min) & (z <= g.z_max)
    fi = np.clip(r / g.dr, 0.0, g.nr)
    fj = np.clip((z - g.z_min) / g.dz, 0.0, g.nz)
    i0 = np.minimum(fi.astype(int), g.nr - 1)
    j0 = np.minimum(fj.astype(int), g.nz - 1)
    wi, wj = fi - i0, fj - j0
    vals = np.array([f.v for f in fields])  # (k, 3, nr+1, nz+1)
    v00, v10 = vals[..., i0, j0], vals[..., i0 + 1, j0]
    v01, v11 = vals[..., i0, j0 + 1], vals[..., i0 + 1, j0 + 1]
    # incremental form: exact (bitwise) on constant data, since all the
    # correction terms vanish identically
    lo = v00 + wi * (v10 - v00)
    hi = v01 + wi * (v11 - v01)
    vr, vtheta, vz = np.moveaxis(lo + wj * (hi - lo), 1, 0)
    safe = r > 0
    cr = np.where(safe, pts[:, 0] / np.where(safe, r, 1.0), 0.0)
    sr = np.where(safe, pts[:, 1] / np.where(safe, r, 1.0), 0.0)
    out = np.empty((len(fields), len(pts), 3))
    out[..., 0] = vr * cr - vtheta * sr
    out[..., 1] = vr * sr + vtheta * cr
    out[..., 2] = vz
    out[:, ~safe, :2] = 0.0
    out[:, ~inside] = 0.0
    return out, inside


def max_speed(fld: AxisymField, speed=None) -> tuple[float, tuple[float, float]]:
    """Largest |v| over nodes and its (r, z) location; ``speed`` is fld.speed(), if made.
    Ties go to the smallest r index, then the smallest z index: np.argmax on the
    C-ordered array returns the first occurrence."""
    sp = fld.speed() if speed is None else speed
    i, j = np.unravel_index(int(np.argmax(sp)), sp.shape)
    g = fld.grid
    return float(sp[i, j]), (float(i * g.dr), float(g.z_min + j * g.dz))


def max_rspeed(fld: AxisymField, speed=None) -> tuple[float, tuple[float, float]]:
    """Largest r*|v| over nodes and its (r, z) location; ``speed`` as for max_speed."""
    return max_speed(fld, (fld.speed() if speed is None else speed) * fld.grid.r[:, None])


def max_rvtheta(fld: AxisymField) -> float:
    """Global maximum of r*|vtheta| over nodes."""
    return float(np.max(fld.grid.r[:, None] * np.abs(fld.vtheta)))


def boundary_max(fld: AxisymField, speed=None) -> float:
    """Largest speed on the far boundary (r=r_max, z=z_min, z=z_max); ``speed`` as for max_speed."""
    sp = fld.speed() if speed is None else speed
    return float(max(sp[-1, :].max(), sp[:, 0].max(), sp[:, -1].max()))


# ---------------------------------------------------------------------------
# snapshot binary format: magic, version u32, then nr, nz, r_max, z_min,
# z_max, t as little-endian f64, then row-major vr, vtheta, vz, p arrays.
# ---------------------------------------------------------------------------

SNAPSHOT_HEADER = struct.Struct("<4sI6d")

def write_atomic(path, header: bytes, arrays) -> None:
    """Write ``header`` and then each array as little-endian f64 via
    ``<path>.part`` and a rename: a failed write leaves ``path`` as it was."""
    part = Path(f"{path}.part")
    try:
        with open(part, "wb") as fh:
            fh.write(header)
            for arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype="<f8"))
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_snapshot(path, t: float, fld: AxisymField, pressure: np.ndarray) -> None:
    """Write a snapshot in the format above, atomically (write_atomic)."""
    g = fld.grid
    header = SNAPSHOT_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, float(g.nr), float(g.nz),
                                  g.r_max, g.z_min, g.z_max, float(t))
    write_atomic(path, header, (*fld.v, pressure))


def read_snapshot(path) -> tuple[float, AxisymField, np.ndarray]:
    """(t, field, pressure) of a snapshot file.  The header's node counts must be
    whole numbers that give the file's size; both are checked before any array
    is made."""
    with open(path, "rb") as fh:
        head = fh.read(SNAPSHOT_HEADER.size)
        if head[:4] != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {head[:4]!r} in {path}")
        if len(head) < SNAPSHOT_HEADER.size:
            raise ValueError(f"truncated snapshot file {path}")
        _, version, nr_f, nz_f, r_max, z_min, z_max, t = SNAPSHOT_HEADER.unpack(head)
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version} in {path}")
        if not (nr_f.is_integer() and nz_f.is_integer()):
            raise ValueError(f"snapshot file {path} has node counts {nr_f!r}, {nz_f!r}")
        nr, nz = int(nr_f), int(nz_f)
        size, want = os.fstat(fh.fileno()).st_size, len(head) + 32 * (nr + 1) * (nz + 1)
        if size != want:
            raise ValueError(f"{'truncated' if size < want else 'oversized'} snapshot file "
                             f"{path}: {size} bytes where its header gives {want}")
        try:
            grid = Grid(nr, nz, r_max, z_min, z_max)
        except ValueError as exc:
            raise ValueError(f"snapshot file {path}: {exc}") from exc
        data = np.frombuffer(fh.read(), dtype="<f8").reshape((4, *grid.shape))
    return t, AxisymField(grid, data[:3].copy()), data[3].copy()
