"""Initial-data generators and the analytic pure-swirl oracle field.

The vortex-ring generator builds its meridional part from a Stokes stream
function, so the analytic field is exactly divergence free, and rescales the
result to satisfy the three initial bounds (sup |v|, weighted L2, sup r|v|)
with a prescribed constant N0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import AxisymField, Grid
from .solver import volume_weights


@dataclass
class DataSpec:
    kind: str = "vortex_ring_swirl"  # lamb_oseen | vortex_ring_swirl | stream_random
    n0: float = 1.0
    # lamb_oseen
    circulation: float = 1.0
    nu: float = 1.0
    t_offset: float = 0.5
    # vortex_ring_swirl
    ring_r: float = 1.5
    core_radius: float = 0.35
    swirl_amplitude: float = 0.3
    # stream_random
    seed: int = 0
    modes: int = 4

    def __post_init__(self):
        if self.n0 <= 0:
            raise ValueError(f"n0 must be positive, got {self.n0}")
        if self.kind not in ("lamb_oseen", "vortex_ring_swirl", "stream_random"):
            raise ValueError(f"unknown data kind {self.kind!r}")
        if self.core_radius <= 0:
            raise ValueError(f"core_radius must be positive, got {self.core_radius}")
        if self.kind == "lamb_oseen" and self.t_offset <= 0:
            raise ValueError(f"t_offset must be positive, got {self.t_offset}")
        if self.kind == "vortex_ring_swirl" and self.ring_r <= 3 * self.core_radius:
            raise ValueError(
                f"ring center r={self.ring_r} must exceed 3x core radius {self.core_radius}"
            )


def lamb_oseen_profile(r: np.ndarray, circulation: float, nu: float, t: float) -> np.ndarray:
    """Swirl speed (circulation/(2 pi r))(1 - exp(-r^2/(4 nu t))); regular at r=0."""
    r = np.asarray(r, dtype=float)
    small = r < 1e-8
    rr = np.where(small, 1.0, r)
    out = circulation / (2 * np.pi * rr) * (-np.expm1(-(rr**2) / (4 * nu * t)))
    out = np.where(small, circulation * r / (8 * np.pi * nu * t), out)
    return out


def lamb_oseen_field(circulation: float, nu: float, t_offset: float, grid: Grid) -> AxisymField:
    """Pure-swirl analytic solution sampled on the grid at time ``t_offset`` > 0."""
    fld = AxisymField.zeros(grid)
    fld.vtheta = lamb_oseen_profile(grid.r, circulation, nu, t_offset)[:, None]
    return fld


def _ring_meridional(grid: Grid, amp: float, r_c: float, z_c: float,
                     delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vr, vz, e): vr = -(1/r) dPsi/dz, vz = (1/r) dPsi/dr for Psi = amp r^2 e,
    e = exp(-((r - r_c)^2 + (z - z_c)^2)/delta^2) the ring's Gaussian.

    Evaluated analytically, so the continuous field is exactly divergence free.
    """
    R, Z = np.meshgrid(grid.r, grid.z, indexing="ij")
    e = np.exp(-((R - r_c) ** 2 + (Z - z_c) ** 2) / delta**2)
    vr = amp * R * e * 2 * (Z - z_c) / delta**2
    vz = amp * e * (2 - 2 * R * (R - r_c) / delta**2)
    return vr, vz, e


def n0_norms(fld: AxisymField) -> tuple[float, float, float]:
    """(sup |v|, cylindrical-weighted L2 norm, sup r|v|) of a field."""
    sp = fld.speed()
    w = volume_weights(fld.grid)
    l2 = float(np.sqrt(2 * np.pi * np.sum(w * sp**2)))
    return float(sp.max()), l2, float((fld.grid.r[:, None] * sp).max())


def _scaled_to_n0(fld: AxisymField, n0: float) -> AxisymField:
    """``fld`` scaled in place so that the largest of its three norms is n0."""
    sup, l2, rsup = n0_norms(fld)
    worst = max(sup, l2, rsup)
    if worst > 0:
        fld.v *= n0 / worst
    return fld


def vortex_ring_swirl(spec: DataSpec, grid: Grid) -> AxisymField:
    """Swirling vortex-ring data centred on z = 0, rescaled so the three bounds hold with n0."""
    vr, vz, e = _ring_meridional(grid, 1.0, spec.ring_r, 0.0, spec.core_radius)
    vtheta = spec.swirl_amplitude * (grid.r[:, None] / spec.ring_r) * e
    return _scaled_to_n0(AxisymField(grid, np.stack([vr, vtheta, vz])), spec.n0)


def stream_random(spec: DataSpec, grid: Grid) -> AxisymField:
    """Random smooth divergence-free data from a mode sum of ring stream functions."""
    rng = np.random.default_rng(spec.seed)
    fld = AxisymField.zeros(grid)
    r_lo, r_hi = 0.25 * grid.r_max, 0.75 * grid.r_max
    z_span = grid.z_max - grid.z_min
    for _ in range(spec.modes):
        r_c = rng.uniform(r_lo, r_hi)
        z_c = rng.uniform(grid.z_min + 0.25 * z_span, grid.z_max - 0.25 * z_span)
        delta = rng.uniform(0.08, 0.2) * grid.r_max
        amp = rng.normal()
        dvr, dvz, e = _ring_meridional(grid, amp, r_c, z_c, delta)
        fld.vr += dvr
        fld.vz += dvz
        fld.vtheta += rng.normal() * (grid.r[:, None] / r_c) * e
    return _scaled_to_n0(fld, spec.n0)


def generate(spec: DataSpec, grid: Grid) -> AxisymField:
    if spec.kind == "lamb_oseen":
        return lamb_oseen_field(spec.circulation, spec.nu, spec.t_offset, grid)
    if spec.kind == "vortex_ring_swirl":
        return vortex_ring_swirl(spec, grid)
    return stream_random(spec, grid)
