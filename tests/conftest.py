"""Shared fixtures: small grids, canned fields and run outputs used across the suite."""
from pathlib import Path

import numpy as np
import pytest

from axiswirl.fields import AxisymField, Grid
from axiswirl.initial import DataSpec, generate, lamb_oseen_profile


@pytest.fixture
def grid16():
    return Grid(16, 16, 2.0, -1.0, 1.0)


@pytest.fixture
def grid32():
    return Grid(32, 32, 4.0, -4.0, 4.0)


@pytest.fixture
def ring_field(grid32):
    return generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), grid32)


def rigid_rotation(grid, omega=0.7):
    fld = AxisymField.zeros(grid)
    fld.vtheta = omega * grid.r[:, None] * np.ones(grid.shape)
    return fld


def lamb_oseen_peak(circulation, nu, t, r_hi=50.0, n=200_001):
    """(peak speed, peak radius) from a dense 1D scan of the analytic profile."""
    r = np.linspace(0.0, r_hi * np.sqrt(4 * nu * t), n)
    v = lamb_oseen_profile(r, circulation, nu, t)
    i = int(np.argmax(v))
    return float(v[i]), float(r[i])


def run_outputs(directory):
    """{file name: bytes} of a run directory's diagnostics.csv and snap_*.bin files."""
    directory = Path(directory)
    paths = [directory / "diagnostics.csv", *sorted(directory.glob("snap_*.bin"))]
    return {p.name: p.read_bytes() for p in paths}
