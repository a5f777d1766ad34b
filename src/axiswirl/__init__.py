"""Axisymmetric Navier-Stokes solver with swirl and zoom diagnostics."""

from .fields import (
    AxisymField,
    Grid,
    ScalarField,
    SnapshotHistory,
    apply_axis_conditions,
    divergence,
    make_grid,
    max_rspeed,
    max_speed,
)
from .solver import AxisymSolver, SolverConfig, momentum_rhs, mms_residual

__all__ = [
    "AxisymField",
    "AxisymSolver",
    "Grid",
    "ScalarField",
    "SnapshotHistory",
    "SolverConfig",
    "apply_axis_conditions",
    "divergence",
    "make_grid",
    "max_rspeed",
    "max_speed",
    "mms_residual",
    "momentum_rhs",
]
