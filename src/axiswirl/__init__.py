"""Axisymmetric Navier-Stokes solver with swirl and zoom diagnostics."""

from .fields import (
    AxisymField,
    Grid,
    SnapshotHistory,
    max_rspeed,
    max_speed,
)
from .solver import (
    AxisymSolver,
    SolverConfig,
    build_divergence_matrix,
    divergence,
    momentum_rhs,
)

__all__ = [
    "AxisymField",
    "AxisymSolver",
    "Grid",
    "SnapshotHistory",
    "SolverConfig",
    "build_divergence_matrix",
    "divergence",
    "max_rspeed",
    "max_speed",
    "momentum_rhs",
]
