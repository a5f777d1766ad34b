"""Analytic-oracle validation runs (pure-swirl diffusing vortex)."""
from __future__ import annotations

import numpy as np

from .fields import SnapshotHistory, make_grid
from .initial import lamb_oseen_field, lamb_oseen_profile
from .solver import AxisymSolver, SolverConfig


def lamb_oseen_run(
    nr: int,
    nz: int,
    t_end: float,
    r_max: float = 8.0,
    z_half: float = 8.0,
    circulation: float = 1.0,
    nu: float = 1.0,
    t_offset: float = 0.5,
    snapshot_every: int = 1,
    projection_tol: float = 1e-10,
    history: SnapshotHistory | None = None,
) -> tuple[AxisymSolver, float]:
    """Evolve the analytic pure-swirl profile and return (solver, Linf error).

    The far-field boundary holds the initial values: the profile decays like
    1/r, so the held values differ from the exact later-time solution by an
    exponentially small amount.  ``history``, if given, receives the initial
    state and every ``snapshot_every``-th step; otherwise nothing is kept.
    """
    grid = make_grid(nr, nz, r_max, -z_half, z_half)
    initial = lamb_oseen_field(circulation, nu, t_offset, grid)
    cfg = SolverConfig(
        mu=nu,
        cfl=0.4,
        t_end=t_end,
        projection_tol=projection_tol,
        snapshot_every=snapshot_every,
        boundary="hold",
    )
    solver = AxisymSolver(initial, cfg)
    if history is not None:
        history.record(solver)
    solver.run(t_end, on_snapshot=history.record if history is not None else None)
    exact = lamb_oseen_profile(grid.r, circulation, nu, t_offset + solver.t)
    err = float(np.max(np.abs(solver.state.vtheta - exact[:, None])))
    return solver, err


def lamb_oseen_convergence(
    resolutions: tuple[int, ...] = (64, 128),
    t_end: float = 0.1,
) -> dict:
    """Errors against the analytic profile at successive resolutions, with ratios."""
    errors = []
    for n in resolutions:
        _, err = lamb_oseen_run(n, n, t_end)
        errors.append(err)
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return {"resolutions": list(resolutions), "errors": errors, "ratios": ratios}
