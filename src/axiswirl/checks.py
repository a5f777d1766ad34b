"""Executable property suite: every falsifiable bound the run must respect.

Each check returns a report dict carrying the measured value, the bound and
the margin; ``run_invariant_suite`` aggregates them and the CLI exits nonzero
on any violation.  The checks of the a-priori bounds read the per-step series
that the run's ``DiagnosticsRecord``s measured; only the zoom check needs states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .fields import AxisymField, SnapshotHistory, make_grid, max_speed
from .solver import AxisymSolver, DiagnosticsRecord, SolverConfig

# bound on max|lam*u - u_zoom| / (lam*sup|u|) over the compared steps: the
# shipped configs measure at most 5.6e-15 and a ring at 16^2 to 256^2 at most
# 1.5e-14 (lam up to 3.3); a viscosity off by 1 % in the zoomed run reads 1e-3
ZOOM_TOL = 1e-12
# relative per-step increase allowed to the kinetic energy and to sup r|vtheta|
ENERGY_TOL = 1e-8
MAX_PRINCIPLE_TOL = 1e-6
# the divergence bound, in units of the solver's projection_tol
DIVERGENCE_FACTOR = 10.0


@dataclass
class InvariantConfig:
    h0: float = 0.1

    def __post_init__(self):
        if self.h0 <= 0:
            raise ValueError("h0 must be positive")


def _series_nonincreasing(values: np.ndarray, rel_tol: float) -> tuple[bool, float]:
    """Check per-step monotone decrease within a relative tolerance.

    Returns (ok, worst relative increase)."""
    worst = 0.0
    scale = float(np.max(np.abs(values))) or 1.0
    for a, b in zip(values[:-1], values[1:]):
        inc = (b - a) / scale
        worst = max(worst, inc)
    return worst <= rel_tol, worst


def check_max_principle(rvtheta: ArrayLike, n0: float) -> dict:
    """sup r|vtheta| (per step) stays below N0 and is non-increasing along the run."""
    vals = np.asarray(rvtheta, dtype=float)
    below = bool(np.all(vals <= n0 * (1 + MAX_PRINCIPLE_TOL)))
    mono, worst_inc = _series_nonincreasing(vals, MAX_PRINCIPLE_TOL)
    return {
        "name": "max_principle",
        "pass": below and mono,
        "measured": float(vals.max(initial=0.0)),
        "bound": n0,
        "margin": n0 - float(vals.max(initial=0.0)),
        "worst_step_increase": worst_inc,
        "series": vals,
    }


def check_short_time_bound(times: ArrayLike, q: ArrayLike, n0: float, h0: float) -> dict:
    """sup of Q(t) for t <= h0 against 2 N0, plus the empirical largest such h0."""
    times = np.asarray(times, dtype=float)
    qs = np.asarray(q, dtype=float)
    in_window = times <= h0 + 1e-14
    sup_q = float(qs[in_window].max(initial=0.0))
    ok = sup_q <= 2 * n0 * (1 + 1e-12)
    violating = times[qs > 2 * n0]
    empirical_h0 = float(times[-1]) if len(violating) == 0 else float(violating[0])
    return {
        "name": "short_time_bound",
        "pass": ok,
        "measured": sup_q,
        "bound": 2 * n0,
        "margin": 2 * n0 - sup_q,
        "h0": h0,
        "empirical_h0": empirical_h0,
    }


def check_energy(energy: ArrayLike) -> dict:
    """Cylindrically weighted kinetic energy (per step) is non-increasing."""
    energies = np.asarray(energy, dtype=float)
    ok, worst_inc = _series_nonincreasing(energies, ENERGY_TOL)
    return {
        "name": "energy",
        "pass": ok,
        "measured": worst_inc,
        "bound": ENERGY_TOL,
        "margin": ENERGY_TOL - worst_inc,
        "series": energies,
    }


def check_divergence(max_divergence: ArrayLike, projection_tol: float) -> dict:
    """Sup-norm discrete divergence (per step) against DIVERGENCE_FACTOR*projection_tol."""
    sups = np.asarray(max_divergence, dtype=float)
    bound = DIVERGENCE_FACTOR * projection_tol
    worst = float(sups.max(initial=0.0))
    return {
        "name": "divergence",
        "pass": worst <= bound,
        "measured": worst,
        "bound": bound,
        "margin": bound - worst,
        "series": sups,
    }


def check_scaling_covariance(history: SnapshotHistory, solver: SolverConfig,
                             lam: float = 2.0) -> dict:
    """Zoom covariance of the solver: v -> lam v(lam x, lam^2 t) maps runs to runs.

    A second solver starts from lam*u0 (u0 the first snapshot) on the grid
    with the same node counts and every extent divided by lam, and takes the
    first two steps of ``history`` (one if it has no more), each
    (t_{k+1} - t_k)/lam^2 long; the history must hold consecutive steps.
    Every discrete operator is covariant under this zoom, so its states equal
    lam times the recorded ones up to roundoff.  The steps are pinned, not
    taken from the CFL rule: dt = cfl h/max(1, q) is not covariant, since its
    floor at q = 1 fixes a velocity scale.
    """
    snaps = history.snapshots[:3]
    g = snaps[0].field.grid
    zoom_grid = make_grid(g.nr, g.nz, g.r_max / lam, g.z_min / lam, g.z_max / lam)
    u0 = snaps[0].field
    zoom = AxisymSolver(AxisymField(zoom_grid, lam * u0.vr, lam * u0.vtheta, lam * u0.vz),
                        solver)
    worst = scale = 0.0
    for prev, snap in zip(snaps[:-1], snaps[1:]):
        zoom.step((snap.t - prev.t) / lam**2)
        f = snap.field
        for name in ("vr", "vtheta", "vz"):
            diff = np.max(np.abs(lam * getattr(f, name) - getattr(zoom.state, name)))
            worst = max(worst, float(diff))
        scale = max(scale, lam * max_speed(f)[0])
    measured = worst / scale if scale > 0 else 0.0
    return {
        "name": "scaling_covariance",
        "pass": measured <= ZOOM_TOL,
        "measured": measured,
        "bound": ZOOM_TOL,
        "margin": ZOOM_TOL - measured,
        "steps": len(snaps) - 1,
    }


def run_invariant_suite(rows: list[DiagnosticsRecord], first: SnapshotHistory, n0: float,
                        invariants: InvariantConfig, solver: SolverConfig) -> list[dict]:
    """Every check on a run of ``solver``: ``rows`` holds the record of every
    step, ``first`` the run's first states (consecutive steps) for the zoom check."""
    def series(name: str) -> np.ndarray:
        return np.array([getattr(row, name) for row in rows])

    reports = [
        check_max_principle(series("max_rvtheta"), n0),
        check_short_time_bound(series("t"), series("q"), n0, invariants.h0),
        check_energy(series("energy")),
        check_divergence(series("max_divergence"), solver.projection_tol),
    ]
    if len(first) >= 2:
        reports.append(check_scaling_covariance(first, solver))
    return reports
