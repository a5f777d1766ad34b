"""Every check of ``validate``: the a-priori bounds, the zoom and the convergence study.

Each check returns one report shape, built by ``_report``: the name, the
verdict, the measured value, the bound, the margin bound - measured and any
named extras.  A report passes only when measured <= bound, so a passing
report never shows a negative margin.  The checks of the a-priori bounds read
the per-step series that the run's ``DiagnosticsRecord``s measured; only the
zoom check needs states, and the convergence study makes its own runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .fields import AxisymField, Grid, SnapshotHistory, max_speed
from .initial import lamb_oseen_field, lamb_oseen_profile, n0_norms
from .solver import AxisymSolver, DiagnosticsRecord, SolverConfig

# bound on max|lam*u - u_zoom| / (lam*sup|u|) over the compared steps: the shipped
# configs measure at most 5.6e-15 and a ring at 16^2 to 256^2 at most 1.5e-14 (lam
# up to 3.3); a viscosity off by 1 % in the zoomed run reads 1.2e-2 on a 32^2 ring
ZOOM_TOL = 1e-12
# relative per-step increase allowed to the kinetic energy and to sup r|vtheta|
ENERGY_TOL = 1e-8
MAX_PRINCIPLE_TOL = 1e-6
# the divergence bound, in units of the solver's projection_tol
DIVERGENCE_FACTOR = 10.0
# relative slack of the N0 bounds on the data and of the short-time bound 2 N0
ROUNDOFF_TOL = 1e-12


@dataclass
class InvariantConfig:
    h0: float = 0.1

    def __post_init__(self):
        if self.h0 <= 0:
            raise ValueError("h0 must be positive")


def _report(name: str, measured: float, bound: float, ok: bool = True, **extras) -> dict:
    """The one report shape; it passes when ``ok`` holds and measured <= bound."""
    measured, bound = float(measured), float(bound)
    return {"name": name, "pass": bool(ok) and measured <= bound, "measured": measured,
            "bound": bound, "margin": bound - measured, **extras}


def report_line(rep: dict) -> str:
    """``name: measured=.. bound=.. margin=..[ extra=..] PASS|FAIL``: the extras are
    the keys after ``_report``'s five, and a list extra prints comma-separated."""
    extras = "".join(
        f" {key}=" + (",".join(f"{v:.6g}" for v in value) if isinstance(value, list)
                      else f"{value:.6g}")
        for key, value in list(rep.items())[5:])
    return (f"{rep['name']}: measured={rep['measured']:.6g} bound={rep['bound']:.6g} "
            f"margin={rep['margin']:.3g}{extras} {'PASS' if rep['pass'] else 'FAIL'}")


def _worst_increase(values: np.ndarray) -> float:
    """Largest step-to-step increase of a series, relative to its sup |value|; 0 if none."""
    scale = float(np.max(np.abs(values))) or 1.0
    return float(np.max(np.diff(values) / scale, initial=0.0))


def check_n0_bounds(fld: AxisymField, n0: float) -> dict:
    """The data's sup |v|, weighted L2 norm and sup r|v|, the largest against N0."""
    sup, l2, rsup = n0_norms(fld)
    return _report("n0_bounds", max(sup, l2, rsup), n0 * (1 + ROUNDOFF_TOL),
                   sup=sup, l2=l2, rsup=rsup)


def check_max_principle(rvtheta: ArrayLike, n0: float) -> dict:
    """sup r|vtheta| (per step) stays below N0 and is non-increasing along the run."""
    vals = np.asarray(rvtheta, dtype=float)
    worst_inc = _worst_increase(vals)
    return _report("max_principle", vals.max(initial=0.0), n0 * (1 + MAX_PRINCIPLE_TOL),
                   ok=worst_inc <= MAX_PRINCIPLE_TOL, worst_step_increase=worst_inc)


def check_short_time_bound(times: ArrayLike, q: ArrayLike, n0: float, h0: float) -> dict:
    """sup of Q(t) for t <= h0 against 2 N0; ``empirical_h0`` is the first time
    Q exceeds 2 N0, or the last time if it never does."""
    times = np.asarray(times, dtype=float)
    qs = np.asarray(q, dtype=float)
    sup_q = qs[times <= h0 + 1e-14].max(initial=0.0)
    violating = times[qs > 2 * n0]
    empirical_h0 = float(times[-1]) if len(violating) == 0 else float(violating[0])
    return _report("short_time_bound", sup_q, 2 * n0 * (1 + ROUNDOFF_TOL),
                   empirical_h0=empirical_h0)


def check_energy(energy: ArrayLike) -> dict:
    """Cylindrically weighted kinetic energy (per step) is non-increasing."""
    return _report("energy", _worst_increase(np.asarray(energy, dtype=float)), ENERGY_TOL)


def check_divergence(max_divergence: ArrayLike, projection_tol: float) -> dict:
    """Sup-norm discrete divergence (per step) against DIVERGENCE_FACTOR*projection_tol."""
    sups = np.asarray(max_divergence, dtype=float)
    return _report("divergence", sups.max(initial=0.0), DIVERGENCE_FACTOR * projection_tol)


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
    zoom_grid = Grid(g.nr, g.nz, g.r_max / lam, g.z_min / lam, g.z_max / lam)
    zoom = AxisymSolver(AxisymField(zoom_grid, lam * snaps[0].field.v), solver)
    worst = scale = 0.0
    for prev, snap in zip(snaps[:-1], snaps[1:]):
        zoom.step((snap.t - prev.t) / lam**2)
        worst = max(worst, float(np.max(np.abs(lam * snap.field.v - zoom.state.v))))
        scale = max(scale, lam * max_speed(snap.field)[0])
    return _report("scaling_covariance", worst / scale if scale > 0 else 0.0, ZOOM_TOL,
                   steps=len(snaps) - 1)


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


def lamb_oseen_run(nr: int, nz: int, t_end: float, r_max: float = 8.0, z_half: float = 8.0,
                   snapshot_every: int = 1, projection_tol: float = SolverConfig.projection_tol,
                   history: SnapshotHistory | None = None) -> tuple[AxisymSolver, float]:
    """Evolve the analytic pure-swirl profile (circulation 1, from t = 0.5)
    and return (solver, Linf error).

    The far-field boundary holds the initial values: the profile decays like
    1/r, so the held values differ from the exact later-time solution by an
    exponentially small amount.  ``history``, if given, receives the initial
    state and every ``snapshot_every``-th step; otherwise nothing is kept.
    """
    grid = Grid(nr, nz, r_max, -z_half, z_half)
    cfg = SolverConfig(cfl=0.4, t_end=t_end, projection_tol=projection_tol,
                       snapshot_every=snapshot_every, boundary="hold")
    solver = AxisymSolver(lamb_oseen_field(1.0, 0.5, grid), cfg)
    if history is not None:
        history.record(solver)
    solver.run(t_end, on_snapshot=history.record if history is not None else None)
    exact = lamb_oseen_profile(grid.r, 1.0, 0.5 + solver.t)
    return solver, float(np.max(np.abs(solver.state.vtheta - exact[:, None])))


def lamb_oseen_convergence(n: int = 32, t_end: float = 0.1) -> dict:
    """Second order against the analytic pure-swirl vortex: the ratio of the
    errors at n^2 and (2n)^2 lies within 1 of 4."""
    errors = [lamb_oseen_run(m, m, t_end)[1] for m in (n, 2 * n)]
    ratio = errors[0] / errors[1]
    return _report("lamb_oseen_convergence", abs(ratio - 4.0), 1.0, ratio=ratio, errors=errors)
