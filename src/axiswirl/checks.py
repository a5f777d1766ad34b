"""Executable property suite: every falsifiable bound the run must respect.

Each check returns a report dict carrying the measured value, the bound and
the margin; ``run_invariant_suite`` aggregates them and the CLI exits nonzero
on any violation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    AxisymField,
    ScalarField,
    SnapshotHistory,
    make_grid,
    max_rspeed,
    max_speed,
)
from .solver import build_divergence_matrix, divergence, kinetic_energy, mms_residual


@dataclass
class InvariantConfig:
    h0: float = 0.1
    energy_tol: float = 1e-8  # relative per step
    max_principle_tol: float = 1e-6  # relative per step
    divergence_factor: float = 10.0
    scaling_lambda: float = 2.0

    def __post_init__(self):
        if self.h0 <= 0:
            raise ValueError("h0 must be positive")
        for name in ("energy_tol", "max_principle_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _series_nonincreasing(values: np.ndarray, rel_tol: float) -> tuple[bool, float]:
    """Check per-step monotone decrease within a relative tolerance.

    Returns (ok, worst relative increase)."""
    worst = 0.0
    scale = float(np.max(np.abs(values))) or 1.0
    for a, b in zip(values[:-1], values[1:]):
        inc = (b - a) / scale
        worst = max(worst, inc)
    return worst <= rel_tol, worst


def max_rvtheta(fld: AxisymField) -> float:
    return float(np.max(fld.grid.r[:, None] * np.abs(fld.vtheta)))


def check_max_principle(history: SnapshotHistory, n0: float,
                        rel_tol: float = 1e-6) -> dict:
    """sup r|vtheta| stays below N0 and is non-increasing along the run."""
    vals = np.array([max_rvtheta(s.field) for s in history])
    below = bool(np.all(vals <= n0 * (1 + rel_tol)))
    mono, worst_inc = _series_nonincreasing(vals, rel_tol)
    return {
        "name": "max_principle",
        "pass": below and mono,
        "measured": float(vals.max(initial=0.0)),
        "bound": n0,
        "margin": n0 - float(vals.max(initial=0.0)),
        "worst_step_increase": worst_inc,
        "series": vals,
    }


def check_short_time_bound(history: SnapshotHistory, n0: float, h0: float) -> dict:
    """sup of Q(t) for t <= h0 against 2 N0, plus the empirical largest such h0."""
    times = history.times
    qs = np.array([max_speed(s.field)[0] for s in history])
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


def check_energy(history: SnapshotHistory, rel_tol: float = 1e-8) -> dict:
    """Cylindrically weighted kinetic energy is non-increasing across snapshots."""
    energies = np.array([kinetic_energy(s.field) for s in history])
    ok, worst_inc = _series_nonincreasing(energies, rel_tol)
    return {
        "name": "energy",
        "pass": ok,
        "measured": worst_inc,
        "bound": rel_tol,
        "margin": rel_tol - worst_inc,
        "series": energies,
    }


def check_divergence(history: SnapshotHistory, projection_tol: float = 1e-10,
                     factor: float = 10.0) -> dict:
    """Sup-norm discrete divergence of every snapshot against factor*projection_tol."""
    D = build_divergence_matrix(history.snapshots[0].field.grid)
    sups = np.array([float(np.max(np.abs(divergence(D, s.field)))) for s in history])
    bound = factor * projection_tol
    worst = float(sups.max(initial=0.0))
    return {
        "name": "divergence",
        "pass": worst <= bound,
        "measured": worst,
        "bound": bound,
        "margin": bound - worst,
        "series": sups,
    }


def rescale_snapshot_sequence(history: SnapshotHistory, lam: float) -> SnapshotHistory:
    """The lambda-zoomed sequence lam*v(lam x, lam^2 t), lam^2*p(lam x, lam^2 t).

    The new grid keeps the node counts with every extent divided by lam, so
    lam times its node (i, j) is the original node (i, j) for any lam > 0: the
    zoom is exact, a scaling of the nodal arrays with time divided by lam^2.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    g = history.snapshots[0].field.grid
    gg = make_grid(g.nr, g.nz, g.r_max / lam, g.z_min / lam, g.z_max / lam)
    out = SnapshotHistory()
    for snap in history:
        f = snap.field
        fld = AxisymField(gg, lam * f.vr, lam * f.vtheta, lam * f.vz)
        p = ScalarField(gg, lam**2 * snap.pressure.values)
        out.push(snap.t / lam**2, fld, p)
    return out


def check_scaling_covariance(history: SnapshotHistory, lam: float = 2.0,
                             mu: float = 1.0) -> dict:
    """Zoom covariance: residuals scale by lam^3, max r|v| is invariant."""
    res0 = mms_residual(history, mu=mu)
    rescaled = rescale_snapshot_sequence(history, lam)
    res1 = mms_residual(rescaled, mu=mu)
    eqs = ("vr", "vtheta", "vz")
    num = sum(res1[e]["sup"] for e in eqs)
    den = sum(res0[e]["sup"] for e in eqs)
    ratio = num / den if den > 0 else (1.0 if lam == 1.0 else float("nan"))
    per_eq = {
        e: (res1[e]["sup"] / res0[e]["sup"] if res0[e]["sup"] > 0 else float("nan"))
        for e in eqs
    }
    r0 = max(max_rspeed(s.field)[0] for s in history)
    r1 = max(max_rspeed(s.field)[0] for s in rescaled)
    inv_err = abs(r1 - r0) / r0 if r0 > 0 else 0.0
    expected = lam**3
    ok = (abs(ratio - expected) <= expected * 0.15) and inv_err <= 0.01
    return {
        "name": "scaling_covariance",
        "pass": ok,
        "measured": ratio,
        "bound": expected,
        "margin": expected * 0.15 - abs(ratio - expected),
        "per_equation": per_eq,
        "rspeed_invariance_error": inv_err,
    }


def run_invariant_suite(history: SnapshotHistory, n0: float, config: InvariantConfig,
                        projection_tol: float = 1e-10, mu: float = 1.0) -> list[dict]:
    """Every check on ``history``; ``projection_tol`` and ``mu`` are the solver's."""
    reports = [
        check_max_principle(history, n0, config.max_principle_tol),
        check_short_time_bound(history, n0, config.h0),
        check_energy(history, config.energy_tol),
        check_divergence(history, projection_tol, config.divergence_factor),
    ]
    if len(history) >= 3:
        reports.append(check_scaling_covariance(history, config.scaling_lambda, mu))
    return reports
