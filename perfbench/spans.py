"""Timers and spans recorded from outside the program, by wrapping its public functions.

``SetupTimer`` is the one timer that is on in every run: it sums the time
spent in ``AxisymSolver`` construction (solve workloads) or in snapshot
loading (microscope workload).  ``Tracer`` wraps the calls into every layer
and keeps spans (name, start, end, parent) in memory; it is installed only for
traced rounds.  Both restore the original attributes when removed.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict

import scipy.sparse.linalg as spla

import axiswirl.checks
import axiswirl.cli
import axiswirl.microscope
import axiswirl.solver

_clock = time.perf_counter


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SetupTimer:
    """Sums the wall time of set-up calls: solver construction or snapshot loading."""

    def __init__(self, kind: str):
        self.total = 0.0
        self._patches = _Patches()
        if kind == "solver":
            self._patches.replace(axiswirl.solver.AxisymSolver, "__init__", self._timed)
        else:
            self._patches.replace(axiswirl.cli, "read_snapshot", self._timed)

    def _timed(self, fn):
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total += _clock() - t0
        return wrapper

    def close(self) -> None:
        self._patches.undo()


class _TimedFactor:
    """Stands in for the SuperLU object from splu, so that each solve is a span."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._solve = tracer.wrap("solver.lu_solve", lu.solve)

    def solve(self, *args, **kwargs):
        return self._solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans around the calls into solver, fields, initial, microscope, checks,
    validation and cli; counters for the sizes those calls handle."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches = _Patches()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span; ``after(result, args)`` updates counters."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # placeholder keeps parents ahead of children
            stack.append(index)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                spans[index] = (name, t0, t1, stack[-1] if stack else -1)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def _count(self, key: str, value: float) -> None:
        self.counters[key] += value

    def install(self) -> None:
        rep = self._patches.replace
        solver, cli, mic = axiswirl.solver, axiswirl.cli, axiswirl.microscope
        span = lambda name, after=None: (lambda fn: self.wrap(name, fn, after))  # noqa: E731

        rep(solver.AxisymSolver, "step", span("solver.step"))
        rep(solver, "momentum_rhs", span("solver.momentum_rhs"))
        rep(solver.ProjectionOperator, "project", span("solver.project"))
        rep(solver.ProjectionOperator, "__init__", span("solver.projection_setup"))
        rep(solver, "build_divergence_matrix", span("solver.divergence_matrix"))
        rep(solver.AxisymSolver, "record_diagnostics", span("solver.record_diagnostics"))

        def factor(fn):
            timed = self.wrap("solver.lu_factor", fn)

            def splu(*args, **kwargs):
                lu = timed(*args, **kwargs)
                nnz = lu.L.nnz + lu.U.nnz
                self.counters["solver.lu_fill_nnz"] = max(self.counters["solver.lu_fill_nnz"], nnz)
                return _TimedFactor(lu, self)
            return splu
        rep(spla, "splu", factor)

        rep(cli, "write_snapshot", span(
            "fields.write_snapshot",
            lambda _r, args: self._count("fields.snapshot_bytes_written", os.path.getsize(args[0]))))
        rep(cli, "read_snapshot", span(
            "fields.read_snapshot",
            lambda _r, args: self._count("fields.snapshot_bytes_read", os.path.getsize(args[0]))))
        rep(cli, "generate", span("initial.generate"))

        rep(mic, "find_almost_maximal", span(
            "microscope.find_almost_maximal",
            lambda result, _a: self._count("microscope.candidates", len(result))))
        rep(mic, "rescale_history", span("microscope.rescale_history"))
        rep(mic, "constant_closeness", span("microscope.constant_closeness"))

        def count_rows(fn):
            def wrapper(*args, **kwargs):
                rows = fn(*args, **kwargs)
                self._count("microscope.rows", len(rows))
                return rows
            return wrapper
        rep(cli, "microscope_report", count_rows)

        rep(cli, "run_invariant_suite", span("checks.run_invariant_suite"))
        rep(axiswirl.checks, "check_scaling_covariance", span("checks.check_scaling_covariance"))
        rep(cli, "lamb_oseen_convergence", span("validation.lamb_oseen_convergence"))

    def uninstall(self) -> None:
        self._patches.undo()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals of the spans and counters recorded since the last reset."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[int, float] = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        cli_self = sum(t1 - t0 - child[k] for k, (name, t0, t1, _p) in enumerate(self.spans)
                       if name == "cli.main")
        c = self.counters
        m = {
            "solver.steps": calls["solver.step"],
            "solver.step_s": total["solver.step"],
            "solver.momentum_rhs_s": total["solver.momentum_rhs"],
            "solver.momentum_rhs_calls": calls["solver.momentum_rhs"],
            "solver.project_s": total["solver.project"],
            "solver.project_calls": calls["solver.project"],
            "solver.lu_solve_s": total["solver.lu_solve"],
            "solver.lu_solves": calls["solver.lu_solve"],
            "solver.lu_solves_per_project":
                calls["solver.lu_solve"] / calls["solver.project"] if calls["solver.project"] else 0.0,
            # every LU solve runs inside a projection, as the CG preconditioner
            "solver.cg_overhead_s": total["solver.project"] - total["solver.lu_solve"],
            "solver.projection_setup_s": total["solver.projection_setup"],
            "solver.divergence_matrix_s": total["solver.divergence_matrix"],
            "solver.lu_factor_s": total["solver.lu_factor"],
            "solver.lu_fill_nnz": c["solver.lu_fill_nnz"],
            "solver.record_diagnostics_s": total["solver.record_diagnostics"],
            "fields.write_snapshot_s": total["fields.write_snapshot"],
            "fields.snapshot_bytes_written": c["fields.snapshot_bytes_written"],
            "fields.read_snapshot_s": total["fields.read_snapshot"],
            "fields.snapshot_bytes_read": c["fields.snapshot_bytes_read"],
            "initial.generate_s": total["initial.generate"],
            "microscope.find_almost_maximal_s": total["microscope.find_almost_maximal"],
            "microscope.rescale_history_s": total["microscope.rescale_history"],
            "microscope.constant_closeness_s": total["microscope.constant_closeness"],
            "microscope.candidates": c["microscope.candidates"],
            "microscope.rows": c["microscope.rows"],
            "microscope.rows_per_candidate":
                c["microscope.rows"] / c["microscope.candidates"] if c["microscope.candidates"] else 0.0,
            "checks.run_invariant_suite_s": total["checks.run_invariant_suite"],
            "checks.check_scaling_covariance_s": total["checks.check_scaling_covariance"],
            "validation.lamb_oseen_convergence_s": total["validation.lamb_oseen_convergence"],
            "cli.self_s": cli_self,
            "trace.spans": len(self.spans),
        }
        return {k: float(v) for k, v in m.items()}

    def dump(self) -> dict:
        """Spans as columns, for the trace file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        return {
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
        }
