"""Command-line orchestration: simulate, microscope, validate, sweep.

Exit codes: 0 ok, 1 usage/config error, 2 numerical failure, 3 invariant
violation.  Emitted CSVs are byte-stable for identical config and seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .checks import (
    check_n0_bounds,
    lamb_oseen_convergence,
    report_line,
    run_invariant_suite,
)
from .config import (
    ConfigError,
    RunConfig,
    parse_config,
    serialize_config,
    sweep_members,
)
from .fields import SnapshotHistory, read_snapshot, write_snapshot
from .initial import generate
from .microscope import microscope_report, write_cube
from .solver import AxisymSolver, DiagnosticsRecord, PoissonError, UnstableError

# the fields of solver.DiagnosticsRecord, in order, with q and r_speed headed Q and R
DIAG_COLUMNS = tuple({"q": "Q", "r_speed": "R"}.get(f.name, f.name)
                     for f in dataclasses.fields(DiagnosticsRecord))
MICRO_COLUMNS = (
    "mode", "t0", "r0", "z0", "Q", "alpha", "beta", "ratio", "L",
    "sup_dist", "grad_sup", "hess_sup", "dt_sup", "holder", "total",
    "swirl_ratio", "masked_fraction", "capped",
)


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    return parse_config(text)


def _snapshot_paths(directory: Path) -> list[Path]:
    return sorted(directory.glob("snap_*.bin"))


def run_simulate(cfg: RunConfig, resume: bool = False) -> int:
    outdir = Path(cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)

    # snapshots and diagnostics go to disk as the solver reports them; a fresh
    # run removes the snapshots of any earlier run in its directory once its
    # solver is set up (data and first projection), so a failed set-up keeps them
    existing = _snapshot_paths(outdir) if resume else []
    if existing:
        t0, fld, _ = read_snapshot(existing[-1])
        step0 = int(existing[-1].stem.split("_")[1])
        solver = AxisymSolver(fld, cfg.solver, t0=t0, step0=step0)
    else:
        solver = AxisymSolver(generate(cfg.data, cfg.grid), cfg.solver)
        for path in _snapshot_paths(outdir):
            path.unlink()
        (outdir / "config.yaml").write_text(serialize_config(cfg), encoding="utf-8")

    diag_path = outdir / "diagnostics.csv"
    head = ",".join(DIAG_COLUMNS) + "\n"
    if existing and diag_path.exists():
        # keep the rows up to the snapshot the run resumes from, drop the later ones
        head, *rows = diag_path.read_text(encoding="utf-8").splitlines(keepends=True)
        head += "".join(row for row in rows if int(row.split(",", 1)[0]) <= solver.step_count)
    with open(diag_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)

        def emit(rec) -> None:
            fh.write(",".join(map(str, dataclasses.astuple(rec))) + "\n")

        def dump_snapshot(s: AxisymSolver) -> None:
            write_snapshot(outdir / f"snap_{s.step_count:08d}.bin", s.t, s.state, s.pressure)

        # a resumed run has both its starting row and its starting snapshot
        if not existing:
            emit(solver.record_diagnostics())
            dump_snapshot(solver)
        start = solver.step_count
        solver.run(cfg.solver.t_end, on_snapshot=dump_snapshot, on_diagnostics=emit)
        # the end state goes to disk also off the snapshot cadence
        if solver.step_count != start and solver.step_count % cfg.solver.snapshot_every:
            dump_snapshot(solver)
    return 0


def run_microscope(cfg: RunConfig, snapshot_dir: str, out_path: str | None = None,
                   dump_cubes: bool = False) -> int:
    directory = Path(snapshot_dir)
    paths = _snapshot_paths(directory)
    if not paths:
        raise ConfigError(f"no snapshots found in {directory}")
    history = SnapshotHistory()
    for p in paths:
        history.push(*read_snapshot(p)[:2])  # time and velocities: no pressure is kept
    rows = microscope_report(history, cfg.microscope)
    out = Path(out_path) if out_path else directory / "microscope.csv"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        # an earlier dump's cubes, maybe more than this one's, go once the report opens
        if dump_cubes:
            for path in directory.glob("cube_*.bin"):
                path.unlink()
        fh.write(",".join(MICRO_COLUMNS) + "\n")
        for k, (zoom, sample, rep) in enumerate(rows):
            row = (
                zoom.mode, zoom.t0, zoom.r0, zoom.z0, zoom.q, zoom.alpha, zoom.beta,
                zoom.ratio, sample.length, rep.sup_dist, rep.grad_sup, rep.hess_sup,
                rep.dt_sup, rep.holder_seminorm, rep.total, rep.swirl_ratio,
                sample.masked_fraction, int(sample.capped),
            )
            fh.write(",".join(map(str, row)) + "\n")
            if dump_cubes:
                write_cube(directory / f"cube_{k:04d}.bin", sample)
    return 0


def run_validate(cfg: RunConfig) -> int:
    initial = generate(cfg.data, cfg.grid)
    n0_report = check_n0_bounds(initial, cfg.data.n0)

    # the convergence study first: its solvers are freed before the run builds its own
    conv = lamb_oseen_convergence()

    # the suite checks every step's diagnostics, whatever the snapshot cadence
    # (its tolerances are per step); the zoom check needs the first three states
    solver = AxisymSolver(initial, dataclasses.replace(cfg.solver, snapshot_every=1))
    rows, first = [solver.record_diagnostics()], SnapshotHistory()
    first.record(solver)

    def keep_first(s: AxisymSolver) -> None:
        if len(first) < 3:
            first.record(s)

    solver.run(cfg.solver.t_end, on_snapshot=keep_first, on_diagnostics=rows.append)
    reports = [n0_report, *run_invariant_suite(rows, first, cfg.data.n0, cfg.invariants,
                                               cfg.solver), conv]
    for rep in reports:
        print(report_line(rep))
    return 0 if all(rep["pass"] for rep in reports) else 3


def run_sweep(cfg: RunConfig) -> int:
    if not cfg.sweep:
        raise ConfigError("sweep: no sweep section in config")
    keys = sorted(cfg.sweep)
    outdir = Path(cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = outdir / "sweep_summary.csv"
    with open(summary, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["run"] + keys + list(DIAG_COLUMNS)) + "\n")
        for k, (combo, sub) in enumerate(sweep_members(cfg)):
            subdir = outdir / f"sweep_{k:04d}"
            run_simulate(dataclasses.replace(
                sub, output=dataclasses.replace(sub.output, directory=str(subdir))))
            last = Path(subdir, "diagnostics.csv").read_text(encoding="utf-8").strip()
            last_row = last.splitlines()[-1]
            fh.write(",".join(map(str, (k, *combo))) + "," + last_row + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="axiswirl")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="time-step a run and write snapshots")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--resume", action="store_true")

    p_mic = sub.add_parser("microscope", help="zoom diagnostics on stored snapshots")
    p_mic.add_argument("--config", required=True)
    p_mic.add_argument("--snapshots", required=True)
    p_mic.add_argument("--out")
    p_mic.add_argument("--dump-cubes", action="store_true")

    p_val = sub.add_parser("validate", help="invariant suite plus convergence study")
    p_val.add_argument("--config", required=True)

    p_swp = sub.add_parser("sweep", help="cartesian parameter sweep of simulate runs")
    p_swp.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.command == "simulate":
            return run_simulate(cfg, resume=args.resume)
        if args.command == "microscope":
            return run_microscope(cfg, args.snapshots, args.out, args.dump_cubes)
        if args.command == "validate":
            return run_validate(cfg)
        return run_sweep(cfg)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnstableError, PoissonError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
