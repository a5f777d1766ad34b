"""One benchmark run, in the fresh process whose peak memory is reported.

Prepares the seeded inputs, then runs whole rounds of the workload's CLI
commands until the run length is used up.  Only the commands are timed; the
output checks run after each round, outside the timed part.  With tracing on,
every second round is traced and the others give the untraced reference.
Writes the per-round results, the environment and the spans as JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import axiswirl  # noqa: E402
import axiswirl.cli  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_command(main, argv: list[str], log: Path) -> tuple[int, str]:
    """One CLI command with its output captured; an exception counts as exit -1."""
    with open(log, "w", encoding="utf-8") as fh, \
            contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        try:
            rc = main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            rc = -1
    return rc, log.read_text(encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--rundir", required=True)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if Path(axiswirl.__file__).resolve().parent.parent != src:
        raise SystemExit(f"axiswirl imported from {axiswirl.__file__}, not from {src}")

    rundir = Path(args.rundir)
    workload = WORKLOADS[args.workload](args.seed)
    inputs = rundir / "inputs"
    inputs.mkdir()
    workload.prepare(inputs)
    timer = spans.SetupTimer(workload.setup)
    tracer = spans.Tracer()
    traces = []
    rounds = []
    # a traced run needs at least one traced and one untraced round
    min_rounds = 2 if args.trace else 1
    start = time.perf_counter()
    while True:
        k = len(rounds)
        traced = bool(args.trace) and k % 2 == 1
        round_dir = rundir / f"round_{k:03d}"
        round_dir.mkdir()
        ops = workload.operations(round_dir, k)
        cli_main = axiswirl.cli.main
        if traced:
            tracer.reset()
            tracer.install()
            cli_main = tracer.wrap("cli.main", cli_main)
        timer.total = 0.0
        cpu0 = os.times()
        t0 = time.perf_counter()
        results = []
        for j, op in enumerate(ops):
            results.append(run_command(cli_main, op.argv, round_dir / f"op{j}.log")
                           + (time.perf_counter(),))
        wall = results[-1][2] - t0
        cpu1 = os.times()
        if traced:
            tracer.uninstall()
        setup = timer.total

        op_results = []
        t_prev = t0
        for op, (rc, stdout, t_done) in zip(ops, results):
            failures = op.check(stdout) if rc == 0 else [f"exit code {rc}"]
            op_results.append({"name": op.name, "rc": rc, "wall_s": t_done - t_prev,
                               "failures": failures})
            t_prev = t_done
        record = {
            "traced": traced,
            "wall_s": wall,
            "setup_s": setup,
            "run_s": wall - setup,
            "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
            "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops": op_results,
        }
        if traced:
            record["layers"] = dict(tracer.layer_metrics(), **{"process.cpu_s": record["cpu_s"]})
            traces.append(tracer.dump())
        rounds.append(record)
        if all(r["rc"] == 0 and not r["failures"] for r in op_results):
            shutil.rmtree(round_dir)

        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    timer.close()

    (rundir / "rounds.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "environment": environment(), "rounds": rounds},
        indent=1), encoding="utf-8")
    if traces:
        (rundir / "trace.json").write_text(json.dumps(traces), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
