"""Benchmark of axiswirl through its CLI: time to solution, set-up time and peak memory.

One run:

    python3 perfbench/run.py --workload lamb_oseen_256 --seed 1 --seconds 20 --trace 0

starts one fresh worker process (perfbench/worker.py), waits for it, and prints
as its last line a JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.

Repeat mode runs N seeds of each workload, each in its own process, and prints
the median and quartiles of every metric:

    python3 perfbench/run.py --repeat 10 [--workload NAME ...] [--trace 0|1]

Run outputs go to .perfbench_runs/ at the root of the checkout.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("lamb_oseen_256", "shipped_64", "microscope_cubes")
# a run must end within 180 s; the last round may start just before --seconds
TIMEOUT_S = 170
# one process, one BLAS thread: the load stays within nproc and is steady.
# A fixed hash seed and a fixed address-space layout (below) remove the
# random sources of memory use: with them the peak RSS of shipped_64 stays
# within 95.0-95.5 MiB, without them it took either ~90 or ~95.5 MiB
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout() -> None:
    """In the worker before exec: turn off address-space randomisation for this
    one process, as `setarch -R` does; where the call is refused, go on."""
    ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)


def summarise(result: dict, peak_rss_mib: float, layer_units: dict[str, str]) -> dict:
    """The one-line result: operations attempted and failed, and the metrics."""
    rounds = result["rounds"]
    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if op["rc"] != 0 or op["failures"]]
    correct = not any(op["failures"] for op in ops if op["rc"] == 0)
    if result["trace"]:
        traced = [r for r in rounds if r["traced"]]
        plain = [r for r in rounds if not r["traced"]]
        layers = {k: statistics.median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median([r["run_s"] for r in traced])
                                      - statistics.median([r["run_s"] for r in plain]))
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in sorted(layers.items())}
    else:
        metrics = {
            "run_s": {"value": statistics.median([r["run_s"] for r in rounds]), "unit": "s"},
            "setup_s": {"value": statistics.median([r["setup_s"] for r in rounds]), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    return {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def _layer_units() -> dict[str, str]:
    units = {}
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]:
        units[entry["name"]] = entry["unit"]
    return units


def single_run(args) -> int:
    if not (ROOT / "src" / "axiswirl" / "__init__.py").is_file():
        print(f"error: no axiswirl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rundir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    rundir.mkdir(parents=True)
    log_path = rundir / "worker.log"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rundir", str(rundir)]
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=dict(os.environ, **WORKER_ENV), preexec_fn=_fixed_layout)
        try:
            rc = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0:
        print(f"error: worker {'timed out' if rc is None else f'exited {rc}'}; see {log_path}",
              file=sys.stderr)
        print(log_path.read_text(encoding="utf-8")[-3000:], file=sys.stderr)
        return 1
    # the worker is the only child, so this is its peak resident set (KiB on Linux)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result = json.loads((rundir / "rounds.json").read_text(encoding="utf-8"))
    shutil.rmtree(rundir / "inputs", ignore_errors=True)
    summary = summarise(result, peak_rss_mib, _layer_units())
    (rundir / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    env = result["environment"]
    print(f"# {args.workload} seed={args.seed} rounds={len(result['rounds'])} "
          f"nproc={env['nproc']} blas={env['blas']} blas_threads={env['blas_threads']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} outputs={rundir}")
    for op in (op for r in result["rounds"] for op in r["ops"] if op["rc"] != 0 or op["failures"]):
        print(f"# FAILED {op['name']}: rc={op['rc']} {op['failures'][:3]}")
    print(json.dumps(summary))
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args) -> int:
    """N fresh single runs per workload; median, quartiles and spread of each metric."""
    names = args.workload or list(WORKLOADS)
    report = {}
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()
                if not args.trace or k in ("trace.overhead_s", "solver.steps")), flush=True)
        rows = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            rows[metric] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else 0.0, "values": values}
        report[name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "metrics": rows,
        }
    print()
    for name, rep in report.items():
        print(f"{name}: correct={rep['correct']} attempted={rep['attempted']} failed={rep['failed']}")
        print(f"  {'metric':38s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'(q3-q1)/med':>11s}")
        for metric, row in rep["metrics"].items():
            print(f"  {metric:38s} {row['unit']:6s} {row['median']:12.6g} {row['q1']:12.6g} "
                  f"{row['q3']:12.6g} {row['spread']:11.4f}")
    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"repeat-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"\nwritten to {out}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeat mode: may be given more than once; default all)")
    ap.add_argument("--seed", type=int, default=1, help="seed (repeat mode: the first seed)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length; default run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="runs per workload, with seeds seed..seed+N-1")
    args = ap.parse_args()
    # on SIGTERM unwind through the finally blocks that kill and reap the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    if args.repeat:
        return repeat(args)
    if not args.workload or len(args.workload) != 1:
        ap.error("a single run needs exactly one --workload")
    args.workload = args.workload[0]
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
