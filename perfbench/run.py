"""Layered benchmark of qquench: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``sweep_small``, ``scan_wide``, ``cli_roundtrip``.
The package is imported from the checkout's ``src``; nothing is installed.

``--trace 0`` starts the workload's child process ``SETUP_SAMPLES`` times.
Each child imports qquench, builds the inputs and runs one untimed warm-up
op; the last one then runs ops for ``--seconds``. It reports:

  setup_s      child start to first timed op, median over the children
  ops_per_s    completed ops per second of the timed phase
  op_p50_ms    median op latency
  op_tail_ms   the highest percentile with at least 10 ops beyond it
  peak_rss_mb  peak RSS of the child (of its CLI subprocesses on cli_roundtrip)
  pass_ratio   cases that passed their check over cases attempted (1 - fail_ratio)

``--trace 1`` runs one child that times the same ops untraced and then
traced, and reports per-layer metrics plus the tracing overhead.

Every line but the last is for people; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. ``attempted``
counts the workload's cases, each run at least once (ops replay them, see
workloads.py), and ``failed`` the cases with a failed op, so both depend on
the seed alone. The full report, with the run context, the output digest
and the layer predictions, goes to ``.bench_out/report_<workload>_seed<seed>_trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
TAIL_MIN_BEYOND = 10


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("QQUENCH_SEED", "QQUENCH_BACKEND"):
        env.pop(var, None)
    return env


def _spawn(mode, args, deadline):
    """Run one worker child; returns (its JSON result, monotonic time it was started)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--root", ROOT]
    started = time.monotonic()
    # A session of its own, so that a timeout also ends the CLI processes the child started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: {mode} child of {args.workload} timed out")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {mode} child of {args.workload} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), started


def _tail(latencies):
    """Highest percentile with at least TAIL_MIN_BEYOND ops beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_MIN_BEYOND - 1], 100.0 * (n - TAIL_MIN_BEYOND) / n


def _context(args):
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": workloads.np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "workload_seed": args.seed,
        "src_lines": src_lines,
    }


def _end_to_end(args, deadline):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        result, started = _spawn("setup", args, deadline)
        setups.append(result["ready_monotonic"] - started)
    result, started = _spawn("timed", args, deadline)
    setups.append(result["ready_monotonic"] - started)

    latencies = result["latencies_s"]
    attempted = result["attempted"]
    failed = len(result["failures"])
    tail, tail_pct = _tail(latencies)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (result["completed"] / result["wall_s"], "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    report = {
        "fail_ratio": failed / attempted,
        "op_tail_percentile": tail_pct,
        "op_count": len(latencies),
        "setup_samples_s": setups,
        "timed_wall_s": result["wall_s"],
        "benchmark_self_peak_rss_mb": result["self_peak_rss_mb"],
        "digest": result["digest"],
    }
    return values, attempted, result, report


def _per_layer(args, deadline):
    result, _ = _spawn("traced", args, deadline)
    values = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    attempted = result["attempted"]
    report = {k: result[k] for k in ("ops", "untraced_op_ms", "traced_op_ms", "spans",
                                     "trace_file")}
    report["all_layer_metrics"] = result["metrics"]
    return values, attempted, result, report


def main():
    args = _parse_args()
    if not os.path.isfile(os.path.join(SRC, "qquench", "__init__.py")):
        sys.exit(f"perfbench: no qquench package under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)

    measure = _per_layer if args.trace else _end_to_end
    values, attempted, result, report = measure(args, deadline)
    failures = result["failures"]
    unexpected = [f for f in failures if not f["known_defect"]]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            sys.exit(f"perfbench: {m['name']} is measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    report.update({
        "workload": args.workload,
        "trace": args.trace,
        "context": _context(args),
        "failures": failures,
        "known_defects": sorted({f["known_defect"] for f in failures} - {None}),
        "predictions": workloads.PREDICTIONS[args.workload],
    })
    report_path = os.path.join(ROOT, ".bench_out",
                               f"report_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, **report}, fh, indent=2)

    shown = dict(values)
    if not args.trace:
        shown["fail_ratio"] = (report["fail_ratio"], "ratio")
    for name, (value, unit) in shown.items():
        print(f"{args.workload:14s} {name:32s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:14s} op_tail_ms is p{report['op_tail_percentile']:.1f} "
              f"of {report['op_count']} ops; digest {report['digest']['sha256'][:16]}")
    for f in unexpected[:5]:
        print(f"{args.workload:14s} FAILED case {f['case']} (op {f['op']}): {f['error']}")
    print(f"{args.workload:14s} report: {os.path.relpath(report_path, ROOT)}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
