"""One benchmark child process: set up a workload, then time it or trace it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. Prints one JSON object on its last stdout line.

Modes:
  setup   import, build the inputs, run one untimed warm-up op, report when ready
  timed   setup, then run ops for ``--seconds`` and report every op latency
  traced  setup, then for ``--seconds`` run each op untraced and again with every
          layer traced, report per-layer metrics and the tracing overhead
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads
from tracing import Tracer


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--root", required=True, help="checkout root")
    return parser.parse_args(argv)


class Cases:
    """What the ops of one run gave, per case.

    Op ``i`` replays case ``i % cycle`` with the same inputs, so every replay
    must reproduce the case's first output; one that does not fails. A case
    fails when any of its ops fails, and the run reports the cases it
    attempted and the first failure of each failed case.
    """

    def __init__(self, cycle):
        self.cycle = cycle
        self.digests = {}
        self.failures = {}

    def record(self, i, outcome, error=None, known_defect=None):
        case = i % self.cycle
        if outcome is not None:
            error, known_defect = outcome.error, outcome.known_defect
            first = self.digests.setdefault(case, outcome.digest)
            if error is None and outcome.digest != first:
                error = f"output differs from the first run of case {case}"
        else:
            self.digests.setdefault(case, None)
        if error is not None and case not in self.failures:
            self.failures[case] = {"op": i, "case": case, "error": error,
                                   "known_defect": known_defect}

    def report(self):
        return {"attempted": len(self.digests),
                "failures": [self.failures[c] for c in sorted(self.failures)]}


def _run_op(wl, i, cases):
    """Run and check op ``i``; returns (seconds, outcome or None if it raised)."""
    start = time.perf_counter()
    try:
        out = wl.run(i)
    except Exception as exc:  # an op that raises is a failed op, the loop goes on
        elapsed = time.perf_counter() - start
        cases.record(i, None, f"{type(exc).__name__}: {exc}")
        return elapsed, None
    elapsed = time.perf_counter() - start
    try:
        outcome = wl.check(i, out)
    except Exception as exc:  # e.g. an output file the op should have written is missing
        outcome = workloads.Outcome(b"", f"check raised {type(exc).__name__}: {exc}")
    cases.record(i, outcome)
    return elapsed, outcome


def _run_phase(wl, seconds, min_ops, step):
    """Call ``step(i)`` for ops 0, 1, ... until ``seconds`` pass, at least
    ``min_ops`` ran and the count is a multiple of the workload's stride."""
    results = []
    start = time.perf_counter()
    while (len(results) < min_ops or len(results) % wl.stride
           or time.perf_counter() - start < seconds):
        results.append(step(len(results)))
    return results, time.perf_counter() - start


def _timed(wl, args, cases):
    results, wall = _run_phase(wl, args.seconds, wl.cycle, lambda i: _run_op(wl, i, cases))
    latencies = [elapsed for elapsed, _ in results]
    outcomes = [outcome for _, outcome in results]
    # The digest covers the first run of each case, so it does not depend on
    # how many ops fit in the run.
    digest = hashlib.sha256()
    covered = 0
    for outcome in outcomes[:wl.cycle]:
        if outcome is not None:
            digest.update(outcome.digest)
            covered += 1
    return {
        "latencies_s": latencies,
        "completed": sum(o is not None for o in outcomes),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(wl.peak_rss_of).ru_maxrss / 1024.0,
        "self_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": {"sha256": digest.hexdigest(), "ops": covered,
                   "complete": covered == wl.cycle},
    }


def _startup_ms(root, repeats=3):
    """Median wall time of a fresh interpreter that only imports qquench."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qquench"], cwd=root, check=True,
                       timeout=60)
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def _layer_metrics(tracer, ops, commands):
    """Per-layer metrics of the traced ops: times in ms per op, counts per op."""
    totals = tracer.totals(ops)
    n = len(ops)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive_ms(*names):
        return 1e3 * sum(totals.get(name, (0, 0.0, 0.0))[1] for name in names) / n

    def self_ms(name):
        return 1e3 * totals.get(name, (0, 0.0, 0.0))[2] / n

    counts = tracer.counts
    io_writes = [name for name in tracer.names if name.startswith("io.save_")]
    io_reads = [name for name in tracer.names if name.startswith("io.load_")]
    matrix_s = totals.get("kernels.noisy_mean_matrix", (0, 0.0, 0.0))[1]
    metrics = {
        "rng.key_matrix_ms": (inclusive_ms("rng.key_matrix"), "ms"),
        "rng.key_matrix_calls": (calls("rng.key_matrix") / n, "count"),
        "rng.keys": (counts["rng.keys"] / n, "count"),
        "kernels.true_probabilities_ms": (inclusive_ms("kernels.true_probabilities"), "ms"),
        "kernels.noisy_mean_matrix_ms": (inclusive_ms("kernels.noisy_mean_matrix"), "ms"),
        "kernels.noisy_mean_scalar_ms": (inclusive_ms("kernels.noisy_mean_scalar"), "ms"),
        "kernels.draws": (counts["kernels.draws"] / n, "count"),
        "kernels.draws_per_s": (counts["kernels.draws"] / matrix_s if matrix_s else 0.0, "1/s"),
        "kernels.block_bytes": (counts["kernels.block_bytes"], "computed_B"),
        "quench.scan_ms": (inclusive_ms("quench.scan"), "ms"),
        "quench.scan_self_ms": (self_ms("quench.scan"), "ms"),
        "quench.scan_calls": (calls("quench.scan") / n, "count"),
        "quench.cells": (counts["quench.cells"] / n, "count"),
        "reconstruct.reconstruct_ms": (inclusive_ms("reconstruct.reconstruct_wavefunction"), "ms"),
        "reconstruct.calls": (calls("reconstruct.reconstruct_wavefunction") / n, "count"),
        "reconstruct.bins_ok_ratio": (counts["reconstruct.bins_ok"] / counts["reconstruct.bins"]
                                      if counts["reconstruct.bins"] else 1.0, "ratio"),
        "fidelity.score_ms": (inclusive_ms("fidelity.score_reconstruction"), "ms"),
        "fidelity.depth_sweep_self_ms": (self_ms("fidelity.depth_sweep"), "ms"),
        "io.write_ms": (inclusive_ms(*io_writes), "ms"),
        "io.read_ms": (inclusive_ms(*io_reads), "ms"),
        "io.bytes_written": (counts["io.bytes_written"] / n, "B"),
        "io.bytes_read": (counts["io.bytes_read"] / n, "B"),
    }
    # cli.main is the benchmark's entry into the cli layer; one command per op.
    span_name, span_parent, span_op, start, end = tracer.spans()
    main_id = tracer.name_ids.get("cli.main", -1)
    for command in ("prepare", "scan", "reconstruct", "sweep"):
        op_ids = [op for op, cmd in commands.items() if cmd == command]
        sel = (span_name == main_id) & (span_parent < 0) & np.isin(span_op, op_ids)
        value = 1e3 * float((end[sel] - start[sel]).mean()) if sel.any() else 0.0
        metrics[f"cli.{command}_ms"] = (value, "ms")
    return metrics


def _traced(qq, wl, args, cases):
    startup_ms = _startup_ms(args.root)
    tracer = Tracer(qq)
    tracer.install()
    try:
        # states.build_ms: the states layer while the inputs are built again.
        wl.build()
    finally:
        tracer.uninstall()
    setup_totals = tracer.totals()

    def traced_op(i):
        tracer.op = i
        tracer.install()
        try:
            return _run_op(wl, i, cases)[0]
        finally:
            tracer.uninstall()
            tracer.op = -1

    def both(i):
        # Each op runs untraced and traced back to back, in alternating order,
        # so that neither a slow spell of the machine nor going second falls
        # on one side of the overhead only.
        if i % 2:
            traced = traced_op(i)
            return _run_op(wl, i, cases)[0], traced
        untraced = _run_op(wl, i, cases)[0]
        return untraced, traced_op(i)

    pairs, _ = _run_phase(wl, args.seconds, wl.cycle, both)
    ops = list(range(len(pairs)))
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]

    commands = {}
    if isinstance(wl, workloads.CliRoundtrip):
        commands = {i: wl.command(i)[1] for i in ops}
    metrics = _layer_metrics(tracer, ops, commands)
    metrics["states.build_ms"] = (1e3 * sum(v[1] for k, v in setup_totals.items()
                                            if k.startswith("states.") and v[0]), "ms")
    metrics["cli.startup_ms"] = (startup_ms, "ms")
    untraced_ms = 1e3 * sum(untraced) / len(ops)
    traced_ms = 1e3 * sum(traced) / len(ops)
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    metrics["trace.overhead_ratio"] = ((traced_ms - untraced_ms) / untraced_ms, "ratio")

    trace_path = os.path.join(args.root, ".bench_out", f"trace_{wl.name}.npz")
    tracer.save(trace_path)
    return {
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "ops": len(ops),
        "untraced_op_ms": untraced_ms,
        "traced_op_ms": traced_ms,
        "spans": len(tracer.span_name),
        "trace_file": os.path.relpath(trace_path, args.root),
    }


def main(argv=None):
    args = _parse_args(argv)
    import qquench as qq
    if args.mode == "traced":
        import qquench.cli  # noqa: F401  (a traced layer, and driven in-process)

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(qq.__file__).startswith(src + os.sep):
        sys.exit(f"qquench was imported from {qq.__file__}, not from {src}")

    workdir = os.path.join(args.root, ".bench_out", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](qq, args.seed, workdir)
        if args.mode == "traced" and isinstance(wl, workloads.CliRoundtrip):
            wl.in_process = True
            os.chdir(workdir)
        wl.build()
        # The warm-up op is a run of case 0 like any other.
        cases = Cases(wl.cycle)
        _run_op(wl, 0, cases)
        result = {"ready_monotonic": time.monotonic()}
        if args.mode == "timed":
            result.update(_timed(wl, args, cases))
        elif args.mode == "traced":
            result.update(_traced(qq, wl, args, cases))
        result.update(cases.report())
    finally:
        os.chdir(args.root)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
