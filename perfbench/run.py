"""Benchmark of the rosenblatt toolkit.

One client runs a workload's operations in a closed loop: each operation
starts only when the previous one has returned.  Untraced runs report the
end-to-end metrics; a traced run (--trace 1) reports the per-layer split.
BLAS is pinned to one thread.

    python3 perfbench/run.py --workload mc_sample --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Each run also writes its record
(settings, versions, sample counts, latencies) under perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("mc_sample", "face2_sweep", "contraction_checks")
LAYERS = ("grid", "sampler", "kernel", "contractions", "domain")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Timings are scaled to a nominal machine on which ReferenceJob() takes
# this long (its median over 630 runs on a 2-vCPU, 2.0 GHz virtual
# machine), because a shared host's speed drifts by up to 20% within
# minutes; see stats.scaled_latencies.
REF_NOMINAL_S = 0.037
# whole cycles in a traced run, a fixed number so that call counts repeat exactly
TRACE_CYCLES = {"mc_sample": 8, "face2_sweep": 2, "contraction_checks": 2}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "realizations_per_s": "1/s",
    "peak_rss_mb": "MB",
    "m2_deficit_max": "ratio",
}
PER_LAYER = {
    "grid.required_window.self_s": "s",
    "grid.tail_fraction.calls": "count",
    "grid.tail_fraction.self_s": "s",
    "grid.build_grid.self_s": "s",
    "grid.n_cells": "count",
    "sampler.sample_chaos.self_s": "s",
    "sampler.normals_drawn": "count",
    "sampler.noise_bytes": "B",
    "sampler.factor_matrix.calls": "count",
    "sampler.factor_matrix.self_s": "s",
    "sampler.discrete_second_moment.self_s": "s",
    "contractions.phi_cycle_integral.self_s": "s",
    "contractions.phi_factors.self_s": "s",
    "contractions.condition_i_indicator_norm.self_s": "s",
    "contractions.ncl_condition_ii_trend.self_s": "s",
    "kernel.normalizing_constant_sq.calls": "count",
    "domain.path_points.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
# counts recorded at a span boundary, with the span they belong to
SPAN_COUNTS = {
    "grid.n_cells": "grid.build_grid",
    "sampler.normals_drawn": "sampler.sample_chaos",
    "sampler.noise_bytes": "sampler.sample_chaos",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def monotonic() -> float:
    # system-wide clock, comparable between this process and its children
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the package sources, for comparing checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rosenblatt").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its workload being set up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    start = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {out!r}")
    return float(words[1]) - start


def call_op(op, error_type) -> tuple:
    """Run one operation; a package error is its result, not a crash."""
    t0 = time.perf_counter()
    try:
        result = op.call()
    except error_type as exc:
        result = exc
    return op, result, time.perf_counter() - t0


class ReferenceJob:
    """A fixed mix of the package's kinds of work: Philox normals,
    elementwise powers, a BLAS product and a scalar Python loop.  Its arrays
    are allocated once, so its time does not depend on the allocator state
    that the measured operations leave behind."""

    def __init__(self):
        import numpy as np  # not at module level: main() pins BLAS threads first

        self.np = np
        self.a = np.empty((256, 2000))
        self.b = np.empty((2000, 192))
        self.c = np.empty((256, 192))

    def __call__(self) -> float:
        """Runs the job once and returns its seconds."""
        np = self.np
        start = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(7))
        rng.standard_normal(out=self.a)
        rng.standard_normal(out=self.b)
        np.power(np.abs(self.b, out=self.b), 0.35, out=self.b)
        np.matmul(self.a, self.b, out=self.c)
        total = float(self.c[0, 0])
        for i in range(20000):
            total += math.exp(-0.001 * i) * math.lgamma(1.5 + 0.0001 * i)
        if not math.isfinite(total):
            raise RuntimeError("reference job gave a non-finite value")
        return time.perf_counter() - start


def timed_loop(workload, error_type, seconds, min_ops, reference):
    """Closed loop over whole cycles, until the operations' scaled busy time
    reaches `seconds` and at least `min_ops` have run.  The reference job
    runs right after every operation.  Returns the records, the cycle count
    and the reference times."""
    records, refs, index = [], [], 0
    while len(records) < min_ops or sum(
        stats.scaled_latencies([lat for _, _, lat in records], refs, REF_NOMINAL_S)
    ) < seconds:
        for op in workload.cycle(index):
            records.append(call_op(op, error_type))
            refs.append(reference())
        index += 1
    return records, index, refs


def evaluate(workload, records, error_type) -> tuple:
    """Check every output.  Returns (per-record ok flags, failure messages,
    messages of the checks over the whole run)."""
    workload.prepare()
    flags, messages = [], []
    for op, result, _ in records:
        if isinstance(result, error_type):
            msg = f"{type(result).__name__}: {result}"
        else:
            msg = workload.check(op, result)
        flags.append(msg is None)
        if msg is not None:
            messages.append(f"{op.label}: {msg}")
    done = [(op, result) for (op, result, _), ok in zip(records, flags) if ok]
    return flags, messages, workload.final_checks(done)


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units if name in values}


def timed_run(args, workloads, error_type) -> tuple:
    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workload = workloads.WORKLOADS[args.workload](args.seed)
    records, cycles, refs = timed_loop(workload, error_type, args.seconds, stats.MIN_BEYOND + 1, ReferenceJob())
    flags, failures, run_failures = evaluate(workload, records, error_type)
    ok = sum(flags)
    raw = [lat for _, _, lat in records]
    scaled = stats.scaled_latencies(raw, refs, REF_NOMINAL_S)
    tail, tail_pct, n = stats.tail_latency(scaled)
    busy = sum(scaled)
    values = {
        # set-up runs in fresh processes whose speed the reference job,
        # run in this one, does not track; it is reported unscaled
        "setup_s": stats.median(probes),
        "ops_per_s": ok / busy,
        "op_p50_s": stats.median(scaled),
        "op_tail_s": tail,
        "realizations_per_s": sum(op.realizations for (op, _, _), f in zip(records, flags) if f) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "m2_deficit_max": workload.m2_deficit_max(),
    }
    unscaled = {
        "ops_per_s": ok / sum(raw),
        "op_p50_s": stats.median(raw),
        "op_tail_s": stats.tail_latency(raw)[0],
    }
    detail = {
        "samples": {"operations": len(records), "cycles": cycles, "setup_probes": len(probes)},
        "reference_nominal_s": REF_NOMINAL_S,
        "reference_job_s": refs,
        "unscaled": unscaled,
        "op_tail_percentile": tail_pct,
        "op_tail_samples": n,
        "failed_ratio": stats.failed_ratio(len(records) - ok, len(records)),
        "setup_probe_s": probes,
        "latencies_s": [[op.label, lat] for op, _, lat in records],
        "scaled_latencies_s": scaled,
        "failures": failures,
        "run_check_failures": run_failures,
    }
    return values, END_TO_END, flags, run_failures, detail


def traced_run(args, workloads, error_type) -> tuple:
    """Set up once with tracing on, then run a fixed list of operations,
    each once untraced and once traced, alternating which goes first."""
    tracer = tracing.Tracer(counters=workloads.COUNTERS)
    tracer.install("rosenblatt", LAYERS)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
    finally:
        tracer.remove()
    ops = [op for c in range(TRACE_CYCLES[args.workload]) for op in workload.cycle(c)]
    records, t_plain, t_traced = [], 0.0, 0.0
    for i, op in enumerate(ops):
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                tracer.install("rosenblatt", LAYERS)
            try:
                records.append(call_op(op, error_type))
            finally:
                tracer.remove()
            if traced:
                t_traced += records[-1][2]
            else:
                t_plain += records[-1][2]
    flags, failures, run_failures = evaluate(workload, records, error_type)

    totals = stats.layer_totals(tracer.span_tuples())
    values, absent = {}, []
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name in SPAN_COUNTS:
            span, kind = SPAN_COUNTS[name], "count"
        if name == "trace.overhead_ratio":
            values[name] = t_traced / t_plain
        elif span not in tracer.wrapped:
            absent.append(name)
        elif kind == "count":
            values[name] = tracer.counts.get(name, 0)
        else:
            values[name] = totals.get(span, {"self_s": 0.0, "calls": 0})[kind]
    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)
    detail = {
        "samples": {"operations_each_way": len(ops), "cycles": TRACE_CYCLES[args.workload], "spans": len(tracer.spans)},
        "operations_s": {"untraced": t_plain, "traced": t_traced},
        "absent_layer_metrics": absent,
        "counts_computed_from_shapes": ["sampler.normals_drawn", "sampler.noise_bytes"],
        "layer_totals": totals,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "failures": failures,
        "run_check_failures": run_failures,
    }
    return values, PER_LAYER, flags, run_failures, detail


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{name}: run failed with exit code {out.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rosenblatt" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'rosenblatt'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads BLAS
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import rosenblatt

    if Path(rosenblatt.__file__).resolve().parent != SRC / "rosenblatt":
        print(f"error: imported rosenblatt from {rosenblatt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.probe_setup:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", repr(monotonic()), flush=True)
        return 0

    record = run_record(args)
    run_kind = traced_run if args.trace else timed_run
    values, units, flags, run_failures, detail = run_kind(args, workloads, rosenblatt.RosenblattError)
    attempted, failed = len(flags), flags.count(False)
    record.update(detail)
    metrics = metric_block(values, units)
    record["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}  commit={record['git_commit'][:12]}"
          f"  nproc={record['nproc']}  blas_threads=1  python={record['python']}"
          f"  numpy={record['numpy']}  scipy={record['scipy']}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_ratio':48s} {detail['failed_ratio']:>16.6g} ratio")
        print(f"# op_tail_s is p{detail['op_tail_percentile']:.1f} of {detail['op_tail_samples']} operations;"
              f" times are scaled to the reference speed, unscaled: {json.dumps(detail['unscaled'])}")
    else:
        for name in detail["absent_layer_metrics"]:
            print(f"{name:48s} {'absent':>16s}")
    for msg in detail["failures"] + run_failures:
        print(f"# FAILED {msg}")
    print(f"# record: {record_path.relative_to(ROOT)}")
    correct = failed == 0 and not run_failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
