#!/usr/bin/env python3
"""Repo benchmark: three serving workloads through the simulator's public
entry point, with host-time and simulated-outcome metrics (end to end) and
an outside-in per-layer ledger (traced run).

    python3 liger_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds liger_bench/ (and the library from
src/) into .bench_build/liger_bench, then runs the workload in child
processes of the liger_bench binary:

  --trace 0  several cold set-up processes (setup_s is their median) and
             one timed process that repeats the workload for S seconds
             with tracing off. Prints every end-to-end metric.
  --trace 1  one traced process: spans, layer counts, tracing overhead and
             (partitioned workload) the serial comparison. Prints every
             per-layer metric.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the run conditions, the rep
quartiles, the Report digest and the spans. Exit code 0 when the
correctness gate passed, 1 when it failed, 2 when the build or a child
process could not run (no result is printed then).

README.md in this directory describes the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "liger_bench")
BINARY = os.path.join(BUILD_DIR, "liger_bench")

# Workload -> independent traces (segments) per run. decode_continuous runs
# eight 75-request traces: its host cost per request is the highest, so
# short traces give the timed loop enough reps, and eight of them give the
# simulated metrics enough requests to be steady from seed to seed.
SEGMENTS = {"oneshot_interleave": 1, "decode_continuous": 8, "multinode_partitioned": 1}
WORKLOADS = tuple(SEGMENTS)
DEFAULT_SEED = 1
# Never used while tuning the benchmark; rechecks a claim on fresh inputs.
HELD_OUT_SEED = 1009
# Cold set-up processes per end-to-end run (plus the timed process's own).
SETUP_PROCESSES = 21

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_rps": "req/s",
    "goodput_rps": "req/s",
    "ttft_p99_ms": "ms",
    "tpot_p99_ms": "ms",
    "makespan_ms": "ms",
    "completed_frac": "ratio",
}

PER_LAYER_UNITS = {
    "serving.config_ms": "ms",
    "serving.iterations": "count",
    "serving.decode_batch_avg": "count",
    "serving.padding_tokens": "tokens",
    "serving.preemptions": "count",
    "serving.recomputes": "count",
    "serving.kv_peak_used_frac": "ratio",
    "serving.kv_peak_utilization": "ratio",
    "serving.kv_failed_allocs": "count",
    "serving.host_us_per_iteration": "us",
    "profile.contention_ms": "ms",
    "profile.contention_factor": "x",
    "model.batch_plan_us": "us",
    "core.rounds": "count",
    "core.kernels_launched": "count",
    "core.secondary_frac": "ratio",
    "core.decompositions": "count",
    "core.plan_cache_hit_frac": "ratio",
    "core.plan_cache_evictions": "count",
    "core.peak_retained_plans": "count",
    "core.host_us_per_round": "us",
    "gpu.kernels": "count",
    "gpu.busy_frac": "ratio",
    "gpu.host_ns_per_kernel": "ns",
    "collective.kernels": "count",
    "collective.busy_ms": "ms",
    "collective.comm_frac": "ratio",
    "interconnect.fabric_transfers": "count",
    "interconnect.fabric_bytes": "B",
    "sim.events": "count",
    "sim.windows": "count",
    "sim.events_per_window": "count",
    "sim.barrier_wait_ms": "ms",
    "sim.posts_routed": "count",
    "sim.mailbox_spills": "count",
    "sim.host_ns_per_event": "ns",
    "sim.speedup_vs_serial": "x",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result (build or child failure)."""


def log(msg):
    print(f"liger_bench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"library sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "liger_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def child(workload, seed, mode, seconds, requests):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds), "--segments", str(SEGMENTS[workload]),
           "--workloads", os.path.join(HERE, "workloads")]
    if requests:
        cmd += ["--requests", str(requests)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    # 0: gate passed, 1: gate failed (result still printed); else no result.
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise BenchError(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def source_identity():
    """Git commit when the tree is a repository; always a digest of the
    sources the benchmark builds, since the checkout may not be one."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def end_to_end(args):
    setups = [child(args.workload, args.seed, "setup", 0, args.requests)["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    timed = child(args.workload, args.seed, "timed", args.seconds, args.requests)
    setups.append(timed["setup_s"])
    runs = timed["run_s"]
    attempted = int(timed["attempted"])
    failed = int(timed["failed"])
    correct = not timed["gate_failures"]
    values = {
        "run_s": statistics.median(runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
        "latency_p50_ms": timed["latency_p50_ms"],
        "latency_p95_ms": timed["latency_p95_ms"],
        "throughput_rps": timed["throughput_rps"],
        "goodput_rps": timed["goodput_rps"],
        "ttft_p99_ms": timed["ttft_p99_ms"],
        "tpot_p99_ms": timed["tpot_p99_ms"],
        "makespan_ms": timed["makespan_ms"],
        "completed_frac": (attempted - failed) / attempted,
    }
    details = {
        "conditions": timed["conditions"],
        "run_s": {"reps": len(runs), "quartiles": quartiles(runs), "min": min(runs),
                  "max": max(runs)},
        "setup_s": {"samples": len(setups), "quartiles": quartiles(setups)},
        "digest": timed["digest"],
        "gate_failures": timed["gate_failures"],
        "contention_factor": timed["contention_factor"],
    }
    return correct, attempted, failed, values, END_TO_END_UNITS, details


def traced(args):
    out = child(args.workload, args.seed, "traced", args.seconds, args.requests)
    correct = not out["gate_failures"]
    attempted = int(out["runs"]) * int(out["arrivals_per_run"])
    failed = 0 if correct else attempted
    details = {
        "conditions": out["conditions"],
        "untraced_run_s": out["untraced_run_s"],
        "traced_run_s": out["traced_run_s"],
        "serial_run_s": out["serial_run_s"],
        "digests": out["digests"],
        "gate_failures": out["gate_failures"],
        "spans": out["spans"],
    }
    return correct, attempted, failed, out["metrics"], PER_LAYER_UNITS, details


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=0,
                        help="override the workload's request count (self-test)")
    args = parser.parse_args()
    try:
        build()
        run = traced if args.trace else end_to_end
        correct, attempted, failed, values, units, details = run(args)
    except BenchError as err:
        log(str(err))
        return 2
    missing = sorted(set(units) - set(values))
    if missing:
        log(f"missing metrics: {missing}")
        return 2
    details["conditions"].update(source_identity())
    details["workload"] = args.workload
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    if not correct:
        log(f"correctness gate failed: {details['gate_failures'][:5]}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
