#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 liger_bench/selftest.py

Runs every workload at a tiny size, end to end and traced, at the default
seed and at the held-out seed. For each run it asserts that the command
exits 0, that the last line is the result object, that every metric named
in BENCHMARK.json is printed with its unit (and nothing else), and that the
correctness gate passed. It also checks the pairings README.md predicts
hold even at this size: interleaving engages only on oneshot_interleave,
and only multinode_partitioned runs the partitioned engine and the fabric.
Exit code 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's own constants)

TINY_REQUESTS = {"oneshot_interleave": 40, "decode_continuous": 24, "multinode_partitioned": 32}


def expected_units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def run_once(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--requests", str(TINY_REQUESTS[workload])]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, f"{cmd} exited with {done.returncode}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    return result


def check(workload, seed, trace, result):
    assert result["correct"] is True, "correctness gate failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, f"{result['failed']} failed arrivals"
    units = expected_units("per_layer" if trace else "end_to_end")
    metrics = result["metrics"]
    assert set(metrics) == set(units), (sorted(set(units) - set(metrics)),
                                        sorted(set(metrics) - set(units)))
    for name, unit in units.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, (name, metrics[name]["unit"], unit)
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
        if not trace:
            assert value > 0, f"end-to-end metric {name} is {value}"
    if trace:
        v = {name: m["value"] for name, m in metrics.items()}
        interleaves = workload == "oneshot_interleave"
        partitioned = workload == "multinode_partitioned"
        assert (v["core.secondary_frac"] > 0) == interleaves, v["core.secondary_frac"]
        assert (v["sim.events"] > 0) == partitioned, v["sim.events"]
        assert (v["interconnect.fabric_transfers"] > 0) == partitioned
        assert (v["serving.iterations"] > 0) == (workload == "decode_continuous")


def main():
    failures = 0
    for workload in run.WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            for trace in (0, 1):
                label = f"{workload} seed={seed} trace={trace}"
                try:
                    check(workload, seed, trace, run_once(workload, seed, trace))
                    print(f"ok    {label}", flush=True)
                except (AssertionError, ValueError, IndexError) as err:
                    failures += 1
                    print(f"FAIL  {label}: {err}", flush=True)
    print("selftest:", "passed" if failures == 0 else f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
