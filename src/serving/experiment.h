// Experiment harness: builds (node, runtime, workload) combinations and
// runs serving experiments — the engine behind every figure bench.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/hybrid_runtime.h"
#include "core/liger_runtime.h"
#include "fault/failover.h"
#include "gpu/cluster.h"
#include "gpu/node.h"
#include "model/model_spec.h"
#include "serving/continuous.h"
#include "serving/server.h"

namespace liger::serving {

enum class Method {
  kLiger,
  kIntraOp,
  kInterOp,
  kInterTh,
  kLigerCpuSync,  // Liger with CPU-GPU-only synchronization (Fig 13)
  kHybrid,        // Liger TP per stage, pipeline stages across nodes
};

const char* method_name(Method m);
std::vector<Method> all_methods();

struct ExperimentConfig {
  gpu::NodeSpec node = gpu::NodeSpec::v100_nvlink();
  model::ModelSpec model;
  Method method = Method::kLiger;
  WorkloadConfig workload;
  double rate = 1.0;       // offered batches/s
  bool poisson = false;
  core::LigerOptions liger;
  // Derive the contention factor by offline profiling (§3.5) instead of
  // using liger.contention_factor.
  bool profile_contention = true;

  // Generative serving. Engaged when workload.decode_tokens_max > 0:
  // the experiment runs the iteration-level scheduler in this batching
  // mode instead of the one-shot Server path (kRounds = static-batching
  // baseline, kContinuous = iteration-level admission + paged KV +
  // preemption). One-shot workloads (decode_tokens_max == 0, the
  // default) take the legacy Server path bit-identically regardless of
  // this setting. Supported for tensor-parallel methods (kLiger,
  // kLigerCpuSync, kIntraOp). Faults compose with generative batching:
  // a fail-stop purges the dead shard's paged KV, rebuilds the pool at
  // survivor capacity and re-queues the damaged requests for a
  // drop-and-recompute prefill (fail-stop needs a liger runtime on a
  // single node's TP group; straggler/link/host faults work under any
  // tensor-parallel method).
  BatchingMode batching = BatchingMode::kRounds;
  ContinuousConfig continuous;

  // Cluster extension: with num_nodes > 1 (or method == kHybrid) the
  // experiment builds a Cluster of identical `node`s joined by `fabric`
  // and the runtime operates on the cluster-wide device group. With the
  // default single node, the pre-cluster code path runs unchanged.
  int num_nodes = 1;
  interconnect::FabricSpec fabric = interconnect::FabricSpec::ib_hdr();
  // kHybrid placement: tensor-parallel width per stage (0 = whole node)
  // and pipeline-stage count (0 = one stage per node).
  int hybrid_tp = 0;
  int hybrid_pp = 0;

  // Fault injection (robustness experiments). With `faults.enabled` the
  // runtime is wrapped in a fault::FailoverRuntime (heartbeat detection
  // + degraded-mode replanning) and the plan is scheduled before the
  // run; device fail-stop recovery is supported for the Liger
  // (single-node TP shrink) and Hybrid (stage re-placement) methods.
  // Disabled (the default), none of the fault machinery is constructed
  // and the experiment path is bit-identical to a fault-free build.
  fault::FaultConfig faults;

  // Optional: receives kernel and fault records from every device (and
  // the fabric, when clustered). Non-owning.
  gpu::TraceSink* trace_sink = nullptr;

  // Parallel engine execution. 1 (the default) keeps the serial
  // single-engine path, byte-identical to earlier builds. With > 1 the
  // simulation is partitioned into engine domains run under
  // conservative time windows — results are bit-identical to
  // engine_threads=1 at any thread count, for every experiment shape:
  // hybrid clusters fuse nodes onto min(num_nodes, engine_threads)
  // domains, while cluster-wide TP and fault runs use a two-domain
  // host + world partition (see run_experiment_detailed's planner).
  // Inside sweep worker threads the effective count is clamped to
  // 1 + however many idle threads the process-global pool can lend
  // (serving/sweep.cpp), degrading to serial only under full fan-out.
  int engine_threads = 1;
};

// Runs one serving experiment to completion (deterministic).
Report run_experiment(const ExperimentConfig& config);

struct ExperimentOutputs {
  Report report;
  // Populated for Liger methods only.
  core::LigerStats liger;
  // Per-device fraction of the makespan with any kernel running, and
  // with a communication kernel running.
  std::vector<double> device_busy_frac;
  std::vector<double> device_comm_frac;
  // Populated when faults are enabled.
  fault::FailoverRuntime::Stats failover;
  // Completion timestamps (availability benches bucket these to plot
  // goodput over time around an outage).
  std::vector<sim::SimTime> completion_times;
};

// run_experiment plus runtime-internal statistics.
ExperimentOutputs run_experiment_detailed(const ExperimentConfig& config);

// True when one device can hold its weight shard plus activation
// headroom under the method's partitioning.
bool model_fits(const gpu::NodeSpec& node, const model::ModelSpec& model, Method method);

// Contention factor for a node/model pair via offline profiling over a
// small shape grid (memoized per distinct inputs within the process).
double profiled_contention_factor(const gpu::NodeSpec& node, const model::ModelSpec& model,
                                  const collective::CommConfig& comm);

// Sum of one batch's kernel durations under intra-op partitioning on an
// idle node — the natural unit for choosing arrival-rate sweeps (its
// reciprocal approximates the intra-op saturation rate).
sim::SimTime isolated_intra_batch_time(const gpu::NodeSpec& node,
                                       const model::ModelSpec& model, int batch_size,
                                       int seq, model::Phase phase);

}  // namespace liger::serving
