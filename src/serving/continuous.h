// Iteration-level generative serving: the scheduler re-forms the
// running batch between model iterations (Orca/vLLM-style continuous
// batching) instead of fixing it for a whole round of conversations.
//
// One ContinuousScheduler implements both batching modes so overload
// comparisons are apples-to-apples on identical workload synthesis:
//
//  * kContinuous — between iterations the scheduler admits waiting
//    requests into the running batch (FIFO, under a prefill token
//    budget and a KV memory-pressure check against the paged
//    allocator) and retires finished requests immediately, so the
//    batch never carries finished-sequence padding. When a decode
//    step cannot take the KV blocks it needs, a preemption policy
//    makes room: drop-and-recompute (free the victim's blocks now,
//    replay its prefill at re-admission) or swap (stream the blocks
//    to host over a serialized PCIe link, and back on re-admission).
//
//  * kRounds — the static-batching baseline: requests are admitted
//    only when the running set is empty, the round reserves KV for
//    every member's full final context up front (so it never
//    preempts), and the batch keeps the round's initial width until
//    the last member finishes — early finishers ride along as padding.
//
// The scheduler runs one iteration at a time on the serving host's
// engine domain and mirrors Server's dispatch discipline (submits
// self-route to the runtime's domain; completions route back through
// kCompletionDispatchLatency), so partitioned runs stay bit-identical
// across engine thread counts.
//
// PlanCache churn: a naive continuous scheduler submits a distinct
// (batch, seq) almost every iteration, retaining one compiled plan per
// shape ever seen. Two mitigations keep retained plans O(ranks): the
// iteration's seq is interned to the next block_tokens multiple (the
// shape a paged-attention kernel executes anyway, so consecutive
// iterations reuse one plan until the context crosses a block
// boundary), and the cache itself is LRU-bounded (see
// LigerOptions::plan_cache_capacity).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/plan_cache.h"
#include "core/runtime.h"
#include "fault/failover.h"
#include "model/model_spec.h"
#include "serving/arrival.h"
#include "serving/metrics.h"
#include "serving/paged_kv.h"
#include "serving/request.h"
#include "serving/server.h"
#include "sim/engine.h"
#include "sim/task.h"
#include "util/rng.h"
#include "util/stats.h"

namespace liger::serving {

enum class BatchingMode {
  kRounds,      // static batching: admit only into an empty running set
  kContinuous,  // iteration-level admission and retirement
};

enum class PreemptionPolicy {
  kRecompute,  // drop KV now, replay the prefill at re-admission
  kSwap,       // stream KV to host over PCIe, restore on re-admission
};

struct ContinuousConfig {
  BatchingMode mode = BatchingMode::kContinuous;
  // KV block granularity in tokens; also the seq interning quantum for
  // plan keys.
  int block_tokens = 16;
  // Per-device KV pool. 0 lets run_experiment derive it from the GPU's
  // memory minus the weight shard (kv_pool_fraction of the remainder);
  // standalone users set it explicitly. Always floored at one
  // max-context request group so admission cannot deadlock.
  std::uint64_t kv_pool_bytes = 0;
  double kv_pool_fraction = 0.4;
  // Admission: max total prompt tokens entering one prefill iteration.
  int token_budget = 2048;
  // Admission: max concurrently scheduled request groups.
  int max_running = 64;
  // Admission: fraction of the pool kept free as decode headroom —
  // admitting into a nearly-full pool just converts the arrival into
  // an immediate preemption.
  double admit_reserve = 0.05;
  PreemptionPolicy preemption = PreemptionPolicy::kRecompute;
  // Host link for swap preemption, per device (GB/s = bytes/ns).
  double pcie_gbps = 16.0;
};

class ContinuousScheduler {
 public:
  // `workload` supplies arrival synthesis (seq_min/max = prompt length
  // range, decode_tokens_min/max = generation length range, batch_size
  // = sequences per request group, deadline = per-request SLO) with the
  // same RNG discipline as Server, so both batching modes of the same
  // workload consume identical random streams.
  ContinuousScheduler(sim::Engine& engine, core::InferenceRuntime& runtime,
                      model::ModelSpec model, int tp, WorkloadConfig workload,
                      ContinuousConfig config);

  // Generates and serves the whole workload; single-shot like Server.
  Report run(ArrivalProcess& arrivals);

  // See Server::set_driver.
  void set_driver(std::function<std::uint64_t()> drive) { drive_ = std::move(drive); }

  // Optional: sample this cache's counters into the per-iteration log
  // (feeds the Chrome trace "plan-cache" counter row and the final
  // Report::PlanCacheStats).
  void set_plan_cache_probe(const core::PlanCache* cache) { cache_probe_ = cache; }

  // Fault-tolerant serving: `runtime` must be (or forward to) this
  // failover decorator. On a detected device failure the scheduler
  //  1. withdraws the iteration it had in flight (the drop hook usually
  //     beats it; retract() covers a completion racing the failure),
  //  2. releases every KV block the dead generation held — running
  //     groups, mid-swap-out groups, and host-parked swapped-out groups
  //     (their host copy uses the dead head-shard layout) — and
  //     re-queues the survivors at the front of the waiting queue for a
  //     recompute prefill, shedding any whose deadline already passed
  //     or whose fault-retry budget (workload.max_retries) is spent,
  //  3. rebuilds the paged pool at survivor capacity
  //     (`pool_bytes_per_device(survivors)`, floored at one max-context
  //     group) and re-derives the admission gates from it.
  // `pool_bytes_per_device` is called on the serving host domain.
  void attach_failover(fault::FailoverRuntime& failover,
                       std::function<std::uint64_t(int survivors)> pool_bytes_per_device);

  // Completion timestamps etc. for availability benches.
  const MetricsCollector& metrics() const { return metrics_; }

  // Per-iteration observability sample (KV pressure + plan-cache
  // counters), appended at every iteration completion.
  struct Sample {
    sim::SimTime t = 0;
    int kv_used_blocks = 0;
    int kv_total_blocks = 0;
    int running = 0;   // scheduled request groups
    int waiting = 0;
    std::uint64_t cache_size = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
  };
  const std::vector<Sample>& samples() const { return samples_; }

  const PagedKvAllocator& allocator() const { return allocator_; }

 private:
  sim::Task generator(ArrivalProcess& arrivals);
  void on_arrival(GenRequest request);
  // Iteration-boundary decision point: admit, grow KV, compose and
  // submit the next iteration (no-op while one is in flight).
  void maybe_start_iteration();
  void admit_continuous();
  void admit_rounds();
  // Ensures every group in `members` can extend by one token, preempting
  // victims until the appends fit. Returns false when progress must wait
  // for an in-flight swap-out to free its blocks.
  bool grow_kv(std::vector<int>& members);
  void preempt(int id);
  void start_swap_out(int id);
  void start_swap_in(int id);
  void submit_iteration(model::Phase phase, const std::vector<int>& members);
  void on_iteration_complete(const model::BatchRequest& req, sim::SimTime t);
  void on_iteration_dropped(const model::BatchRequest& req);
  // Runs one completion-dispatch hop after the failover's failure hook
  // (so after the drop above): purge, re-queue/shed, pool rebuild.
  void on_fault_detected(int survivors);
  void shed_request(int id, sim::SimTime t);
  void finish(GenRequest& r, sim::SimTime t);
  void take_sample(sim::SimTime t);
  sim::SimTime pcie_transfer(std::uint64_t bytes_per_device);
  int reserve_blocks() const;

  sim::Engine& engine_;
  core::InferenceRuntime& runtime_;
  model::ModelSpec model_;
  int tp_;
  WorkloadConfig workload_;
  ContinuousConfig config_;
  PagedKvAllocator allocator_;
  util::Rng rng_;
  MetricsCollector metrics_;
  std::function<std::uint64_t()> drive_;
  const core::PlanCache* cache_probe_ = nullptr;

  // --- Fault tolerance (null / inert on fault-free runs) ---------------
  fault::FailoverRuntime* failover_ = nullptr;
  std::function<std::uint64_t(int)> degraded_pool_bytes_;
  const int initial_tp_;   // tp_ shrinks to the survivor count per fault
  int token_budget_;       // re-derived from degraded capacity per fault
  // Bumped per fault; swap-transfer callbacks scheduled before the
  // fault carry the old epoch and turn into no-ops (their blocks were
  // purged).
  int fault_epoch_ = 0;
  // Set when the in-flight iteration was dropped by a failure, cleared
  // by on_fault_detected one hop later: scheduling is suppressed in the
  // window where the dead device's blocks are pending purge.
  bool fault_pending_ = false;

  std::vector<GenRequest> requests_;          // by id
  std::vector<sim::Engine::EventId> deadline_events_;  // by id
  std::vector<bool> timed_out_;               // by id
  std::deque<int> waiting_;                   // FIFO; preempted re-enter at the front
  std::vector<int> running_;                  // admission order; victim = back
  struct Iteration {
    int id = 0;
    model::Phase phase = model::Phase::kDecode;
    std::vector<int> members;
  };
  std::optional<Iteration> inflight_;
  int next_iteration_id_ = 0;
  int round_width_ = 0;            // kRounds: seqs at round start (padding floor)
  sim::SimTime pcie_busy_until_ = 0;
  int swaps_in_flight_ = 0;

  util::SampleSet ttft_ms_;
  util::SampleSet tpot_ms_;
  std::uint64_t decode_seq_sum_ = 0;          // occupancy numerator
  std::uint64_t decode_iterations_ = 0;
  std::vector<sim::SimTime> prev_token_;      // by id; last token boundary
  Report::GenerativeStats gen_;
  std::vector<Sample> samples_;
  bool used_ = false;
};

}  // namespace liger::serving
