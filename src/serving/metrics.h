// Serving metrics (§4.1): per-request latency (pending time + CUDA
// execution time, i.e. completion - arrival) and system throughput,
// plus the availability metrics of the fault experiments — SLO
// (deadline) violations, retries and goodput, i.e. throughput counting
// only requests that completed within their deadline.
#pragma once

#include <cstdint>
#include <vector>

#include "model/batch.h"
#include "sim/time.h"
#include "util/stats.h"

namespace liger::serving {

struct Report {
  std::size_t completed = 0;
  double offered_rate = 0.0;        // batches/s the generator targeted
  double avg_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  // Achieved throughput: completed batches per second of wall time
  // between the first arrival and the last completion.
  double throughput_bps = 0.0;
  // Same in requests/s (batches * batch_size).
  double throughput_rps = 0.0;
  sim::SimTime makespan = 0;

  // --- Availability (deadline / fault experiments) ---------------------
  std::size_t timed_out = 0;   // requests that blew their deadline
  std::size_t retries = 0;     // resubmissions after a drop
  std::size_t lost = 0;        // never completed (gave up / unrecoverable)
  // Deliberately dropped by load shedding after a fault (deadline
  // already blown or retry budget exhausted at requeue). A subset of
  // `lost` — shed requests are accounted, not leaked.
  std::size_t shed = 0;
  // Throughput over requests that completed within their deadline only.
  // Equals throughput when no deadline is configured.
  double goodput_bps = 0.0;
  double goodput_rps = 0.0;
  // timed_out / arrivals; 0 with no deadline.
  double slo_violation_rate = 0.0;

  // The offered load exceeded what the system could absorb (pending
  // queue kept growing). Judged on goodput: requests that completed
  // but blew their deadline don't count as absorbed.
  bool saturated(double tolerance = 0.95) const {
    return goodput_bps < offered_rate * tolerance;
  }

  // --- Generative serving (iteration-level batching) -------------------
  // Filled by the generative schedulers (ContinuousScheduler in either
  // batching mode); all-zero for plain one-shot serving runs.
  struct GenerativeStats {
    bool enabled = false;
    std::uint64_t iterations = 0;        // model forward passes
    std::uint64_t tokens = 0;            // decode steps completed (per group)
    double tokens_per_second = 0.0;
    double ttft_ms_avg = 0.0;            // time to first token
    double ttft_ms_p99 = 0.0;
    double tpot_ms_avg = 0.0;            // time per output token
    double tpot_ms_p99 = 0.0;
    // Mean sequences per decode iteration (batch occupancy).
    double decode_batch_avg = 0.0;
    // Tokens the padded rectangular iterations executed beyond the real
    // ragged content — the static-batching waste continuous mode recovers.
    std::uint64_t padding_tokens = 0;
    // Disruption under memory pressure.
    std::size_t preemptions = 0;
    std::size_t recomputes = 0;
    std::size_t swap_outs = 0;
    std::size_t swap_ins = 0;
    // Requests re-queued for a recompute prefill because a device
    // failure invalidated their KV state.
    std::size_t fault_requeues = 0;
    std::uint64_t swap_bytes = 0;        // per-device PCIe traffic
    // Paged KV pool (per device).
    int kv_block_tokens = 0;
    int kv_total_blocks = 0;
    int kv_peak_used_blocks = 0;
    std::uint64_t kv_block_bytes = 0;
    double kv_peak_utilization = 0.0;    // at peak usage: real tokens / capacity
    std::uint64_t kv_failed_allocs = 0;
  };
  GenerativeStats generative;

  // --- Plan-cache behaviour under iteration-level key churn ------------
  // Filled whenever the backing runtime exposes a PlanCache.
  struct PlanCacheStats {
    bool enabled = false;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t peak_size = 0;   // most plans ever retained
    std::uint64_t capacity = 0;    // LRU bound; 0 = unbounded
  };
  PlanCacheStats plan_cache;

  // --- Parallel-engine execution (observability only) ------------------
  // Filled when the experiment ran under a partitioned engine; all-zero
  // on serial runs. Pure execution-machinery stats: every field is a
  // function of the simulation's round structure except barrier_wait_ns
  // (wall clock, varies run to run) — none feed back into results.
  struct EngineStats {
    bool partitioned = false;
    std::uint64_t windows = 0;
    std::uint64_t inner_windows = 0;  // device sub-windows inside supersteps
    std::uint64_t inner_equal_time_rounds = 0;
    std::uint64_t equal_time_rounds = 0;
    std::uint64_t events = 0;
    std::uint64_t posts_routed = 0;
    std::uint64_t mailbox_spills = 0;
    std::uint64_t barrier_wait_ns = 0;
    double events_per_window = 0.0;  // events / (windows + equal-time rounds)
  };
  EngineStats engine;
};

class MetricsCollector {
 public:
  void on_arrival(const model::BatchRequest& request);
  // `within_slo` is false for completions past their deadline; they
  // count toward throughput but not goodput.
  void on_complete(const model::BatchRequest& request, sim::SimTime completion,
                   bool within_slo = true);
  void on_timeout(sim::SimTime now);
  void note_retry() { ++retries_; }
  // A shed request ends the run without completing; it still extends
  // the makespan (the decision is an availability event).
  void on_shed(sim::SimTime now);

  std::size_t arrivals() const { return arrivals_; }
  std::size_t completions() const { return latencies_ns_.count(); }
  std::size_t timeouts() const { return timeouts_; }
  std::size_t retries() const { return retries_; }
  std::size_t shed() const { return shed_; }

  // Completion timestamps in arrival order of completion — the fault
  // benches bucket these to plot goodput over time around an outage.
  const std::vector<sim::SimTime>& completion_times() const { return completion_times_; }

  Report report(double offered_rate) const;

 private:
  std::size_t arrivals_ = 0;
  std::uint64_t batch_size_sum_ = 0;
  util::SampleSet latencies_ns_;
  sim::SimTime first_arrival_ = -1;
  sim::SimTime last_completion_ = 0;
  std::size_t slo_ok_ = 0;              // completions within deadline
  std::uint64_t slo_ok_batch_sum_ = 0;
  std::size_t timeouts_ = 0;
  std::size_t retries_ = 0;
  std::size_t shed_ = 0;
  std::vector<sim::SimTime> completion_times_;
};

}  // namespace liger::serving
