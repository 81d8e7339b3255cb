// The serving frontend: generates batched requests with a chosen
// arrival process and drives a runtime backend, collecting metrics
// until all requests complete (or are abandoned after exhausting their
// retry budget under faults).
//
// Availability features (all off by default, leaving the healthy path
// untouched):
//  * per-request deadlines — a request not completed within `deadline`
//    of its arrival counts as an SLO violation; late completions still
//    count toward throughput but not goodput,
//  * retry with exponential backoff — when the runtime reports a batch
//    dropped (its devices failed mid-flight), the server resubmits it
//    after min(retry_backoff * 2^(attempt-1), retry_backoff_cap) plus a
//    deterministic jitter drawn from a forked RNG stream, up to
//    `max_retries` times.
#pragma once

#include <memory>
#include <unordered_map>

#include "core/runtime.h"
#include "serving/arrival.h"
#include "serving/metrics.h"
#include "sim/engine.h"
#include "sim/task.h"
#include "util/rng.h"

namespace liger::serving {

struct WorkloadConfig {
  int num_requests = 2000;   // paper §4.1: metrics over 2000 requests
  int batch_size = 2;
  int seq_min = 16;          // §4.2: random traces, seq in [16, 128]
  int seq_max = 128;
  model::Phase phase = model::Phase::kPrefill;
  std::uint64_t seed = 7;

  // --- Generative serving (ContinuousScheduler; Server ignores these) --
  // Decode steps per request, drawn uniformly. 0 = one-shot serving:
  // each request is a single batch, handled by Server. When
  // decode_tokens_max > 0, seq_min/max become the prompt-length range.
  int decode_tokens_min = 0;
  int decode_tokens_max = 0;

  // --- Availability knobs (0 = disabled) -------------------------------
  sim::SimTime deadline = 0;       // per-request SLO, from arrival
  int max_retries = 0;             // resubmissions after a drop
  sim::SimTime retry_backoff = sim::milliseconds(2);       // first retry
  sim::SimTime retry_backoff_cap = sim::milliseconds(64);  // exp. ceiling
  double retry_jitter = 0.25;      // +/- fraction of the backoff
};

class Server {
 public:
  Server(sim::Engine& engine, core::InferenceRuntime& runtime, WorkloadConfig workload);

  // Generates and serves the whole workload; runs the engine until the
  // last completion. Must be called at most once.
  Report run(ArrivalProcess& arrivals);

  const MetricsCollector& metrics() const { return metrics_; }
  // Requests abandoned after exhausting their retry budget.
  std::size_t abandoned() const { return abandoned_; }

  // Replaces the default `engine_.run()` drain inside run() — a
  // partitioned experiment installs the ParallelEngine's windowed run
  // here. The driver must execute the server's engine (it is one of the
  // partition's domains) to exhaustion.
  void set_driver(std::function<std::uint64_t()> drive) { drive_ = std::move(drive); }

 private:
  struct Pending {
    model::BatchRequest request;   // original arrival preserved across retries
    int attempts = 1;              // submissions so far
    bool timed_out = false;
    sim::Engine::EventId deadline_event;
  };

  sim::Task generator(ArrivalProcess& arrivals);
  void install_hooks();
  void dispatch(model::BatchRequest request);  // first submission
  void on_runtime_complete(const model::BatchRequest& request, sim::SimTime t);
  void on_runtime_drop(const model::BatchRequest& request);

  sim::Engine& engine_;
  core::InferenceRuntime& runtime_;
  WorkloadConfig workload_;
  MetricsCollector metrics_;
  util::Rng rng_;
  util::Rng retry_rng_;  // forked: retry jitter must not perturb workload synthesis
  std::unordered_map<int, Pending> pending_;
  std::function<std::uint64_t()> drive_;  // see set_driver()
  std::size_t abandoned_ = 0;
  bool any_drop_ = false;
  bool used_ = false;
};

}  // namespace liger::serving
