#include "serving/server.h"

#include <algorithm>
#include <cassert>

namespace liger::serving {

Server::Server(sim::Engine& engine, core::InferenceRuntime& runtime, WorkloadConfig workload)
    : engine_(engine),
      runtime_(runtime),
      workload_(workload),
      rng_(workload.seed),
      retry_rng_(rng_.fork(0x7e7721ULL)) {
  assert(workload_.num_requests >= 1);
  assert(workload_.seq_min >= 1 && workload_.seq_min <= workload_.seq_max);
  assert(workload_.deadline >= 0 && workload_.max_retries >= 0);
  assert(workload_.retry_jitter >= 0.0 && workload_.retry_jitter < 1.0);
}

void Server::dispatch(model::BatchRequest request) {
  metrics_.on_arrival(request);
  Pending p;
  p.request = request;
  if (workload_.deadline > 0) {
    const int id = request.id;
    p.deadline_event =
        engine_.schedule_at(request.arrival + workload_.deadline, [this, id] {
          auto it = pending_.find(id);
          if (it == pending_.end()) return;
          it->second.timed_out = true;
          metrics_.on_timeout(engine_.now());
        });
  }
  pending_.emplace(request.id, std::move(p));
  runtime_.submit(std::move(request));
}

void Server::on_runtime_complete(const model::BatchRequest& request, sim::SimTime t) {
  auto it = pending_.find(request.id);
  if (it == pending_.end()) return;  // already abandoned
  engine_.cancel(it->second.deadline_event);
  metrics_.on_complete(request, t, !it->second.timed_out);
  pending_.erase(it);
}

void Server::on_runtime_drop(const model::BatchRequest& request) {
  any_drop_ = true;
  auto it = pending_.find(request.id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.attempts > workload_.max_retries) {
    // Retry budget exhausted: the request is lost.
    engine_.cancel(p.deadline_event);
    ++abandoned_;
    pending_.erase(it);
    return;
  }
  // Exponential backoff, capped, with deterministic +/- jitter so
  // retried batches from concurrent failures don't stampede in lockstep.
  const int retry = p.attempts;  // 1 for the first retry
  ++p.attempts;
  metrics_.note_retry();
  sim::SimTime backoff = workload_.retry_backoff;
  for (int i = 1; i < retry && backoff < workload_.retry_backoff_cap; ++i) backoff *= 2;
  backoff = std::min(backoff, workload_.retry_backoff_cap);
  const double jitter = workload_.retry_jitter * (2.0 * retry_rng_.next_double() - 1.0);
  const sim::SimTime delay = std::max<sim::SimTime>(
      0, backoff + static_cast<sim::SimTime>(static_cast<double>(backoff) * jitter));
  model::BatchRequest again = p.request;
  engine_.schedule_after(delay, [this, again] { runtime_.submit(again); });
}

void Server::install_hooks() {
  // The server's bookkeeping lives on its own engine; runtimes fire
  // these hooks from another engine domain (a node's sub-engine in a
  // partitioned run), so route through invoke_after with the completion
  // dispatch cost — the same delay in serial and partitioned runs, and
  // the physics behind the node->host lookahead claim. Metrics use the
  // carried completion time `t`, not the bookkeeping time, so latency
  // numbers don't shift.
  runtime_.set_completion_hook(
      [this](const model::BatchRequest& req, sim::SimTime t) {
        engine_.invoke_after(core::kCompletionDispatchLatency,
                             [this, req, t] { on_runtime_complete(req, t); });
      });
  runtime_.set_drop_hook([this](const model::BatchRequest& req) {
    engine_.invoke_after(core::kCompletionDispatchLatency,
                         [this, req] { on_runtime_drop(req); });
  });
}

sim::Task Server::generator(ArrivalProcess& arrivals) {
  for (int i = 0; i < workload_.num_requests; ++i) {
    model::BatchRequest req;
    req.id = i;
    req.batch_size = workload_.batch_size;
    req.seq = static_cast<int>(rng_.uniform_int(workload_.seq_min, workload_.seq_max));
    req.phase = workload_.phase;
    req.arrival = engine_.now();
    dispatch(req);
    if (i + 1 < workload_.num_requests) {
      co_await sim::delay(engine_, arrivals.next_gap(rng_));
    }
  }
}

Report Server::run(ArrivalProcess& arrivals) {
  assert(!used_ && "Server::run is single-shot");
  used_ = true;
  install_hooks();
  generator(arrivals);
  if (drive_) {
    drive_();
  } else {
    engine_.run();
  }
  // Healthy runs complete everything; runs with faults may lose
  // requests (dropped past the retry budget, or hung on a generation
  // that was retired without a viable recovery).
  assert((metrics_.completions() == static_cast<std::size_t>(workload_.num_requests) ||
          any_drop_) &&
         "all submitted requests must complete in a fault-free run");
  return metrics_.report(arrivals.rate());
}

}  // namespace liger::serving
