#include "sim/parallel_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace liger::sim {

namespace {

[[noreturn]] void invariant_failed(const char* what) {
  std::fprintf(stderr, "sim::ParallelEngine invariant violated: %s\n", what);
  std::abort();
}

// Domain whose window this thread is executing; -1 between windows and
// on threads that never ran one.
thread_local int tls_domain = -1;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

// Persistent workers synchronized by an epoch counter instead of a task
// queue. Rounds are typically a few microseconds of simulation work;
// packaged_task allocation plus a mutex/condvar handoff per window (the
// PR 5 design) costs more than many windows execute. Here a round is:
// the coordinator bumps `epoch_` (one release RMW), every worker runs a
// *static* slice of the active set (participant p takes indices
// congruent to p modulo the team size), decrements `pending_`, and the
// coordinator spin-waits for zero. Static slices keep the assignment a
// pure function of the active set — no work-stealing cursor whose
// stale updates could race the next round's reset — so determinism
// needs no reasoning about inter-thread timing at all. Workers spin
// briefly between rounds, then park on a condvar; the coordinator only
// takes the mutex when a sleeper exists.
class ParallelEngine::WorkerTeam {
 public:
  WorkerTeam(ParallelEngine& pe, unsigned workers)
      : pe_(pe), stride_(workers + 1), finish_(workers) {
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~WorkerTeam() {
    stop_.store(true, std::memory_order_seq_cst);
    bump_and_wake();
    for (auto& t : threads_) t.join();
  }

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  // Executes the round across the team plus the calling thread and
  // returns only after every window ran. Superstep rounds slice the
  // active *group* list — a worker owns whole supersteps, so the inner
  // barriers of a group are worker-local by construction; equal-time
  // rounds slice the active domain list as before.
  void run_round(bool equal_time) {
    equal_time_ = equal_time;
    round_start_ = std::chrono::steady_clock::now();
    pending_.store(static_cast<int>(threads_.size()), std::memory_order_relaxed);
    bump_and_wake();
    run_slice(0);  // the coordinator is participant 0
    if (pending_.load(std::memory_order_acquire) != 0) {
      const auto wait_start = std::chrono::steady_clock::now();
      while (pending_.load(std::memory_order_acquire) != 0) cpu_relax();
      pe_.stats_.barrier_wait_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - wait_start)
              .count());
    }
    // Attribute the workers' side of the barrier too: each worker
    // stamped the moment its slice finished (the release fetch_sub on
    // pending_ orders the stamp before our acquire above), so the gap
    // to the round's close is exactly how long that worker sat idle —
    // spinning or parked on the condvar — while the round was still
    // open. Without this the reported wait is coordinator-only and
    // reads ~0 even when the slices are badly imbalanced.
    const auto round_end = std::chrono::steady_clock::now();
    for (const FinishStamp& f : finish_) {
      if (f.t > round_start_ && f.t < round_end) {
        pe_.stats_.barrier_wait_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(round_end - f.t).count());
      }
    }
  }

 private:
  static constexpr int kSpinIters = 4096;

  void bump_and_wake() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      cv_.notify_all();
    }
  }

  void run_slice(unsigned participant) {
    if (equal_time_) {
      const auto& active = pe_.active_;
      for (std::size_t i = participant; i < active.size(); i += stride_) {
        const int d = active[i];
        pe_.run_window(d, pe_.bounds_[static_cast<std::size_t>(d)], true);
      }
      return;
    }
    const auto& groups = pe_.active_groups_;
    for (std::size_t i = participant; i < groups.size(); i += stride_) {
      const int g = groups[i];
      pe_.run_superstep(g, pe_.group_bounds_[static_cast<std::size_t>(g)]);
    }
  }

  void worker_loop(unsigned id) {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t e = epoch_.load(std::memory_order_acquire);
      for (int spin = 0; e == seen && spin < kSpinIters; ++spin) {
        cpu_relax();
        e = epoch_.load(std::memory_order_acquire);
      }
      if (e == seen) {
        std::unique_lock<std::mutex> lock(mutex_);
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        cv_.wait(lock, [&] {
          return epoch_.load(std::memory_order_acquire) != seen;
        });
        sleepers_.fetch_sub(1, std::memory_order_seq_cst);
        e = epoch_.load(std::memory_order_acquire);
      }
      seen = e;
      if (stop_.load(std::memory_order_acquire)) return;
      run_slice(id + 1);
      finish_[id].t = std::chrono::steady_clock::now();
      pending_.fetch_sub(1, std::memory_order_release);
    }
  }

  // Per-worker slice-finish timestamp, written by the owning worker and
  // read by the coordinator only after the barrier closes.
  struct alignas(64) FinishStamp {
    std::chrono::steady_clock::time_point t{};
  };

  ParallelEngine& pe_;
  const unsigned stride_;
  bool equal_time_ = false;  // written by the coordinator before each epoch bump
  std::chrono::steady_clock::time_point round_start_{};
  std::vector<FinishStamp> finish_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> pending_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::thread> threads_;
};

int ParallelEngine::current_domain() { return tls_domain; }

ParallelEngine::ParallelEngine(int num_domains, Options options)
    : lookahead_(num_domains),
      executed_(static_cast<std::size_t>(num_domains)),
      routed_posts_(static_cast<std::size_t>(num_domains)),
      cross_routed_(static_cast<std::size_t>(num_domains)),
      bounds_(static_cast<std::size_t>(num_domains), 0),
      pending_from_(num_domains <= 64 ? static_cast<std::size_t>(num_domains) : 0) {
  if (num_domains < 1) invariant_failed("at least one domain required");
  engines_.reserve(static_cast<std::size_t>(num_domains));
  for (int d = 0; d < num_domains; ++d) {
    auto e = std::make_unique<Engine>();
    e->router_ = this;
    e->domain_id_ = d;
    engines_.push_back(std::move(e));
  }
  mailboxes_.resize(static_cast<std::size_t>(num_domains) *
                    static_cast<std::size_t>(num_domains));
  for (int s = 0; s < num_domains; ++s) {
    for (int d = 0; d < num_domains; ++d) {
      if (s == d) continue;
      mailboxes_[static_cast<std::size_t>(s) * static_cast<std::size_t>(num_domains) +
                 static_cast<std::size_t>(d)] =
          std::make_unique<SpscMailbox>(options.mailbox_capacity);
    }
  }
  active_.reserve(static_cast<std::size_t>(num_domains));
  default_groups();
}

void ParallelEngine::default_groups() {
  const int n = num_domains();
  groups_.clear();
  groups_.resize(static_cast<std::size_t>(n));
  group_of_.resize(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    groups_[static_cast<std::size_t>(d)].members = {d};
    group_of_[static_cast<std::size_t>(d)] = d;
  }
}

void ParallelEngine::set_groups(std::vector<std::vector<int>> groups) {
  if (running_) invariant_failed("set_groups during run()");
  const int n = num_domains();
  std::vector<int> owner(static_cast<std::size_t>(n), -1);
  groups_.clear();
  groups_.resize(groups.size());
  group_of_.assign(static_cast<std::size_t>(n), -1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) invariant_failed("empty group in partition");
    std::sort(groups[g].begin(), groups[g].end());
    for (const int d : groups[g]) {
      if (d < 0 || d >= n) invariant_failed("group member out of range");
      if (owner[static_cast<std::size_t>(d)] != -1) {
        invariant_failed("domain assigned to two groups");
      }
      owner[static_cast<std::size_t>(d)] = static_cast<int>(g);
      group_of_[static_cast<std::size_t>(d)] = static_cast<int>(g);
    }
    groups_[g].members = std::move(groups[g]);
  }
  for (int d = 0; d < n; ++d) {
    if (group_of_[static_cast<std::size_t>(d)] == -1) {
      invariant_failed("domain missing from the group partition");
    }
  }
}

ParallelEngine::~ParallelEngine() {
  // Detach the routers so late Engine teardown (pending callbacks
  // destroyed by ~Engine) cannot touch a dead ParallelEngine.
  for (auto& e : engines_) {
    e->router_ = nullptr;
  }
}

void ParallelEngine::post(int dst, SimTime t, Engine::Callback cb) {
  if (dst < 0 || dst >= num_domains()) invariant_failed("post to unknown domain");
  if (!cb) invariant_failed("null cross-domain callback");
  const int src = tls_domain;
  if (src < 0) {
    // Outside any window the caller is the only thread (setup, teardown,
    // or between-windows coordinator code): schedule directly.
    ++stats_.posts_direct;
    engines_[static_cast<std::size_t>(dst)]->schedule_at(t, std::move(cb));
    return;
  }
  if (src == dst) {
    engines_[static_cast<std::size_t>(src)]->schedule_at(t, std::move(cb));
    return;
  }
  // The conservative windows are only safe if every cross-domain event
  // honours its pairwise lookahead claim.
  if (t < engines_[static_cast<std::size_t>(src)]->now() + lookahead_.get(src, dst)) {
    invariant_failed("cross-domain post violates its lookahead claim");
  }
  ++routed_posts_[static_cast<std::size_t>(src)].n;
  // Intra-group posts merge at the sender's own inner barrier; only
  // cross-group traffic needs the outer drain (the drain-skip check).
  if (group_of_[static_cast<std::size_t>(src)] == group_of_[static_cast<std::size_t>(dst)]) {
    ++groups_[static_cast<std::size_t>(group_of_[static_cast<std::size_t>(src)])]
          .intra_routed;
  } else {
    ++cross_routed_[static_cast<std::size_t>(src)].n;
  }
  mailbox(src, dst).push(t, std::move(cb));
  if (!pending_from_.empty()) {
    pending_from_[static_cast<std::size_t>(dst)].v.fetch_or(
        std::uint64_t{1} << static_cast<unsigned>(src), std::memory_order_release);
  }
}

void ParallelEngine::post_from_current(int dst, Engine::Callback cb) {
  const int src = tls_domain;
  if (src < 0) {
    // Single-threaded context: the synchronous-call semantics this
    // mirrors are safe to keep.
    cb();
    return;
  }
  post(dst, engines_[static_cast<std::size_t>(src)]->now(), std::move(cb));
}

void ParallelEngine::post_after(int dst, SimTime dt, Engine::Callback cb) {
  const int src = tls_domain;
  // Outside any window the destination's clock is the only meaningful
  // base (and the caller is single-threaded); inside a window the delay
  // is anchored at the *sender's* clock — never read a peer's clock
  // from a worker thread.
  const SimTime base = (src < 0) ? engines_[static_cast<std::size_t>(dst)]->now()
                                 : engines_[static_cast<std::size_t>(src)]->now();
  post(dst, base + dt, std::move(cb));
}

void ParallelEngine::run_window(int d, SimTime bound, bool equal_time) {
  tls_domain = d;
  Engine& e = *engines_[static_cast<std::size_t>(d)];
  SimTime next;
  executed_[static_cast<std::size_t>(d)].n +=
      equal_time ? e.run_at_time(bound, &next) : e.run_before(bound, &next);
  tls_domain = -1;
  // Fused horizon publication: the run loop already peeked the entry
  // that broke the window, so store the horizon now and spare the
  // coordinator's publish pass its settle-and-peek. Mail arriving at a later drain re-marks
  // the domain dirty; moved_ tells the publish pass the value changed
  // so the bound closure still recomputes.
  const SimTime h = (next == Engine::kNoEvent) ? EventHorizon::kInfinity : next;
  if (h != prev_horizons_[static_cast<std::size_t>(d)]) {
    prev_horizons_[static_cast<std::size_t>(d)] = h;
    moved_[static_cast<std::size_t>(d)] = 1;
  }
  dirty_[static_cast<std::size_t>(d)] = 0;
}

void ParallelEngine::drain_mailboxes() {
  const int n = num_domains();
  const bool masked = !pending_from_.empty();
  SpscMailbox::Entry entry;
  for (int dst = 0; dst < n; ++dst) {
    std::uint64_t mask = ~std::uint64_t{0};
    if (masked) {
      mask = pending_from_[static_cast<std::size_t>(dst)].v.exchange(
          0, std::memory_order_acquire);
      if (mask == 0) continue;
    }
    Engine& target = *engines_[static_cast<std::size_t>(dst)];
    for (int src = 0; src < n; ++src) {
      if (src == dst) continue;
      if (masked && !(mask >> static_cast<unsigned>(src) & 1u)) continue;
      SpscMailbox& box = mailbox(src, dst);
      while (box.pop(entry)) {
        target.schedule_at(entry.time, std::move(entry.cb));
        if (!dirty_.empty()) dirty_[static_cast<std::size_t>(dst)] = 1;
      }
    }
  }
}

void ParallelEngine::drain_group(GroupState& gs) {
  SpscMailbox::Entry entry;
  for (const int dst : gs.members) {
    Engine& target = *engines_[static_cast<std::size_t>(dst)];
    for (const int src : gs.members) {
      if (src == dst) continue;
      SpscMailbox& box = mailbox(src, dst);
      while (box.pop(entry)) {
        target.schedule_at(entry.time, std::move(entry.cb));
        dirty_[static_cast<std::size_t>(dst)] = 1;
      }
    }
  }
}

void ParallelEngine::run_superstep(int g, SimTime outer_bound) {
  GroupState& gs = groups_[static_cast<std::size_t>(g)];
  if (gs.members.size() == 1) {
    // Singleton group: a superstep is exactly one flat window.
    run_window(gs.members[0], outer_bound, false);
    return;
  }
  if (gs.forward_only) {
    // The members form a DAG in ascending order (no backward reach in
    // the intra closure), so the iterated horizon/bound loop collapses
    // to one forward sweep: by the time member i runs, every member
    // that could influence it has already advanced to the outer bound,
    // so i's own bound is exactly the outer bound. Mail merges after
    // each member, before any downstream member runs; backward mail
    // cannot exist (the claim check aborts on it).
    const std::size_t m = gs.members.size();
    for (std::size_t i = 0; i < m; ++i) {
      run_window(gs.members[i], outer_bound, false);
      if (gs.intra_routed != gs.intra_seen) {
        drain_group(gs);
        gs.intra_seen = gs.intra_routed;
      }
    }
    ++gs.inner_windows;  // the sweep is one inner round
    return;
  }
  // Inner window loop: the same conservative algorithm, restricted to
  // the group's members and capped at the group's outer bound. Member
  // bounds are min(intra closure over member horizons, outer bound) —
  // chains that stay inside the group are covered by the former, chains
  // that leave and re-enter by the latter (the outer matrix includes
  // the group self-echo). Everything here runs on one worker, so the
  // inner barriers — the drain_group calls — never involve the
  // coordinator or any other thread.
  const std::size_t m = gs.members.size();
  for (;;) {
    SimTime minh = EventHorizon::kInfinity;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t dm = static_cast<std::size_t>(gs.members[i]);
      // Members that just ran stored their horizon from the window
      // loop's own peek (run_window); only members that received mail
      // since — the dirty ones — need a fresh settle-and-peek.
      SimTime h = prev_horizons_[dm];
      if (dirty_[dm]) {
        dirty_[dm] = 0;
        const SimTime t = engines_[dm]->next_event_time();
        h = (t == Engine::kNoEvent) ? EventHorizon::kInfinity : t;
        if (h != prev_horizons_[dm]) {
          prev_horizons_[dm] = h;
          moved_[dm] = 1;
        }
      }
      gs.h[i] = h;
      minh = std::min(minh, h);
    }
    if (minh >= outer_bound) break;  // nothing left below the group's bound
    for (std::size_t i = 0; i < m; ++i) {
      SimTime bound = outer_bound;
      for (std::size_t s = 0; s < m; ++s) {
        const SimTime reach = EventHorizon::saturating_add(
            gs.h[s], gs.intra.get(static_cast<int>(s), static_cast<int>(i)));
        if (reach < bound) bound = reach;
      }
      gs.b[i] = bound;
    }
    bool any = false;
    for (std::size_t i = 0; i < m; ++i) {
      if (gs.h[i] != EventHorizon::kInfinity && gs.h[i] < gs.b[i]) {
        run_window(gs.members[i], gs.b[i], false);
        any = true;
      }
    }
    if (any) {
      ++gs.inner_windows;
    } else {
      // Members tied at the group minimum with no intra slack: an inner
      // equal-time round of the fixed point, exactly like the outer one.
      for (std::size_t i = 0; i < m; ++i) {
        if (gs.h[i] == minh) run_window(gs.members[i], minh, true);
      }
      ++gs.inner_equal_time;
    }
    // Inner barrier: merge mail between members (worker-local — these
    // mailboxes have no other producer or consumer during the round).
    if (gs.intra_routed != gs.intra_seen) {
      drain_group(gs);
      gs.intra_seen = gs.intra_routed;
    }
  }
}

std::uint64_t ParallelEngine::total_executed() const {
  std::uint64_t total = 0;
  for (const auto& c : executed_) total += c.n;
  return total;
}

std::uint64_t ParallelEngine::total_routed() const {
  std::uint64_t total = 0;
  for (const auto& c : routed_posts_) total += c.n;
  return total;
}

std::uint64_t ParallelEngine::total_cross_routed() const {
  std::uint64_t total = 0;
  for (const auto& c : cross_routed_) total += c.n;
  return total;
}

std::uint64_t ParallelEngine::total_inner_rounds() const {
  std::uint64_t total = 0;
  for (const auto& gs : groups_) total += gs.inner_windows + gs.inner_equal_time;
  return total;
}

std::uint64_t ParallelEngine::run(unsigned threads) {
  if (running_) invariant_failed("run() is not reentrant");
  running_ = true;
  const int n = num_domains();
  const int ng = num_groups();
  if (threads < 1) threads = 1;
  // A worker owns whole supersteps, so threads beyond the group count
  // would only ever idle at the barrier.
  threads = std::min<unsigned>(threads, static_cast<unsigned>(ng));
  // Worker count is a pure execution knob: results are bit-identical at
  // any value, so oversubscribing the machine only buys context-switch
  // thrash (a window barrier on a single core costs several scheduler
  // round-trips). Clamp to the hardware; the domain layout — and with
  // it the window structure — is fixed by the partition, not by how
  // many OS threads happen to execute it.
  threads = std::min<unsigned>(threads, std::max(1u, std::thread::hardware_concurrency()));

  // Workers persist for the whole run and synchronize on an epoch
  // barrier; single-group rounds stay on the calling thread without
  // touching the team. threads == 1 executes the identical schedule on
  // the calling thread.
  std::unique_ptr<WorkerTeam> team;
  if (threads > 1) team = std::make_unique<WorkerTeam>(*this, threads - 1);

  const std::uint64_t before = stats_.events;
  // Posts made before run() (construction-time wiring) merge first.
  drain_mailboxes();
  std::uint64_t cross_seen = total_cross_routed();
  prev_horizons_.assign(static_cast<std::size_t>(n), -1);  // never a horizon
  dirty_.assign(static_cast<std::size_t>(n), 1);           // peek everyone once
  moved_.assign(static_cast<std::size_t>(n), 0);
  group_horizons_.assign(static_cast<std::size_t>(ng), -1);
  group_bounds_.assign(static_cast<std::size_t>(ng), 0);
  // The lookahead graph is fixed for the whole run, so the min-plus
  // fixed point folds into static matrices: per round, a group's bound
  // is a flat min over group_horizon(a) + closed(a, g) — no iterative
  // relaxation, no atomic re-reads (LookaheadMatrix::closed_bound_matrix).
  // The outer matrix closes over *groups* (pairwise entry = min member
  // lookahead); each multi-member group additionally closes its members'
  // lookaheads for the inner loop (run_superstep). With singleton groups
  // the outer matrix is exactly the flat closed matrix.
  LookaheadMatrix group_lookahead(ng);
  for (int a = 0; a < ng; ++a) {
    for (int b = 0; b < ng; ++b) {
      if (a == b) continue;
      SimTime best = EventHorizon::kInfinity;
      for (const int s : groups_[static_cast<std::size_t>(a)].members) {
        for (const int d : groups_[static_cast<std::size_t>(b)].members) {
          best = std::min(best, lookahead_.get(s, d));
        }
      }
      group_lookahead.set(a, b, best);
    }
  }
  const LookaheadMatrix closed = group_lookahead.closed_bound_matrix();
  for (auto& gs : groups_) {
    const std::size_t m = gs.members.size();
    gs.h.assign(m, 0);
    gs.b.assign(m, 0);
    if (m > 1) {
      LookaheadMatrix local(static_cast<int>(m));
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          if (i == j) continue;
          local.set(static_cast<int>(i), static_cast<int>(j),
                    lookahead_.get(gs.members[i], gs.members[j]));
        }
      }
      gs.intra = local.closed_bound_matrix();
      gs.forward_only = true;
      for (std::size_t i = 0; i < m && gs.forward_only; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
          if (gs.intra.get(static_cast<int>(i), static_cast<int>(j)) !=
              EventHorizon::kInfinity) {
            gs.forward_only = false;
            break;
          }
        }
      }
    }
  }
  for (;;) {
    // 1. Publish horizons into the coordinator's arrays, once per round
    // (not per event); group horizons are the min over members. Windows
    // store their own closing horizon (run_window's fused peek), so the
    // pass only re-peeks domains that received mail since — the dirty
    // ones — and learns about window-driven changes from the moved_
    // flags.
    SimTime min_next = EventHorizon::kInfinity;
    bool moved = false;
    std::fill(group_horizons_.begin(), group_horizons_.end(), EventHorizon::kInfinity);
    for (int d = 0; d < n; ++d) {
      SimTime h = prev_horizons_[static_cast<std::size_t>(d)];
      if (dirty_[static_cast<std::size_t>(d)]) {
        dirty_[static_cast<std::size_t>(d)] = 0;
        const SimTime t = engines_[static_cast<std::size_t>(d)]->next_event_time();
        h = (t == Engine::kNoEvent) ? EventHorizon::kInfinity : t;
        if (h != prev_horizons_[static_cast<std::size_t>(d)]) {
          prev_horizons_[static_cast<std::size_t>(d)] = h;
          moved = true;
        }
      } else if (moved_[static_cast<std::size_t>(d)]) {
        moved = true;
      }
      moved_[static_cast<std::size_t>(d)] = 0;
      min_next = std::min(min_next, h);
      SimTime& gh = group_horizons_[static_cast<std::size_t>(
          group_of_[static_cast<std::size_t>(d)])];
      gh = std::min(gh, h);
    }
    if (min_next == EventHorizon::kInfinity) break;  // all queues drained
    // 2. Conservative bounds from the *effective* horizons — the
    // min-plus closure that accounts for idle domains being
    // re-activated by peers (an empty queue is not an infinite
    // promise; see horizon.h). When no horizon moved since the last
    // round the closure (and the bounds derived from it) cannot have
    // moved either, so the recomputation is skipped.
    if (moved) {
      for (int g = 0; g < ng; ++g) {
        SimTime bound = EventHorizon::kInfinity;
        for (int a = 0; a < ng; ++a) {
          const SimTime reach = EventHorizon::saturating_add(
              group_horizons_[static_cast<std::size_t>(a)], closed.get(a, g));
          if (reach < bound) bound = reach;
        }
        group_bounds_[static_cast<std::size_t>(g)] = bound;
      }
    } else {
      ++stats_.horizon_skips;
    }
    active_groups_.clear();
    for (int g = 0; g < ng; ++g) {
      const SimTime gh = group_horizons_[static_cast<std::size_t>(g)];
      if (gh != EventHorizon::kInfinity && gh < group_bounds_[static_cast<std::size_t>(g)]) {
        active_groups_.push_back(g);
      }
    }

    // 3./4. Execute a round of parallel supersteps, or an equal-time
    // round when groups are tied at the global minimum with no
    // lookahead slack. Equal-time rounds run at *domain* granularity:
    // exactly the domains holding the minimum execute that timestamp.
    const bool equal_time = active_groups_.empty();
    if (equal_time) {
      active_.clear();
      for (int d = 0; d < n; ++d) {
        if (prev_horizons_[static_cast<std::size_t>(d)] == min_next) active_.push_back(d);
      }
      for (int& d : active_) bounds_[static_cast<std::size_t>(d)] = min_next;
      ++stats_.equal_time_rounds;
    } else {
      ++stats_.windows;
    }

    const std::uint64_t executed_before =
        window_log_ != nullptr ? total_executed() : 0;
    const std::uint64_t inner_before =
        window_log_ != nullptr ? total_inner_rounds() : 0;

    // Windows maintain the published horizons themselves (fused store
    // in run_window + moved_ flags), so nothing is re-marked dirty
    // here; only mail drains dirty a domain.
    if (equal_time) {
      if (team == nullptr || active_.size() == 1) {
        for (int d : active_) run_window(d, min_next, true);
      } else {
        team->run_round(true);  // barrier: returns after all windows
      }
    } else {
      if (team == nullptr || active_groups_.size() == 1) {
        for (int g : active_groups_) {
          run_superstep(g, group_bounds_[static_cast<std::size_t>(g)]);
        }
      } else {
        team->run_round(false);  // barrier: returns after all supersteps
      }
    }

    // 5. Merge cross-group events in fixed (dst, src, FIFO) order —
    // all mailboxes in one pass, and no pass at all when the round
    // routed nothing new (the common case for rounds that stayed
    // local). Intra-group mail normally merges at the supersteps' own
    // inner barriers; outer equal-time rounds bypass those, so their
    // intra posts (intra_routed ahead of intra_seen) force a pass too.
    const std::uint64_t cross_now = total_cross_routed();
    bool intra_pending = false;
    for (const auto& gs : groups_) {
      if (gs.intra_routed != gs.intra_seen) {
        intra_pending = true;
        break;
      }
    }
    if (cross_now != cross_seen || intra_pending) {
      drain_mailboxes();
      cross_seen = cross_now;
      for (auto& gs : groups_) gs.intra_seen = gs.intra_routed;
    } else {
      ++stats_.drain_skips;
    }

    if (window_log_ != nullptr) {
      WindowRecord rec;
      rec.start = EventHorizon::kInfinity;
      if (equal_time) {
        rec.start = min_next;
        rec.end = min_next;
        rec.active_domains = static_cast<std::uint32_t>(active_.size());
      } else {
        for (int g : active_groups_) {
          rec.start = std::min(rec.start, group_horizons_[static_cast<std::size_t>(g)]);
          rec.end = std::max(rec.end, group_bounds_[static_cast<std::size_t>(g)]);
        }
        rec.active_domains = static_cast<std::uint32_t>(active_groups_.size());
      }
      rec.events = static_cast<std::uint32_t>(total_executed() - executed_before);
      rec.inner_rounds = static_cast<std::uint32_t>(total_inner_rounds() - inner_before);
      rec.equal_time = equal_time;
      window_log_->push_back(rec);
    }
  }

  // Fold the per-domain counters into the aggregate stats.
  stats_.events = 0;
  stats_.posts_routed = 0;
  stats_.mailbox_spills = 0;
  stats_.inner_windows = 0;
  stats_.inner_equal_time_rounds = 0;
  for (int d = 0; d < n; ++d) {
    stats_.events += executed_[static_cast<std::size_t>(d)].n;
    stats_.posts_routed += routed_posts_[static_cast<std::size_t>(d)].n;
  }
  for (const auto& gs : groups_) {
    stats_.inner_windows += gs.inner_windows;
    stats_.inner_equal_time_rounds += gs.inner_equal_time;
  }
  for (const auto& box : mailboxes_) {
    if (box) stats_.mailbox_spills += box->spilled();
  }
  running_ = false;
  return stats_.events - before;
}

SimTime ParallelEngine::now() const {
  SimTime t = 0;
  for (const auto& e : engines_) t = std::max(t, e->now());
  return t;
}

bool ParallelEngine::empty() const {
  for (const auto& e : engines_) {
    if (!e->empty()) return false;
  }
  for (const auto& box : mailboxes_) {
    if (box && !box->empty()) return false;
  }
  return true;
}

}  // namespace liger::sim
