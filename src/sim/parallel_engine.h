// Deterministic parallel discrete-event execution: one sub-engine per
// domain, synchronized with conservative time windows.
//
// A partitioned simulation splits its world into *domains* that own
// disjoint state — for a GPU cluster, one domain per node plus one for
// the host/fabric — and gives each domain its own sim::Engine. The
// ParallelEngine advances them together:
//
//   loop:
//     1. publish every domain's horizon (earliest pending event time);
//     2. each domain's exclusive bound = min over peers of
//        heff(peer) + lookahead(peer, domain), where heff is the
//        min-plus closure of the horizons over the lookahead graph —
//        an idle domain is not an infinite promise, because a peer's
//        future event can re-activate it (sim/horizon.h);
//     3. every domain with work strictly below its bound drains that
//        window — in parallel, on ThreadPool-style workers;
//     4. if no domain can move (equal-time tie across domains), all
//        domains at the global minimum execute exactly that timestamp —
//        an equal-time round of the fixed point;
//     5. barrier; cross-domain events that the windows produced are
//        drained from the SPSC mailboxes into their target engines in a
//        fixed (destination, source, FIFO) order.
//
// Why the result is bit-identical at every thread count (and to a
// 1-thread partitioned run): windows and bounds are pure functions of
// queue states, each domain's event stream is internally deterministic,
// domains share no mutable state inside a window (events that would
// cross post through mailboxes instead), and the barrier drain order is
// fixed. The worker count only changes which OS thread executes a
// window, never what any domain observes. Safety is enforced loudly: a
// cross-domain post that violates its pairwise lookahead claim aborts,
// and a post landing in a receiver's past aborts inside sim::Engine.
//
// Cross-domain code does not talk to this class directly — it calls
// Engine::invoke / Engine::schedule_cross on the *target* engine, which
// route through the owning ParallelEngine's mailboxes when (and only
// when) executing from a foreign domain. In an unpartitioned build both
// degenerate to a plain call / schedule_at, preserving the serial
// engine's behaviour exactly.
//
// Hierarchical (two-level) partitions: set_groups() arranges domains
// into groups — for a GPU cluster, one group per node holding that
// node's per-device-group domains. The round loop then runs at group
// granularity: group horizons (min over members) and a group-level
// closed bound matrix (min pairwise lookahead between groups) pick the
// active groups, and each active group runs a *superstep* — an inner
// window loop over its member domains, bounded by the intra-group
// closed matrix and capped at the group's outer bound. Inner rounds
// merge intra-group mail at worker-local barriers that never touch the
// global coordinator; cross-group mail still merges at the outer
// barrier. Member bounds are min(intra-closure, outer bound), which is
// conservative for every influence chain: chains that stay inside the
// group are covered by the intra closure, chains that leave and
// re-enter by the group self-echo in the outer matrix. With singleton
// groups (the default) the loop degenerates to the flat algorithm
// bit-for-bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.h"
#include "sim/horizon.h"
#include "sim/mailbox.h"
#include "sim/time.h"

namespace liger::sim {

class ParallelEngine {
 public:
  struct Options {
    // Per-(src,dst) mailbox ring capacity; overflow spills (see
    // sim/mailbox.h) so this is a performance knob, not a limit.
    std::size_t mailbox_capacity = 1024;
  };

  struct Stats {
    std::uint64_t windows = 0;            // outer (group-level) window rounds
    std::uint64_t inner_windows = 0;      // device sub-window rounds inside supersteps
    std::uint64_t inner_equal_time_rounds = 0;  // intra-group fixed-point rounds
    std::uint64_t equal_time_rounds = 0;  // fixed-point rounds at one timestamp
    std::uint64_t events = 0;             // events executed by run()
    std::uint64_t posts_routed = 0;       // cross-domain posts via mailboxes
    std::uint64_t posts_direct = 0;       // posts made outside any window
    std::uint64_t mailbox_spills = 0;     // ring overflows (capacity tuning)
    std::uint64_t barrier_wait_ns = 0;    // wall-clock spent waiting at
                                          // barriers, summed over the
                                          // coordinator and every worker
    std::uint64_t drain_skips = 0;        // barrier drains skipped (no posts)
    std::uint64_t horizon_skips = 0;      // closure recomputes skipped
  };

  // One entry per synchronization round, recorded only when a log is
  // attached (set_window_log). Records are pure functions of the round
  // structure — identical for every worker-thread count — so they are
  // safe to surface in traces that are compared across runs.
  struct WindowRecord {
    SimTime start = 0;  // earliest horizon among active domains/groups
    SimTime end = 0;    // largest exclusive bound (== start for equal-time)
    std::uint32_t active_domains = 0;  // active groups for superstep rounds
    std::uint32_t events = 0;
    std::uint32_t inner_rounds = 0;  // inner rounds the supersteps ran
    bool equal_time = false;
  };

  explicit ParallelEngine(int num_domains) : ParallelEngine(num_domains, Options()) {}
  ParallelEngine(int num_domains, Options options);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  int num_domains() const { return static_cast<int>(engines_.size()); }
  Engine& domain(int d) { return *engines_.at(static_cast<std::size_t>(d)); }

  LookaheadMatrix& lookahead() { return lookahead_; }
  const LookaheadMatrix& lookahead() const { return lookahead_; }

  // Two-level partition: `groups` must partition 0..num_domains()-1
  // (each domain in exactly one group). Supersteps execute at group
  // granularity; members of one group run their inner window loop on
  // one worker, with intra-group mail merged at worker-local inner
  // barriers. Unset (or all-singleton) groups reproduce the flat
  // algorithm exactly. Call before run().
  void set_groups(std::vector<std::vector<int>> groups);
  int num_groups() const { return static_cast<int>(groups_.size()); }
  const std::vector<int>& group(int g) const {
    return groups_.at(static_cast<std::size_t>(g)).members;
  }

  // Cross-domain schedule into `dst` at absolute time `t`. Inside a
  // window the event travels through the (current domain, dst) mailbox
  // and is merged at the next barrier; outside run() it schedules
  // directly (the caller is the only thread). Aborts if `t` violates
  // the pairwise lookahead claim — the conservative windows would no
  // longer be safe.
  void post(int dst, SimTime t, Engine::Callback cb);

  // Like post, at the sending domain's current time (the semantics of a
  // plain synchronous call, made safe across domains).
  void post_from_current(int dst, Engine::Callback cb);

  // Like post, at `dt` after the sending domain's current time — the
  // backing of Engine::invoke_after. A `dt` no smaller than the
  // (src, dst) lookahead entry always satisfies the claim check, which
  // is how serving-layer dispatch latencies turn into window width.
  void post_after(int dst, SimTime dt, Engine::Callback cb);

  // Runs every domain to exhaustion with up to `threads` workers
  // (including the calling thread); returns the number of events
  // executed. threads <= 1 runs the same windows sequentially — same
  // results, same merge order.
  std::uint64_t run(unsigned threads);

  // Global virtual time: the furthest any domain has advanced. After
  // run() this equals the serial engine's now() for the same workload.
  SimTime now() const;

  bool empty() const;

  const Stats& stats() const { return stats_; }

  // Attaches a per-round window log (nullptr detaches). The vector is
  // appended to by run() on the coordinating thread only; it must stay
  // alive for the duration of run().
  void set_window_log(std::vector<WindowRecord>* log) { window_log_ = log; }

  // Domain whose window the calling thread is currently executing, or
  // -1 outside any window.
  static int current_domain();

 private:
  class WorkerTeam;  // persistent epoch-barrier workers (see .cpp)

  struct alignas(64) DomainCounter {
    std::uint64_t n = 0;
  };

  // One group of the two-level partition. Scratch and counters are
  // written only by the worker running the group's superstep (inner
  // rounds are worker-local); the coordinator reads them after the
  // outer barrier.
  struct alignas(64) GroupState {
    std::vector<int> members;      // domain ids, ascending
    LookaheadMatrix intra{0};      // closed bound matrix over members
    // True when no member can reach an earlier member (the intra
    // closure is strictly upper-triangular): the members form a DAG in
    // ascending order and a superstep is a single forward sweep instead
    // of an iterated horizon/bound loop (see run_superstep).
    bool forward_only = false;
    std::vector<SimTime> h;        // member horizons (superstep scratch)
    std::vector<SimTime> b;        // member bounds (superstep scratch)
    std::uint64_t inner_windows = 0;
    std::uint64_t inner_equal_time = 0;
    std::uint64_t intra_routed = 0;  // posts between members this run
    std::uint64_t intra_seen = 0;    // inner-drain watermark
  };

  SpscMailbox& mailbox(int src, int dst) {
    return *mailboxes_[static_cast<std::size_t>(src) * engines_.size() +
                       static_cast<std::size_t>(dst)];
  }
  // Drains every mailbox into its target engine, in fixed
  // (destination, source, FIFO) order. Runs at outer barriers only.
  void drain_mailboxes();
  // Drains the mailboxes between members of group `g`, in the same
  // fixed (destination, source, FIFO) order restricted to the group.
  // Runs at inner barriers, on the worker executing the superstep.
  void drain_group(GroupState& gs);
  void run_window(int d, SimTime bound, bool equal_time);
  // Inner window loop of one group: runs member windows bounded by the
  // intra-group closure capped at `outer_bound`, merging intra-group
  // mail between rounds, until no member has work below `outer_bound`.
  void run_superstep(int g, SimTime outer_bound);
  void default_groups();

  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::unique_ptr<SpscMailbox>> mailboxes_;  // src-major [src][dst]
  LookaheadMatrix lookahead_;
  std::uint64_t total_executed() const;
  std::uint64_t total_routed() const;
  std::uint64_t total_cross_routed() const;
  std::uint64_t total_inner_rounds() const;

  std::vector<DomainCounter> executed_;      // per-domain, written inside windows
  std::vector<DomainCounter> routed_posts_;  // per-source, written inside windows
  std::vector<DomainCounter> cross_routed_;  // per-source, cross-group only

  Stats stats_;
  bool running_ = false;
  std::vector<WindowRecord>* window_log_ = nullptr;

  // Two-level structure (singleton groups unless set_groups is called).
  std::vector<GroupState> groups_;
  std::vector<int> group_of_;  // domain -> group index

  // Scratch, reused across windows (no steady-state allocation).
  std::vector<SimTime> bounds_;
  std::vector<SimTime> prev_horizons_;  // last published values (skip detection)
  std::vector<char> dirty_;  // domain received mail since last peek
  // Set by run_window when its fused horizon store changed the
  // published value: tells the coordinator's publish pass that the
  // bound closure must recompute even though nothing is dirty.
  std::vector<char> moved_;
  // Bit `src` of entry `dst` is set when (src, dst) has undrained mail,
  // set by post() right after the push so the outer drain touches only
  // non-empty pairs instead of probing all n^2 mailboxes every round.
  // Sized only for partitions of at most 64 domains; larger ones fall
  // back to the full scan. Stale bits (a pair the inner drains already
  // emptied) cost one empty pop probe — never a missed event.
  struct alignas(64) PendingFrom {
    std::atomic<std::uint64_t> v{0};
  };
  std::vector<PendingFrom> pending_from_;
  std::vector<SimTime> group_horizons_;
  std::vector<SimTime> group_bounds_;
  std::vector<int> active_;         // active domains (equal-time rounds)
  std::vector<int> active_groups_;  // active groups (superstep rounds)
};

}  // namespace liger::sim
