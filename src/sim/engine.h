// Discrete-event simulation engine.
//
// The engine owns a virtual clock and a queue of timestamped callbacks.
// Events at equal times execute in scheduling order (FIFO), which makes
// every simulation in this repository deterministic and reproducible.
//
// The engine is strictly single-threaded: all scheduling and execution
// happen on the caller's thread. Concurrency in the *simulated* world
// (GPUs, streams, the host CPU) is expressed as interleaved events and,
// at a higher level, as coroutine actors (see sim/task.h).
//
// Implementation: a slab of event slots plus a two-source priority
// queue of 16-byte (time, seq|slot) entries, allocation-free in steady
// state.
//  * schedule: O(log h) push into a 4-ary min-heap; the callback lives
//    in a recycled slab slot (sim::InplaceFunction keeps small captures
//    inline).
//  * step: pops the smaller of the heap top and the front of a sorted
//    "run" — a flat ascending array drained by cursor. Whenever the run
//    is exhausted and the heap has grown large, the heap is bulk
//    extracted and sorted into a fresh run (sequential, branchless,
//    cache-friendly), so long drains cost O(1) per event plus an
//    amortized one-time sort instead of a full-depth heap sift each.
//    Each event is extracted at most once, so total sort work is
//    bounded by n log n with far better constants than heap pops.
//  * cancel: O(1) lazy — the slot is tombstoned (released and its
//    generation bumped); the stale entry is skipped when it surfaces,
//    or swept out wholesale when tombstones outnumber live events
//    (amortized O(1) per cancel). This is what makes the device
//    model's cancel-and-reschedule-everything rebalance pattern cheap.
// The pop order is the global (time, seq) order regardless of which
// source an entry sits in: seq is globally unique and monotone, and
// the run/heap fronts are compared on every pop.
// EventId carries the slot's generation, so cancelling a stale id
// (already fired, already cancelled, or slot since recycled) is a
// correct no-op returning false.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/inplace_function.h"
#include "sim/time.h"

namespace liger::sim {

class ParallelEngine;  // sim/parallel_engine.h

class Engine {
 public:
  // Inline capacity covers the `[this, id]`-style lambdas the engine
  // actually sees (largest in-tree capture: a shared_ptr + two words).
  using Callback = InplaceFunction<void(), 48>;

  // Handle for cancelling a pending event. Default-constructed ids are
  // invalid and safe to cancel (a no-op).
  struct EventId {
    std::uint64_t gen = 0;
    std::uint32_t slot = 0;
    bool valid() const { return gen != 0; }
  };

  // Construction adopts slab/heap buffers from a thread-local pool
  // (and destruction returns them): sweeps that run thousands of
  // simulations — and benchmarks that build an Engine per iteration —
  // skip the large allocate/fault/free cycle entirely. Pooling only
  // affects buffer capacity, never behaviour.
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  // Schedules `cb` to run at absolute time `t` (must be >= now()).
  EventId schedule_at(SimTime t, Callback cb);

  // Schedules `cb` to run `dt` nanoseconds from now (dt >= 0).
  EventId schedule_after(SimTime dt, Callback cb);

  // Removes a pending event. Returns false if it already ran, was
  // cancelled before, or the id is invalid.
  bool cancel(EventId id);

  // Executes the next event, advancing the clock. Returns false when
  // the queue is empty.
  bool step();

  // Runs until the queue drains. Returns the number of events executed.
  std::uint64_t run();

  // Runs all events with time <= t, then advances the clock to t.
  std::uint64_t run_until(SimTime t);

  // ---- Partitioned execution (sim/parallel_engine.h) ----------------
  // A serial, unpartitioned Engine ignores everything below except
  // invoke()/schedule_cross(), which degenerate to a plain call /
  // schedule_at. A partitioned run sets router_/domain_id_ at
  // construction; the ParallelEngine then drives windows through
  // next_event_time()/run_before()/run_at_time().

  // Sentinel returned by next_event_time() when the queue is empty.
  static constexpr SimTime kNoEvent = -1;

  // Timestamp of the earliest pending event, or kNoEvent. Settles the
  // queue fronts; never advances the clock.
  SimTime next_event_time();

  // Runs every event with time strictly below `bound`; the clock is
  // left at the last executed event (not forced to `bound`). Returns
  // the number of events executed. When `next` is non-null it receives
  // the timestamp of the earliest remaining event (kNoEvent if the
  // queue drained) — the peek the loop already paid for, so windowed
  // callers can publish their horizon without settling again.
  std::uint64_t run_before(SimTime bound, SimTime* next = nullptr);

  // Runs every event whose time equals `t` exactly — one equal-time
  // round of the partitioned fixed point. Events the round schedules
  // *at t* also execute (FIFO keeps this finite and deterministic).
  // `next` as in run_before().
  std::uint64_t run_at_time(SimTime t, SimTime* next = nullptr);

  // Calls `cb` with this engine's semantics: immediately when the
  // caller already executes on this engine's domain (or no partition is
  // active) — byte-for-byte the plain synchronous call — otherwise as a
  // cross-domain event at the sending domain's current time.
  void invoke(Callback cb);

  // Like invoke(), but `dt` nanoseconds after the caller's current time
  // — the way a runtime models its dispatch/hand-off latency. Always an
  // event (schedule_at(now + dt) locally and unpartitioned), so serial
  // and partitioned runs execute it at the identical timestamp. A
  // positive `dt` is what backs a positive lookahead claim on the
  // (caller domain -> this domain) edge: the cross post carries
  // time = caller_now + dt, never earlier.
  void invoke_after(SimTime dt, Callback cb);

  // schedule_at that is safe from any domain. Returns a cancellable
  // EventId on the local path; an invalid EventId when the event was
  // routed cross-domain (cross-domain cancellation is not supported).
  EventId schedule_cross(SimTime t, Callback cb);

  // Partition tag (domain index, or -1 when unpartitioned).
  int domain_id() const { return domain_id_; }

  bool empty() const { return live_ == 0; }
  std::size_t pending() const { return live_; }
  std::uint64_t events_processed() const { return processed_; }

  // Scheduling sequence number of the most recently executed event
  // (0 before the first step). With now(), this identifies an executed
  // event uniquely — determinism tests record the (time, seq) stream.
  std::uint64_t last_executed_seq() const { return last_seq_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  // (seq << kSlotBits) | slot packs the FIFO tie-break and the slab
  // index into one word: comparing packed values compares seq, because
  // seq is globally unique. 2^24 simultaneous events, 2^40 total.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;

  struct Slot {
    Callback cb;
    std::uint64_t seq = 0;  // seq of the current occupant; 0 = free
    std::uint64_t gen = 1;  // bumped on release; EventId must match
    std::uint32_t next_free = kNoSlot;
  };

  // Field order matters: on little-endian targets the pair compares as
  // one unsigned __int128 (time in the high half, then seq) — a single
  // branchless 16-byte comparison in the sift loops.
  struct HeapEntry {
    std::uint64_t packed;  // (seq << kSlotBits) | slot
    SimTime time;          // always >= 0

    std::uint32_t slot() const { return static_cast<std::uint32_t>(packed & kSlotMask); }
    std::uint64_t seq() const { return packed >> kSlotBits; }
    bool operator<(const HeapEntry& o) const {
      if constexpr (std::endian::native == std::endian::little) {
        unsigned __int128 a, b;
        std::memcpy(&a, this, sizeof(a));
        std::memcpy(&b, &o, sizeof(b));
        return a < b;
      } else {
        if (time != o.time) return time < o.time;
        return packed < o.packed;  // seq order: FIFO among equal times
      }
    }
  };
  static_assert(sizeof(HeapEntry) == 16, "heap entries must stay cache-dense");

  // Below this many pending heap entries an exhausted run is not worth
  // refilling: plain heap pops are cheap when the heap is small. Kept
  // low enough that the small per-domain queues of a partitioned run
  // (tens of events per window) still drain through the sorted run
  // instead of paying a sift per pop.
  static constexpr std::size_t kExtractMin = 8;

  bool entry_live(const HeapEntry& e) const { return slots_[e.slot()].seq == e.seq(); }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void sift_up(std::size_t i, HeapEntry e);
  void sift_down(std::size_t i, HeapEntry e);
  // Pops heap entries whose slot no longer holds their seq (cancelled).
  void discard_cancelled();
  // Advances the run cursor past tombstoned entries.
  void skip_stale_run();
  // Moves every live heap entry into a freshly sorted run.
  void extract_heap_to_run();
  // Refreshes both source fronts (stale skip, discard, refill) so the
  // next live event, if any, is at run_[run_cursor_] or heap_.front().
  void settle_fronts();
  // Pops and executes the front event from the chosen source.
  // Precondition: fronts are settled and the source is non-empty — the
  // caller has already compared the front against its bound, so the
  // windowed run loops settle and peek exactly once per event.
  void execute_front(bool from_run);
  // Sweeps all tombstones: filters the run in place (stays sorted) and
  // rebuilds the heap, O(pending).
  void compact();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t last_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;  // tombstoned entries still in run_ + heap_
  std::uint32_t free_head_ = kNoSlot;
  std::size_t run_cursor_ = 0;
  std::vector<Slot> slots_;
  std::vector<HeapEntry> run_;   // sorted ascending, drained by cursor
  std::vector<HeapEntry> heap_;  // 4-ary min-heap of recent schedules

  // Set (only) by a ParallelEngine that owns this engine as a domain.
  friend class ParallelEngine;
  ParallelEngine* router_ = nullptr;
  int domain_id_ = -1;

  struct PoolAccess;  // thread-local buffer recycling (engine.cpp)
};

}  // namespace liger::sim
