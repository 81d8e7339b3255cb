#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sim/parallel_engine.h"

namespace liger::sim {

namespace {

// Scheduling invariants stay fatal in release builds: fault-injection
// and recovery paths run through here with real wall-clock stakes, and
// a silently corrupted queue (an event in the past, a null callback)
// would turn a loud failure into a wrong simulation result.
[[noreturn]] void invariant_failed(const char* what) {
  std::fprintf(stderr, "sim::Engine invariant violated: %s\n", what);
  std::abort();
}

}  // namespace

// Per-thread spare buffers recycled across Engine instances. One spare
// of each is plenty: experiment sweeps build engines strictly serially
// per thread.
struct Engine::PoolAccess {
  static std::vector<Slot>& spare_slab() {
    static thread_local std::vector<Slot> s;
    return s;
  }
  static std::vector<HeapEntry>& spare_heap() {
    static thread_local std::vector<HeapEntry> h;
    return h;
  }
  static std::vector<HeapEntry>& spare_run() {
    static thread_local std::vector<HeapEntry> r;
    return r;
  }
};

Engine::Engine() {
  slots_ = std::move(PoolAccess::spare_slab());
  slots_.clear();
  heap_ = std::move(PoolAccess::spare_heap());
  heap_.clear();
  run_ = std::move(PoolAccess::spare_run());
  run_.clear();
}

Engine::~Engine() {
  auto& slab = PoolAccess::spare_slab();
  if (slab.capacity() < slots_.capacity()) {
    slots_.clear();  // destroys pending callbacks before recycling
    slab = std::move(slots_);
  }
  auto& heap = PoolAccess::spare_heap();
  if (heap.capacity() < heap_.capacity()) {
    heap_.clear();
    heap = std::move(heap_);
  }
  auto& run = PoolAccess::spare_run();
  if (run.capacity() < run_.capacity()) {
    run_.clear();
    run = std::move(run_);
  }
}

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  assert(slots_.size() < kSlotMask && "too many simultaneously pending events");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Engine::release_slot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.cb.reset();
  s.seq = 0;
  ++s.gen;  // invalidates every EventId issued for the old occupant
  s.next_free = free_head_;
  free_head_ = index;
  --live_;
}

// 4-ary heap: children of i are 4i+1..4i+4 — one 64-byte cache line of
// 16-byte entries — halving the depth of a binary heap. Both sifts move
// a hole instead of swapping.
void Engine::sift_up(std::size_t i, HeapEntry e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!(e < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Engine::sift_down(std::size_t i, HeapEntry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Engine::discard_cancelled() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, tail);
    --dead_;
  }
}

void Engine::skip_stale_run() {
  while (run_cursor_ < run_.size() && !entry_live(run_[run_cursor_])) {
    ++run_cursor_;
    --dead_;
  }
}

void Engine::extract_heap_to_run() {
  run_.clear();
  run_cursor_ = 0;
  for (const HeapEntry& e : heap_) {
    if (entry_live(e)) {
      run_.push_back(e);
    } else {
      --dead_;
    }
  }
  heap_.clear();
  // Monotone schedules (arrival processes, timer chains) leave the heap
  // array already ascending; the linear pre-check makes that common
  // case O(n) instead of a full sort.
  if (!std::is_sorted(run_.begin(), run_.end())) {
    std::sort(run_.begin(), run_.end());
  }
}

void Engine::settle_fronts() {
  skip_stale_run();
  if (run_cursor_ >= run_.size() && heap_.size() >= kExtractMin) {
    extract_heap_to_run();
  }
  discard_cancelled();
}

void Engine::compact() {
  std::size_t w = 0;
  for (std::size_t i = run_cursor_; i < run_.size(); ++i) {
    if (entry_live(run_[i])) run_[w++] = run_[i];  // stable: stays sorted
  }
  run_.resize(w);
  run_cursor_ = 0;
  w = 0;
  for (const HeapEntry& e : heap_) {
    if (entry_live(e)) heap_[w++] = e;
  }
  heap_.resize(w);
  dead_ = 0;
  if (w <= 1) return;
  for (std::size_t i = (w - 2) >> 2; i != static_cast<std::size_t>(-1); --i) {
    sift_down(i, heap_[i]);
  }
}

Engine::EventId Engine::schedule_at(SimTime t, Callback cb) {
  if (t < now_) {
    std::fprintf(stderr, "sim::Engine: schedule_at(%lld) with now=%lld (domain %d)\n",
                 static_cast<long long>(t), static_cast<long long>(now_), domain_id_);
    invariant_failed("cannot schedule into the past");
  }
  if (!cb) invariant_failed("null callback");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  const std::uint64_t seq = next_seq_++;
  assert(seq < (std::uint64_t{1} << (64 - kSlotBits)) && "seq space exhausted");
  s.seq = seq;
  s.cb = std::move(cb);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, HeapEntry{(seq << kSlotBits) | slot, t});
  ++live_;
  return EventId{s.gen, slot};
}

Engine::EventId Engine::schedule_after(SimTime dt, Callback cb) {
  assert(dt >= 0);
  return schedule_at(now_ + dt, std::move(cb));
}

bool Engine::cancel(EventId id) {
  if (!id.valid() || id.slot >= slots_.size()) return false;
  Slot& s = slots_[id.slot];
  if (s.seq == 0 || s.gen != id.gen) return false;  // fired, cancelled, or recycled
  release_slot(id.slot);  // heap entry goes stale; discarded lazily
  ++dead_;
  // Keep tombstones a bounded fraction of the heap so cancel-heavy
  // phases (device rebalance storms) cannot inflate pop cost.
  if (dead_ > 64 && dead_ > live_) compact();
  return true;
}

void Engine::execute_front(bool from_run) {
  HeapEntry e;
  if (from_run) {
    e = run_[run_cursor_++];
  } else {
    e = heap_.front();
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, tail);
  }
  assert(e.time >= now_);
  now_ = e.time;
  last_seq_ = e.seq();
  Callback cb = std::move(slots_[e.slot()].cb);
  release_slot(e.slot());
  ++processed_;
  cb();
}

bool Engine::step() {
  settle_fronts();
  const bool have_run = run_cursor_ < run_.size();
  if (have_run && (heap_.empty() || run_[run_cursor_] < heap_.front())) {
    execute_front(true);
  } else if (!heap_.empty()) {
    execute_front(false);
  } else {
    return false;
  }
  return true;
}

std::uint64_t Engine::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

std::uint64_t Engine::run_until(SimTime t) {
  assert(t >= now_);
  std::uint64_t n = 0;
  while (true) {
    settle_fronts();
    const bool have_run = run_cursor_ < run_.size();
    bool from_run;
    SimTime next;
    if (have_run && (heap_.empty() || run_[run_cursor_] < heap_.front())) {
      from_run = true;
      next = run_[run_cursor_].time;
    } else if (!heap_.empty()) {
      from_run = false;
      next = heap_.front().time;
    } else {
      break;
    }
    if (next > t) break;
    execute_front(from_run);
    ++n;
  }
  now_ = t;
  return n;
}

SimTime Engine::next_event_time() {
  settle_fronts();
  const bool have_run = run_cursor_ < run_.size();
  if (have_run && (heap_.empty() || run_[run_cursor_] < heap_.front())) {
    return run_[run_cursor_].time;
  }
  if (!heap_.empty()) return heap_.front().time;
  return kNoEvent;
}

std::uint64_t Engine::run_before(SimTime bound, SimTime* next_out) {
  // The window hot loop: settle and peek exactly once per event, then
  // pop from the already-chosen source — a peek-then-step() pair would
  // settle the fronts and compare them twice per event, which is pure
  // per-event overhead the serial run() never pays.
  std::uint64_t n = 0;
  SimTime remaining = kNoEvent;
  for (;;) {
    settle_fronts();
    const bool have_run = run_cursor_ < run_.size();
    bool from_run;
    SimTime next;
    if (have_run && (heap_.empty() || run_[run_cursor_] < heap_.front())) {
      from_run = true;
      next = run_[run_cursor_].time;
    } else if (!heap_.empty()) {
      from_run = false;
      next = heap_.front().time;
    } else {
      break;
    }
    if (next >= bound) {
      remaining = next;
      break;
    }
    execute_front(from_run);
    ++n;
  }
  if (next_out != nullptr) *next_out = remaining;
  return n;
}

std::uint64_t Engine::run_at_time(SimTime t, SimTime* next_out) {
  std::uint64_t n = 0;
  SimTime remaining = kNoEvent;
  for (;;) {
    settle_fronts();
    const bool have_run = run_cursor_ < run_.size();
    bool from_run;
    SimTime next;
    if (have_run && (heap_.empty() || run_[run_cursor_] < heap_.front())) {
      from_run = true;
      next = run_[run_cursor_].time;
    } else if (!heap_.empty()) {
      from_run = false;
      next = heap_.front().time;
    } else {
      break;
    }
    if (next != t) {
      // An equal-time round may only see events at t or later; earlier
      // would mean the partition's bounds were unsafe.
      if (next < t) invariant_failed("equal-time round found an event in the past");
      remaining = next;
      break;
    }
    execute_front(from_run);
    ++n;
  }
  if (next_out != nullptr) *next_out = remaining;
  return n;
}

void Engine::invoke(Callback cb) {
  if (router_ == nullptr || ParallelEngine::current_domain() == domain_id_) {
    cb();
    return;
  }
  router_->post_from_current(domain_id_, std::move(cb));
}

void Engine::invoke_after(SimTime dt, Callback cb) {
  if (router_ == nullptr || ParallelEngine::current_domain() == domain_id_) {
    schedule_at(now_ + dt, std::move(cb));
    return;
  }
  router_->post_after(domain_id_, dt, std::move(cb));
}

Engine::EventId Engine::schedule_cross(SimTime t, Callback cb) {
  if (router_ == nullptr || ParallelEngine::current_domain() == domain_id_) {
    return schedule_at(t, std::move(cb));
  }
  router_->post(domain_id_, t, std::move(cb));
  return EventId{};
}

}  // namespace liger::sim
