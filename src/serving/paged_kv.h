// Block-granular KV-cache memory manager (vLLM-style paged attention
// accounting) for iteration-level serving.
//
// One scalar per request (kv_cache_bytes over the whole context) is
// the wrong accounting under continuous batching, in both directions:
// requests at different context lengths share the pool, and a request's
// last partially-filled block wastes real memory the scalar never
// sees. The allocator manages a fixed pool of equal-size blocks per
// device: a request holds ceil(context / block_tokens) blocks per
// sequence on EVERY device of the tensor-parallel group (each device
// stores its head shard of every block), so one logical block costs
// `block_bytes` on each device and the pool is sized per device.
//
// Free blocks form a LIFO free list. LIFO is deliberate: it keeps the
// working set hot and, more importantly here, makes allocation order a
// pure function of the request schedule — no address randomness, so
// runs are bit-identical across engine thread counts.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/model_spec.h"

namespace liger::serving {

struct PagedKvStats {
  int total_blocks = 0;       // pool size per device
  int used_blocks = 0;        // currently held
  int peak_used_blocks = 0;
  std::uint64_t block_bytes = 0;  // per block per device
  long long allocated_tokens = 0;  // real tokens in held blocks
  std::uint64_t alloc_calls = 0;
  std::uint64_t append_calls = 0;
  std::uint64_t release_calls = 0;
  std::uint64_t failed_allocs = 0;  // allocate/append refused for lack of blocks
  std::uint64_t rebuilds = 0;       // pool re-sized after a topology change

  // Fraction of held block capacity that holds real tokens; the
  // remainder is internal fragmentation (tail-of-block waste).
  double utilization() const {
    const long long cap = static_cast<long long>(used_blocks);
    return cap > 0 ? static_cast<double>(allocated_tokens) /
                         (static_cast<double>(cap) * block_capacity_tokens)
                   : 1.0;
  }
  double fragmentation() const { return 1.0 - utilization(); }

  int block_capacity_tokens = 1;  // tokens one block holds per sequence
};

// Per-device KV-cache bytes for one sequence batch at context length
// `ctx`: K and V, fp16, heads sharded tp ways (ceil division when tp
// doesn't divide heads — sized for the widest shard). Non-positive
// batch or ctx holds nothing and returns 0.
std::uint64_t kv_cache_bytes(const model::ModelSpec& spec, int batch_size, int ctx, int tp);

// Per-device free-list allocator over a fixed pool of KV blocks. All
// devices of the TP group hold the same block set (head-sharded), so a
// single free list models every device; `devices` only scales the
// byte totals reported in stats.
class PagedKvAllocator {
 public:
  // `pool_bytes_per_device` is rounded down to whole blocks; the pool
  // always has at least one block (a zero-block pool could never admit).
  PagedKvAllocator(const model::ModelSpec& spec, int block_tokens, int tp,
                   std::uint64_t pool_bytes_per_device);

  // Bytes one block occupies on one device: KV for `block_tokens`
  // tokens of one sequence with heads sharded tp ways.
  static std::uint64_t block_bytes(const model::ModelSpec& spec, int block_tokens, int tp);

  int block_tokens() const { return block_tokens_; }
  int total_blocks() const { return total_blocks_; }
  int free_blocks() const { return static_cast<int>(free_list_.size()); }
  int used_blocks() const { return total_blocks_ - free_blocks(); }

  // Blocks needed per sequence for `tokens` of context.
  int blocks_for(int tokens) const;
  // Blocks a whole group (seqs sequences at `tokens` context) needs.
  int blocks_for_group(int seqs, int tokens) const;

  bool can_allocate(int seqs, int tokens) const {
    return blocks_for_group(seqs, tokens) <= free_blocks();
  }

  // Allocates the blocks for a request group at context `tokens`.
  // Returns false (and allocates nothing) if the pool can't cover it.
  bool allocate(int request_id, int seqs, int tokens);

  // Extends every sequence of the group by one token, taking one new
  // block per sequence when a block boundary is crossed. Returns false
  // (state unchanged) if new blocks are needed but unavailable.
  bool append(int request_id);
  bool can_append(int request_id) const;

  // Returns all blocks of the group to the free list. Unknown ids are
  // a no-op (releasing after a drop-preemption already freed them).
  void release(int request_id);

  // Re-sizes the pool for a new TP width (a device failed: every block
  // was head-sharded across the group, so the survivor shard grows and
  // the per-device pool holds fewer blocks). The caller must have
  // released every group first — rebuilding under live holds would
  // silently remap their blocks.
  void rebuild(const model::ModelSpec& spec, int tp, std::uint64_t pool_bytes_per_device);

  // Debug invariant: every block id lives in exactly one place (free
  // list or one held group), each group holds exactly
  // seqs * blocks_for(tokens) blocks, and the token ledger matches.
  // Returns false and fills `error` (when given) on the first breach.
  bool audit(std::string* error = nullptr) const;

  bool holds(int request_id) const { return held_.count(request_id) > 0; }
  int held_blocks(int request_id) const;
  // Bytes the group occupies per device (whole blocks).
  std::uint64_t held_bytes(int request_id) const;

  std::uint64_t used_bytes_per_device() const {
    return static_cast<std::uint64_t>(used_blocks()) * block_bytes_;
  }
  std::uint64_t peak_bytes_per_device() const {
    return static_cast<std::uint64_t>(stats_.peak_used_blocks) * block_bytes_;
  }

  PagedKvStats stats() const;

 private:
  struct Held {
    int seqs = 1;
    int tokens = 0;               // context per sequence
    std::vector<int> block_ids;   // seqs * blocks_for(tokens) entries
  };

  int take_block();
  void put_block(int id);
  void note_usage();

  int block_tokens_;
  int total_blocks_;
  std::uint64_t block_bytes_;
  std::vector<int> free_list_;              // LIFO
  std::unordered_map<int, Held> held_;
  long long allocated_tokens_ = 0;
  PagedKvStats stats_;
};

}  // namespace liger::serving
