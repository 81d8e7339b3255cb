#include "serving/paged_kv.h"

#include <algorithm>
#include <cassert>

namespace liger::serving {

std::uint64_t kv_cache_bytes(const model::ModelSpec& spec, int batch_size, int ctx, int tp) {
  // K and V per layer: [batch, heads/tp, ctx, head_dim], fp16.
  if (batch_size <= 0 || ctx <= 0) return 0;  // empty batch / empty context holds nothing
  // When tp doesn't divide heads, ranks take ceil(heads/tp) each (the
  // uneven shard sizes the device with the most heads — the one whose
  // memory binds first).
  const int heads_per_rank = (spec.heads + tp - 1) / tp;
  return 2ull * static_cast<std::uint64_t>(spec.layers) *
         static_cast<std::uint64_t>(batch_size) *
         static_cast<std::uint64_t>(heads_per_rank) *
         static_cast<std::uint64_t>(spec.head_dim()) * static_cast<std::uint64_t>(ctx) * 2ull;
}

std::uint64_t PagedKvAllocator::block_bytes(const model::ModelSpec& spec, int block_tokens,
                                            int tp) {
  return kv_cache_bytes(spec, /*batch_size=*/1, /*ctx=*/block_tokens, tp);
}

PagedKvAllocator::PagedKvAllocator(const model::ModelSpec& spec, int block_tokens, int tp,
                                   std::uint64_t pool_bytes_per_device)
    : block_tokens_(block_tokens > 0 ? block_tokens : 1),
      block_bytes_(block_bytes(spec, block_tokens_, tp)) {
  assert(block_bytes_ > 0);
  total_blocks_ =
      std::max<int>(1, static_cast<int>(pool_bytes_per_device / block_bytes_));
  free_list_.reserve(static_cast<std::size_t>(total_blocks_));
  // Push in descending order so the LIFO hands out block 0 first.
  for (int id = total_blocks_ - 1; id >= 0; --id) free_list_.push_back(id);
  stats_.total_blocks = total_blocks_;
  stats_.block_bytes = block_bytes_;
  stats_.block_capacity_tokens = block_tokens_;
}

int PagedKvAllocator::blocks_for(int tokens) const {
  if (tokens <= 0) return 0;
  return (tokens + block_tokens_ - 1) / block_tokens_;
}

int PagedKvAllocator::blocks_for_group(int seqs, int tokens) const {
  return std::max(seqs, 0) * blocks_for(tokens);
}

int PagedKvAllocator::take_block() {
  assert(!free_list_.empty());
  const int id = free_list_.back();
  free_list_.pop_back();
  return id;
}

void PagedKvAllocator::put_block(int id) { free_list_.push_back(id); }

void PagedKvAllocator::note_usage() {
  stats_.used_blocks = used_blocks();
  stats_.peak_used_blocks = std::max(stats_.peak_used_blocks, stats_.used_blocks);
}

bool PagedKvAllocator::allocate(int request_id, int seqs, int tokens) {
  assert(held_.count(request_id) == 0);
  ++stats_.alloc_calls;
  const int need = blocks_for_group(seqs, tokens);
  if (need > free_blocks()) {
    ++stats_.failed_allocs;
    return false;
  }
  Held held;
  held.seqs = seqs;
  held.tokens = tokens;
  held.block_ids.reserve(static_cast<std::size_t>(need));
  for (int i = 0; i < need; ++i) held.block_ids.push_back(take_block());
  allocated_tokens_ += static_cast<long long>(seqs) * tokens;
  held_.emplace(request_id, std::move(held));
  note_usage();
  return true;
}

bool PagedKvAllocator::can_append(int request_id) const {
  auto it = held_.find(request_id);
  if (it == held_.end()) return false;
  const Held& held = it->second;
  const int extra =
      (blocks_for(held.tokens + 1) - blocks_for(held.tokens)) * held.seqs;
  return extra <= free_blocks();
}

bool PagedKvAllocator::append(int request_id) {
  auto it = held_.find(request_id);
  assert(it != held_.end());
  Held& held = it->second;
  ++stats_.append_calls;
  const int extra =
      (blocks_for(held.tokens + 1) - blocks_for(held.tokens)) * held.seqs;
  if (extra > free_blocks()) {
    ++stats_.failed_allocs;
    return false;
  }
  for (int i = 0; i < extra; ++i) held.block_ids.push_back(take_block());
  ++held.tokens;
  allocated_tokens_ += held.seqs;
  note_usage();
  return true;
}

void PagedKvAllocator::rebuild(const model::ModelSpec& spec, int tp,
                               std::uint64_t pool_bytes_per_device) {
  assert(held_.empty());  // purge everything before re-sizing the pool
  block_bytes_ = block_bytes(spec, block_tokens_, tp);
  assert(block_bytes_ > 0);
  total_blocks_ =
      std::max<int>(1, static_cast<int>(pool_bytes_per_device / block_bytes_));
  free_list_.clear();
  free_list_.reserve(static_cast<std::size_t>(total_blocks_));
  for (int id = total_blocks_ - 1; id >= 0; --id) free_list_.push_back(id);
  allocated_tokens_ = 0;
  stats_.total_blocks = total_blocks_;
  stats_.block_bytes = block_bytes_;
  // The old pool's peak is meaningless against the new block size.
  stats_.used_blocks = 0;
  stats_.peak_used_blocks = 0;
  ++stats_.rebuilds;
}

bool PagedKvAllocator::audit(std::string* error) const {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  // -2 = unseen, -1 = free list, >= 0 = owning request id.
  std::vector<int> owner(static_cast<std::size_t>(total_blocks_), -2);
  auto claim = [&](int id, int who, const char* where) {
    if (id < 0 || id >= total_blocks_) {
      return fail(std::string(where) + ": block id " + std::to_string(id) +
                  " outside pool of " + std::to_string(total_blocks_));
    }
    auto& slot = owner[static_cast<std::size_t>(id)];
    if (slot != -2) {
      return fail(std::string(where) + ": block " + std::to_string(id) +
                  " already owned by " +
                  (slot == -1 ? std::string("free list")
                              : "request " + std::to_string(slot)));
    }
    slot = who;
    return true;
  };
  for (int id : free_list_) {
    if (!claim(id, -1, "free list")) return false;
  }
  long long tokens = 0;
  for (const auto& [req, held] : held_) {
    const std::size_t want =
        static_cast<std::size_t>(blocks_for_group(held.seqs, held.tokens));
    if (held.block_ids.size() != want) {
      return fail("request " + std::to_string(req) + " holds " +
                  std::to_string(held.block_ids.size()) + " blocks, needs " +
                  std::to_string(want) + " for " + std::to_string(held.seqs) +
                  "x" + std::to_string(held.tokens) + " tokens");
    }
    for (int id : held.block_ids) {
      if (!claim(id, req, "held group")) return false;
    }
    tokens += static_cast<long long>(held.seqs) * held.tokens;
  }
  for (int id = 0; id < total_blocks_; ++id) {
    if (owner[static_cast<std::size_t>(id)] == -2) {
      return fail("block " + std::to_string(id) +
                  " leaked: neither free nor held");
    }
  }
  if (tokens != allocated_tokens_) {
    return fail("token ledger " + std::to_string(allocated_tokens_) +
                " != held sum " + std::to_string(tokens));
  }
  return true;
}

void PagedKvAllocator::release(int request_id) {
  auto it = held_.find(request_id);
  if (it == held_.end()) return;
  ++stats_.release_calls;
  // Return in reverse take order so a release+reallocate round-trip
  // reproduces the same block ids (determinism, and cache-friendly).
  const Held& held = it->second;
  for (auto rit = held.block_ids.rbegin(); rit != held.block_ids.rend(); ++rit) {
    put_block(*rit);
  }
  allocated_tokens_ -= static_cast<long long>(held.seqs) * held.tokens;
  held_.erase(it);
  note_usage();
}

int PagedKvAllocator::held_blocks(int request_id) const {
  auto it = held_.find(request_id);
  return it == held_.end() ? 0 : static_cast<int>(it->second.block_ids.size());
}

std::uint64_t PagedKvAllocator::held_bytes(int request_id) const {
  return static_cast<std::uint64_t>(held_blocks(request_id)) * block_bytes_;
}

PagedKvStats PagedKvAllocator::stats() const {
  PagedKvStats s = stats_;
  s.used_blocks = used_blocks();
  s.allocated_tokens = allocated_tokens_;
  return s;
}

}  // namespace liger::serving
