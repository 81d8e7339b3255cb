// Per-request state machine for generative (autoregressive) serving.
//
// One GenRequest is a group of `batch_size` sequences generated in
// lockstep: a prompt of prompt_len tokens, then target_tokens decode
// steps, each extending the group's KV state by one token per
// sequence. ContinuousScheduler (serving/continuous.h) drives it: it
// re-forms one ragged batch from every running request between decode
// iterations — iteration-level batching with paged KV memory and
// preemption.
//
// Stage transitions:
//
//   kWaiting ──admit──► kPrefilling ──first token──► kRunning
//      ▲                                           │      │
//      │        (recompute preemption)             │      ▼
//      └──────────────◄─── kPreempted ◄────────────┘  kFinished
//                                                  │      ▲
//   kSwappedOut ◄─swap-out done─ kSwappingOut ◄────┘      │
//        └─admit─► kSwappingIn ──swap-in done─► kRunning ─┘
//
// A recompute-preempted request keeps its generated-token count but
// loses its KV blocks: re-admission replays a prefill over the full
// context (prompt + generated so far) before decoding resumes. A
// swapped request keeps its KV state on the host and pays PCIe
// transfer time in both directions instead.
#pragma once

#include "sim/time.h"

namespace liger::serving {

enum class RequestStage {
  kWaiting,      // arrived, not yet admitted
  kPrefilling,   // prompt (or recompute) pass in flight
  kRunning,      // decoding, holds KV blocks
  kPreempted,    // KV dropped; needs a recompute prefill on re-admission
  kSwappingOut,  // KV blocks draining to host over PCIe
  kSwappedOut,   // KV parked on host; needs swap-in on re-admission
  kSwappingIn,   // KV blocks filling back from host
  kFinished,
  kShed,         // dropped by deadline-aware load shedding after a fault
};

const char* stage_name(RequestStage stage);

struct GenRequest {
  int id = 0;
  sim::SimTime arrival = 0;
  int batch_size = 1;      // sequences generated in lockstep
  int prompt_len = 0;
  int target_tokens = 0;   // decode steps to run
  sim::SimTime deadline = 0;  // absolute completion deadline; 0 = none

  RequestStage stage = RequestStage::kWaiting;
  int generated = 0;

  // KV context per sequence right now: the prompt plus every generated
  // token. Grows by one per decode iteration.
  int context() const { return prompt_len + generated; }
  bool done() const { return generated >= target_tokens; }

  // --- Timeline (engine timestamps; -1 = not reached) -------------------
  sim::SimTime admitted_at = -1;    // last admission (re-admissions update it)
  sim::SimTime first_token = -1;    // completion of the first prefill
  sim::SimTime last_token = -1;     // latest token completion
  sim::SimTime finished_at = -1;

  // --- Disruption counters ----------------------------------------------
  int preemptions = 0;   // times evicted from the running batch
  int recomputes = 0;    // re-admissions that had to replay a prefill
  int swap_outs = 0;
  int swap_ins = 0;
  int fault_drops = 0;   // KV lost to a device failure (charged to retries)
};

inline const char* stage_name(RequestStage stage) {
  switch (stage) {
    case RequestStage::kWaiting: return "waiting";
    case RequestStage::kPrefilling: return "prefilling";
    case RequestStage::kRunning: return "running";
    case RequestStage::kPreempted: return "preempted";
    case RequestStage::kSwappingOut: return "swapping-out";
    case RequestStage::kSwappedOut: return "swapped-out";
    case RequestStage::kSwappingIn: return "swapping-in";
    case RequestStage::kFinished: return "finished";
    case RequestStage::kShed: return "shed";
  }
  return "?";
}

}  // namespace liger::serving
