// JSON experiment configuration (the artifact configures model/request
// rate/decomposition factor in main.cu; we do it declaratively).
//
// Schema (every field optional; presets fill the rest):
//
// {
//   "node":  { "preset": "v100"|"a100", "devices": 4,
//              "max_connections": 2,
//              "gpu":  { "sms": 80, "fp16_tflops": 112.0,
//                        "mem_bw_gbps": 900.0, "mem_gb": 16.0 },
//              "link": { "kind": "nvlink"|"pcie",
//                        "allreduce_busbw_gbps": 32.75,
//                        "p2p_bw_gbps": 45.0, "channels_for_peak": 3 } },
//   "model": { "preset": "opt-30b", "layers": 48 },
//   "method": "liger"|"intra-op"|"inter-op"|"inter-th"|"liger-cpusync"|"hybrid",
//   "cluster": { "nodes": 2,
//                "fabric": { "preset": "ib-hdr"|"100gbe"|"test",
//                            "link_bw_gbps": 25.0, "base_latency_us": 5.0,
//                            "step_latency_us": 2.0 },
//                "tp": 4, "pp": 2 },
//   "rate": 20.0, "poisson": false,
//   "workload": { "requests": 200, "batch": 2, "seq_min": 16,
//                 "seq_max": 128, "phase": "prefill"|"decode",
//                 "seed": 7,
//                 "deadline_ms": 0.0, "max_retries": 0,
//                 "retry_backoff_ms": 2.0, "retry_backoff_cap_ms": 64.0,
//                 "retry_jitter": 0.25,
//                 "decode_tokens_min": 8, "decode_tokens_max": 64 },
//   "batching": { "mode": "rounds"|"continuous", "block_tokens": 16,
//                 "kv_gb": 2.0, "kv_pool_fraction": 0.4,
//                 "token_budget": 2048, "max_running": 64,
//                 "admit_reserve": 0.05,
//                 "preemption": "recompute"|"swap", "pcie_gbps": 16.0 },
//   "faults": { "enabled": true,
//               "plan": [ {"kind": "fail_stop"|"straggler"|"link_degrade"|
//                                  "link_flap"|"host_stall",
//                          "t_ms": 50.0, "node": 0, "device": 2,
//                          "factor": 0.4, "duration_ms": 20.0,
//                          "period_ms": 4.0}, ... ],
//               "detection": { "heartbeat_interval_us": 500,
//                              "miss_threshold": 3 },
//               "recovery":  { "replan_ms": 5.0 } },
//   "liger": { "decomposition_factor": 8, "contention_factor": 1.1,
//              "profile_contention": true, "sync": "hybrid"|"cpu-gpu",
//              "nccl_channels": 3, "processing_slots": 4 }
// }
#pragma once

#include <string>

#include "serving/experiment.h"
#include "util/json.h"

namespace liger::serving {

// Builds an ExperimentConfig from a parsed JSON document. Throws
// util::JsonError / std::invalid_argument on malformed input.
ExperimentConfig config_from_json(const util::JsonValue& doc);

// Convenience: parse a file and build the config.
ExperimentConfig config_from_file(const std::string& path);

// Method name <-> enum (accepts the method_name() spellings,
// case-insensitively, plus "liger-cpusync").
Method parse_method(const std::string& name);

}  // namespace liger::serving
