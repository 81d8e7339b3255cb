#include "serving/config.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace liger::serving {
namespace {

TEST(ConfigTest, DefaultsWhenEmpty) {
  const auto cfg = config_from_json(util::parse_json("{}"));
  EXPECT_EQ(cfg.method, Method::kLiger);
  EXPECT_EQ(cfg.model.name, "opt-30b");
  EXPECT_EQ(cfg.node.num_devices, 4);
  EXPECT_EQ(cfg.workload.num_requests, 2000);  // WorkloadConfig default
}

TEST(ConfigTest, NodePresetAndOverrides) {
  const auto cfg = config_from_json(util::parse_json(R"({
    "node": {
      "preset": "a100", "devices": 8,
      "gpu": { "sms": 132, "fp16_tflops": 495.0 },
      "link": { "allreduce_busbw_gbps": 230.0, "kind": "nvlink" }
    }
  })"));
  EXPECT_EQ(cfg.node.num_devices, 8);
  EXPECT_EQ(cfg.node.gpu.sm_count, 132);
  EXPECT_DOUBLE_EQ(cfg.node.gpu.fp16_flops, 495e12);
  EXPECT_DOUBLE_EQ(cfg.node.link.allreduce_busbw, 230e9);
  EXPECT_EQ(cfg.node.link.kind, interconnect::LinkKind::kNvLink);
  // Unset fields keep the preset's values.
  EXPECT_DOUBLE_EQ(cfg.node.gpu.mem_bandwidth, gpu::GpuSpec::a100().mem_bandwidth);
}

TEST(ConfigTest, ModelPresetWithLayerOverride) {
  const auto cfg = config_from_json(util::parse_json(R"({
    "model": { "preset": "glm-130b", "layers": 10 }
  })"));
  EXPECT_EQ(cfg.model.layers, 10);
  EXPECT_EQ(cfg.model.hidden, 12288);
}

TEST(ConfigTest, WorkloadAndLigerBlocks) {
  const auto cfg = config_from_json(util::parse_json(R"({
    "method": "inter-th",
    "rate": 7.5,
    "poisson": true,
    "workload": { "requests": 123, "batch": 8, "seq_min": 32, "seq_max": 64,
                  "phase": "decode", "seed": 99 },
    "liger": { "decomposition_factor": 16, "contention_factor": 1.25,
               "sync": "cpu-gpu", "nccl_channels": 5 }
  })"));
  EXPECT_EQ(cfg.method, Method::kInterTh);
  EXPECT_DOUBLE_EQ(cfg.rate, 7.5);
  EXPECT_TRUE(cfg.poisson);
  EXPECT_EQ(cfg.workload.num_requests, 123);
  EXPECT_EQ(cfg.workload.batch_size, 8);
  EXPECT_EQ(cfg.workload.phase, model::Phase::kDecode);
  EXPECT_EQ(cfg.workload.seed, 99u);
  EXPECT_EQ(cfg.liger.decomposition_factor, 16);
  EXPECT_DOUBLE_EQ(cfg.liger.contention_factor, 1.25);
  EXPECT_FALSE(cfg.profile_contention);  // explicit factor wins
  EXPECT_EQ(cfg.liger.sync, core::SyncMode::kCpuGpuOnly);
  EXPECT_EQ(cfg.liger.comm.max_nchannels, 5);
}

TEST(ConfigTest, AvailabilityKnobsAndFaultsBlock) {
  const auto cfg = config_from_json(util::parse_json(R"({
    "workload": { "requests": 10, "deadline_ms": 250.0, "max_retries": 5,
                  "retry_backoff_ms": 2.0, "retry_backoff_cap_ms": 64.0,
                  "retry_jitter": 0.1 },
    "faults": {
      "plan": [ {"kind": "fail_stop", "t_ms": 50.0, "node": 0, "device": 2} ],
      "detection": { "heartbeat_interval_us": 250, "miss_threshold": 4 },
      "recovery": { "replan_ms": 3.0 }
    }
  })"));
  EXPECT_EQ(cfg.workload.deadline, sim::milliseconds(250));
  EXPECT_EQ(cfg.workload.max_retries, 5);
  EXPECT_EQ(cfg.workload.retry_backoff, sim::milliseconds(2));
  EXPECT_EQ(cfg.workload.retry_backoff_cap, sim::milliseconds(64));
  EXPECT_DOUBLE_EQ(cfg.workload.retry_jitter, 0.1);
  EXPECT_TRUE(cfg.faults.enabled);  // present without "enabled" => on
  ASSERT_EQ(cfg.faults.plan.events.size(), 1u);
  EXPECT_EQ(cfg.faults.plan.events[0].kind, fault::FaultKind::kDeviceFailStop);
  EXPECT_EQ(cfg.faults.detection.heartbeat_interval, sim::microseconds(250));
  EXPECT_EQ(cfg.faults.detection.miss_threshold, 4);
  EXPECT_EQ(cfg.faults.replan_latency, sim::milliseconds(3));
  // No faults section at all => disabled, no plan.
  const auto plain = config_from_json(util::parse_json("{}"));
  EXPECT_FALSE(plain.faults.enabled);
  EXPECT_TRUE(plain.faults.plan.empty());
}

TEST(ConfigTest, GenerativeWorkloadAndBatchingBlock) {
  const auto cfg = config_from_json(util::parse_json(R"({
    "workload": { "requests": 20, "decode_tokens_min": 8, "decode_tokens_max": 64 },
    "batching": { "mode": "continuous", "block_tokens": 32, "kv_gb": 2.0,
                  "token_budget": 4096, "max_running": 16,
                  "admit_reserve": 0.1, "preemption": "swap", "pcie_gbps": 24.0 }
  })"));
  EXPECT_EQ(cfg.workload.decode_tokens_min, 8);
  EXPECT_EQ(cfg.workload.decode_tokens_max, 64);
  EXPECT_EQ(cfg.batching, BatchingMode::kContinuous);
  EXPECT_EQ(cfg.continuous.block_tokens, 32);
  EXPECT_EQ(cfg.continuous.kv_pool_bytes, 2ull << 30);
  EXPECT_EQ(cfg.continuous.token_budget, 4096);
  EXPECT_EQ(cfg.continuous.max_running, 16);
  EXPECT_DOUBLE_EQ(cfg.continuous.admit_reserve, 0.1);
  EXPECT_EQ(cfg.continuous.preemption, PreemptionPolicy::kSwap);
  EXPECT_DOUBLE_EQ(cfg.continuous.pcie_gbps, 24.0);

  // Defaults: rounds mode, recompute preemption, no decode tokens.
  const auto plain = config_from_json(util::parse_json("{}"));
  EXPECT_EQ(plain.batching, BatchingMode::kRounds);
  EXPECT_EQ(plain.continuous.preemption, PreemptionPolicy::kRecompute);
  EXPECT_EQ(plain.workload.decode_tokens_max, 0);

  // A generative workload clamps decode_tokens_min up to one token.
  const auto clamped = config_from_json(
      util::parse_json(R"({"workload": {"decode_tokens_max": 4}})"));
  EXPECT_EQ(clamped.workload.decode_tokens_min, 1);

  EXPECT_THROW(config_from_json(util::parse_json(R"({"batching":{"mode":"magic"}})")),
               std::invalid_argument);
  EXPECT_THROW(
      config_from_json(util::parse_json(R"({"batching":{"preemption":"pray"}})")),
      std::invalid_argument);
}

TEST(ConfigTest, ParseMethodSpellings) {
  EXPECT_EQ(parse_method("Liger"), Method::kLiger);
  EXPECT_EQ(parse_method("intra-op"), Method::kIntraOp);
  EXPECT_EQ(parse_method("INTRA"), Method::kIntraOp);
  EXPECT_EQ(parse_method("inter-op"), Method::kInterOp);
  EXPECT_EQ(parse_method("inter-th"), Method::kInterTh);
  EXPECT_EQ(parse_method("liger-cpusync"), Method::kLigerCpuSync);
  EXPECT_EQ(parse_method("hybrid"), Method::kHybrid);
  EXPECT_THROW(parse_method("magic"), std::invalid_argument);
}

TEST(ConfigTest, ClusterBlock) {
  const auto cfg = config_from_json(util::parse_json(R"({
    "method": "hybrid",
    "cluster": {
      "nodes": 2,
      "fabric": { "preset": "100gbe", "link_bw_gbps": 20.0, "base_latency_us": 15.0 },
      "tp": 2, "pp": 4
    }
  })"));
  EXPECT_EQ(cfg.method, Method::kHybrid);
  EXPECT_EQ(cfg.num_nodes, 2);
  EXPECT_EQ(cfg.fabric.name, "100GbE");
  EXPECT_DOUBLE_EQ(cfg.fabric.link_bandwidth, 20e9);
  EXPECT_EQ(cfg.fabric.base_latency, sim::microseconds(15));
  EXPECT_EQ(cfg.hybrid_tp, 2);
  EXPECT_EQ(cfg.hybrid_pp, 4);
}

TEST(ConfigTest, ClusterDefaultsAndValidation) {
  const auto cfg = config_from_json(util::parse_json(R"({"cluster": {"nodes": 4}})"));
  EXPECT_EQ(cfg.num_nodes, 4);
  EXPECT_EQ(cfg.fabric.name, "IB-HDR");  // default preset
  EXPECT_EQ(cfg.hybrid_tp, 0);           // 0 = whole node / one stage per node
  EXPECT_EQ(cfg.hybrid_pp, 0);
  EXPECT_THROW(config_from_json(util::parse_json(R"({"cluster": {"nodes": 0}})")),
               std::invalid_argument);
  EXPECT_THROW(
      config_from_json(util::parse_json(R"({"cluster": {"fabric": {"preset": "carrier-pigeon"}}})")),
      std::invalid_argument);
}

TEST(ConfigTest, OutOfRangeIntegersThrowNamingTheKey) {
  // 2^32 + 1 used to narrow to 1 and pass the engine_threads >= 1 check.
  const auto message_for = [](const char* json) -> std::string {
    try {
      config_from_json(util::parse_json(json));
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_for(R"({"engine_threads": 4294967297})").find("engine_threads"),
            std::string::npos);
  EXPECT_NE(message_for(R"({"cluster": {"nodes": 4294967297}})").find("nodes"),
            std::string::npos);
  EXPECT_NE(message_for(R"({"workload": {"requests": -2147483649}})").find("requests"),
            std::string::npos);
  EXPECT_NE(message_for(R"({"model": {"layers": 4294967344}})").find("layers"),
            std::string::npos);
  EXPECT_NE(message_for(R"({"node": {"devices": 2147483648}})").find("devices"),
            std::string::npos);
  // The seed is unsigned: -1 used to wrap to 2^64 - 1.
  EXPECT_NE(message_for(R"({"workload": {"seed": -1}})").find("seed"), std::string::npos);
  // The int limits themselves still parse.
  const auto cfg = config_from_json(
      util::parse_json(R"({"workload": {"requests": 2147483647, "max_retries": -2147483648}})"));
  EXPECT_EQ(cfg.workload.num_requests, 2147483647);
  EXPECT_EQ(cfg.workload.max_retries, -2147483647 - 1);
}

TEST(ConfigTest, UnknownModelPresetThrows) {
  EXPECT_THROW(config_from_json(util::parse_json(R"({"model":{"preset":"gpt-9"}})")),
               std::invalid_argument);
}

TEST(ConfigTest, UnknownPhaseThrows) {
  EXPECT_THROW(
      config_from_json(util::parse_json(R"({"workload":{"phase":"training"}})")),
      std::invalid_argument);
}

TEST(ConfigTest, BundledConfigsParseAndRun) {
  // The checked-in example configs must stay valid.
  for (const char* path : {"../configs/fig10_panel_a.json", "configs/fig10_panel_a.json",
                           "../../configs/fig10_panel_a.json"}) {
    try {
      auto cfg = config_from_file(path);
      cfg.workload.num_requests = 5;  // keep the test fast
      cfg.model = cfg.model.with_layers(4);
      const auto rep = run_experiment(cfg);
      EXPECT_EQ(rep.completed, 5u);
      return;
    } catch (const std::runtime_error&) {
      continue;  // wrong relative path; try the next candidate
    }
  }
  GTEST_SKIP() << "configs/ not reachable from test cwd";
}

TEST(ConfigTest, BundledHybridConfigParsesAndRuns) {
  for (const char* path : {"../configs/hybrid_2node.json", "configs/hybrid_2node.json",
                           "../../configs/hybrid_2node.json"}) {
    try {
      auto cfg = config_from_file(path);
      EXPECT_EQ(cfg.method, Method::kHybrid);
      EXPECT_EQ(cfg.num_nodes, 2);
      cfg.workload.num_requests = 4;  // keep the test fast
      cfg.model = cfg.model.with_layers(4);
      const auto rep = run_experiment(cfg);
      EXPECT_EQ(rep.completed, 4u);
      return;
    } catch (const std::runtime_error&) {
      continue;  // wrong relative path; try the next candidate
    }
  }
  GTEST_SKIP() << "configs/ not reachable from test cwd";
}

TEST(ConfigTest, BundledFaultConfigParsesAndRuns) {
  for (const char* path : {"../configs/fault_failstop.json", "configs/fault_failstop.json",
                           "../../configs/fault_failstop.json"}) {
    try {
      auto cfg = config_from_file(path);
      EXPECT_TRUE(cfg.faults.enabled);
      EXPECT_TRUE(cfg.faults.plan.has_fail_stop());
      EXPECT_EQ(cfg.workload.max_retries, 5);
      cfg.workload.num_requests = 8;  // keep the test fast
      cfg.model = cfg.model.with_layers(4);
      const auto rep = run_experiment(cfg);
      EXPECT_EQ(rep.completed + rep.lost, 8u);
      return;
    } catch (const std::runtime_error&) {
      continue;  // wrong relative path; try the next candidate
    }
  }
  GTEST_SKIP() << "configs/ not reachable from test cwd";
}

TEST(ConfigTest, BundledContinuousBatchingConfigParsesAndRuns) {
  for (const char* path :
       {"../configs/continuous_batching.json", "configs/continuous_batching.json",
        "../../configs/continuous_batching.json"}) {
    try {
      auto cfg = config_from_file(path);
      EXPECT_EQ(cfg.batching, BatchingMode::kContinuous);
      EXPECT_GT(cfg.workload.decode_tokens_max, 0);
      cfg.workload.num_requests = 6;  // keep the test fast
      cfg.model = cfg.model.with_layers(4);
      const auto rep = run_experiment(cfg);
      EXPECT_EQ(rep.completed, 6u);
      EXPECT_TRUE(rep.generative.enabled);
      return;
    } catch (const std::runtime_error&) {
      continue;  // wrong relative path; try the next candidate
    }
  }
  GTEST_SKIP() << "configs/ not reachable from test cwd";
}

}  // namespace
}  // namespace liger::serving
