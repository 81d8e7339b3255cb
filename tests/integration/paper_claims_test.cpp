// Parameterized end-to-end checks of the paper's qualitative claims on
// a layer-reduced OPT-30B (so each point runs in milliseconds).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "model/model_spec.h"
#include "serving/experiment.h"

namespace liger::serving {
namespace {

// (node preset "v100" | "a100", batch size). The preset is a
// std::string, not a const char*: gtest prints a pointer parameter as
// its address, which would make the listed test names differ per build.
class PaperClaims : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  gpu::NodeSpec node() const {
    return std::get<0>(GetParam()) == "a100" ? gpu::NodeSpec::a100_pcie(4)
                                             : gpu::NodeSpec::v100_nvlink(4);
  }
  int batch() const { return std::get<1>(GetParam()); }
  model::ModelSpec model() const { return model::ModelZoo::opt_30b().with_layers(12); }

  Report run(Method m, double rate_mult) const {
    const auto base = 1.0 / sim::to_seconds(isolated_intra_batch_time(
                                node(), model(), batch(), 72, model::Phase::kPrefill));
    ExperimentConfig cfg;
    cfg.node = node();
    cfg.model = model();
    cfg.method = m;
    cfg.rate = base * rate_mult;
    cfg.workload.num_requests = 60;
    cfg.workload.batch_size = batch();
    return run_experiment(cfg);
  }
};

TEST_P(PaperClaims, LigerMatchesIntraOpLatencyAtLowRate) {
  const auto liger = run(Method::kLiger, 0.3);
  const auto intra = run(Method::kIntraOp, 0.3);
  EXPECT_NEAR(liger.avg_latency_ms, intra.avg_latency_ms, 0.05 * intra.avg_latency_ms);
}

TEST_P(PaperClaims, LigerLatencyBelowInterOpPreSaturation) {
  for (double mult : {0.3, 0.9}) {
    const auto liger = run(Method::kLiger, mult);
    const auto inter = run(Method::kInterOp, mult);
    ASSERT_FALSE(liger.saturated());
    EXPECT_LT(liger.avg_latency_ms, inter.avg_latency_ms) << "mult=" << mult;
  }
}

TEST_P(PaperClaims, LigerThroughputExceedsIntraOpUnderOverload) {
  const auto liger = run(Method::kLiger, 1.5);
  const auto intra = run(Method::kIntraOp, 1.5);
  EXPECT_GT(liger.throughput_bps, 1.05 * intra.throughput_bps);
}

TEST_P(PaperClaims, AllRequestsConserved) {
  for (Method m : all_methods()) {
    const auto rep = run(m, 1.2);
    EXPECT_EQ(rep.completed, 60u) << method_name(m);
  }
}

TEST_P(PaperClaims, InterOpThroughputNearLinearUnderOverload) {
  // §2.2.2: pipeline throughput grows ~linearly with device count when
  // requests are plentiful.
  const auto inter = run(Method::kInterOp, 1.5);
  const auto intra = run(Method::kIntraOp, 1.5);
  // Inter-op should at least keep pace with intra-op on throughput.
  EXPECT_GT(inter.throughput_bps, 0.85 * intra.throughput_bps);
}

// Fig 11: the decode-phase claim — one decode batch per request with
// the KV cache, batch 32, seq 16, on OPT-30B/A100 past Intra-Op
// saturation. One point rather than a phase axis on PaperClaims, whose
// prefill grid (batch 2/8) would otherwise double.
TEST(PaperClaimsDecode, LigerThroughputExceedsIntraOpOnDecodeBatches) {
  const auto node = gpu::NodeSpec::a100_pcie(4);
  const auto model = model::ModelZoo::opt_30b().with_layers(12);
  const double intra_saturation = 1.0 / sim::to_seconds(isolated_intra_batch_time(
                                             node, model, 32, 16, model::Phase::kDecode));
  const auto run = [&](Method m) {
    ExperimentConfig cfg;
    cfg.node = node;
    cfg.model = model;
    cfg.method = m;
    cfg.rate = 1.5 * intra_saturation;
    cfg.workload.num_requests = 60;
    cfg.workload.batch_size = 32;
    cfg.workload.seq_min = cfg.workload.seq_max = 16;
    cfg.workload.phase = model::Phase::kDecode;
    return run_experiment(cfg);
  };
  const auto liger = run(Method::kLiger);
  const auto intra = run(Method::kIntraOp);
  ASSERT_EQ(liger.completed, 60u);
  ASSERT_EQ(intra.completed, 60u);
  EXPECT_GT(liger.throughput_bps, 1.05 * intra.throughput_bps);
}

INSTANTIATE_TEST_SUITE_P(Grid, PaperClaims,
                         ::testing::Combine(::testing::Values(std::string("v100"),
                                                              std::string("a100")),
                                            ::testing::Values(2, 8)),
                         [](const auto& info) {
                           return std::get<0>(info.param) + "_b" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace liger::serving
