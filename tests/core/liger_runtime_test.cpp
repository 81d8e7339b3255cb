#include "core/liger_runtime.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "model/model_spec.h"
#include "sim/engine.h"
#include "support/fixtures.h"

namespace liger::core {
namespace {

using liger::testing::make_request;
using liger::testing::submit_backlog;

// Submit a backlog of batches at t=0 (infinite-rate limit) and check
// that interleaving actually happens: secondary kernels are scheduled
// and the makespan beats serialized execution.
TEST(LigerRuntimeTest, BacklogProducesOverlap) {
  sim::Engine engine;
  gpu::Node node(engine, gpu::NodeSpec::v100_nvlink(4));
  LigerRuntime runtime(node, model::ModelZoo::opt_30b().with_layers(12));

  int completed = 0;
  runtime.set_completion_hook([&](const model::BatchRequest&, sim::SimTime) { ++completed; });
  submit_backlog(runtime, 6, /*batch=*/2, /*seq=*/72);
  engine.run();

  const auto& st = runtime.stats();
  std::printf("rounds=%llu kernels=%llu secondary=%llu decompositions=%llu makespan=%.3fms\n",
              (unsigned long long)st.rounds, (unsigned long long)st.kernels_launched,
              (unsigned long long)st.secondary_kernels,
              (unsigned long long)st.decompositions, sim::to_ms(engine.now()));

  EXPECT_EQ(completed, 6);
  EXPECT_GT(st.secondary_kernels, 0u) << "no interleaving happened";
  EXPECT_GT(st.decompositions, 0u) << "no runtime decomposition happened";
}

// Helper: run N zero-time-submitted batches and return the makespan.
sim::SimTime run_backlog(LigerOptions options, int batches, int& completed_out) {
  sim::Engine engine;
  gpu::Node node(engine, gpu::NodeSpec::v100_nvlink(4));
  LigerRuntime runtime(node, model::ModelZoo::opt_30b().with_layers(8), options);
  int completed = 0;
  runtime.set_completion_hook([&](const model::BatchRequest&, sim::SimTime) { ++completed; });
  submit_backlog(runtime, batches);
  engine.run();
  completed_out = completed;
  return engine.now();
}

TEST(LigerRuntimeTest, BacklogBeatsSerializedExecution) {
  int completed = 0;
  const auto makespan = run_backlog(LigerOptions{}, 5, completed);
  EXPECT_EQ(completed, 5);

  // Serialized bound: a single batch in isolation, times five.
  int one_done = 0;
  const auto single = run_backlog(LigerOptions{}, 1, one_done);
  EXPECT_LT(makespan, 5 * single);
}

TEST(LigerRuntimeTest, SingleBatchMatchesIntraOpBehaviour) {
  // With one batch there is nothing to interleave: the interleaved
  // parallelism degenerates to the intra-op approach (§3.1).
  int completed = 0;
  run_backlog(LigerOptions{}, 1, completed);
  EXPECT_EQ(completed, 1);

  sim::Engine engine;
  gpu::Node node(engine, gpu::NodeSpec::v100_nvlink(4));
  LigerRuntime runtime(node, model::ModelZoo::opt_30b().with_layers(8));
  runtime.set_completion_hook([](const model::BatchRequest&, sim::SimTime) {});
  runtime.submit(make_request(0));
  engine.run();
  EXPECT_EQ(runtime.stats().secondary_kernels, 0u);
}

TEST(LigerRuntimeTest, HybridSyncBeatsCpuGpuSync) {
  LigerOptions hybrid;
  LigerOptions cpu_only;
  cpu_only.sync = SyncMode::kCpuGpuOnly;
  int done_h = 0, done_c = 0;
  const auto t_hybrid = run_backlog(hybrid, 4, done_h);
  const auto t_cpu = run_backlog(cpu_only, 4, done_c);
  EXPECT_EQ(done_h, 4);
  EXPECT_EQ(done_c, 4);
  EXPECT_LT(t_hybrid, t_cpu);  // Fig 13
}

TEST(LigerRuntimeTest, LargerDecompositionFactorNotSlower) {
  LigerOptions f2;
  f2.decomposition_factor = 2;
  LigerOptions f16;
  f16.decomposition_factor = 16;
  int d2 = 0, d16 = 0;
  const auto t2 = run_backlog(f2, 5, d2);
  const auto t16 = run_backlog(f16, 5, d16);
  EXPECT_LE(t16, t2);  // Fig 14 trend
}

TEST(LigerRuntimeTest, DecompositionDisabledStillCorrect) {
  LigerOptions opts;
  opts.enable_decomposition = false;
  int completed = 0;
  run_backlog(opts, 4, completed);
  EXPECT_EQ(completed, 4);
}

TEST(LigerRuntimeTest, DecodePhaseBatchesComplete) {
  sim::Engine engine;
  gpu::Node node(engine, gpu::NodeSpec::a100_pcie(4));
  LigerRuntime runtime(node, model::ModelZoo::opt_30b().with_layers(8));
  int completed = 0;
  runtime.set_completion_hook([&](const model::BatchRequest&, sim::SimTime) { ++completed; });
  for (int i = 0; i < 4; ++i) {
    model::BatchRequest req = make_request(i, 32, 16);
    req.phase = model::Phase::kDecode;
    runtime.submit(req);
  }
  engine.run();
  EXPECT_EQ(completed, 4);
}

TEST(LigerRuntimeTest, CompletionOrderIsFifo) {
  sim::Engine engine;
  gpu::Node node(engine, gpu::NodeSpec::v100_nvlink(4));
  LigerRuntime runtime(node, model::ModelZoo::opt_30b().with_layers(4));
  std::vector<int> order;
  runtime.set_completion_hook(
      [&](const model::BatchRequest& req, sim::SimTime) { order.push_back(req.id); });
  submit_backlog(runtime, 5);
  engine.run();
  // Principle 1: the early-arrived batch keeps priority; completions
  // follow arrival order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(LigerRuntimeTest, SingleDeviceDegeneratesGracefully) {
  // tp=1: no comm ops at all; Liger must still serve correctly.
  sim::Engine engine;
  gpu::Node node(engine, gpu::NodeSpec::v100_nvlink(1));
  LigerRuntime runtime(node, model::ModelZoo::opt_30b().with_layers(4));
  int completed = 0;
  runtime.set_completion_hook([&](const model::BatchRequest&, sim::SimTime) { ++completed; });
  submit_backlog(runtime, 3, /*batch=*/2, /*seq=*/32);
  engine.run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(runtime.stats().secondary_kernels, 0u);
}

TEST(LigerRuntimeTest, SequenceParallelVariantServes) {
  LigerOptions opts;
  opts.sequence_parallel = true;
  int completed = 0;
  const auto makespan = run_backlog(opts, 5, completed);
  EXPECT_EQ(completed, 5);
  EXPECT_GT(makespan, 0);
}

TEST(LigerRuntimeTest, ActivationMemoryAccounting) {
  sim::Engine engine;
  gpu::Node node(engine, gpu::NodeSpec::v100_nvlink(4));
  LigerRuntime runtime(node, model::ModelZoo::opt_30b().with_layers(4));
  runtime.set_completion_hook([](const model::BatchRequest&, sim::SimTime) {});
  submit_backlog(runtime, 3);
  // All three in flight once the dispatch hop lands (submit defers its
  // bookkeeping by kSubmitDispatchLatency); no kernel has completed yet.
  engine.run_until(kSubmitDispatchLatency);
  const auto mid = runtime.stats().current_activation_bytes;
  EXPECT_GT(mid, 0u);
  engine.run();
  EXPECT_EQ(runtime.stats().current_activation_bytes, 0u);
  EXPECT_EQ(runtime.stats().peak_activation_bytes, mid);
}

TEST(LigerRuntimeTest, PlanCacheHitsOnRepeatedShapes) {
  sim::Engine engine;
  gpu::Node node(engine, gpu::NodeSpec::v100_nvlink(4));
  LigerRuntime runtime(node, model::ModelZoo::opt_30b().with_layers(4));
  runtime.set_completion_hook([](const model::BatchRequest&, sim::SimTime) {});
  submit_backlog(runtime, 8);
  engine.run();
  // One compile for the shared shape, seven shared-plan reuses.
  EXPECT_EQ(runtime.stats().plan_cache_misses, 1u);
  EXPECT_EQ(runtime.stats().plan_cache_hits, 7u);
  EXPECT_EQ(runtime.plan_cache().size(), 1u);
}

TEST(LigerRuntimeTest, PlanCacheMissesOnDistinctShapes) {
  sim::Engine engine;
  gpu::Node node(engine, gpu::NodeSpec::v100_nvlink(4));
  LigerRuntime runtime(node, model::ModelZoo::opt_30b().with_layers(4));
  runtime.set_completion_hook([](const model::BatchRequest&, sim::SimTime) {});
  for (int i = 0; i < 4; ++i) {
    // Decode-style context growth: all shapes distinct.
    model::BatchRequest req = make_request(i, 2, 16 + i);
    req.phase = model::Phase::kDecode;
    runtime.submit(req);
  }
  engine.run();
  EXPECT_EQ(runtime.stats().plan_cache_misses, 4u);
  EXPECT_EQ(runtime.stats().plan_cache_hits, 0u);
}

// The memory bound of the round pipeline: a long generative run (well
// past 1000 rounds) must retain O(ranks) plans at peak, not O(rounds) —
// the ring retires plans as soon as every rank has executed them.
TEST(LigerRuntimeTest, RetainedPlansBoundedByRanksOverLongRun) {
  sim::Engine engine;
  gpu::Node node(engine, gpu::NodeSpec::v100_nvlink(4));
  LigerRuntime runtime(node, model::ModelZoo::opt_30b().with_layers(6));

  // Autoregressive chain: each completion submits the next token's
  // decode with a grown context.
  int context = 16;
  int tokens_left = 200;
  runtime.set_completion_hook([&](const model::BatchRequest&, sim::SimTime) {
    if (--tokens_left <= 0) return;
    ++context;
    model::BatchRequest next;
    next.id = 1000 + tokens_left;
    next.batch_size = 32;
    next.seq = context;
    next.phase = model::Phase::kDecode;
    next.arrival = engine.now();
    runtime.submit(next);
  });
  model::BatchRequest first;
  first.id = 0;
  first.batch_size = 32;
  first.seq = context;
  first.phase = model::Phase::kDecode;
  runtime.submit(first);
  engine.run();

  const auto& st = runtime.stats();
  ASSERT_EQ(tokens_left, 0);
  ASSERT_GE(st.rounds, 1000u) << "workload too small to exercise the bound";
  const auto ranks = static_cast<std::uint64_t>(node.num_devices());
  EXPECT_LE(st.peak_retained_plans, 2 * ranks)
      << "retained plans must track rank skew, not run length";
  EXPECT_GE(st.peak_retained_plans, 1u);
}

TEST(LigerRuntimeTest, LateSubmissionAfterIdleResumes) {
  sim::Engine engine;
  gpu::Node node(engine, gpu::NodeSpec::v100_nvlink(4));
  LigerRuntime runtime(node, model::ModelZoo::opt_30b().with_layers(4));
  std::vector<sim::SimTime> completions;
  runtime.set_completion_hook(
      [&](const model::BatchRequest&, sim::SimTime t) { completions.push_back(t); });

  runtime.submit(make_request(0, 2, 32));
  engine.run();  // drain completely; runtime actors go idle
  ASSERT_EQ(completions.size(), 1u);

  // Submit again much later.
  engine.schedule_at(engine.now() + sim::seconds(1), [&runtime, &engine] {
    model::BatchRequest late;
    late.id = 1;
    late.batch_size = 2;
    late.seq = 32;
    late.arrival = engine.now();
    runtime.submit(late);
  });
  engine.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_GT(completions[1], sim::seconds(1));
}

}  // namespace
}  // namespace liger::core
