#include "serving/server.h"

#include <gtest/gtest.h>

#include "baselines/intra_op_runtime.h"
#include "gpu/node.h"
#include "model/model_spec.h"
#include "support/fixtures.h"

namespace liger::serving {
namespace {

struct ServerFixture : liger::testing::NodeFixture {
  baselines::IntraOpRuntime runtime;

  ServerFixture() : runtime(node, model::ModelZoo::tiny_test()) {}
};

TEST(ServerTest, ServesAllRequests) {
  ServerFixture f;
  WorkloadConfig w;
  w.num_requests = 25;
  w.batch_size = 2;
  Server server(f.engine, f.runtime, w);
  ConstantArrivals arrivals(100.0);
  const Report rep = server.run(arrivals);
  EXPECT_EQ(rep.completed, 25u);
  EXPECT_EQ(server.metrics().arrivals(), 25u);
}

TEST(ServerTest, SequenceLengthsWithinConfiguredRange) {
  ServerFixture f;
  WorkloadConfig w;
  w.num_requests = 50;
  w.seq_min = 16;
  w.seq_max = 128;
  int out_of_range = 0;
  f.runtime.set_completion_hook([&](const model::BatchRequest& r, sim::SimTime) {
    if (r.seq < 16 || r.seq > 128) ++out_of_range;
  });
  Server server(f.engine, f.runtime, w);
  ConstantArrivals arrivals(200.0);
  server.run(arrivals);
  EXPECT_EQ(out_of_range, 0);
}

TEST(ServerTest, SeedControlsWorkload) {
  auto run_with_seed = [](std::uint64_t seed) {
    ServerFixture f;
    WorkloadConfig w;
    w.num_requests = 20;
    w.seed = seed;
    Server server(f.engine, f.runtime, w);
    ConstantArrivals arrivals(100.0);
    return server.run(arrivals).avg_latency_ms;
  };
  EXPECT_DOUBLE_EQ(run_with_seed(1), run_with_seed(1));
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

TEST(ServerTest, PoissonArrivalsServeToo) {
  ServerFixture f;
  WorkloadConfig w;
  w.num_requests = 25;
  Server server(f.engine, f.runtime, w);
  PoissonArrivals arrivals(100.0);
  const Report rep = server.run(arrivals);
  EXPECT_EQ(rep.completed, 25u);
}

TEST(ServerTest, LowRateLatencyIndependentOfRate) {
  auto latency_at = [](double rate) {
    ServerFixture f;
    WorkloadConfig w;
    w.num_requests = 10;
    w.seq_min = w.seq_max = 32;
    Server server(f.engine, f.runtime, w);
    ConstantArrivals arrivals(rate);
    return server.run(arrivals).avg_latency_ms;
  };
  // Both rates are far below saturation: no queueing either way.
  EXPECT_NEAR(latency_at(5.0), latency_at(10.0), 0.01);
}

}  // namespace
}  // namespace liger::serving
