// google-benchmark micro benches: simulation-engine health (event
// throughput, device dispatch cost, Algorithm 1 planning cost).

#include <benchmark/benchmark.h>

#include "collective/collective.h"
#include "core/scheduler.h"
#include "gpu/node.h"
#include "model/layer_builder.h"
#include "profile/decomposition_planner.h"
#include "profile/profile_table.h"
#include "sim/engine.h"

namespace {

using namespace liger;

void BM_EngineScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      engine.schedule_at(i, [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(100000);

// The rebalance() pattern: a population of pending events where each
// "state change" cancels and reschedules every member. This is the
// cancel-heavy workload that dominates device-model time.
void BM_EngineCancelChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kRounds = 8;
  for (auto _ : state) {
    sim::Engine engine;
    int fired = 0;
    std::vector<sim::Engine::EventId> ids(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ids[static_cast<std::size_t>(i)] =
          engine.schedule_at(1000 + i, [&fired] { ++fired; });
    }
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < n; ++i) {
        engine.cancel(ids[static_cast<std::size_t>(i)]);
        ids[static_cast<std::size_t>(i)] =
            engine.schedule_at(1000 + ((i * 7 + round) % n), [&fired] { ++fired; });
      }
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n * kRounds);
}
BENCHMARK(BM_EngineCancelChurn)->Arg(1000)->Arg(100000);

// Many small concurrent kernels with high bandwidth demand: every
// completion perturbs the shared-bandwidth pool, so each one triggers a
// rebalance over every running kernel (a "rebalance storm").
void BM_DeviceRebalanceStorm(benchmark::State& state) {
  const int kernels = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    gpu::Device dev(engine, 0, gpu::GpuSpec::v100());
    auto& s0 = dev.create_stream();
    auto& s1 = dev.create_stream();
    for (int i = 0; i < kernels; ++i) {
      gpu::StreamOp op;
      op.kind = gpu::StreamOp::Kind::kKernel;
      op.kernel.name = "storm";
      op.kernel.solo_duration = 500 + 97 * (i % 11);
      op.kernel.blocks = 1 + i % 3;  // tiny kernels -> high concurrency
      op.kernel.mem_bw_demand = 0.9;  // pool oversubscribed -> shared rates
      auto& s = (i % 2 == 0) ? s0 : s1;
      op.stream_seq = s.note_issued();
      dev.deliver(s, std::move(op));
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * kernels);
}
BENCHMARK(BM_DeviceRebalanceStorm)->Arg(256)->Arg(2048);

void BM_DeviceKernelChurn(benchmark::State& state) {
  const int kernels = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    gpu::Device dev(engine, 0, gpu::GpuSpec::v100());
    auto& s0 = dev.create_stream();
    auto& s1 = dev.create_stream();
    for (int i = 0; i < kernels; ++i) {
      gpu::StreamOp op;
      op.kind = gpu::StreamOp::Kind::kKernel;
      op.kernel.name = "k";
      op.kernel.solo_duration = 1000 + i % 7;
      op.kernel.blocks = 40 + i % 3;
      op.kernel.mem_bw_demand = 0.4;
      auto& s = (i % 2 == 0) ? s0 : s1;
      op.stream_seq = s.note_issued();
      dev.deliver(s, std::move(op));
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * kernels);
}
BENCHMARK(BM_DeviceKernelChurn)->Arg(256)->Arg(4096);

void BM_SchedulerNextRound(benchmark::State& state) {
  sim::Engine engine;
  interconnect::Topology topo(interconnect::InterconnectSpec::nvlink_v100(), 4);
  collective::Communicator comm(engine, topo, gpu::GpuSpec::v100());
  profile::ProfileTable table(comm, 4);
  const model::CostModel cost(gpu::GpuSpec::v100());
  const model::LayerBuilder builder(model::ModelZoo::opt_30b(), cost);
  profile::DecompositionPlanner planner(cost, table, 8);

  model::ExecConfig cfg;
  cfg.batch = 2;
  cfg.seq = 64;
  cfg.tp = 4;
  model::OpList ops = builder.model_ops(cfg);
  table.annotate(ops);

  std::uint64_t rounds = 0;
  for (auto _ : state) {
    core::Scheduler scheduler(planner, core::Scheduler::Options{});
    for (int b = 0; b < 4; ++b) {
      model::BatchRequest req;
      req.id = b;
      scheduler.enqueue(core::FunctionList(req, ops));
    }
    while (scheduler.has_work()) {
      benchmark::DoNotOptimize(scheduler.next_round());
      ++rounds;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_SchedulerNextRound);

}  // namespace

BENCHMARK_MAIN();
