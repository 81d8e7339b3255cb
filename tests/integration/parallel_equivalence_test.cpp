// Serial-vs-parallel bit-identity of full serving experiments.
//
// The partitioned engine (ExperimentConfig::engine_threads > 1) must
// reproduce the serial simulation exactly: every Report field and every
// trace record, for every seed and every worker-thread count. These
// tests replay the paper's figure workloads (fig10 single-node serving,
// generative rounds batching, fig15 multi-node hybrid, fig16 faults) at
// engine_threads 1/2/4 across three seeds and compare:
//   - the full Report, serialized at max precision (a mismatch in any
//     field, including the last float bit, fails), and
//   - the Chrome-trace event stream, normalized through the same
//     total-order sort the partitioned path uses (the serial path emits
//     records in engine order; the partitioned path in canonical order
//     — the record *sets* must match exactly).
// Between two partitioned runs even the raw JSON bytes must match:
// the domain layout (including the per-node device-group cells of the
// two-level partition) is a pure function of the experiment config,
// never of engine_threads, and worker count only changes which OS
// thread runs a window — so every partitioned thread count shares one
// layout and the raw comparison holds across all of them.
#include <gtest/gtest.h>

#include <cstdlib>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/node.h"
#include "model/model_spec.h"
#include "serving/experiment.h"
#include "trace/chrome_trace.h"
#include "trace/domain_mux.h"

namespace liger::serving {
namespace {

// Full-precision textual form of a Report: every field, doubles at
// max_digits10 so any bit difference shows.
std::string report_json(const Report& r) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"completed\":" << r.completed << ",\"offered_rate\":" << r.offered_rate
      << ",\"avg_latency_ms\":" << r.avg_latency_ms
      << ",\"p50_latency_ms\":" << r.p50_latency_ms
      << ",\"p95_latency_ms\":" << r.p95_latency_ms
      << ",\"p99_latency_ms\":" << r.p99_latency_ms
      << ",\"max_latency_ms\":" << r.max_latency_ms
      << ",\"throughput_bps\":" << r.throughput_bps
      << ",\"throughput_rps\":" << r.throughput_rps << ",\"makespan\":" << r.makespan
      << ",\"timed_out\":" << r.timed_out << ",\"retries\":" << r.retries
      << ",\"lost\":" << r.lost << ",\"goodput_bps\":" << r.goodput_bps
      << ",\"goodput_rps\":" << r.goodput_rps
      << ",\"slo_violation_rate\":" << r.slo_violation_rate;
  const auto& g = r.generative;
  out << ",\"generative\":{\"iterations\":" << g.iterations << ",\"tokens\":" << g.tokens
      << ",\"ttft_ms_avg\":" << g.ttft_ms_avg << ",\"ttft_ms_p99\":" << g.ttft_ms_p99
      << ",\"tpot_ms_avg\":" << g.tpot_ms_avg << ",\"tpot_ms_p99\":" << g.tpot_ms_p99
      << ",\"decode_batch_avg\":" << g.decode_batch_avg
      << ",\"padding_tokens\":" << g.padding_tokens
      << ",\"kv_peak_used_blocks\":" << g.kv_peak_used_blocks
      << ",\"kv_peak_utilization\":" << g.kv_peak_utilization << "}}";
  return out.str();
}

// Chrome-trace JSON after normalizing record order through the
// DomainTraceMux total-order sort (idempotent on already-sorted
// streams, so partitioned output is unchanged; serial engine-order
// output is canonicalized).
std::string canonical_trace(const trace::ChromeTraceSink& sink) {
  trace::DomainTraceMux mux(1);
  for (const auto& rec : sink.records()) mux.domain(0)->on_kernel(rec);
  for (const auto& rec : sink.fault_records()) mux.domain(0)->on_fault(rec);
  trace::ChromeTraceSink sorted;
  mux.flush(sorted);
  std::ostringstream out;
  sorted.write_json(out);
  return out.str();
}

struct RunOutput {
  std::string report;
  std::string trace_canonical;
  std::string trace_raw;  // as emitted, no normalization
};

RunOutput run_with_trace(ExperimentConfig cfg, int engine_threads) {
  trace::ChromeTraceSink sink;
  cfg.trace_sink = &sink;
  cfg.engine_threads = engine_threads;
  RunOutput out;
  out.report = report_json(run_experiment(cfg));
  out.trace_canonical = canonical_trace(sink);
  std::ostringstream raw;
  sink.write_json(raw);
  out.trace_raw = raw.str();
  return out;
}

void expect_equivalent_across_threads(const ExperimentConfig& cfg,
                                      const std::string& label) {
  const RunOutput serial = run_with_trace(cfg, 1);
  const RunOutput two = run_with_trace(cfg, 2);
  const RunOutput four = run_with_trace(cfg, 4);

  EXPECT_EQ(serial.report, two.report) << label << ": serial vs 2 threads";
  EXPECT_EQ(serial.report, four.report) << label << ": serial vs 4 threads";
  EXPECT_EQ(serial.trace_canonical, two.trace_canonical)
      << label << ": trace diverged, serial vs 2 threads";
  EXPECT_EQ(serial.trace_canonical, four.trace_canonical)
      << label << ": trace diverged, serial vs 4 threads";
  EXPECT_EQ(two.report, four.report);
  // Partitioned runs differ only in worker count — the layout comes
  // from the config, not the thread count — so identical windows,
  // identical merge order, byte-identical raw output (including the
  // engine-windows trace row) at every partitioned width.
  const RunOutput eight = run_with_trace(cfg, 8);
  EXPECT_EQ(two.trace_raw, four.trace_raw)
      << label << ": partitioned runs must emit byte-identical traces";
  EXPECT_EQ(four.trace_raw, eight.trace_raw)
      << label << ": partitioned runs must emit byte-identical traces";
  EXPECT_EQ(four.report, eight.report);

  // CI hook: the scheduled tier-2 TSan job re-runs the suite across
  // its engine_threads matrix (LIGER_EQUIVALENCE_EXTRA_THREADS at 8
  // and at $(nproc)), exercising worker schedules a fixed thread list
  // cannot.
  if (const char* extra_env = std::getenv("LIGER_EQUIVALENCE_EXTRA_THREADS")) {
    const int extra = std::atoi(extra_env);
    if (extra > 1) {
      const RunOutput wide = run_with_trace(cfg, extra);
      EXPECT_EQ(serial.report, wide.report)
          << label << ": serial vs " << extra << " threads";
      EXPECT_EQ(serial.trace_canonical, wide.trace_canonical)
          << label << ": trace diverged, serial vs " << extra << " threads";
    }
  }
}

constexpr std::uint64_t kSeeds[] = {7, 41, 1234};

// --- fig10: single-node serving, Liger method ----------------------------

ExperimentConfig fig10_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.node = gpu::NodeSpec::v100_nvlink(4);
  cfg.model = model::ModelZoo::opt_30b().with_layers(4);
  cfg.method = Method::kLiger;
  cfg.rate = 40.0;
  cfg.poisson = true;
  cfg.workload.num_requests = 12;
  cfg.workload.batch_size = 2;
  cfg.workload.seed = seed;
  return cfg;
}

TEST(ParallelEquivalenceTest, Fig10SingleNodeServing) {
  for (const auto seed : kSeeds) {
    expect_equivalent_across_threads(fig10_config(seed),
                                     "fig10 seed " + std::to_string(seed));
  }
}

// --- cluster-wide TP: one runtime braided across every node --------------

TEST(ParallelEquivalenceTest, ClusterWideTensorParallelTwoNodes) {
  // The second lifted serial fallback: a Liger TP group spanning the
  // whole cluster runs on the fused host + world partition, with the
  // fabric leg of its hierarchical collectives domain-local to the
  // nodes it synchronizes.
  for (const auto seed : kSeeds) {
    ExperimentConfig cfg = fig10_config(seed);
    cfg.num_nodes = 2;
    cfg.fabric = interconnect::FabricSpec::ib_hdr();
    expect_equivalent_across_threads(cfg,
                                     "cluster-TP seed " + std::to_string(seed));
  }
}

// --- fig15: multi-node hybrid pipeline -----------------------------------

ExperimentConfig fig15_config(std::uint64_t seed, int nodes) {
  ExperimentConfig cfg;
  cfg.node = gpu::NodeSpec::v100_nvlink(4);
  cfg.model = model::ModelZoo::opt_30b().with_layers(4);
  cfg.method = Method::kHybrid;
  cfg.num_nodes = nodes;
  cfg.fabric = interconnect::FabricSpec::ib_hdr();
  cfg.rate = 60.0;
  cfg.poisson = true;
  cfg.workload.num_requests = 10;
  cfg.workload.batch_size = 2;
  cfg.workload.seed = seed;
  return cfg;
}

TEST(ParallelEquivalenceTest, Fig15HybridTwoNodes) {
  for (const auto seed : kSeeds) {
    expect_equivalent_across_threads(fig15_config(seed, 2),
                                     "fig15/2n seed " + std::to_string(seed));
  }
}

TEST(ParallelEquivalenceTest, Fig15HybridFourNodes) {
  // The acceptance shape: one engine domain per node plus the fabric
  // domain, so 4 nodes exercises 5 domains with real cross-node
  // lookahead windows.
  expect_equivalent_across_threads(fig15_config(7, 4), "fig15/4n seed 7");
}

TEST(ParallelEquivalenceTest, Fig15HybridTwoLevelCells) {
  // The two-level shape: 8-GPU nodes at TP=4 split every node into two
  // stage-slice cells, each with its own engine domain, grouped per
  // node — node supersteps with NVLink-lookahead device sub-windows,
  // and pipeline hand-offs hopping cell-to-cell inside a node. The
  // whole hierarchy must stay bit-identical to the serial run.
  for (const auto seed : kSeeds) {
    ExperimentConfig cfg;
    cfg.node = gpu::NodeSpec::v100_nvlink(8);
    cfg.model = model::ModelZoo::opt_30b().with_layers(8);
    cfg.method = Method::kHybrid;
    cfg.num_nodes = 2;
    cfg.hybrid_tp = 4;  // 8 devices / TP=4 -> 2 cells per node
    cfg.hybrid_pp = 4;
    cfg.fabric = interconnect::FabricSpec::ib_hdr();
    cfg.rate = 60.0;
    cfg.poisson = true;
    cfg.workload.num_requests = 10;
    cfg.workload.batch_size = 2;
    cfg.workload.seed = seed;
    expect_equivalent_across_threads(cfg,
                                     "fig15/cells seed " + std::to_string(seed));
  }
}

// --- generative serving, static-batching rounds ---------------------------

TEST(ParallelEquivalenceTest, GenerativeRoundsBatching) {
  // Prefill plus multi-token decode through ContinuousScheduler in
  // kRounds mode: rounds admit into an empty running set, reserve KV
  // for the final context and carry early finishers as padding.
  for (const auto seed : kSeeds) {
    ExperimentConfig cfg;
    cfg.node = gpu::NodeSpec::a100_pcie(4);
    cfg.model = model::ModelZoo::opt_30b().with_layers(4);
    cfg.method = Method::kLiger;
    cfg.rate = 400.0;
    cfg.poisson = true;
    cfg.workload.num_requests = 6;
    cfg.workload.batch_size = 8;
    cfg.workload.seq_min = 16;
    cfg.workload.seq_max = 48;
    cfg.workload.decode_tokens_min = 2;
    cfg.workload.decode_tokens_max = 6;
    cfg.workload.seed = seed;
    cfg.batching = BatchingMode::kRounds;
    expect_equivalent_across_threads(cfg,
                                     "generative rounds seed " + std::to_string(seed));
  }
}

// --- fig16: fault injection under the partitioned engine -----------------

ExperimentConfig fig16_config(std::uint64_t seed) {
  ExperimentConfig cfg = fig10_config(seed);
  cfg.rate = 30.0;
  cfg.workload.num_requests = 10;
  cfg.faults.enabled = true;
  fault::FaultEvent f;
  f.kind = fault::FaultKind::kStraggler;
  f.time = sim::milliseconds(40);
  f.duration = sim::milliseconds(30);
  f.node = 0;
  f.device = 1;
  f.factor = 0.5;
  cfg.faults.plan.events.push_back(f);
  return cfg;
}

TEST(ParallelEquivalenceTest, Fig16FaultRunsIdenticalAtAnyThreadCount) {
  // Fault experiments run under the parallel engine on a fused
  // host + world partition: monitor callbacks, injection follow-ups and
  // failover rebuilds are all domain-local events, and the chaos replay
  // (fault records included) must be bit-for-bit identical to serial.
  for (const auto seed : kSeeds) {
    expect_equivalent_across_threads(fig16_config(seed),
                                     "fig16 seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace liger::serving
