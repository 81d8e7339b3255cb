// Fig 15 (extension): multi-node hybrid-parallel scaling.
//
// Serves OPT-30B from clusters of 1, 2 and 4 V100 nodes joined by HDR
// InfiniBand. Two cluster-wide strategies compete:
//  * Hybrid  — Liger interleaved TP inside each node (tp = 4), one
//    pipeline stage per node; boundary activations cross the fabric.
//  * Cluster-TP — Liger over all devices with hierarchical collectives
//    (intra-node ring reduce-scatter -> inter-node exchange ->
//    intra-node all-gather); every all-reduce pays the fabric.
// The offered rate scales with the node count, so the table reads as a
// strong-scaling sweep of sustained throughput.
//
// A second section runs a traced 2-node hybrid experiment and reports
// fabric occupancy: concurrent pipeline p2p streams visibly contend for
// the endpoint NICs (args.bytes on each fabric row; device=-1 rows in
// the Chrome trace).
//
// Flags: --requests N (default 100), --trace PATH (write Chrome JSON),
// --engine-threads N (default 1: serial engine; > 1 partitions the
// simulation into engine domains — hybrid runs get one domain per node
// plus the fabric/host domain, cluster-wide TP runs a fused host+world
// partition — results are bit-identical at any count, see
// sim/parallel_engine.h)

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hybrid_runtime.h"
#include "gpu/cluster.h"
#include "model/model_spec.h"
#include "serving/experiment.h"
#include "sim/engine.h"
#include "trace/chrome_trace.h"
#include "util/flags.h"

namespace {
using namespace liger;
using serving::Method;
}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const int requests = static_cast<int>(flags.get_int("requests", 100));
  const std::string trace_path = flags.get_string("trace", "");
  const int engine_threads = static_cast<int>(flags.get_int("engine-threads", 1));

  const auto node = gpu::NodeSpec::v100_nvlink(4);
  const auto model = model::ModelZoo::opt_30b();
  const int batch = 2;
  const int mean_seq = 72;

  // Per-node intra-op saturation anchors the offered rate; 1.2x keeps
  // every configuration saturated so throughput == sustained capacity.
  const sim::SimTime unit = serving::isolated_intra_batch_time(
      node, model, batch, mean_seq, model::Phase::kPrefill);
  const double base_rate = 1.2 / sim::to_seconds(unit);

  bench::print_header(
      "Fig 15: multi-node hybrid scaling (OPT-30B, 4xV100 nodes, IB-HDR, batch 2; " +
      std::to_string(requests) + " requests/point" +
      (engine_threads > 1
           ? ", partitioned engine x" + std::to_string(engine_threads) + " threads"
           : "") +
      ")");
  std::printf("%6s | %22s | %26s | %8s\n", "nodes", "Hybrid tp4 x pp=N", "Cluster-TP (hierarchical)",
              "speedup");
  std::printf("%6s | %10s %11s | %14s %11s | %8s\n", "", "lat(ms)", "thr(b/s)", "lat(ms)",
              "thr(b/s)", "hybrid");

  double hybrid_thr_1node = 0.0;
  for (int nodes : {1, 2, 4}) {
    serving::ExperimentConfig cfg;
    cfg.node = node;
    cfg.model = model;
    cfg.rate = base_rate * nodes;
    cfg.workload.num_requests = requests;
    cfg.workload.batch_size = batch;
    cfg.num_nodes = nodes;
    cfg.fabric = interconnect::FabricSpec::ib_hdr();

    cfg.method = Method::kHybrid;  // tp = devices/node, pp = nodes (defaults)
    cfg.engine_threads = engine_threads;
    const auto hybrid = serving::run_experiment(cfg);

    cfg.method = Method::kLiger;  // whole-cluster tensor parallelism
    const auto tp = serving::run_experiment(cfg);  // fused host+world partition

    if (nodes == 1) hybrid_thr_1node = hybrid.throughput_bps;
    std::printf("%6d | %10.2f %10.3f%s | %14.2f %10.3f%s | %7.2fx\n", nodes,
                hybrid.avg_latency_ms, hybrid.throughput_bps,
                hybrid.saturated() ? "*" : " ", tp.avg_latency_ms, tp.throughput_bps,
                tp.saturated() ? "*" : " ",
                hybrid_thr_1node > 0 ? hybrid.throughput_bps / hybrid_thr_1node : 1.0);
    if (hybrid.engine.partitioned) {
      std::printf("%6s | engine: %llu windows, %.1f events/window\n", "",
                  static_cast<unsigned long long>(hybrid.engine.windows),
                  hybrid.engine.events_per_window);
    }
  }

  // --- Fabric contention, made visible ---------------------------------
  bench::print_subheader("fabric occupancy, 2-node hybrid (traced run)");
  {
    sim::Engine engine;
    gpu::Cluster cluster(engine, gpu::ClusterSpec::v100_ib(2, 4));
    trace::ChromeTraceSink sink;
    cluster.set_trace_sink(&sink);

    core::HybridRuntime runtime(cluster, model);
    int completed = 0;
    runtime.set_completion_hook(
        [&](const model::BatchRequest&, sim::SimTime) { ++completed; });
    const int traced = std::min(requests, 32);
    for (int i = 0; i < traced; ++i) {
      model::BatchRequest req;
      req.id = i;
      req.batch_size = batch;
      req.seq = mean_seq;
      runtime.submit(req);
    }
    engine.run();

    const double span = static_cast<double>(engine.now());
    const double fabric_busy = static_cast<double>(sink.fabric_busy_time());
    std::printf("batches %d/%d | makespan %.2f ms | fabric busy %.2f ms (%.1f%%) | "
                "fabric transfers %llu (%.1f MiB)\n",
                completed, traced, span / 1e6, fabric_busy / 1e6,
                span > 0 ? 100.0 * fabric_busy / span : 0.0,
                static_cast<unsigned long long>(runtime.stats().fabric_transfers),
                static_cast<double>(runtime.stats().fabric_bytes) / (1 << 20));

    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      sink.write_json(out);
      std::printf("trace written to %s (fabric rows: pid=-1)\n", trace_path.c_str());
    }
  }

  std::printf("\nHybrid keeps tensor-parallel collectives on NVLink and only ships\n"
              "boundary activations across the fabric, so throughput scales with the\n"
              "node count; cluster-wide TP pays the fabric on every all-reduce.\n");
  return 0;
}
