#include "serving/experiment.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "baselines/inter_op_runtime.h"
#include "baselines/intra_op_runtime.h"
#include "core/runtime.h"
#include "profile/contention.h"
#include "sim/engine.h"
#include "sim/parallel_engine.h"
#include "trace/chrome_trace.h"
#include "trace/domain_mux.h"
#include "util/thread_pool.h"

namespace liger::serving {

const char* method_name(Method m) {
  switch (m) {
    case Method::kLiger: return "Liger";
    case Method::kIntraOp: return "Intra-Op";
    case Method::kInterOp: return "Inter-Op";
    case Method::kInterTh: return "Inter-Th";
    case Method::kLigerCpuSync: return "Liger-CpuSync";
    case Method::kHybrid: return "Hybrid";
  }
  return "?";
}

std::vector<Method> all_methods() {
  return {Method::kLiger, Method::kIntraOp, Method::kInterOp, Method::kInterTh};
}

double profiled_contention_factor(const gpu::NodeSpec& node, const model::ModelSpec& model,
                                  const collective::CommConfig& comm) {
  // Keyed on num_devices too: preset names do not encode the device
  // count (v100_nvlink(4) and v100_nvlink(8) are both "4xV100-NVLink"),
  // but the profiled factor depends on the collective world size — one
  // process running both shapes must not cross-pollinate them.
  using Key = std::tuple<std::string, int, std::string, int>;
  static std::mutex cache_mutex;  // sweeps profile from worker threads
  static std::map<Key, double> cache;
  const Key key{node.name, node.num_devices, model.name, comm.max_nchannels};
  {
    std::lock_guard lock(cache_mutex);
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }

  // The paper profiles intensive kernels over varied inputs (§3.5);
  // we sweep batch x sequence representative of the workload.
  std::vector<model::ExecConfig> grid;
  for (int batch : {2, 8}) {
    for (int seq : {16, 64, 128}) {
      model::ExecConfig cfg;
      cfg.batch = batch;
      cfg.seq = seq;
      grid.push_back(cfg);
    }
  }
  const auto report = profile::profile_contention(node, comm, model, grid);
  const double factor = report.factor();
  {
    std::lock_guard lock(cache_mutex);
    cache.emplace(key, factor);
  }
  return factor;
}

bool model_fits(const gpu::NodeSpec& node, const model::ModelSpec& model, Method method) {
  // Small activation headroom (coarse; the paper only needs the
  // OPT-30B-on-V100 style feasibility cut — 60GB of weights across
  // 4x16GB is feasible, 132GB is not).
  const double headroom = 0.97;
  const std::uint64_t budget =
      static_cast<std::uint64_t>(headroom * static_cast<double>(node.gpu.mem_bytes));
  std::uint64_t shard = 0;
  switch (method) {
    case Method::kLiger:
    case Method::kIntraOp:
    case Method::kLigerCpuSync:
      shard = model.shard_bytes(node.num_devices);
      break;
    case Method::kInterOp:
    case Method::kInterTh: {
      // Largest stage: ceil(layers / devices) layers.
      const int stage_layers =
          (model.layers + node.num_devices - 1) / node.num_devices;
      shard = static_cast<std::uint64_t>(stage_layers) * model.params_per_layer() *
              static_cast<std::uint64_t>(model.bytes_per_param);
      break;
    }
    case Method::kHybrid:
      // One node hosts one tensor-parallel stage of the model; further
      // nodes only shrink the per-device share.
      shard = model.shard_bytes(node.num_devices);
      break;
  }
  return shard <= budget;
}

sim::SimTime isolated_intra_batch_time(const gpu::NodeSpec& node,
                                       const model::ModelSpec& model, int batch_size,
                                       int seq, model::Phase phase) {
  sim::Engine engine;
  interconnect::Topology topology(node.link, node.num_devices);
  collective::Communicator comm(engine, topology, node.gpu,
                                collective::CommConfig::liger_tuned());
  profile::ProfileTable table(comm, node.num_devices);
  const model::CostModel cost(node.gpu);
  const model::LayerBuilder builder(model, cost);

  model::ExecConfig cfg;
  cfg.batch = batch_size;
  cfg.seq = seq;
  cfg.tp = node.num_devices;
  cfg.phase = phase;

  sim::SimTime total = 0;
  for (const auto& op : builder.model_ops(cfg)) total += table.op_duration(op);
  return total;
}

Report run_experiment(const ExperimentConfig& config) {
  return run_experiment_detailed(config).report;
}

ExperimentOutputs run_experiment_detailed(const ExperimentConfig& config) {
  // Single-node experiments keep the plain-Node path (bit-identical to
  // the pre-cluster harness); multi-node and hybrid experiments build a
  // cluster and hand the runtime a cluster-wide device group.
  const bool clustered = config.num_nodes > 1 || config.method == Method::kHybrid;

  const bool faults = config.faults.enabled;

  // Generative (iteration-level) serving: the scheduler drives one
  // model iteration at a time over a tensor-parallel group.
  const bool generative = config.workload.decode_tokens_max > 0;
  if (generative) {
    if (config.method != Method::kLiger && config.method != Method::kLigerCpuSync &&
        config.method != Method::kIntraOp) {
      throw std::invalid_argument(
          "generative batching requires a tensor-parallel runtime "
          "(liger, liger-cpusync, or intra-op)");
    }
    // Per-fault-kind validation: stragglers, link faults, and host
    // stalls only slow iterations down and are supported under every
    // generative method; fail-stop needs the failover decorator to
    // rebuild a degraded topology, which only the liger runtimes
    // support (the serving-level cluster restriction is checked with
    // the non-generative paths below).
    if (faults && config.faults.plan.has_fail_stop() &&
        config.method != Method::kLiger && config.method != Method::kLigerCpuSync) {
      throw std::invalid_argument(
          "fail-stop under generative batching requires a liger runtime "
          "(intra-op cannot rebuild a degraded tensor-parallel topology)");
    }
  }

  // Partitioned (parallel-engine) execution. Every experiment shape can
  // run partitioned; the partition planner picks the domain layout as a
  // pure function of the *configuration* — engine_threads only caps the
  // worker count (ParallelEngine clamps it to the group count), so the
  // window structure, and with it the simulated results, are identical
  // at every thread count:
  //   - standalone node: host domain 0 + node domain 1;
  //   - hybrid cluster, no faults: a two-level hierarchical partition —
  //     host+fabric on domain 0, one domain per node *cell* (tensor-
  //     parallel stage slice), and one engine group per node, so
  //     intra-node hand-offs between cells merge at worker-local inner
  //     barriers that never touch the global coordinator;
  //   - cluster-wide TP or any fault run: host on domain 0 and one
  //     fused "world" domain holding every node plus the fabric —
  //     collectives, the heartbeat monitor, and failover rebuilds all
  //     stay domain-local, lifting the old serial fallbacks.
  // Lookahead claims: runtimes route submit() through invoke_after with
  // core::kSubmitDispatchLatency (host->node edges; fault runs keep it
  // zero — FailoverRuntime::submit self-routes at the caller's time),
  // completion/drop hooks and fabric-start requests route through
  // invoke_after with core::kCompletionDispatchLatency (node->host
  // edges), and same-node cell hand-offs are a p2p copy followed by the
  // submit dispatch (cell->cell edges). Every edge positive means every
  // window is wider than a single event.
  //
  // Experiments on a sweep worker borrow idle threads from the
  // process-global pool instead of unconditionally falling back to
  // serial; reservations are returned when the experiment ends.
  int engine_threads = config.engine_threads;
  struct SpareThreads {
    unsigned n = 0;
    ~SpareThreads() {
      if (n > 0) util::ThreadPool::global().release_spare(n);
    }
  } spare;
  if (engine_threads > 1 && util::ThreadPool::on_pool_thread()) {
    if (util::ThreadPool::current() == &util::ThreadPool::global()) {
      spare.n = util::ThreadPool::global().try_reserve_spare(
          static_cast<unsigned>(engine_threads - 1));
    }
    engine_threads = 1 + static_cast<int>(spare.n);
  }
  const bool partitioned = engine_threads > 1;

  // Cell layout — part of the simulated configuration (per-cell command
  // buses and flow registries), identical in serial and partitioned
  // runs: hybrid experiments split each node into one cell per
  // tensor-parallel stage slice; fault runs and cluster-wide TP keep
  // whole-node cells (their device groups span or re-partition nodes).
  int cells_per_node = 1;
  if (config.method == Method::kHybrid && !faults) {
    const int tp = config.hybrid_tp > 0 ? config.hybrid_tp : config.node.num_devices;
    if (tp >= 1 && config.node.num_devices % tp == 0) {
      cells_per_node = config.node.num_devices / tp;
    }
  }

  std::unique_ptr<sim::ParallelEngine> pe;
  std::unique_ptr<sim::Engine> serial_engine;
  std::vector<int> node_domains;  // node i -> pe domain (clustered only)
  std::vector<std::vector<int>> cell_domains;  // [node][cell] (hybrid layout)
  int fabric_domain = 0;
  if (partitioned) {
    int domains = 2;
    std::vector<std::vector<int>> engine_groups;
    if (clustered && config.method == Method::kHybrid && !faults) {
      domains = 1 + config.num_nodes * cells_per_node;
      cell_domains.resize(static_cast<std::size_t>(config.num_nodes));
      engine_groups.push_back({0});  // host+fabric: its own group
      for (int i = 0; i < config.num_nodes; ++i) {
        engine_groups.emplace_back();
        for (int c = 0; c < cells_per_node; ++c) {
          const int d = 1 + i * cells_per_node + c;
          cell_domains[static_cast<std::size_t>(i)].push_back(d);
          engine_groups.back().push_back(d);
        }
      }
      fabric_domain = 0;
    } else if (clustered) {
      node_domains.assign(static_cast<std::size_t>(config.num_nodes), 1);
      fabric_domain = 1;
    }
    pe = std::make_unique<sim::ParallelEngine>(domains);
    const sim::SimTime submit_la = faults ? 0 : core::kSubmitDispatchLatency;
    for (int d = 1; d < domains; ++d) {
      pe->lookahead().set(0, d, submit_la);
      // Reverse edges: completion/drop hooks and fabric-start requests
      // reach the host no sooner than the completion dispatch cost.
      pe->lookahead().set(d, 0, core::kCompletionDispatchLatency);
    }
    if (!cell_domains.empty()) {
      // Cell pairs. Same node: the only cross-cell influence is the
      // pipeline hand-off — a p2p copy (positive) followed by the next
      // stage's submit dispatch; the dispatch alone bounds the claim.
      // And hand-offs only flow *forward*: stage slices are assigned in
      // stage order (HybridRuntime packs consecutive stages into
      // consecutive cells), stage s only ever posts to stage s + 1, and
      // every other cross-cell interaction (completions, collectives,
      // faults) either targets the host domain or stays cell-local. A
      // higher cell therefore never posts to a lower cell on its node,
      // and the reverse edge claims infinity — which lets the leading
      // cell of a superstep run its whole outer window in one inner
      // round instead of marching in dispatch-hop steps. The claim
      // check keeps this honest: any reverse post would abort.
      // Cross node: there is no direct cell-to-cell edge at all —
      // every inter-node hand-off transits the host/fabric domain
      // (HybridRuntime::forward routes boundary transfers through
      // cluster().engine(), and the next stage's submit dispatches
      // from there), so the pairwise claim is infinity and the closure
      // prices cross-node influence as the host relay: completion
      // dispatch in, submit dispatch out. That doubles the cross-node
      // chain length versus claiming the raw fabric latency, and the
      // group self-echo (cell -> host -> same node) becomes the window
      // pacer instead of the tightest single fabric hop.
      for (int i = 0; i < config.num_nodes; ++i) {
        for (int j = 0; j < config.num_nodes; ++j) {
          for (const int a : cell_domains[static_cast<std::size_t>(i)]) {
            for (const int b : cell_domains[static_cast<std::size_t>(j)]) {
              if (a == b) continue;
              if (i != j) {
                pe->lookahead().set(a, b, sim::EventHorizon::kInfinity);
              } else {
                pe->lookahead().set(a, b, a < b
                                              ? core::kSubmitDispatchLatency
                                              : sim::EventHorizon::kInfinity);
              }
            }
          }
        }
      }
    } else {
      // Nothing crosses node domains directly faster than the fabric's
      // base latency (all inter-node influence transits the fabric).
      for (int a = 1; a < domains; ++a) {
        for (int b = 1; b < domains; ++b) {
          if (a != b) pe->lookahead().set(a, b, config.fabric.base_latency);
        }
      }
    }
    if (!engine_groups.empty()) pe->set_groups(std::move(engine_groups));
  } else {
    serial_engine = std::make_unique<sim::Engine>();
  }
  sim::Engine& engine = pe ? pe->domain(0) : *serial_engine;

  std::unique_ptr<gpu::Node> node;
  std::unique_ptr<gpu::Cluster> cluster;
  if (clustered) {
    gpu::ClusterSpec cspec;
    cspec.name = config.node.name;
    cspec.node = config.node;
    cspec.fabric = config.fabric;
    cspec.num_nodes = config.num_nodes;
    cspec.cells_per_node = cells_per_node;
    if (pe && !cell_domains.empty()) {
      cluster = std::make_unique<gpu::Cluster>(*pe, cspec, cell_domains, fabric_domain);
    } else if (pe) {
      cluster = std::make_unique<gpu::Cluster>(*pe, cspec, node_domains, fabric_domain);
    } else {
      cluster = std::make_unique<gpu::Cluster>(engine, cspec);
    }
  } else {
    node = std::make_unique<gpu::Node>(pe ? pe->domain(1) : engine, config.node);
  }
  auto make_group = [&] {
    return clustered ? gpu::DeviceGroup::whole_cluster(*cluster)
                     : gpu::DeviceGroup::whole_node(*node);
  };

  core::LigerOptions liger_opts = config.liger;
  if (config.profile_contention &&
      (config.method == Method::kLiger || config.method == Method::kLigerCpuSync ||
       config.method == Method::kHybrid)) {
    liger_opts.contention_factor =
        profiled_contention_factor(config.node, config.model, liger_opts.comm);
  }
  if (config.method == Method::kLigerCpuSync) {
    liger_opts.sync = core::SyncMode::kCpuGpuOnly;
  }
  if (generative && liger_opts.plan_cache_capacity == 0) {
    // Iteration-level key churn would retain one compiled plan per
    // (batch, seq) shape ever seen; bound the cache at O(ranks) —
    // comfortably above the live shape count (one decode shape, a few
    // prefill shapes) at any group size.
    const int ranks =
        clustered ? config.num_nodes * config.node.num_devices : config.node.num_devices;
    liger_opts.plan_cache_capacity = static_cast<std::size_t>(4 * ranks + 8);
  }

  if (faults && config.faults.plan.has_fail_stop() && config.method != Method::kLiger &&
      config.method != Method::kLigerCpuSync && config.method != Method::kHybrid) {
    throw std::invalid_argument(
        "fail-stop recovery is supported for the liger and hybrid methods only");
  }
  if (faults && config.faults.plan.has_fail_stop() && clustered &&
      config.method != Method::kHybrid) {
    throw std::invalid_argument(
        "fail-stop recovery for cluster-wide TP groups is not supported; "
        "use hybrid (stage re-placement) or a single node");
  }

  // Shared across runtime generations: failover rebinds it to the
  // survivor topology's compiled artifacts, bumping the epoch so the
  // steady-state hot path replans each shape exactly once.
  auto shared_cache = faults ? std::make_unique<core::PlanCache>() : nullptr;

  // Builds one runtime generation over the devices still alive. The
  // all-alive call reproduces the fault-free construction exactly.
  auto build_backend =
      [&](const std::vector<bool>& alive) -> std::unique_ptr<core::InferenceRuntime> {
    const bool degraded =
        std::find(alive.begin(), alive.end(), false) != alive.end();
    switch (config.method) {
      case Method::kLiger:
      case Method::kLigerCpuSync: {
        gpu::DeviceGroup group;
        if (!degraded) {
          group = make_group();
        } else {
          // Degraded mode: shrink the TP group to the survivors.
          std::vector<int> survivors;
          for (std::size_t d = 0; d < alive.size(); ++d) {
            if (alive[d]) survivors.push_back(static_cast<int>(d));
          }
          if (survivors.empty()) {
            throw std::invalid_argument("no devices left alive");
          }
          group = gpu::DeviceGroup::node_subset(*node, survivors);
        }
        return std::make_unique<core::LigerRuntime>(std::move(group), config.model,
                                                    liger_opts, shared_cache.get());
      }
      case Method::kIntraOp:
        return std::make_unique<baselines::IntraOpRuntime>(make_group(), config.model);
      case Method::kInterOp:
        return std::make_unique<baselines::InterOpRuntime>(make_group(), config.model,
                                                           baselines::InterOpOptions{});
      case Method::kInterTh: {
        baselines::InterOpOptions opts;
        opts.theoretical = true;
        return std::make_unique<baselines::InterOpRuntime>(make_group(), config.model,
                                                           opts);
      }
      case Method::kHybrid: {
        core::HybridOptions opts;
        opts.tp = config.hybrid_tp;
        opts.pp = config.hybrid_pp;
        opts.liger = liger_opts;
        if (degraded) {
          // Re-place every stage onto nodes with no failed device,
          // round-robin; capacity permitting.
          const int per_node = cluster->devices_per_node();
          std::vector<int> good_nodes;
          for (int n = 0; n < cluster->num_nodes(); ++n) {
            bool ok = true;
            for (int d = 0; d < per_node; ++d) {
              if (!alive[static_cast<std::size_t>(n * per_node + d)]) ok = false;
            }
            if (ok) good_nodes.push_back(n);
          }
          const int tp = opts.tp > 0 ? opts.tp : per_node;
          const int pp = opts.pp > 0 ? opts.pp : cluster->num_nodes();
          const int stages_per_node = per_node / tp;
          if (good_nodes.empty() ||
              static_cast<int>(good_nodes.size()) * stages_per_node < pp) {
            throw std::invalid_argument(
                "not enough healthy nodes to re-place the pipeline");
          }
          opts.pp = pp;
          opts.placement.resize(static_cast<std::size_t>(pp));
          for (int s = 0; s < pp; ++s) {
            opts.placement[static_cast<std::size_t>(s)] =
                good_nodes[static_cast<std::size_t>(s) % good_nodes.size()];
          }
        }
        return std::make_unique<core::HybridRuntime>(*cluster, config.model, opts);
      }
    }
    throw std::invalid_argument("unknown method");
  };

  // Partitioned runs buffer traces per domain and merge them after the
  // run in a deterministic total order (trace/domain_mux.h) — domains
  // must not share a sink mid-run.
  std::unique_ptr<trace::DomainTraceMux> trace_mux;
  if (config.trace_sink != nullptr) {
    if (pe) {
      trace_mux = std::make_unique<trace::DomainTraceMux>(pe->num_domains());
      if (clustered && !cell_domains.empty()) {
        // Cell-level layout: every cell (execution domain) buffers into
        // its own mux domain, so concurrent device sub-windows inside a
        // node's superstep never share a sink.
        std::vector<std::vector<gpu::TraceSink*>> cell_sinks(
            static_cast<std::size_t>(cluster->num_nodes()));
        for (int i = 0; i < cluster->num_nodes(); ++i) {
          for (const int d : cell_domains[static_cast<std::size_t>(i)]) {
            cell_sinks[static_cast<std::size_t>(i)].push_back(trace_mux->domain(d));
          }
        }
        cluster->set_cell_trace_sinks(trace_mux->domain(fabric_domain), cell_sinks);
      } else if (clustered) {
        std::vector<gpu::TraceSink*> node_sinks;
        for (int i = 0; i < cluster->num_nodes(); ++i) {
          // Nodes sharing a fused domain share its buffer — safe, they
          // execute on one thread; the mux total-orders records anyway.
          node_sinks.push_back(trace_mux->domain(node_domains[static_cast<std::size_t>(i)]));
        }
        cluster->set_domain_trace_sinks(trace_mux->domain(fabric_domain), node_sinks);
      } else {
        node->set_trace_sink(trace_mux->domain(1));
      }
    } else if (clustered) {
      cluster->set_trace_sink(config.trace_sink);
    } else {
      node->set_trace_sink(config.trace_sink);
    }
  }

  std::unique_ptr<core::InferenceRuntime> runtime;
  std::unique_ptr<fault::FailoverRuntime> failover;
  std::unique_ptr<fault::FaultInjector> injector;
  if (faults) {
    fault::FaultTargets targets = clustered ? fault::FaultTargets::from_cluster(*cluster)
                                            : fault::FaultTargets::from_node(*node);
    // Partitioned fault runs emit every fault record from the fused
    // world domain (domain 1 in both fault partitions): route them
    // through that domain's buffer so the mux keeps the total order.
    targets.trace = trace_mux ? trace_mux->domain(1) : config.trace_sink;
    fault::FailoverRuntime::Options opts;
    opts.detection = config.faults.detection;
    opts.replan_latency = config.faults.replan_latency;
    failover = std::make_unique<fault::FailoverRuntime>(targets, build_backend, opts);
    injector = std::make_unique<fault::FaultInjector>(targets, config.faults.plan);
    injector->schedule();
  } else {
    runtime = build_backend(
        std::vector<bool>(static_cast<std::size_t>(clustered ? cluster->total_devices()
                                                             : node->num_devices()),
                          true));
  }
  core::InferenceRuntime& serving_runtime = faults ? *failover : *runtime;

  std::vector<sim::ParallelEngine::WindowRecord> window_log;
  if (pe && config.trace_sink != nullptr) pe->set_window_log(&window_log);
  auto driver = [pe_ptr = pe.get(), threads = engine_threads] {
    return pe_ptr->run(static_cast<unsigned>(threads));
  };
  std::unique_ptr<ArrivalProcess> arrivals;
  if (config.poisson) {
    arrivals = std::make_unique<PoissonArrivals>(config.rate);
  } else {
    arrivals = std::make_unique<ConstantArrivals>(config.rate);
  }
  ExperimentOutputs out;
  std::unique_ptr<ContinuousScheduler> scheduler;  // outlives run: trace samples
  if (generative) {
    ContinuousConfig cc = config.continuous;
    cc.mode = config.batching;
    const int ranks = clustered ? cluster->total_devices() : node->num_devices();
    if (cc.kv_pool_bytes == 0) {
      // Per-device pool: a fraction of what the weight shard leaves
      // free (the scheduler floors it at one max-context group).
      const std::uint64_t shard = config.model.shard_bytes(ranks);
      const std::uint64_t mem = config.node.gpu.mem_bytes;
      const std::uint64_t avail = mem > shard ? mem - shard : 0;
      cc.kv_pool_bytes =
          static_cast<std::uint64_t>(cc.kv_pool_fraction * static_cast<double>(avail));
    }
    scheduler = std::make_unique<ContinuousScheduler>(engine, serving_runtime, config.model,
                                                      ranks, config.workload, cc);
    if (pe) scheduler->set_driver(driver);
    if (faults) {
      // On fail-stop the scheduler purges and re-queues; the pool it
      // rebuilds re-derives from the survivor count the same way the
      // initial pool derived from the full group (an explicitly
      // configured pool size is honored as-is — the operator sized it).
      scheduler->attach_failover(
          *failover,
          [model = config.model, mem = config.node.gpu.mem_bytes,
           frac = cc.kv_pool_fraction,
           explicit_bytes = config.continuous.kv_pool_bytes](
              int survivors) -> std::uint64_t {
            if (explicit_bytes != 0) return explicit_bytes;
            const std::uint64_t shard = model.shard_bytes(survivors);
            const std::uint64_t avail = mem > shard ? mem - shard : 0;
            return static_cast<std::uint64_t>(frac * static_cast<double>(avail));
          });
      if (config.method == Method::kLiger || config.method == Method::kLigerCpuSync) {
        // The shared cache survives generations (failover rebinds it),
        // so its counters cover the whole chaos run.
        scheduler->set_plan_cache_probe(shared_cache.get());
      }
    } else if (auto* liger = dynamic_cast<core::LigerRuntime*>(runtime.get())) {
      scheduler->set_plan_cache_probe(&liger->plan_cache());
    }
    out.report = scheduler->run(*arrivals);
    out.completion_times = scheduler->metrics().completion_times();
  } else {
    Server server(engine, serving_runtime, config.workload);
    if (pe) server.set_driver(driver);
    out.report = server.run(*arrivals);
    out.completion_times = server.metrics().completion_times();
  }
  if (trace_mux) trace_mux->flush(*config.trace_sink);
  if (scheduler != nullptr) {
    if (auto* chrome = dynamic_cast<trace::ChromeTraceSink*>(config.trace_sink)) {
      for (const auto& s : scheduler->samples()) {
        trace::SchedulerSampleRecord rec;
        rec.t = s.t;
        rec.kv_used_blocks = s.kv_used_blocks;
        rec.kv_total_blocks = s.kv_total_blocks;
        rec.running = s.running;
        rec.waiting = s.waiting;
        rec.cache_size = s.cache_size;
        rec.cache_evictions = s.cache_evictions;
        chrome->add_scheduler_sample(rec);
      }
    }
  }
  if (pe) {
    const auto& es = pe->stats();
    out.report.engine.partitioned = true;
    out.report.engine.windows = es.windows;
    out.report.engine.inner_windows = es.inner_windows;
    out.report.engine.inner_equal_time_rounds = es.inner_equal_time_rounds;
    out.report.engine.equal_time_rounds = es.equal_time_rounds;
    out.report.engine.events = es.events;
    out.report.engine.posts_routed = es.posts_routed;
    out.report.engine.mailbox_spills = es.mailbox_spills;
    out.report.engine.barrier_wait_ns = es.barrier_wait_ns;
    const std::uint64_t rounds = es.windows + es.equal_time_rounds;
    out.report.engine.events_per_window =
        rounds > 0 ? static_cast<double>(es.events) / static_cast<double>(rounds) : 0.0;
    // A `windows` row in the Chrome trace makes the synchronization
    // structure visible next to the kernels it schedules around.
    if (auto* chrome = dynamic_cast<trace::ChromeTraceSink*>(config.trace_sink)) {
      for (const auto& w : window_log) {
        trace::EngineWindowRecord rec;
        rec.start = w.start;
        rec.end = w.end;
        rec.active_domains = static_cast<int>(w.active_domains);
        rec.events = w.events;
        rec.inner_rounds = w.inner_rounds;
        rec.equal_time = w.equal_time;
        chrome->add_engine_window(rec);
      }
    }
    pe->set_window_log(nullptr);
  }
  core::InferenceRuntime* backend = faults ? &failover->backend() : runtime.get();
  if (auto* liger = dynamic_cast<core::LigerRuntime*>(backend)) {
    out.liger = liger->stats();
    // Plan-cache behaviour surfaces in every report with a Liger
    // backend, so key-churn claims are measurable, not asserted.
    out.report.plan_cache.enabled = true;
    out.report.plan_cache.hits = liger->plan_cache().hits();
    out.report.plan_cache.misses = liger->plan_cache().misses();
    out.report.plan_cache.evictions = liger->plan_cache().evictions();
    out.report.plan_cache.peak_size = liger->plan_cache().peak_size();
    out.report.plan_cache.capacity = liger->plan_cache().capacity();
  }
  if (faults) out.failover = failover->failover_stats();
  // Global virtual time: in a partitioned run the furthest domain (the
  // serial engine's now() for the same workload).
  const double span = static_cast<double>(pe ? pe->now() : engine.now());
  auto push_device_fracs = [&](gpu::Node& n) {
    for (int d = 0; d < n.num_devices(); ++d) {
      const auto& dev = n.device(d);
      out.device_busy_frac.push_back(
          span > 0 ? static_cast<double>(dev.busy_time_any()) / span : 0.0);
      out.device_comm_frac.push_back(
          span > 0 ? static_cast<double>(dev.busy_time_comm()) / span : 0.0);
    }
  };
  if (clustered) {
    for (int i = 0; i < cluster->num_nodes(); ++i) push_device_fracs(cluster->node(i));
  } else {
    push_device_fracs(*node);
  }
  return out;
}

}  // namespace liger::serving
