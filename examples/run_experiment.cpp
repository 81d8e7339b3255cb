// Config-driven experiment runner: loads a JSON experiment description
// (see configs/ and serving/config.h for the schema), runs it, and
// prints a human-readable or JSON report.
//
//   $ ./run_experiment configs/fig10_panel_a.json
//   $ ./run_experiment configs/custom_node.json --json
//   $ ./run_experiment cfg.json --rates 10,20,30 --threads 4
//   $ ./run_experiment cfg.json --engine_threads 4

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "serving/config.h"
#include "serving/sweep.h"
#include "util/flags.h"
#include "util/json_writer.h"

int main(int argc, char** argv) {
  using namespace liger;
  util::Flags flags(argc, argv);
  if (flags.positional().empty()) {
    std::fprintf(stderr, "usage: run_experiment <config.json> [--json] [--rates r1,r2,...]\n");
    return 2;
  }

  serving::ExperimentConfig base;
  try {
    base = serving::config_from_file(flags.positional().front());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "config error: %s\n", e.what());
    return 2;
  }

  // Partitioned-engine worker count: changes only how the simulation
  // executes, never what it computes.
  if (flags.has("engine_threads")) {
    base.engine_threads = static_cast<int>(flags.get_int("engine_threads", base.engine_threads));
  }

  // Optional rate sweep (run in parallel across cores).
  std::vector<double> rates;
  if (flags.has("rates")) {
    std::stringstream ss(flags.get_string("rates", ""));
    std::string token;
    while (std::getline(ss, token, ',')) rates.push_back(std::stod(token));
  } else {
    rates.push_back(base.rate);
  }

  std::vector<serving::ExperimentConfig> configs;
  for (double rate : rates) {
    auto cfg = base;
    cfg.rate = rate;
    configs.push_back(cfg);
  }
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 0));
  const auto reports = serving::run_parallel(configs, threads);

  if (flags.get_bool("json", false)) {
    util::JsonWriter w(std::cout);
    w.begin_array();
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto& r = reports[i];
      w.begin_object();
      w.kv("method", serving::method_name(configs[i].method));
      w.kv("model", configs[i].model.name);
      w.kv("node", configs[i].node.name);
      w.kv("rate_bps", r.offered_rate);
      w.kv("completed", static_cast<std::int64_t>(r.completed));
      w.kv("avg_latency_ms", r.avg_latency_ms);
      w.kv("p50_latency_ms", r.p50_latency_ms);
      w.kv("p99_latency_ms", r.p99_latency_ms);
      w.kv("throughput_bps", r.throughput_bps);
      w.kv("throughput_rps", r.throughput_rps);
      w.kv("saturated", r.saturated());
      if (r.generative.enabled) {
        w.kv("tokens_per_second", r.generative.tokens_per_second);
        w.kv("ttft_ms_avg", r.generative.ttft_ms_avg);
        w.kv("ttft_ms_p99", r.generative.ttft_ms_p99);
        w.kv("tpot_ms_avg", r.generative.tpot_ms_avg);
        w.kv("tpot_ms_p99", r.generative.tpot_ms_p99);
        w.kv("decode_batch_avg", r.generative.decode_batch_avg);
        w.kv("padding_tokens", static_cast<std::int64_t>(r.generative.padding_tokens));
        w.kv("preemptions", static_cast<std::int64_t>(r.generative.preemptions));
        w.kv("swap_outs", static_cast<std::int64_t>(r.generative.swap_outs));
        w.kv("kv_peak_used_blocks", r.generative.kv_peak_used_blocks);
        w.kv("kv_total_blocks", r.generative.kv_total_blocks);
        w.kv("goodput_rps", r.goodput_rps);
        w.kv("slo_violation_rate", r.slo_violation_rate);
        w.kv("fault_requeues", static_cast<std::int64_t>(r.generative.fault_requeues));
        w.kv("shed", static_cast<std::int64_t>(r.shed));
        w.kv("lost", static_cast<std::int64_t>(r.lost));
      }
      if (r.plan_cache.enabled) {
        w.kv("plan_cache_peak_size", static_cast<std::int64_t>(r.plan_cache.peak_size));
        w.kv("plan_cache_evictions", static_cast<std::int64_t>(r.plan_cache.evictions));
      }
      if (r.engine.partitioned) {
        w.kv("engine_windows", static_cast<std::int64_t>(r.engine.windows));
        w.kv("engine_events_per_window", r.engine.events_per_window);
      }
      w.end_object();
    }
    w.end_array();
    std::cout << "\n";
  } else {
    std::printf("%s serving %s on %s\n", serving::method_name(base.method),
                base.model.name.c_str(), base.node.name.c_str());
    std::printf("%10s %10s %12s %12s %12s %10s\n", "rate b/s", "completed", "avg lat ms",
                "p99 lat ms", "thr b/s", "saturated");
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto& r = reports[i];
      std::printf("%10.3f %10zu %12.2f %12.2f %12.3f %10s\n", r.offered_rate, r.completed,
                  r.avg_latency_ms, r.p99_latency_ms, r.throughput_bps,
                  r.saturated() ? "yes" : "no");
      if (r.generative.enabled) {
        std::printf("           %.0f tok/s | TTFT %.2f ms (p99 %.2f) | TPOT %.3f ms "
                    "(p99 %.3f) | decode batch %.1f\n",
                    r.generative.tokens_per_second, r.generative.ttft_ms_avg,
                    r.generative.ttft_ms_p99, r.generative.tpot_ms_avg,
                    r.generative.tpot_ms_p99, r.generative.decode_batch_avg);
        std::printf("           KV peak %d/%d blocks | padding %llu tok | "
                    "preempt %zu (recompute %zu, swap %zu) | goodput %.1f req/s\n",
                    r.generative.kv_peak_used_blocks, r.generative.kv_total_blocks,
                    static_cast<unsigned long long>(r.generative.padding_tokens),
                    r.generative.preemptions, r.generative.recomputes,
                    r.generative.swap_outs, r.goodput_rps);
        if (r.generative.fault_requeues > 0 || r.shed > 0 || r.lost > 0) {
          std::printf("           fault requeues %zu | shed %zu | lost %zu "
                      "(completed + shed = %zu of %zu arrivals)\n",
                      r.generative.fault_requeues, r.shed, r.lost,
                      r.completed + r.shed, r.completed + r.lost);
        }
      }
      if (r.engine.partitioned) {
        std::printf("           engine: %llu windows (%.1f events/window)\n",
                    static_cast<unsigned long long>(r.engine.windows),
                    r.engine.events_per_window);
      }
    }
  }
  return 0;
}
