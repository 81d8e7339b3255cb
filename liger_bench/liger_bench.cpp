// Repo benchmark harness. Runs one workload through the public serving
// entry point (serving::config_from_file + run_experiment_detailed) and
// prints one JSON object on stdout. run.py builds and orchestrates it;
// README.md describes the workloads and every metric.
//
//   liger_bench --workload NAME --seed N --mode setup|timed|traced
//               [--seconds S] [--requests N] [--segments K] [--workloads DIR]
//
//   setup   set up once (config build + cold contention profile) and
//           print how long that took. run.py starts several of these so
//           set-up time is a median over cold processes.
//   timed   set up, then run the workload's traces (--segments of them)
//           in turn for S seconds with tracing off. Prints each rep's host
//           time, the simulated outcome, the peak RSS and the correctness
//           gate.
//   traced  the per-layer run: spans around the benchmark's own calls
//           into each layer, counts from a TraceSink and the public
//           stats, untraced vs traced reps for the tracing overhead, and
//           (partitioned workloads) serial reps for the engine speedup
//           and the serial == partitioned gate.
//
// Exit code 0 when the correctness gate passed, 1 when it failed (the
// JSON is still printed), 2 on bad arguments or a config error.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gpu/kernel.h"
#include "interconnect/fabric.h"
#include "serving/config.h"
#include "serving/experiment.h"
#include "util/flags.h"
#include "util/json_writer.h"

namespace {

using namespace liger;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// JSON output: one object per process on stdout, numbers at full precision.

template <typename T>
void write_array(util::JsonWriter& w, std::string_view key, const std::vector<T>& items) {
  w.key(key);
  w.begin_array();
  for (const auto& x : items) w.value(x);
  w.end_array();
}

// ---------------------------------------------------------------------
// Spans around the benchmark's own calls into each layer. Kept in memory
// and printed once at the end.

struct Span {
  std::string name;
  std::string parent;
  double start_s = 0.0;  // since the benchmark's first call
  double end_s = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  template <typename F>
  auto record(const std::string& name, const std::string& parent, F&& body) {
    const auto t0 = Clock::now();
    struct Close {
      SpanLog* log;
      std::string name, parent;
      Clock::time_point t0;
      ~Close() {
        log->spans_.push_back({name, parent, seconds_between(log->origin_, t0),
                               seconds_between(log->origin_, Clock::now())});
      }
    } close{this, name, parent, t0};
    return body();
  }
  double total_s(const std::string& name) const {
    double s = 0.0;
    for (const auto& sp : spans_) {
      if (sp.name == name) s += sp.end_s - sp.start_s;
    }
    return s;
  }
  void write(util::JsonWriter& w) const {
    w.key("spans");
    w.begin_array();
    for (const auto& sp : spans_) {
      w.begin_object();
      w.kv("name", sp.name);
      w.kv("parent", sp.parent);
      w.kv("start_s", sp.start_s);
      w.kv("end_s", sp.end_s);
      w.end_object();
    }
    w.end_array();
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Correctness: the simulated outcome as named fields, compared bit for
// bit between reps (and between serial and partitioned runs).

struct Field {
  const char* name;
  double value;
};

// Everything the simulation decides. Excludes Report::engine, which
// describes the execution machinery (all-zero on serial runs).
std::vector<Field> outcome_fields(const serving::ExperimentOutputs& o) {
  const auto& r = o.report;
  const auto& g = r.generative;
  const auto& pc = r.plan_cache;
  const auto& l = o.liger;
  auto d = [](auto v) { return static_cast<double>(v); };
  std::vector<Field> f = {
      {"completed", d(r.completed)},
      {"offered_rate", r.offered_rate},
      {"avg_latency_ms", r.avg_latency_ms},
      {"p50_latency_ms", r.p50_latency_ms},
      {"p95_latency_ms", r.p95_latency_ms},
      {"p99_latency_ms", r.p99_latency_ms},
      {"max_latency_ms", r.max_latency_ms},
      {"throughput_bps", r.throughput_bps},
      {"throughput_rps", r.throughput_rps},
      {"makespan", d(r.makespan)},
      {"timed_out", d(r.timed_out)},
      {"retries", d(r.retries)},
      {"lost", d(r.lost)},
      {"shed", d(r.shed)},
      {"goodput_bps", r.goodput_bps},
      {"goodput_rps", r.goodput_rps},
      {"slo_violation_rate", r.slo_violation_rate},
      {"gen.iterations", d(g.iterations)},
      {"gen.tokens", d(g.tokens)},
      {"gen.tokens_per_second", g.tokens_per_second},
      {"gen.ttft_ms_avg", g.ttft_ms_avg},
      {"gen.ttft_ms_p99", g.ttft_ms_p99},
      {"gen.tpot_ms_avg", g.tpot_ms_avg},
      {"gen.tpot_ms_p99", g.tpot_ms_p99},
      {"gen.decode_batch_avg", g.decode_batch_avg},
      {"gen.padding_tokens", d(g.padding_tokens)},
      {"gen.preemptions", d(g.preemptions)},
      {"gen.recomputes", d(g.recomputes)},
      {"gen.swap_outs", d(g.swap_outs)},
      {"gen.swap_ins", d(g.swap_ins)},
      {"gen.fault_requeues", d(g.fault_requeues)},
      {"gen.swap_bytes", d(g.swap_bytes)},
      {"gen.kv_total_blocks", d(g.kv_total_blocks)},
      {"gen.kv_peak_used_blocks", d(g.kv_peak_used_blocks)},
      {"gen.kv_peak_utilization", g.kv_peak_utilization},
      {"gen.kv_failed_allocs", d(g.kv_failed_allocs)},
      {"plan_cache.hits", d(pc.hits)},
      {"plan_cache.misses", d(pc.misses)},
      {"plan_cache.evictions", d(pc.evictions)},
      {"plan_cache.peak_size", d(pc.peak_size)},
      {"liger.rounds", d(l.rounds)},
      {"liger.kernels_launched", d(l.kernels_launched)},
      {"liger.secondary_kernels", d(l.secondary_kernels)},
      {"liger.decompositions", d(l.decompositions)},
      {"liger.peak_activation_bytes", d(l.peak_activation_bytes)},
      {"liger.peak_retained_plans", d(l.peak_retained_plans)},
  };
  for (double x : o.device_busy_frac) f.push_back({"device_busy_frac", x});
  for (double x : o.device_comm_frac) f.push_back({"device_comm_frac", x});
  for (auto t : o.completion_times) f.push_back({"completion_time", d(t)});
  return f;
}

// Partitioned-engine structure: deterministic (a function of the round
// structure) except barrier_wait_ns, which is wall clock and left out.
std::vector<Field> engine_fields(const serving::Report::EngineStats& e) {
  auto d = [](auto v) { return static_cast<double>(v); };
  return {{"engine.windows", d(e.windows)},
          {"engine.equal_time_rounds", d(e.equal_time_rounds)},
          {"engine.events", d(e.events)},
          {"engine.posts_routed", d(e.posts_routed)},
          {"engine.mailbox_spills", d(e.mailbox_spills)}};
}

std::vector<Field> rep_fields(const serving::ExperimentOutputs& o) {
  auto f = outcome_fields(o);
  const auto e = engine_fields(o.report.engine);
  f.insert(f.end(), e.begin(), e.end());
  return f;
}

// Names of the fields that differ (empty: bit-identical).
std::vector<std::string> diff_fields(const std::vector<Field>& a, const std::vector<Field>& b) {
  std::vector<std::string> out;
  if (a.size() != b.size()) {
    out.push_back("field count " + std::to_string(a.size()) + " vs " + std::to_string(b.size()));
    return out;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].value) != std::bit_cast<std::uint64_t>(b[i].value)) {
      out.push_back(a[i].name);
      if (out.size() >= 8) break;
    }
  }
  return out;
}

// FNV-1a over the fields' bit patterns: a printable identity of a Report.
std::string digest(const std::vector<Field>& fields) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& f : fields) {
    const auto bits = std::bit_cast<std::uint64_t>(f.value);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Every arrival ends completed or shed; nothing leaks.
std::vector<std::string> conservation_failures(const serving::ExperimentConfig& cfg,
                                               const serving::Report& r) {
  const auto arrivals = static_cast<std::size_t>(cfg.workload.num_requests);
  if (r.completed + r.shed == arrivals) return {};
  return {"completed " + std::to_string(r.completed) + " + shed " + std::to_string(r.shed) +
          " != arrivals " + std::to_string(arrivals)};
}

// ---------------------------------------------------------------------
// Set-up: the benchmark's first calls, before the first timed run.

struct Args {
  std::string workload;
  std::string workloads_dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int requests = 0;  // > 0 overrides the workload's request count
  int segments = 1;
};

// A workload is `segments` independent traces of the configured request
// count. Segment 0 uses the run's seed; the others add a fixed odd stride,
// so every trace is distinct and reproducible from --seed. Several short
// traces give the timed loop many reps while the simulated metrics still
// average over the same total number of requests.
struct Setup {
  std::vector<serving::ExperimentConfig> segments;
  double contention_factor = 0.0;
  double setup_s = 0.0;
};

Setup set_up(const Args& args, SpanLog& spans) {
  const auto t0 = Clock::now();
  Setup s;
  spans.record("serving.config", "setup", [&] {
    auto cfg = serving::config_from_file(args.workloads_dir + "/" + args.workload + ".json");
    if (args.requests > 0) cfg.workload.num_requests = args.requests;
    for (int k = 0; k < args.segments; ++k) {
      cfg.workload.seed = args.seed + static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull;
      s.segments.push_back(cfg);
    }
  });
  // The same key run_experiment_detailed looks up, so the first run
  // finds the factor memoized and set-up holds the cold profile.
  const auto& cfg = s.segments.front();
  s.contention_factor = spans.record("profile.contention", "setup", [&] {
    return serving::profiled_contention_factor(cfg.node, cfg.model, cfg.liger.comm);
  });
  s.setup_s = seconds_between(t0, Clock::now());
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void write_conditions(util::JsonWriter& w, const Args& args,
                      const serving::ExperimentConfig& cfg) {
  w.key("conditions");
  w.begin_object();
  w.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  w.kv("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  w.kv("compiler", std::string("gcc ") + __VERSION__);
#else
  w.kv("compiler", "unknown");
#endif
  w.kv("build_type", LIGER_BENCH_BUILD_TYPE);
  w.kv("seed", args.seed);
  w.kv("engine_threads", cfg.engine_threads);
  w.kv("segments", args.segments);
  w.kv("requests_per_segment", cfg.workload.num_requests);
  w.end_object();
}

// ---------------------------------------------------------------------
// Modes.

int mode_setup(const Args& args) {
  SpanLog spans(Clock::now());
  const Setup s = set_up(args, spans);
  {
    util::JsonWriter w(std::cout);
    w.begin_object();
    w.kv("mode", "setup");
    w.kv("setup_s", s.setup_s);
    w.end_object();
  }
  std::cout << std::endl;
  return 0;
}

int mode_timed(const Args& args) {
  const auto origin = Clock::now();
  SpanLog spans(origin);
  const Setup s = set_up(args, spans);
  const std::size_t n_seg = s.segments.size();

  std::vector<double> run_s;
  std::vector<std::vector<Field>> first(n_seg);
  std::vector<serving::ExperimentOutputs> ref(n_seg);
  std::vector<std::string> failures;
  double attempted = 0.0, failed = 0.0;
  const auto loop_start = Clock::now();
  // Reps cycle through the segments. Every segment runs at least twice
  // (so each is checked against itself) and there are at least three
  // reps; the loop then fills the time budget.
  while (run_s.size() < std::max<std::size_t>(3, 2 * n_seg) ||
         seconds_between(loop_start, Clock::now()) < args.seconds) {
    const std::size_t k = run_s.size() % n_seg;
    const auto& cfg = s.segments[k];
    const auto t0 = Clock::now();
    auto out = serving::run_experiment_detailed(cfg);
    run_s.push_back(seconds_between(t0, Clock::now()));
    auto fields = rep_fields(out);
    auto bad = conservation_failures(cfg, out.report);
    for (auto& name : diff_fields(first[k].empty() ? fields : first[k], fields)) {
      bad.push_back("rep " + std::to_string(run_s.size() - 1) + " (segment " +
                    std::to_string(k) + ") differs from its first run in " + name);
    }
    const double arrivals = cfg.workload.num_requests;
    attempted += arrivals;
    // A rep that fails the gate counts all its arrivals as failed.
    failed += bad.empty() ? arrivals - static_cast<double>(out.report.completed) : arrivals;
    failures.insert(failures.end(), bad.begin(), bad.end());
    if (first[k].empty()) {
      first[k] = std::move(fields);
      ref[k] = std::move(out);
    }
  }

  // Simulated metrics: the mean over segments. One-shot requests return
  // their single token at completion, so time to first token and time per
  // output token are the request latency there.
  std::vector<double> p50, p95, thr, good, ttft, tpot, makespan;
  std::vector<Field> all_fields;
  for (const auto& out : ref) {
    const auto& r = out.report;
    const bool gen = r.generative.enabled;
    p50.push_back(r.p50_latency_ms);
    p95.push_back(r.p95_latency_ms);
    thr.push_back(r.throughput_rps);
    good.push_back(r.goodput_rps);
    ttft.push_back(gen ? r.generative.ttft_ms_p99 : r.p99_latency_ms);
    tpot.push_back(gen ? r.generative.tpot_ms_p99 : r.p99_latency_ms);
    makespan.push_back(static_cast<double>(r.makespan) / 1e6);
    const auto f = outcome_fields(out);
    all_fields.insert(all_fields.end(), f.begin(), f.end());
  }
  {
    util::JsonWriter w(std::cout);
    w.begin_object();
    w.kv("mode", "timed");
    w.kv("workload", args.workload);
    write_conditions(w, args, s.segments.front());
    w.kv("setup_s", s.setup_s);
    w.kv("contention_factor", s.contention_factor);
    write_array(w, "run_s", run_s);
    w.kv("peak_rss_mb", peak_rss_mb());
    w.kv("attempted", attempted);
    w.kv("failed", failed);
    w.kv("latency_p50_ms", mean(p50));
    w.kv("latency_p95_ms", mean(p95));
    w.kv("throughput_rps", mean(thr));
    w.kv("goodput_rps", mean(good));
    w.kv("ttft_p99_ms", mean(ttft));
    w.kv("tpot_p99_ms", mean(tpot));
    w.kv("makespan_ms", mean(makespan));
    w.kv("digest", digest(all_fields));
    write_array(w, "gate_failures", failures);
    w.end_object();
  }
  std::cout << std::endl;
  return failures.empty() ? 0 : 1;
}

// Counts what the devices and the fabric report on completion.
class CountingSink final : public gpu::TraceSink {
 public:
  void on_kernel(const gpu::KernelTraceRecord& rec) override {
    if (rec.device == interconnect::NetworkFabric::kFabricTraceDevice) {
      ++fabric_transfers;
      fabric_bytes += rec.bytes;
      return;
    }
    ++kernels;
    if (rec.kind == gpu::KernelKind::kComm) {
      ++comm_kernels;
      comm_busy_ns += rec.end - rec.start;
    }
  }
  // Device records carry no payload bytes (only fabric records do), so
  // collective work is counted in kernels and simulated busy time.
  std::uint64_t kernels = 0, comm_kernels = 0;
  sim::SimTime comm_busy_ns = 0;
  std::uint64_t fabric_transfers = 0, fabric_bytes = 0;
};

// Layer counts summed over a workload's segments (ratios are formed from
// the sums; fractions that are per-run averages are averaged).
struct LayerCounts {
  double iterations = 0, padding_tokens = 0, preemptions = 0, recomputes = 0;
  double kv_failed_allocs = 0, kv_peak_used_frac = 0;
  double rounds = 0, launched = 0, secondary = 0, decompositions = 0;
  double pc_hits = 0, pc_misses = 0, pc_evictions = 0, peak_retained_plans = 0;
  double kernels = 0, comm_kernels = 0, comm_busy_ns = 0;
  double fabric_transfers = 0, fabric_bytes = 0;
  double events = 0, windows = 0, equal_time_rounds = 0, barrier_wait_ns = 0;
  double posts_routed = 0, mailbox_spills = 0;
  std::vector<double> decode_batch_avg, kv_peak_utilization, busy_frac, comm_frac;

  void add(const serving::ExperimentOutputs& out, const CountingSink& sink) {
    const auto& r = out.report;
    const auto& g = r.generative;
    const auto& l = out.liger;
    const auto& e = r.engine;
    auto d = [](auto v) { return static_cast<double>(v); };
    iterations += d(g.iterations);
    padding_tokens += d(g.padding_tokens);
    preemptions += d(g.preemptions);
    recomputes += d(g.recomputes);
    kv_failed_allocs += d(g.kv_failed_allocs);
    kv_peak_used_frac =
        std::max(kv_peak_used_frac, ratio(g.kv_peak_used_blocks, g.kv_total_blocks));
    if (g.enabled) {
      decode_batch_avg.push_back(g.decode_batch_avg);
      kv_peak_utilization.push_back(g.kv_peak_utilization);
    }
    rounds += d(l.rounds);
    launched += d(l.kernels_launched);
    secondary += d(l.secondary_kernels);
    decompositions += d(l.decompositions);
    peak_retained_plans = std::max(peak_retained_plans, d(l.peak_retained_plans));
    pc_hits += d(r.plan_cache.hits);
    pc_misses += d(r.plan_cache.misses);
    pc_evictions += d(r.plan_cache.evictions);
    kernels += d(sink.kernels);
    comm_kernels += d(sink.comm_kernels);
    comm_busy_ns += d(sink.comm_busy_ns);
    fabric_transfers += d(sink.fabric_transfers);
    fabric_bytes += d(sink.fabric_bytes);
    events += d(e.events);
    windows += d(e.windows);
    equal_time_rounds += d(e.equal_time_rounds);
    barrier_wait_ns += d(e.barrier_wait_ns);
    posts_routed += d(e.posts_routed);
    mailbox_spills += d(e.mailbox_spills);
    busy_frac.push_back(mean(out.device_busy_frac));
    comm_frac.push_back(mean(out.device_comm_frac));
  }
};

int mode_traced(const Args& args) {
  const auto origin = Clock::now();
  SpanLog spans(origin);
  const Setup s = set_up(args, spans);
  const std::size_t n_seg = s.segments.size();
  const auto& w_cfg = s.segments.front().workload;
  const auto& node = s.segments.front().node;
  const auto& model = s.segments.front().model;

  // Price of the op-list build and durations a plan-cache miss pays, at
  // the workload's shape; median of repeated calls.
  std::vector<double> plan_us;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = Clock::now();
    spans.record("model.batch_plan", "probe", [&] {
      return serving::isolated_intra_batch_time(node, model, w_cfg.batch_size,
                                                (w_cfg.seq_min + w_cfg.seq_max) / 2,
                                                w_cfg.phase);
    });
    plan_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }

  const bool partitioned = s.segments.front().engine_threads > 1;
  std::vector<double> untraced_s, traced_s, serial_s;  // per round, all segments
  std::vector<std::vector<Field>> ref_fields(n_seg), serial_fields(n_seg);
  std::vector<std::string> digests;
  LayerCounts counts;
  std::vector<std::string> failures;
  auto check = [&](const std::string& what, const serving::ExperimentConfig& cfg,
                   const serving::ExperimentOutputs& out, std::vector<Field>& reference,
                   bool with_engine) {
    spans.record("check", what, [&] {
      auto fields = with_engine ? rep_fields(out) : outcome_fields(out);
      for (auto& f : conservation_failures(cfg, out.report)) failures.push_back(what + ": " + f);
      if (reference.empty()) {
        reference = std::move(fields);
      } else {
        for (auto& name : diff_fields(reference, fields)) {
          failures.push_back(what + " differs in " + name);
        }
      }
    });
  };
  auto timed_run = [&](const char* span, const serving::ExperimentConfig& cfg, double& total) {
    const auto t0 = Clock::now();
    auto out = spans.record(span, "run", [&] { return serving::run_experiment_detailed(cfg); });
    total += seconds_between(t0, Clock::now());
    return out;
  };

  const auto loop_start = Clock::now();
  for (int round = 0;
       round < 2 || seconds_between(loop_start, Clock::now()) < args.seconds; ++round) {
    double untraced = 0, traced = 0, serial = 0;
    for (std::size_t k = 0; k < n_seg; ++k) {
      const auto& cfg = s.segments[k];
      const std::string seg = "segment " + std::to_string(k) + " ";
      auto plain = timed_run("serving.run", cfg, untraced);
      check(seg + "untraced", cfg, plain, ref_fields[k], true);

      CountingSink sink;
      serving::ExperimentConfig traced_cfg = cfg;
      traced_cfg.trace_sink = &sink;
      auto with_trace = timed_run("serving.run_traced", traced_cfg, traced);
      check(seg + "traced", cfg, with_trace, ref_fields[k], true);
      if (round == 0) {
        counts.add(plain, sink);
        digests.push_back(digest(outcome_fields(plain)));
      }

      if (partitioned) {
        serving::ExperimentConfig serial_cfg = cfg;
        serial_cfg.engine_threads = 1;
        auto one = timed_run("serving.run_serial", serial_cfg, serial);
        check(seg + "serial", cfg, one, serial_fields[k], false);
        // Serial and partitioned engines must decide the same outcome.
        if (round == 0) {
          for (auto& name : diff_fields(serial_fields[k], outcome_fields(plain))) {
            failures.push_back(seg + "serial and partitioned runs differ in " + name);
          }
        }
      }
    }
    untraced_s.push_back(untraced);
    traced_s.push_back(traced);
    if (partitioned) serial_s.push_back(serial);
  }

  const auto& c = counts;
  const double run = median(untraced_s);
  const double traced = median(traced_s);

  {
    util::JsonWriter w(std::cout);
    w.begin_object();
    w.kv("mode", "traced");
    w.kv("workload", args.workload);
    write_conditions(w, args, s.segments.front());
    w.key("metrics");
    w.begin_object();
    w.kv("serving.config_ms", spans.total_s("serving.config") * 1e3);
    w.kv("serving.iterations", c.iterations);
    w.kv("serving.decode_batch_avg", mean(c.decode_batch_avg));
    w.kv("serving.padding_tokens", c.padding_tokens);
    w.kv("serving.preemptions", c.preemptions);
    w.kv("serving.recomputes", c.recomputes);
    w.kv("serving.kv_peak_used_frac", c.kv_peak_used_frac);
    w.kv("serving.kv_peak_utilization", mean(c.kv_peak_utilization));
    w.kv("serving.kv_failed_allocs", c.kv_failed_allocs);
    w.kv("serving.host_us_per_iteration", ratio(run * 1e6, c.iterations));
    w.kv("profile.contention_ms", spans.total_s("profile.contention") * 1e3);
    w.kv("profile.contention_factor", s.contention_factor);
    w.kv("model.batch_plan_us", median(plan_us));
    w.kv("core.rounds", c.rounds);
    w.kv("core.kernels_launched", c.launched);
    w.kv("core.secondary_frac", ratio(c.secondary, c.launched));
    w.kv("core.decompositions", c.decompositions);
    w.kv("core.plan_cache_hit_frac", ratio(c.pc_hits, c.pc_hits + c.pc_misses));
    w.kv("core.plan_cache_evictions", c.pc_evictions);
    w.kv("core.peak_retained_plans", c.peak_retained_plans);
    w.kv("core.host_us_per_round", ratio(run * 1e6, c.rounds));
    w.kv("gpu.kernels", c.kernels);
    w.kv("gpu.busy_frac", mean(c.busy_frac));
    w.kv("gpu.host_ns_per_kernel", ratio(run * 1e9, c.kernels));
    w.kv("collective.kernels", c.comm_kernels);
    w.kv("collective.busy_ms", c.comm_busy_ns / 1e6);
    w.kv("collective.comm_frac", mean(c.comm_frac));
    w.kv("interconnect.fabric_transfers", c.fabric_transfers);
    w.kv("interconnect.fabric_bytes", c.fabric_bytes);
    w.kv("sim.events", c.events);
    w.kv("sim.windows", c.windows);
    w.kv("sim.events_per_window", ratio(c.events, c.windows + c.equal_time_rounds));
    w.kv("sim.barrier_wait_ms", c.barrier_wait_ns / 1e6);
    w.kv("sim.posts_routed", c.posts_routed);
    w.kv("sim.mailbox_spills", c.mailbox_spills);
    w.kv("sim.host_ns_per_event", ratio(run * 1e9, c.events));
    w.kv("sim.speedup_vs_serial", partitioned ? ratio(median(serial_s), run) : 0.0);
    w.kv("trace.overhead_frac", ratio(traced - run, run));
    w.end_object();
    w.kv("runs", n_seg * (untraced_s.size() + traced_s.size() + serial_s.size()));
    w.kv("arrivals_per_run", w_cfg.num_requests);
    write_array(w, "untraced_run_s", untraced_s);
    write_array(w, "traced_run_s", traced_s);
    write_array(w, "serial_run_s", serial_s);
    write_array(w, "digests", digests);
    write_array(w, "gate_failures", failures);
    spans.write(w);
    w.end_object();
  }
  std::cout << std::endl;
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  Args args;
  args.workload = flags.get_string("workload", "");
  args.workloads_dir = flags.get_string("workloads", "workloads");
  args.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  args.seconds = flags.get_double("seconds", 10.0);
  args.requests = static_cast<int>(flags.get_int("requests", 0));
  args.segments = static_cast<int>(flags.get_int("segments", 1));
  const std::string mode = flags.get_string("mode", "timed");
  if (!flags.unused().empty() || args.workload.empty() || args.segments < 1) {
    std::fprintf(stderr, "usage: liger_bench --workload NAME --seed N --mode setup|timed|traced "
                         "[--seconds S] [--requests N] [--segments K] [--workloads DIR]\n");
    return 2;
  }
  try {
    if (mode == "setup") return mode_setup(args);
    if (mode == "timed") return mode_timed(args);
    if (mode == "traced") return mode_traced(args);
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "liger_bench: %s\n", ex.what());
  }
  return 2;
}
