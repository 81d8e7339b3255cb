#include "serving/config.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace liger::serving {

using util::int_field;

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

gpu::NodeSpec node_from_json(const util::JsonValue& node) {
  const std::string preset = lower(node.string_or("preset", "v100"));
  const int devices = int_field(node, "devices", 4);
  gpu::NodeSpec spec = preset == "a100" ? gpu::NodeSpec::a100_pcie(devices)
                                        : gpu::NodeSpec::v100_nvlink(devices);
  spec.max_connections = int_field(node, "max_connections", spec.max_connections);

  if (const auto* g = node.find("gpu")) {
    spec.gpu.sm_count = int_field(*g, "sms", spec.gpu.sm_count);
    spec.gpu.fp16_flops = g->number_or("fp16_tflops", spec.gpu.fp16_flops / 1e12) * 1e12;
    spec.gpu.mem_bandwidth = g->number_or("mem_bw_gbps", spec.gpu.mem_bandwidth / 1e9) * 1e9;
    spec.gpu.mem_bytes = static_cast<std::uint64_t>(
        g->number_or("mem_gb", static_cast<double>(spec.gpu.mem_bytes) / (1ull << 30)) *
        static_cast<double>(1ull << 30));
  }
  if (const auto* l = node.find("link")) {
    const std::string kind = lower(l->string_or("kind", ""));
    if (kind == "nvlink") spec.link.kind = interconnect::LinkKind::kNvLink;
    if (kind == "pcie") spec.link.kind = interconnect::LinkKind::kPcieSwitch;
    spec.link.allreduce_busbw =
        l->number_or("allreduce_busbw_gbps", spec.link.allreduce_busbw / 1e9) * 1e9;
    spec.link.p2p_bandwidth =
        l->number_or("p2p_bw_gbps", spec.link.p2p_bandwidth / 1e9) * 1e9;
    spec.link.channels_for_peak =
        int_field(*l, "channels_for_peak", spec.link.channels_for_peak);
  }
  return spec;
}

model::ModelSpec model_from_json(const util::JsonValue& m) {
  model::ModelSpec spec = model::ModelZoo::by_name(m.string_or("preset", "opt-30b"));
  const int layers = int_field(m, "layers", spec.layers);
  if (layers != spec.layers) spec = spec.with_layers(layers);
  return spec;
}

model::Phase parse_phase(const std::string& name) {
  const std::string p = lower(name);
  if (p == "prefill") return model::Phase::kPrefill;
  if (p == "decode") return model::Phase::kDecode;
  throw std::invalid_argument("unknown phase: " + name);
}

}  // namespace

Method parse_method(const std::string& name) {
  const std::string m = lower(name);
  if (m == "liger") return Method::kLiger;
  if (m == "intra-op" || m == "intra") return Method::kIntraOp;
  if (m == "inter-op" || m == "inter") return Method::kInterOp;
  if (m == "inter-th") return Method::kInterTh;
  if (m == "liger-cpusync" || m == "liger-cpu-sync") return Method::kLigerCpuSync;
  if (m == "hybrid") return Method::kHybrid;
  throw std::invalid_argument("unknown method: " + name);
}

namespace {

interconnect::FabricSpec fabric_from_json(const util::JsonValue& f) {
  const std::string preset = lower(f.string_or("preset", "ib-hdr"));
  interconnect::FabricSpec spec;
  if (preset == "ib-hdr" || preset == "ib") {
    spec = interconnect::FabricSpec::ib_hdr();
  } else if (preset == "100gbe" || preset == "ethernet") {
    spec = interconnect::FabricSpec::ethernet_100g();
  } else if (preset == "test") {
    spec = interconnect::FabricSpec::test_fabric();
  } else {
    throw std::invalid_argument("unknown fabric preset: " + preset);
  }
  spec.link_bandwidth =
      f.number_or("link_bw_gbps", spec.link_bandwidth / 1e9) * 1e9;
  spec.base_latency = sim::from_us(
      f.number_or("base_latency_us", sim::to_us(spec.base_latency)));
  spec.step_latency = sim::from_us(
      f.number_or("step_latency_us", sim::to_us(spec.step_latency)));
  return spec;
}

}  // namespace

ExperimentConfig config_from_json(const util::JsonValue& doc) {
  ExperimentConfig cfg;
  cfg.model = model::ModelZoo::opt_30b();

  if (const auto* node = doc.find("node")) cfg.node = node_from_json(*node);
  if (const auto* m = doc.find("model")) cfg.model = model_from_json(*m);
  cfg.method = parse_method(doc.string_or("method", "liger"));
  cfg.rate = doc.number_or("rate", cfg.rate);
  cfg.poisson = doc.bool_or("poisson", cfg.poisson);
  cfg.engine_threads = int_field(doc, "engine_threads", cfg.engine_threads);
  if (cfg.engine_threads < 1) {
    throw std::invalid_argument("engine_threads must be >= 1");
  }

  if (const auto* w = doc.find("workload")) {
    cfg.workload.num_requests = int_field(*w, "requests", cfg.workload.num_requests);
    cfg.workload.batch_size = int_field(*w, "batch", cfg.workload.batch_size);
    cfg.workload.seq_min = int_field(*w, "seq_min", cfg.workload.seq_min);
    cfg.workload.seq_max = int_field(*w, "seq_max", cfg.workload.seq_max);
    const std::int64_t seed = w->int_or("seed", 7);
    if (seed < 0) throw std::invalid_argument("workload.seed must be >= 0");
    cfg.workload.seed = static_cast<std::uint64_t>(seed);
    cfg.workload.phase = parse_phase(w->string_or("phase", "prefill"));
    cfg.workload.deadline = sim::from_us(w->number_or("deadline_ms", 0.0) * 1e3);
    cfg.workload.max_retries = int_field(*w, "max_retries", cfg.workload.max_retries);
    cfg.workload.retry_backoff = sim::from_us(
        w->number_or("retry_backoff_ms", sim::to_ms(cfg.workload.retry_backoff)) * 1e3);
    cfg.workload.retry_backoff_cap = sim::from_us(
        w->number_or("retry_backoff_cap_ms", sim::to_ms(cfg.workload.retry_backoff_cap)) *
        1e3);
    cfg.workload.retry_jitter = w->number_or("retry_jitter", cfg.workload.retry_jitter);
    cfg.workload.decode_tokens_min =
        int_field(*w, "decode_tokens_min", cfg.workload.decode_tokens_min);
    cfg.workload.decode_tokens_max =
        int_field(*w, "decode_tokens_max", cfg.workload.decode_tokens_max);
    if (cfg.workload.decode_tokens_max > 0 && cfg.workload.decode_tokens_min < 1) {
      cfg.workload.decode_tokens_min = 1;
    }
  }

  if (const auto* b = doc.find("batching")) {
    const std::string mode = lower(b->string_or("mode", "rounds"));
    if (mode == "rounds") {
      cfg.batching = BatchingMode::kRounds;
    } else if (mode == "continuous") {
      cfg.batching = BatchingMode::kContinuous;
    } else {
      throw std::invalid_argument("unknown batching mode: " + mode);
    }
    cfg.continuous.block_tokens = int_field(*b, "block_tokens", cfg.continuous.block_tokens);
    cfg.continuous.kv_pool_bytes = static_cast<std::uint64_t>(
        b->number_or("kv_gb", static_cast<double>(cfg.continuous.kv_pool_bytes) /
                                  static_cast<double>(1ull << 30)) *
        static_cast<double>(1ull << 30));
    cfg.continuous.kv_pool_fraction =
        b->number_or("kv_pool_fraction", cfg.continuous.kv_pool_fraction);
    cfg.continuous.token_budget = int_field(*b, "token_budget", cfg.continuous.token_budget);
    cfg.continuous.max_running = int_field(*b, "max_running", cfg.continuous.max_running);
    cfg.continuous.admit_reserve =
        b->number_or("admit_reserve", cfg.continuous.admit_reserve);
    const std::string pre = lower(b->string_or("preemption", "recompute"));
    if (pre == "recompute") {
      cfg.continuous.preemption = PreemptionPolicy::kRecompute;
    } else if (pre == "swap") {
      cfg.continuous.preemption = PreemptionPolicy::kSwap;
    } else {
      throw std::invalid_argument("unknown preemption policy: " + pre);
    }
    cfg.continuous.pcie_gbps = b->number_or("pcie_gbps", cfg.continuous.pcie_gbps);
  }

  if (const auto* f = doc.find("faults")) {
    cfg.faults = fault::fault_config_from_json(*f);
  }

  if (const auto* c = doc.find("cluster")) {
    cfg.num_nodes = int_field(*c, "nodes", cfg.num_nodes);
    if (cfg.num_nodes < 1) throw std::invalid_argument("cluster.nodes must be >= 1");
    if (const auto* f = c->find("fabric")) cfg.fabric = fabric_from_json(*f);
    cfg.hybrid_tp = int_field(*c, "tp", cfg.hybrid_tp);
    cfg.hybrid_pp = int_field(*c, "pp", cfg.hybrid_pp);
  }

  if (const auto* l = doc.find("liger")) {
    cfg.liger.decomposition_factor =
        int_field(*l, "decomposition_factor", cfg.liger.decomposition_factor);
    cfg.liger.enable_decomposition =
        l->bool_or("enable_decomposition", cfg.liger.enable_decomposition);
    if (const auto* cf = l->find("contention_factor")) {
      cfg.liger.contention_factor = cf->as_number();
      cfg.profile_contention = false;  // explicit value wins over profiling
    }
    cfg.profile_contention = l->bool_or("profile_contention", cfg.profile_contention);
    const std::string sync = lower(l->string_or("sync", "hybrid"));
    cfg.liger.sync =
        sync == "cpu-gpu" ? core::SyncMode::kCpuGpuOnly : core::SyncMode::kHybrid;
    cfg.liger.comm.max_nchannels = int_field(*l, "nccl_channels", cfg.liger.comm.max_nchannels);
    cfg.liger.processing_slots = int_field(*l, "processing_slots", cfg.liger.processing_slots);
    cfg.liger.sequence_parallel =
        l->bool_or("sequence_parallel", cfg.liger.sequence_parallel);
  }
  return cfg;
}

ExperimentConfig config_from_file(const std::string& path) {
  return config_from_json(util::parse_json_file(path));
}

}  // namespace liger::serving
