#include "fault/fault_plan.h"

#include <stdexcept>

namespace liger::fault {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeviceFailStop: return "fail_stop";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kLinkFlap: return "link_flap";
    case FaultKind::kHostStall: return "host_stall";
  }
  return "?";
}

namespace {

bool device_scoped(FaultKind kind) {
  return kind == FaultKind::kDeviceFailStop || kind == FaultKind::kStraggler ||
         kind == FaultKind::kHostStall;
}

[[noreturn]] void invalid(const FaultEvent& ev, const std::string& why) {
  throw std::invalid_argument("fault plan: " + ev.describe() + ": " + why);
}

}  // namespace

std::string FaultEvent::describe() const {
  std::string out = fault_kind_name(kind);
  out += "(n" + std::to_string(node);
  if (device_scoped(kind)) out += ".g" + std::to_string(device);
  out += ")@" + std::to_string(sim::to_ms(time)) + "ms";
  return out;
}

bool FaultPlan::has_fail_stop() const {
  for (const auto& ev : events) {
    if (ev.kind == FaultKind::kDeviceFailStop) return true;
  }
  return false;
}

void FaultPlan::validate(int num_nodes, int devices_per_node) const {
  for (const auto& ev : events) {
    if (ev.time < 0) invalid(ev, "negative injection time");
    if (ev.node < 0 || ev.node >= num_nodes) invalid(ev, "node out of range");
    if (device_scoped(ev.kind) &&
        (ev.device < 0 || ev.device >= devices_per_node)) {
      invalid(ev, "device out of range");
    }
    if (ev.duration < 0) invalid(ev, "negative duration");
    switch (ev.kind) {
      case FaultKind::kDeviceFailStop:
        break;  // permanent by definition
      case FaultKind::kStraggler:
        if (!(ev.factor > 0.0 && ev.factor < 1.0)) {
          invalid(ev, "straggler factor must be in (0, 1)");
        }
        if (ev.duration <= 0) invalid(ev, "straggler needs a positive duration");
        break;
      case FaultKind::kLinkDegrade:
        if (!(ev.factor > 0.0 && ev.factor <= 1.0)) {
          invalid(ev, "link factor must be in (0, 1]");
        }
        break;
      case FaultKind::kLinkFlap:
        if (!(ev.factor > 0.0 && ev.factor < 1.0)) {
          invalid(ev, "link factor must be in (0, 1)");
        }
        if (ev.period <= 0) invalid(ev, "flap needs a positive period");
        if (ev.duration < ev.period) {
          invalid(ev, "flap duration must cover at least one period");
        }
        break;
      case FaultKind::kHostStall:
        if (ev.duration <= 0) invalid(ev, "host stall needs a positive duration");
        break;
    }
  }
}

namespace {

FaultKind parse_kind(const std::string& name) {
  if (name == "fail_stop") return FaultKind::kDeviceFailStop;
  if (name == "straggler") return FaultKind::kStraggler;
  if (name == "link_degrade") return FaultKind::kLinkDegrade;
  if (name == "link_flap") return FaultKind::kLinkFlap;
  if (name == "host_stall") return FaultKind::kHostStall;
  throw std::invalid_argument("unknown fault kind: " + name);
}

sim::SimTime ms_field(const util::JsonValue& obj, const std::string& key, double def) {
  return sim::from_us(obj.number_or(key, def) * 1e3);
}

}  // namespace

FaultEvent fault_event_from_json(const util::JsonValue& entry) {
  FaultEvent ev;
  ev.kind = parse_kind(entry.string_or("kind", "fail_stop"));
  ev.time = ms_field(entry, "t_ms", 0.0);
  ev.node = util::int_field(entry, "node", 0);
  ev.device = util::int_field(entry, "device", 0);
  ev.factor = entry.number_or("factor", ev.factor);
  ev.duration = ms_field(entry, "duration_ms", 0.0);
  ev.period = ms_field(entry, "period_ms", 0.0);
  return ev;
}

FaultPlan fault_plan_from_json(const util::JsonValue& array) {
  FaultPlan plan;
  for (const auto& entry : array.as_array()) {
    plan.events.push_back(fault_event_from_json(entry));
  }
  return plan;
}

FaultConfig fault_config_from_json(const util::JsonValue& faults) {
  FaultConfig cfg;
  cfg.enabled = faults.bool_or("enabled", true);
  if (const auto* plan = faults.find("plan")) {
    cfg.plan = fault_plan_from_json(*plan);
  }
  if (const auto* d = faults.find("detection")) {
    cfg.detection.heartbeat_interval = sim::from_us(d->number_or(
        "heartbeat_interval_us", sim::to_us(cfg.detection.heartbeat_interval)));
    cfg.detection.miss_threshold =
        util::int_field(*d, "miss_threshold", cfg.detection.miss_threshold);
    if (cfg.detection.heartbeat_interval <= 0 || cfg.detection.miss_threshold < 1) {
      throw std::invalid_argument("faults.detection: interval and threshold must be positive");
    }
  }
  if (const auto* r = faults.find("recovery")) {
    cfg.replan_latency = sim::from_us(r->number_or(
        "replan_ms", sim::to_ms(cfg.replan_latency)) * 1e3);
    if (cfg.replan_latency < 0) {
      throw std::invalid_argument("faults.recovery: replan_ms must be >= 0");
    }
  }
  return cfg;
}

}  // namespace liger::fault
