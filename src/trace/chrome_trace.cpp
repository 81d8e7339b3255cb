#include "trace/chrome_trace.h"

#include <algorithm>
#include <map>
#include <string>

#include "interconnect/fabric.h"
#include "util/json_writer.h"

namespace liger::trace {

namespace {

// One Chrome-trace process per (node, device); node 0's devices keep
// their bare device id, so single-node traces are unchanged. Fabric
// records collapse onto one dedicated process row.
int record_pid(const gpu::KernelTraceRecord& rec) {
  if (rec.device == interconnect::NetworkFabric::kFabricTraceDevice) {
    return interconnect::NetworkFabric::kFabricTraceDevice;
  }
  return rec.node * 1000 + rec.device;
}

std::string pid_label(const gpu::KernelTraceRecord& rec) {
  if (rec.device == interconnect::NetworkFabric::kFabricTraceDevice) return "fabric";
  return "node" + std::to_string(rec.node) + ".gpu" + std::to_string(rec.device);
}

}  // namespace

void ChromeTraceSink::write_json(std::ostream& out) const {
  util::JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  std::map<int, std::string> pids;  // pid -> row label (metadata events)
  for (const auto& rec : records_) {
    const int pid = record_pid(rec);
    pids.emplace(pid, pid_label(rec));
    const bool fabric =
        rec.device == interconnect::NetworkFabric::kFabricTraceDevice;
    w.begin_object();
    w.kv("name", rec.name);
    w.kv("cat", gpu::kernel_kind_name(rec.kind));
    w.kv("ph", "X");
    w.kv("ts", static_cast<double>(rec.start) / 1e3);   // us
    w.kv("dur", static_cast<double>(rec.end - rec.start) / 1e3);
    w.kv("pid", pid);
    // Fabric transfers render one sub-row per source node.
    w.kv("tid", fabric ? rec.node : rec.stream);
    w.key("args");
    w.begin_object();
    w.kv("node", rec.node);
    w.kv("blocks", rec.blocks_granted);
    w.kv("batch", rec.batch_id);
    if (rec.bytes != 0) w.kv("bytes", static_cast<double>(rec.bytes));
    w.end_object();
    w.end_object();
  }
  // Fault lifecycle on a dedicated row: injected faults, detector
  // firings and recovery windows. Zero-length records render as global
  // instant events (vertical markers), windows as complete events.
  constexpr int kFaultsPid = -2;
  if (!faults_.empty()) pids.emplace(kFaultsPid, "faults");
  for (const auto& rec : faults_) {
    w.begin_object();
    w.kv("name", rec.name);
    w.kv("cat", gpu::fault_phase_name(rec.phase));
    if (rec.start == rec.end) {
      w.kv("ph", "i");
      w.kv("s", "g");
      w.kv("ts", static_cast<double>(rec.start) / 1e3);
    } else {
      w.kv("ph", "X");
      w.kv("ts", static_cast<double>(rec.start) / 1e3);
      w.kv("dur", static_cast<double>(rec.end - rec.start) / 1e3);
    }
    w.kv("pid", kFaultsPid);
    w.kv("tid", 0);
    w.key("args");
    w.begin_object();
    w.kv("node", rec.node);
    w.kv("device", rec.device);
    w.end_object();
    w.end_object();
  }
  // Parallel-engine synchronization rounds on their own row: window
  // width and events-per-window are the overhead the partitioned
  // execution lives or dies by, so they belong next to the kernels.
  constexpr int kWindowsPid = -3;
  if (!windows_.empty()) pids.emplace(kWindowsPid, "windows");
  for (const auto& rec : windows_) {
    w.begin_object();
    w.kv("name", rec.equal_time ? "equal-time" : "window");
    w.kv("cat", "engine");
    if (rec.start == rec.end) {
      w.kv("ph", "i");
      w.kv("s", "g");
      w.kv("ts", static_cast<double>(rec.start) / 1e3);
    } else {
      w.kv("ph", "X");
      w.kv("ts", static_cast<double>(rec.start) / 1e3);
      w.kv("dur", static_cast<double>(rec.end - rec.start) / 1e3);
    }
    w.kv("pid", kWindowsPid);
    w.kv("tid", 0);
    w.key("args");
    w.begin_object();
    w.kv("domains", rec.active_domains);
    w.kv("events", static_cast<double>(rec.events));
    if (rec.inner_rounds > 0) w.kv("inner_rounds", static_cast<double>(rec.inner_rounds));
    w.end_object();
    w.end_object();
  }
  // Iteration-level scheduler counters: KV pool pressure ("kv-pressure"
  // row: used/free blocks plus the running/waiting queue depths) and
  // plan-cache occupancy ("plan-cache" row: resident plans and
  // cumulative evictions), sampled at iteration boundaries. Counter
  // (ph "C") events render as stacked area charts in Perfetto.
  constexpr int kKvPressurePid = -4;
  constexpr int kPlanCachePid = -5;
  if (!samples_.empty()) pids.emplace(kKvPressurePid, "kv-pressure");
  const bool cache_sampled =
      std::any_of(samples_.begin(), samples_.end(),
                  [](const SchedulerSampleRecord& s) { return s.cache_size > 0; });
  if (cache_sampled) pids.emplace(kPlanCachePid, "plan-cache");
  for (const auto& rec : samples_) {
    w.begin_object();
    w.kv("name", "kv-blocks");
    w.kv("ph", "C");
    w.kv("ts", static_cast<double>(rec.t) / 1e3);
    w.kv("pid", kKvPressurePid);
    w.key("args");
    w.begin_object();
    w.kv("used", rec.kv_used_blocks);
    w.kv("free", rec.kv_total_blocks - rec.kv_used_blocks);
    w.end_object();
    w.end_object();
    w.begin_object();
    w.kv("name", "requests");
    w.kv("ph", "C");
    w.kv("ts", static_cast<double>(rec.t) / 1e3);
    w.kv("pid", kKvPressurePid);
    w.key("args");
    w.begin_object();
    w.kv("running", rec.running);
    w.kv("waiting", rec.waiting);
    w.end_object();
    w.end_object();
    if (cache_sampled) {
      w.begin_object();
      w.kv("name", "plans");
      w.kv("ph", "C");
      w.kv("ts", static_cast<double>(rec.t) / 1e3);
      w.kv("pid", kPlanCachePid);
      w.key("args");
      w.begin_object();
      w.kv("resident", static_cast<double>(rec.cache_size));
      w.kv("evictions", static_cast<double>(rec.cache_evictions));
      w.end_object();
      w.end_object();
    }
  }
  // Name the process rows so multi-node timelines read as
  // "node0.gpu0 ... node1.gpu3, fabric" in Perfetto.
  for (const auto& [pid, label] : pids) {
    w.begin_object();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.key("args");
    w.begin_object();
    w.kv("name", label);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
}

namespace {

// Sweep-line union length of intervals selected by `pred`.
template <typename Pred>
sim::SimTime union_length(const std::vector<gpu::KernelTraceRecord>& records, Pred pred) {
  std::vector<std::pair<sim::SimTime, sim::SimTime>> iv;
  for (const auto& r : records) {
    if (pred(r)) iv.emplace_back(r.start, r.end);
  }
  std::sort(iv.begin(), iv.end());
  sim::SimTime total = 0;
  sim::SimTime cur_lo = 0, cur_hi = -1;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (cur_hi < 0 || lo > cur_hi) {
      if (cur_hi > cur_lo) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

sim::SimTime ChromeTraceSink::busy_time(int device, gpu::KernelKind kind) const {
  return union_length(records_, [&](const gpu::KernelTraceRecord& r) {
    return r.device == device && r.kind == kind;
  });
}

sim::SimTime ChromeTraceSink::busy_time(int node, int device, gpu::KernelKind kind) const {
  return union_length(records_, [&](const gpu::KernelTraceRecord& r) {
    return r.node == node && r.device == device && r.kind == kind;
  });
}

sim::SimTime ChromeTraceSink::fabric_busy_time() const {
  return union_length(records_, [&](const gpu::KernelTraceRecord& r) {
    return r.device == interconnect::NetworkFabric::kFabricTraceDevice;
  });
}

sim::SimTime ChromeTraceSink::overlap_time(int device) const {
  // Overlap = |compute U| + |comm U| - |either U|  (inclusion-exclusion).
  const sim::SimTime comp = busy_time(device, gpu::KernelKind::kCompute);
  const sim::SimTime comm = busy_time(device, gpu::KernelKind::kComm);
  const sim::SimTime either = union_length(
      records_, [&](const gpu::KernelTraceRecord& r) { return r.device == device; });
  return comp + comm - either;
}

}  // namespace liger::trace
