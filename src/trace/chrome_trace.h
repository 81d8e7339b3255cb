// Chrome-trace (chrome://tracing / Perfetto) export of kernel
// timelines. Attach to a node with Node::set_trace_sink(); write the
// JSON when the simulation ends. Rows are (device, stream); colors
// distinguish compute from communication kernels. Fault injection,
// detection and recovery events render on a dedicated "faults" row.
#pragma once

#include <ostream>
#include <vector>

#include "gpu/kernel.h"

namespace liger::trace {

// One parallel-engine synchronization round (window or equal-time
// fixed point), rendered on a dedicated "windows" row. Kept outside
// the kernel/fault record streams: it describes how the simulation was
// *executed*, not what it simulated.
struct EngineWindowRecord {
  sim::SimTime start = 0;
  sim::SimTime end = 0;  // == start for an equal-time round
  int active_domains = 0;  // active groups for superstep rounds
  std::uint64_t events = 0;
  std::uint64_t inner_rounds = 0;  // device sub-windows inside the supersteps
  bool equal_time = false;
};

// One iteration-level scheduler sample: paged-KV pool pressure and
// plan-cache occupancy at an iteration boundary. Rendered as Chrome
// counter rows ("kv-pressure", "plan-cache") so memory pressure and
// plan churn read directly against the kernel timeline.
struct SchedulerSampleRecord {
  sim::SimTime t = 0;
  int kv_used_blocks = 0;
  int kv_total_blocks = 0;
  int running = 0;  // scheduled request groups
  int waiting = 0;
  std::uint64_t cache_size = 0;
  std::uint64_t cache_evictions = 0;
};

class ChromeTraceSink : public gpu::TraceSink {
 public:
  void on_kernel(const gpu::KernelTraceRecord& rec) override { records_.push_back(rec); }
  void on_fault(const gpu::FaultTraceRecord& rec) override { faults_.push_back(rec); }
  void add_engine_window(const EngineWindowRecord& rec) { windows_.push_back(rec); }
  void add_scheduler_sample(const SchedulerSampleRecord& rec) { samples_.push_back(rec); }

  const std::vector<gpu::KernelTraceRecord>& records() const { return records_; }
  const std::vector<gpu::FaultTraceRecord>& fault_records() const { return faults_; }
  const std::vector<EngineWindowRecord>& engine_windows() const { return windows_; }
  const std::vector<SchedulerSampleRecord>& scheduler_samples() const { return samples_; }
  void clear() {
    records_.clear();
    faults_.clear();
    windows_.clear();
    samples_.clear();
  }

  // Writes the Trace Event Format JSON ("traceEvents" array of complete
  // events; timestamps in microseconds).
  void write_json(std::ostream& out) const;

  // --- Trace analysis helpers (used by tests and ablation benches) -------
  // Total time [ns] during which at least one kernel of `kind` ran on
  // `device`, derived from the records. Device ids repeat across cluster
  // nodes; the (node, device) overload disambiguates.
  sim::SimTime busy_time(int device, gpu::KernelKind kind) const;
  sim::SimTime busy_time(int node, int device, gpu::KernelKind kind) const;
  // Total time both a compute and a comm kernel were running on
  // `device` simultaneously (the achieved overlap).
  sim::SimTime overlap_time(int device) const;
  // Time with at least one inter-node transfer in flight on the fabric.
  sim::SimTime fabric_busy_time() const;

 private:
  std::vector<gpu::KernelTraceRecord> records_;
  std::vector<gpu::FaultTraceRecord> faults_;
  std::vector<EngineWindowRecord> windows_;
  std::vector<SchedulerSampleRecord> samples_;
};

}  // namespace liger::trace
