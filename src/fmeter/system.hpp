// MonitoredSystem: one simulated machine in one of the paper's three
// configurations — vanilla, Ftrace function tracer, or Fmeter.
//
// Owns the simulated kernel, the path models, both tracer implementations and
// the debugfs instance, and switches which tracer is armed. This is the
// top-level object benches, tests and examples build everything else from.
#pragma once

#include <memory>
#include <string>

#include "simkern/kernel.hpp"
#include "simkern/ops.hpp"
#include "trace/debugfs.hpp"
#include "trace/fmeter_tracer.hpp"
#include "trace/ftrace_tracer.hpp"

namespace fmeter::core {

/// The three kernel configurations of the evaluation (paper §4).
enum class TracerKind { kVanilla, kFtrace, kFmeter };

const char* tracer_kind_name(TracerKind kind) noexcept;

struct SystemConfig {
  simkern::KernelConfig kernel;
  trace::FmeterTracerConfig fmeter;
  trace::FtraceTracerConfig ftrace;
  /// Tracer armed at construction.
  TracerKind tracer = TracerKind::kFmeter;
};

class MonitoredSystem {
 public:
  explicit MonitoredSystem(const SystemConfig& config = {});

  simkern::Kernel& kernel() noexcept { return kernel_; }
  const simkern::Kernel& kernel() const noexcept { return kernel_; }
  simkern::KernelOps& ops() noexcept { return ops_; }
  trace::DebugFs& debugfs() noexcept { return debugfs_; }

  trace::FmeterTracer& fmeter() noexcept { return *fmeter_; }
  /// Holds no ring storage until ftrace is first selected (see
  /// FtraceTracer::ring_bytes).
  trace::FtraceTracer& ftrace() noexcept { return *ftrace_; }

  /// Arms the requested tracer (vanilla = none). Like flipping
  /// /sys/kernel/debug/tracing/current_tracer, only between quiescent runs.
  /// The first switch to ftrace allocates and zeroes its per-CPU rings, so
  /// a timed run after the switch faults no ring page in.
  void select_tracer(TracerKind kind);
  TracerKind active_tracer() const noexcept { return active_; }

 private:
  simkern::Kernel kernel_;
  simkern::KernelOps ops_;
  std::unique_ptr<trace::FmeterTracer> fmeter_;
  std::unique_ptr<trace::FtraceTracer> ftrace_;
  trace::DebugFs debugfs_;
  TracerKind active_ = TracerKind::kVanilla;
};

}  // namespace fmeter::core
