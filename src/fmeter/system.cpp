#include "fmeter/system.hpp"

namespace fmeter::core {

const char* tracer_kind_name(TracerKind kind) noexcept {
  switch (kind) {
    case TracerKind::kVanilla: return "vanilla";
    case TracerKind::kFtrace: return "ftrace";
    case TracerKind::kFmeter: return "fmeter";
  }
  return "unknown";
}

MonitoredSystem::MonitoredSystem(const SystemConfig& config)
    : kernel_(config.kernel), ops_(kernel_) {
  fmeter_ = std::make_unique<trace::FmeterTracer>(
      kernel_.symbols(), kernel_.num_cpus(), config.fmeter);
  ftrace_ = std::make_unique<trace::FtraceTracer>(
      kernel_.symbols(), kernel_.num_cpus(), config.ftrace);
  fmeter_->register_debugfs(debugfs_);
  ftrace_->register_debugfs(debugfs_);
  select_tracer(config.tracer);
}

void MonitoredSystem::select_tracer(TracerKind kind) {
  switch (kind) {
    case TracerKind::kVanilla:
      kernel_.install_tracer(nullptr);
      break;
    case TracerKind::kFtrace:
      kernel_.install_tracer(ftrace_.get());
      break;
    case TracerKind::kFmeter:
      kernel_.install_tracer(fmeter_.get());
      break;
  }
  active_ = kind;
}

}  // namespace fmeter::core
