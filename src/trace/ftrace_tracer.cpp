#include "trace/ftrace_tracer.hpp"

#include <stdexcept>
#include <utility>

namespace fmeter::trace {

FtraceTracer::FtraceTracer(const simkern::SymbolTable& symbols,
                           std::uint32_t num_cpus,
                           const FtraceTracerConfig& config)
    : symbols_(symbols),
      num_cpus_(num_cpus),
      events_per_cpu_(config.buffer_events_per_cpu) {
  if (num_cpus == 0) throw std::invalid_argument("FtraceTracer: no CPUs");
}

void FtraceTracer::on_arm() {
  if (!buffers_.empty()) return;
  std::vector<std::unique_ptr<TraceRingBuffer>> buffers;
  buffers.reserve(num_cpus_);
  for (std::uint32_t i = 0; i < num_cpus_; ++i) {
    buffers.push_back(std::make_unique<TraceRingBuffer>(events_per_cpu_));
  }
  buffers_ = std::move(buffers);
}

std::size_t FtraceTracer::ring_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->capacity() * sizeof(TraceEvent);
  }
  return total;
}

void FtraceTracer::on_function_entry(simkern::CpuContext& cpu,
                                     simkern::FunctionId fn,
                                     simkern::FunctionId parent) noexcept {
  // The function tracer's per-event work: timestamp read, reserve-and-commit
  // into the per-CPU buffer under its lock, payload copy.
  TraceEvent event;
  event.timestamp_ns = now_ns();
  event.fn = fn;
  event.parent = parent;
  event.cpu = cpu.id();
  buffers_[cpu.id()]->push(event);
}

std::uint64_t FtraceTracer::entries_written() const noexcept {
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->entries_written();
  return total;
}

std::uint64_t FtraceTracer::overruns() const noexcept {
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->overruns();
  return total;
}

std::string FtraceTracer::consume_trace_pipe(std::size_t max_events_per_cpu) {
  std::string out;
  for (auto& buffer : buffers_) {
    for (const TraceEvent& event : buffer->drain(max_events_per_cpu)) {
      out += '[';
      out += std::to_string(event.cpu);
      out += "] ";
      out += std::to_string(event.timestamp_ns);
      out += ": ";
      out += symbols_.by_id(event.fn).name;
      if (event.parent != simkern::kNoFunction) {
        out += " <- ";
        out += symbols_.by_id(event.parent).name;
      }
      out += '\n';
    }
  }
  return out;
}

CounterSnapshot FtraceTracer::counts_from_buffers() {
  CounterSnapshot snap;
  snap.counts.assign(symbols_.size(), 0);
  for (auto& buffer : buffers_) {
    for (const TraceEvent& event : buffer->drain()) {
      ++snap.counts[event.fn];
    }
  }
  return snap;
}

void FtraceTracer::register_debugfs(DebugFs& fs, const std::string& prefix) {
  fs.register_file(prefix + "/trace_pipe",
                   [this] { return consume_trace_pipe(); });
  fs.register_file(prefix + "/buffer_stats", [this] {
    std::string out;
    out += "entries_written " + std::to_string(entries_written()) + '\n';
    out += "overruns " + std::to_string(overruns()) + '\n';
    return out;
  });
}

}  // namespace fmeter::trace
