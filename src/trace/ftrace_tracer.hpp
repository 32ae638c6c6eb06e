// The Ftrace function tracer baseline (paper §3 and the Tables 1–3 baseline).
//
// Unlike Fmeter, the Ftrace function tracer records a full event per call:
// it reads a timestamp, takes the per-CPU buffer lock, and appends a record
// carrying (ip, parent_ip). That per-event cost — clock read + lock + copy —
// is why Ftrace is consistently several times slower than Fmeter on the same
// workload, and reproducing it faithfully is what gives the overhead tables
// their shape.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simkern/cpu.hpp"
#include "simkern/symbol_table.hpp"
#include "simkern/trace_hook.hpp"
#include "trace/debugfs.hpp"
#include "trace/ring_buffer.hpp"
#include "trace/snapshot.hpp"

namespace fmeter::trace {

struct FtraceTracerConfig {
  /// Events per CPU buffer. 2.6.28 defaulted to ~1.4MB/cpu of 24-ish byte
  /// entries; 65536 entries keeps the same order of magnitude.
  std::size_t buffer_events_per_cpu = 65536;
};

class FtraceTracer final : public simkern::TraceHook {
 public:
  FtraceTracer(const simkern::SymbolTable& symbols, std::uint32_t num_cpus,
               const FtraceTracerConfig& config = {});

  // TraceHook
  void on_function_entry(simkern::CpuContext& cpu, simkern::FunctionId fn,
                         simkern::FunctionId parent) noexcept override;
  const char* name() const noexcept override { return "ftrace"; }
  /// Allocates and zeroes the per-CPU rings on the first arm; later arms
  /// keep them (and what they hold).
  void on_arm() override;

  std::uint32_t num_cpus() const noexcept { return num_cpus_; }

  /// Bytes of ring storage held: 0 until the first arm, then num_cpus ×
  /// capacity × sizeof(TraceEvent).
  std::size_t ring_bytes() const noexcept;

  /// A CPU's ring; std::out_of_range before the first arm.
  TraceRingBuffer& buffer(simkern::CpuId cpu) { return *buffers_.at(cpu); }
  const TraceRingBuffer& buffer(simkern::CpuId cpu) const {
    return *buffers_.at(cpu);
  }

  /// Total events written / lost across CPUs.
  std::uint64_t entries_written() const noexcept;
  std::uint64_t overruns() const noexcept;

  /// Drains every CPU buffer and renders events in the familiar
  /// "<cpu> <timestamp>: <fn> <- <parent>" trace_pipe format. Consuming the
  /// buffer is as expensive as it is on the real system — symbol resolution
  /// and text formatting per event.
  std::string consume_trace_pipe(std::size_t max_events_per_cpu = SIZE_MAX);

  /// Post-processing path: counts drained function-entry events per function.
  /// This is what a user would have to do to get Fmeter-style counts out of
  /// Ftrace — an O(events) pass over the log.
  CounterSnapshot counts_from_buffers();

  void register_debugfs(DebugFs& fs, const std::string& prefix = "tracing");

 private:
  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  const simkern::SymbolTable& symbols_;
  std::uint32_t num_cpus_;
  std::size_t events_per_cpu_;
  /// One ring per CPU; empty until the first arm.
  std::vector<std::unique_ptr<TraceRingBuffer>> buffers_;
};

}  // namespace fmeter::trace
