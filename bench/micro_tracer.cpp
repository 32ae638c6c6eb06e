// Micro benchmarks (google-benchmark) for the tracer primitives and the
// design-choice ablations called out in DESIGN.md:
//   * Fmeter's per-CPU plain-increment slot update (the paper's design)
//   * the same update done with an atomic RMW (lock xadd) — what the paper
//     argues is needlessly expensive
//   * a shared (non-per-CPU) atomic counter array — cross-CPU contention
//   * the Ftrace ring-buffer append — timestamp + lock + record
//   * end-to-end per-call cost through the kernel's mcount seam
//   * snapshot and debugfs serialization costs the logging daemon pays
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "fmeter/system.hpp"
#include "trace/ring_buffer.hpp"

namespace {

using namespace fmeter;

core::SystemConfig bench_system() {
  core::SystemConfig config;
  config.kernel.num_cpus = 16;
  return config;
}

void BM_FmeterSlotIncrement(benchmark::State& state) {
  core::MonitoredSystem system(bench_system());
  auto& tracer = system.fmeter();
  auto& cpu = system.kernel().cpu(0);
  simkern::FunctionId fn = 0;
  for (auto _ : state) {
    tracer.on_function_entry(cpu, fn, simkern::kNoFunction);
    fn = (fn + 97) % 3815;  // stride the slot space like real call mixes do
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FmeterSlotIncrement);

void BM_FmeterSlotIncrementHotCached(benchmark::State& state) {
  // §6 optimization: the 64 hottest functions counted in a compact per-CPU
  // array. The call mix is Zipf-like, so most increments take the hot path.
  core::SystemConfig config = bench_system();
  for (simkern::FunctionId fn = 0; fn < 64; ++fn) {
    config.fmeter.hot_functions.push_back(fn);
  }
  core::MonitoredSystem system(config);
  auto& tracer = system.fmeter();
  auto& cpu = system.kernel().cpu(0);
  // 80% of calls hit the hot set (roughly Figure 1's mass distribution).
  std::uint64_t mix = 0x9e3779b97f4a7c15ULL;
  for (auto _ : state) {
    mix ^= mix << 13;
    mix ^= mix >> 7;
    mix ^= mix << 17;
    const simkern::FunctionId fn =
        (mix % 10) < 8 ? static_cast<simkern::FunctionId>(mix % 64)
                       : static_cast<simkern::FunctionId>(mix % 3815);
    tracer.on_function_entry(cpu, fn, simkern::kNoFunction);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FmeterSlotIncrementHotCached);

void BM_AtomicRmwIncrement(benchmark::State& state) {
  // Ablation: the same counters bumped with lock-prefixed RMW.
  std::vector<std::atomic<std::uint64_t>> counters(3815);
  std::size_t fn = 0;
  for (auto _ : state) {
    counters[fn].fetch_add(1, std::memory_order_relaxed);
    fn = (fn + 97) % counters.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AtomicRmwIncrement);

void BM_SharedCountersContended(benchmark::State& state) {
  // Ablation: one shared counter array updated from multiple threads —
  // the cross-core cache-coherency traffic per-CPU slots avoid.
  static std::vector<std::atomic<std::uint64_t>>* counters = nullptr;
  if (state.thread_index() == 0) {
    counters = new std::vector<std::atomic<std::uint64_t>>(3815);
  }
  std::size_t fn = static_cast<std::size_t>(state.thread_index()) * 13;
  for (auto _ : state) {
    (*counters)[fn % 64].fetch_add(1, std::memory_order_relaxed);  // hot set
    fn += 97;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete counters;
    counters = nullptr;
  }
}
BENCHMARK(BM_SharedCountersContended)->Threads(1)->Threads(4)->Threads(8);

void BM_FtraceRingBufferAppend(benchmark::State& state) {
  core::MonitoredSystem system(bench_system());
  system.select_tracer(core::TracerKind::kFtrace);  // allocates the rings
  auto& tracer = system.ftrace();
  auto& cpu = system.kernel().cpu(0);
  simkern::FunctionId fn = 0;
  for (auto _ : state) {
    tracer.on_function_entry(cpu, fn, fn + 1);
    fn = (fn + 97) % 3815;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FtraceRingBufferAppend);

void BM_RingBufferPushRaw(benchmark::State& state) {
  trace::TraceRingBuffer buffer(65536);
  trace::TraceEvent event;
  for (auto _ : state) {
    buffer.push(event);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingBufferPushRaw);

void BM_KernelInvoke(benchmark::State& state) {
  // End-to-end per-call cost: mcount dispatch + tracer + body work.
  core::MonitoredSystem system(bench_system());
  system.select_tracer(static_cast<core::TracerKind>(state.range(0)));
  auto& kernel = system.kernel();
  auto& cpu = kernel.cpu(0);
  simkern::FunctionId fn = 0;
  for (auto _ : state) {
    kernel.invoke(cpu, fn);
    fn = (fn + 97) % 3815;
  }
  benchmark::DoNotOptimize(cpu.work_sink());
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(core::tracer_kind_name(
      static_cast<core::TracerKind>(state.range(0))));
}
BENCHMARK(BM_KernelInvoke)->Arg(0)->Arg(1)->Arg(2);

void BM_FmeterSnapshot(benchmark::State& state) {
  core::MonitoredSystem system(bench_system());
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.fmeter().snapshot());
  }
}
BENCHMARK(BM_FmeterSnapshot);

void BM_DebugfsCounterRead(benchmark::State& state) {
  // The full wire path the daemon pays per reading: snapshot + serialize.
  core::MonitoredSystem system(bench_system());
  auto& kernel = system.kernel();
  auto& cpu = kernel.cpu(0);
  for (int i = 0; i < 100000; ++i) {
    kernel.invoke(cpu, static_cast<simkern::FunctionId>(i % 3815));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.debugfs().read("fmeter/counters"));
  }
}
BENCHMARK(BM_DebugfsCounterRead);

void BM_SnapshotDeserialize(benchmark::State& state) {
  core::MonitoredSystem system(bench_system());
  auto& kernel = system.kernel();
  auto& cpu = kernel.cpu(0);
  for (int i = 0; i < 100000; ++i) {
    kernel.invoke(cpu, static_cast<simkern::FunctionId>(i % 3815));
  }
  const std::string wire = system.debugfs().read("fmeter/counters");
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::CounterSnapshot::deserialize(wire));
  }
}
BENCHMARK(BM_SnapshotDeserialize);

}  // namespace

BENCHMARK_MAIN();
