#include "workloads/smp_runner.hpp"

#include <gtest/gtest.h>

#include "fmeter/system.hpp"

namespace fmeter::workloads {
namespace {

TEST(SmpRunner, RunsOnMultipleCpusConcurrently) {
  core::MonitoredSystem system;
  system.select_tracer(core::TracerKind::kFmeter);
  const simkern::CpuId cpus[] = {0, 1, 2, 3};
  const auto result = run_workload_smp(system.ops(), WorkloadKind::kDbench,
                                       cpus, 10);
  EXPECT_EQ(result.total_units, 40u);
  EXPECT_GT(result.total_calls, 0u);
  EXPECT_GT(result.units_per_second, 0.0);
  // The placement probe saw each thread start and end on some host CPU
  // (at most two per thread) and summed their CPU time.
  EXPECT_GE(result.host_cpus, 1u);
  EXPECT_LE(result.host_cpus, 8u);
  EXPECT_GT(result.thread_cpu_seconds, 0.0);
}

TEST(SmpRunner, FmeterCountsExactUnderConcurrency) {
  core::MonitoredSystem system;
  system.select_tracer(core::TracerKind::kFmeter);
  const simkern::CpuId cpus[] = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto before = system.fmeter().snapshot().total();
  const auto result = run_workload_smp(system.ops(), WorkloadKind::kScp,
                                       cpus, 8);
  const auto after = system.fmeter().snapshot().total();
  // Every dispatched call counted exactly once, no locks involved.
  EXPECT_EQ(after - before, result.total_calls);
}

TEST(SmpRunner, EveryCpuContributes) {
  core::MonitoredSystem system;
  auto& kernel = system.kernel();
  const simkern::CpuId cpus[] = {0, 3, 5};
  std::vector<std::uint64_t> before;
  for (const auto c : cpus) before.push_back(kernel.cpu(c).calls_dispatched());
  run_workload_smp(system.ops(), WorkloadKind::kApachebench, cpus, 5);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(kernel.cpu(cpus[i]).calls_dispatched(), before[i])
        << "cpu " << cpus[i];
  }
  // Untouched CPU stays untouched.
  EXPECT_EQ(kernel.cpu(1).calls_dispatched(), 0u);
}

TEST(SmpRunner, ValidatesCpuList) {
  core::MonitoredSystem system;
  EXPECT_THROW(run_workload_smp(system.ops(), WorkloadKind::kDbench, {}, 1),
               std::invalid_argument);
  const simkern::CpuId duplicate[] = {1, 1};
  EXPECT_THROW(
      run_workload_smp(system.ops(), WorkloadKind::kDbench, duplicate, 1),
      std::invalid_argument);
  const simkern::CpuId out_of_range[] = {99};
  EXPECT_THROW(
      run_workload_smp(system.ops(), WorkloadKind::kDbench, out_of_range, 1),
      std::invalid_argument);
}

TEST(SmpRunner, FtraceRemainsConsistentUnderConcurrency) {
  // The ring buffers are per-CPU; entries_written must equal total calls
  // when buffers are large enough to avoid overruns.
  core::SystemConfig config;
  config.ftrace.buffer_events_per_cpu = 1 << 20;
  core::MonitoredSystem system(config);
  system.select_tracer(core::TracerKind::kFtrace);
  const simkern::CpuId cpus[] = {0, 1, 2, 3};
  const auto result = run_workload_smp(system.ops(), WorkloadKind::kDbench,
                                       cpus, 5);
  EXPECT_EQ(system.ftrace().entries_written(), result.total_calls);
  EXPECT_EQ(system.ftrace().overruns(), 0u);
}

}  // namespace
}  // namespace fmeter::workloads
