// SMP workload execution.
//
// The paper's testbed runs 16 logical CPUs; Fmeter's per-CPU slot design
// exists precisely so concurrent kernels don't serialize on counters. The
// runner executes one workload instance per simulated CPU (each with its own
// phase state and RNG stream, like separate processes) on real threads, so
// tracer implementations are exercised under genuine concurrency.
#pragma once

#include <cstdint>
#include <span>

#include "simkern/kernel.hpp"
#include "workloads/workload.hpp"

namespace fmeter::workloads {

struct SmpRunResult {
  std::uint64_t total_units = 0;
  std::uint64_t total_calls = 0;  ///< core-kernel dispatches across CPUs
  double wall_seconds = 0.0;
  double units_per_second = 0.0;
  /// Placement of the run's threads on the host: the distinct host CPUs
  /// they were seen on (sched_getcpu at each thread's start and end), and
  /// their summed thread CPU time. On a multi-CPU run, thread_cpu_seconds
  /// / wall_seconds near 1 means the threads ran one after another.
  std::size_t host_cpus = 0;
  double thread_cpu_seconds = 0.0;
};

/// Runs `units_per_cpu` units of a fresh `kind` workload instance on each of
/// the given CPUs concurrently. CPUs must be distinct and valid; the spans
/// owner must keep the kernel alive for the duration.
SmpRunResult run_workload_smp(simkern::KernelOps& ops, WorkloadKind kind,
                              std::span<const simkern::CpuId> cpus,
                              std::uint64_t units_per_cpu);

}  // namespace fmeter::workloads
