#include "workloads/smp_runner.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/cpu_time.hpp"

namespace fmeter::workloads {

SmpRunResult run_workload_smp(simkern::KernelOps& ops, WorkloadKind kind,
                              std::span<const simkern::CpuId> cpus,
                              std::uint64_t units_per_cpu) {
  if (cpus.empty()) {
    throw std::invalid_argument("run_workload_smp: need at least one CPU");
  }
  simkern::Kernel& kernel = ops.kernel();
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (cpus[i] >= kernel.num_cpus()) {
      throw std::invalid_argument("run_workload_smp: CPU id out of range");
    }
    for (std::size_t j = i + 1; j < cpus.size(); ++j) {
      if (cpus[i] == cpus[j]) {
        throw std::invalid_argument("run_workload_smp: duplicate CPU id");
      }
    }
  }

  std::vector<std::uint64_t> calls_before(cpus.size());
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    calls_before[i] = kernel.cpu(cpus[i]).calls_dispatched();
  }

  // One workload instance per CPU, constructed up front (module loads and
  // other warmup are not thread-safe against invoke()). Warmup dispatches
  // count toward total_calls: they run on the instrumented kernel too.
  std::vector<std::unique_ptr<Workload>> instances;
  instances.reserve(cpus.size());
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    instances.push_back(make_workload(kind, ops));
    instances.back()->warmup(kernel.cpu(cpus[i]));
  }

  struct Placement {
    int first_cpu = -1;
    int last_cpu = -1;
    double cpu_seconds = 0.0;
  };
  std::vector<Placement> placement(cpus.size());
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cpus.size());
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&, i] {
      Placement& seen = placement[i];
      seen.first_cpu = sched_getcpu();
      const double cpu_start = util::thread_cpu_seconds();
      simkern::CpuContext& cpu = kernel.cpu(cpus[i]);
      Workload& workload = *instances[i];
      for (std::uint64_t u = 0; u < units_per_cpu; ++u) workload.run_unit(cpu);
      seen.cpu_seconds = util::thread_cpu_seconds() - cpu_start;
      seen.last_cpu = sched_getcpu();
    });
  }
  for (auto& thread : threads) thread.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  SmpRunResult result;
  result.total_units = units_per_cpu * cpus.size();
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    result.total_calls +=
        kernel.cpu(cpus[i]).calls_dispatched() - calls_before[i];
  }
  std::vector<int> host_cpus;
  for (const Placement& seen : placement) {
    result.thread_cpu_seconds += seen.cpu_seconds;
    for (const int host : {seen.first_cpu, seen.last_cpu}) {
      if (host >= 0) host_cpus.push_back(host);
    }
  }
  std::sort(host_cpus.begin(), host_cpus.end());
  result.host_cpus = static_cast<std::size_t>(
      std::unique(host_cpus.begin(), host_cpus.end()) - host_cpus.begin());
  result.wall_seconds = seconds;
  result.units_per_second =
      seconds > 0.0 ? static_cast<double>(result.total_units) / seconds : 0.0;
  return result;
}

}  // namespace fmeter::workloads
