// Ablation: SMP scaling of the tracer designs.
//
// Fmeter's per-CPU slot pages exist so that concurrently executing kernels
// never touch each other's cache lines (paper §3: per-CPU indices, preempt
// disable instead of atomics). This bench drives the same workload on 1, 2,
// 4 and 8 simulated CPUs (real threads) under each tracer and reports
// aggregate throughput: Fmeter must scale like vanilla; the lock-guarded
// ring buffers of Ftrace are also per-CPU and scale, but at several times
// the per-call cost.
#include <algorithm>

#include "bench_common.hpp"
#include "workloads/smp_runner.hpp"

int main() {
  using namespace fmeter;
  bench::print_banner(
      "Ablation — SMP scaling of vanilla / Fmeter / Ftrace",
      "per-CPU counter design: no cross-CPU traffic, near-linear scaling");

  core::MonitoredSystem system;
  constexpr std::uint64_t kUnitsPerCpu = 400;

  const std::vector<std::vector<simkern::CpuId>> cpu_sets = {
      {0}, {0, 1}, {0, 1, 2, 3}, {0, 1, 2, 3, 4, 5, 6, 7}};
  struct Config {
    core::TracerKind kind;
    const char* label;
  };
  const Config configs[] = {{core::TracerKind::kVanilla, "vanilla"},
                            {core::TracerKind::kFmeter, "fmeter"},
                            {core::TracerKind::kFtrace, "ftrace"}};

  util::TextTable table({"Configuration", "1 cpu", "2 cpus", "4 cpus",
                         "8 cpus", "8-cpu speedup"});
  util::TextTable placement({"Configuration", "1 cpu", "2 cpus", "4 cpus",
                             "8 cpus"});
  double fmeter_speedup = 0.0;
  double vanilla_speedup = 0.0;
  std::vector<double> one_cpu_rates;
  for (const auto& config : configs) {
    system.select_tracer(config.kind);
    std::vector<std::string> cells = {config.label};
    std::vector<std::string> placed = {config.label};
    double base_rate = 0.0;
    double last_rate = 0.0;
    for (const auto& cpus : cpu_sets) {
      // Median of three runs per point to tame scheduler noise.
      std::vector<workloads::SmpRunResult> runs;
      for (int run = 0; run < 3; ++run) {
        runs.push_back(workloads::run_workload_smp(
            system.ops(), workloads::WorkloadKind::kDbench, cpus,
            kUnitsPerCpu));
      }
      std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
        return a.units_per_second < b.units_per_second;
      });
      const auto& median = runs[runs.size() / 2];
      const double rate = median.units_per_second;
      if (cpus.size() == 1) base_rate = rate;
      last_rate = rate;
      cells.push_back(util::fixed(rate / 1000.0, 1) + "k/s");
      placed.push_back(std::to_string(median.host_cpus) + " / " +
                       util::ratio(median.thread_cpu_seconds /
                                   median.wall_seconds));
    }
    const double speedup = last_rate / base_rate;
    cells.push_back(util::ratio(speedup));
    if (config.kind == core::TracerKind::kFmeter) fmeter_speedup = speedup;
    if (config.kind == core::TracerKind::kVanilla) vanilla_speedup = speedup;
    one_cpu_rates.push_back(base_rate);
    table.add_row(std::move(cells));
    placement.add_row(std::move(placed));
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(speedup = 8-cpu aggregate rate / 1-cpu rate; ideal 8.0)\n");
  std::printf("\nPlacement of each median run: host CPUs its threads ran on "
              "/ (summed thread CPU time / wall time)\n%s",
              placement.to_string().c_str());
  std::printf("(a CPU/wall ratio near 1.0 at 8 cpus means the host ran the "
              "threads one after another: a low speedup there measures the "
              "host, not the tracer)\n");

  // The absolute speedup ceiling is set by the host (core count, cgroup
  // quotas); the design claim is *relative*: per-CPU counters must not cost
  // scalability compared to the un-instrumented kernel.
  return bench::print_shape_checks({
      {"Fmeter gains from additional CPUs (8-cpu speedup >= 2x)",
       fmeter_speedup >= 2.0},
      {"Fmeter scaling within 35% of vanilla's (no cross-CPU contention)",
       fmeter_speedup >= vanilla_speedup * 0.65},
      {"single-cpu rate ordering vanilla >= fmeter >= ftrace",
       one_cpu_rates[0] >= one_cpu_rates[1] &&
           one_cpu_rates[1] >= one_cpu_rates[2]},
  });
}
