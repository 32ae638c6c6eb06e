// Table 3: Linux kernel compile elapsed time (real / user / sys) under
// vanilla, Ftrace and Fmeter.
//
// Paper result: user time is unaffected (user-mode code carries no probes);
// sys time inflates ~22% under Fmeter and ~420% (5.2x) under Ftrace, so the
// wall-clock difference is carried entirely by the kernel side.
#include "bench_common.hpp"

namespace {

using namespace fmeter;

struct Times {
  double real_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
};

/// Compiles `units` translation units, accounting user and sys time
/// separately, the way /usr/bin/time attributes them. Both phases are
/// timed on this thread's CPU clock, so a core stolen by another process
/// mid-phase does not count against the configuration that was running.
Times compile(workloads::Workload& workload, simkern::CpuContext& cpu,
              int units) {
  Times times;
  for (int u = 0; u < units; ++u) {
    // The compiler's user-mode burn: untraced, identical in every kernel
    // configuration.
    const double user_start = util::thread_cpu_seconds();
    cpu.consume_work(workload.user_work_per_unit());
    times.user_s += util::thread_cpu_seconds() - user_start;
    // The kernel half: syscalls, faults, I/O — instrumented.
    const double sys_start = util::thread_cpu_seconds();
    workload.run_unit(cpu);
    times.sys_s += util::thread_cpu_seconds() - sys_start;
  }
  times.real_s = times.user_s + times.sys_s;
  return times;
}

std::string mmss(double seconds) {
  const int m = static_cast<int>(seconds) / 60;
  const double s = seconds - m * 60;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%dm%06.3fs", m, s);
  return buffer;
}

}  // namespace

int main() {
  bench::print_banner(
      "Table 3 — Linux kernel compile elapsed time (time(1) style)",
      "user time ~unchanged in all configurations; sys time +22% under "
      "Fmeter, +420% (5.2x) under Ftrace");

  core::MonitoredSystem system;
  auto& cpu = system.kernel().cpu(0);
  auto workload = workloads::make_workload(workloads::WorkloadKind::kKcompile,
                                           system.ops());

  constexpr int kUnits = 1200;  // translation units per "build"

  struct Config {
    core::TracerKind kind;
    const char* label;
    Times times;
  };
  std::vector<Config> configs = {{core::TracerKind::kVanilla, "Unmodified", {}},
                                 {core::TracerKind::kFtrace, "Ftrace", {}},
                                 {core::TracerKind::kFmeter, "Fmeter", {}}};
  for (auto& config : configs) {
    system.select_tracer(config.kind);
    // Warm the build directory (page cache, dcache).
    for (int u = 0; u < 50; ++u) workload->run_unit(cpu);
    config.times = compile(*workload, cpu, kUnits);
  }

  util::TextTable table({"", "Unmodified", "Ftrace", "Fmeter"});
  table.add_row({"real", mmss(configs[0].times.real_s),
                 mmss(configs[1].times.real_s), mmss(configs[2].times.real_s)});
  table.add_row({"user", mmss(configs[0].times.user_s),
                 mmss(configs[1].times.user_s), mmss(configs[2].times.user_s)});
  table.add_row({"sys", mmss(configs[0].times.sys_s),
                 mmss(configs[1].times.sys_s), mmss(configs[2].times.sys_s)});
  std::printf("%s", table.to_string().c_str());

  const double vanilla_sys = configs[0].times.sys_s;
  const double ftrace_sys = configs[1].times.sys_s;
  const double fmeter_sys = configs[2].times.sys_s;
  const double vanilla_user = configs[0].times.user_s;
  const double ftrace_user = configs[1].times.user_s;
  const double fmeter_user = configs[2].times.user_s;

  std::printf("\nsys inflation:  Ftrace %.2fx   Fmeter %.2fx\n",
              ftrace_sys / vanilla_sys, fmeter_sys / vanilla_sys);
  std::printf("user variation: Ftrace %+.1f%%   Fmeter %+.1f%%\n",
              100.0 * (ftrace_user / vanilla_user - 1.0),
              100.0 * (fmeter_user / vanilla_user - 1.0));
  std::printf("(paper: sys 7m59s -> 41m31s (5.2x) Ftrace, -> 9m45s (1.22x) "
              "Fmeter; user unchanged)\n");

  return bench::print_shape_checks({
      {"user time roughly identical across configurations (+-10%)",
       std::abs(ftrace_user / vanilla_user - 1.0) < 0.10 &&
           std::abs(fmeter_user / vanilla_user - 1.0) < 0.10},
      {"Fmeter sys inflation mild (< 2.2x)", fmeter_sys / vanilla_sys < 2.2},
      {"Ftrace sys inflation severe (> 3x)", ftrace_sys / vanilla_sys > 3.0},
      {"Ftrace sys cost dwarfs Fmeter's",
       ftrace_sys / fmeter_sys > 2.0},
  });
}
