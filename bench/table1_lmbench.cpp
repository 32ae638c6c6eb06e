// Table 1: lmbench micro-operation latencies under the vanilla, Ftrace and
// Fmeter kernels, with slowdown factors and the Ftrace/Fmeter ratio.
//
// Paper result: Fmeter averages ~1.4x over vanilla, Ftrace ~6.7x; Ftrace is
// 2.1x-8x slower than Fmeter depending on the operation.
#include "bench_common.hpp"
#include "workloads/lmbench.hpp"

namespace {

using namespace fmeter;

struct Row {
  std::string name;
  double vanilla_us = 0.0;
  double vanilla_sem = 0.0;
  double ftrace_us = 0.0;
  double ftrace_sem = 0.0;
  double fmeter_us = 0.0;
  double fmeter_sem = 0.0;
};

}  // namespace

int main() {
  bench::print_banner(
      "Table 1 — lmbench: vanilla vs Ftrace function tracer vs Fmeter",
      "avg slowdown vanilla->Fmeter ~1.4x, vanilla->Ftrace ~6.7x; "
      "Ftrace/Fmeter ratio between 2.1 and 8.0");

  core::MonitoredSystem system;
  auto& cpu = system.kernel().cpu(0);
  const auto catalog = workloads::lmbench_catalog();

  constexpr int kIterations = 400;
  constexpr int kRepetitions = 12;

  std::vector<Row> rows;
  for (const auto& op : catalog) {
    Row row;
    row.name = op.name;
    // The three cells of a row are compared with each other, so they are
    // timed on process CPU time: wall-clock noise between cells on a
    // shared host is larger than some rows' Ftrace/Fmeter gap.
    auto measure = [&](core::TracerKind kind, double& mean_out, double& sem_out) {
      system.select_tracer(kind);
      const auto samples = bench::time_op_cpu_us(
          [&] { op.run(system.ops(), cpu); }, kIterations, kRepetitions);
      mean_out = util::mean(samples);
      sem_out = util::sem(samples);
    };
    measure(core::TracerKind::kVanilla, row.vanilla_us, row.vanilla_sem);
    measure(core::TracerKind::kFtrace, row.ftrace_us, row.ftrace_sem);
    measure(core::TracerKind::kFmeter, row.fmeter_us, row.fmeter_sem);
    rows.push_back(std::move(row));
  }

  util::TextTable table({"Test", "Baseline us", "Ftrace us", "Fmeter us",
                         "Ftrace slow", "Fmeter slow", "Ratio"});
  double ftrace_slowdown_sum = 0.0;
  double fmeter_slowdown_sum = 0.0;
  double ratio_min = 1e9;
  double ratio_max = 0.0;
  for (const auto& row : rows) {
    const double ftrace_slow = row.ftrace_us / row.vanilla_us;
    const double fmeter_slow = row.fmeter_us / row.vanilla_us;
    const double ratio = row.ftrace_us / row.fmeter_us;
    ftrace_slowdown_sum += ftrace_slow;
    fmeter_slowdown_sum += fmeter_slow;
    ratio_min = std::min(ratio_min, ratio);
    ratio_max = std::max(ratio_max, ratio);
    table.add_row({row.name, util::mean_sem(row.vanilla_us, row.vanilla_sem, 3),
                   util::mean_sem(row.ftrace_us, row.ftrace_sem, 3),
                   util::mean_sem(row.fmeter_us, row.fmeter_sem, 3),
                   util::ratio(ftrace_slow), util::ratio(fmeter_slow),
                   util::ratio(ratio)});
  }
  std::printf("%s", table.to_string().c_str());

  const double n = static_cast<double>(rows.size());
  const double avg_ftrace = ftrace_slowdown_sum / n;
  const double avg_fmeter = fmeter_slowdown_sum / n;
  std::printf("\nAverage slowdown vs vanilla:  Ftrace %.2fx   Fmeter %.2fx\n",
              avg_ftrace, avg_fmeter);
  std::printf("Ftrace/Fmeter ratio range: %.2f .. %.2f\n", ratio_min, ratio_max);
  std::printf("(paper: Fmeter avg 1.4x, Ftrace avg 6.69x, ratio 2.1..8.0)\n");

  return bench::print_shape_checks({
      {"Fmeter is cheaper than Ftrace on every row", ratio_min > 1.0},
      {"average Fmeter slowdown is small (< 2.5x)", avg_fmeter < 2.5},
      {"average Ftrace slowdown is large (> 3x)", avg_ftrace > 3.0},
      {"Ftrace averages several times the Fmeter overhead",
       avg_ftrace / avg_fmeter > 2.0},
  });
}
