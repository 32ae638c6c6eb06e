// fmeter_bench: the end-to-end benchmark binary.
//
//   fmeter_bench prepare <workload> --seed N --dir D [--smoke 1]
//       Builds the workload's fixture archive in D (archive-search and
//       ingest-query), in its own process so its memory and time stay out
//       of the measured process.
//   fmeter_bench run <workload> --seed N --seconds S --trace 0|1 --dir D
//                    --out RESULT.json [--trace-out TRACE.json] [--smoke 1]
//       Runs one workload and writes its result record. Exit status 0 when
//       every correctness check passed, 1 when one failed, 2 on bad usage,
//       3 when the workload aborted.
//   --smoke 1 shrinks every fixture and loop to a few seconds in total, for
//   checking the harness itself; its numbers are not comparable.
//
// benchmark/run.py builds this binary and drives it; see README.md there.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "spans.hpp"

namespace {

/// Spans one lane can hold in a traced run; every workload stays well
/// below it (overflow is counted, never reallocated).
constexpr std::size_t kLaneCapacity = std::size_t{1} << 18;

int usage() {
  std::fprintf(stderr,
               "usage: fmeter_bench prepare <workload> --seed N --dir D "
               "[--smoke 1]\n"
               "       fmeter_bench run <workload> --seed N --seconds S "
               "--trace 0|1 --dir D --out F [--trace-out T] [--smoke 1]\n"
               "workloads: monitor, archive-search, ingest-query\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  fmbench::Options options;
  options.workload = argv[2];
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--dir") {
      options.dir = value;
    } else if (key == "--out") {
      options.out = value;
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else if (key == "--smoke") {
      options.smoke = value == "1";
    } else {
      return usage();
    }
  }
  if (options.dir.empty() || options.seconds <= 0.0) return usage();

  try {
    if (command == "prepare") {
      if (options.workload == "archive-search") {
        fmbench::prepare_archive_search(options);
      } else if (options.workload == "ingest-query") {
        fmbench::prepare_ingest_query(options);
      } else if (options.workload != "monitor") {
        return usage();
      }
      return 0;
    }
    if (command != "run" || options.out.empty()) return usage();

    fmbench::Spans spans(options.trace, 2, kLaneCapacity);
    fmbench::Result result;
    if (options.workload == "monitor") {
      fmbench::run_monitor(options, spans, result);
    } else if (options.workload == "archive-search") {
      fmbench::run_archive_search(options, spans, result);
    } else if (options.workload == "ingest-query") {
      fmbench::run_ingest_query(options, spans, result);
    } else {
      return usage();
    }
    std::vector<fmbench::LayerTime> layers;
    if (options.trace) {
      result.check("trace.no_dropped_spans", spans.dropped() == 0,
                   std::to_string(spans.dropped()) + " spans dropped");
      layers = spans.layer_times();
      if (!options.trace_out.empty()) spans.write_chrome_trace(options.trace_out);
    }
    result.per_layer("bench.error_rate",
                     result.attempted() > 0
                         ? static_cast<double>(result.failed()) /
                               static_cast<double>(result.attempted())
                         : 0.0,
                     "ratio");
    result.write(options.out, options, layers);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fmeter_bench %s %s: %s\n", command.c_str(),
                 options.workload.c_str(), e.what());
    return 3;
  }
}
