// Shared plumbing for the table/figure reproduction binaries.
//
// Each binary regenerates one table or figure from the paper's evaluation
// (§4) against the simulated testbed and prints it in the paper's layout,
// followed by a SHAPE CHECK block stating which qualitative properties of
// the original result hold. Absolute numbers are NOT expected to match the
// 2009-era Nehalem testbed; orderings, rough factors and crossovers are.
#pragma once

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "fmeter/fmeter.hpp"
#include "util/cpu_time.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/zipf.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::bench {

/// One key/value cell of a machine-readable benchmark row. Numbers stay
/// numbers in the JSON; strings are escaped.
struct JsonField {
  std::string key;
  bool is_string = false;
  double number = 0.0;
  std::string text;
};

inline JsonField jnum(std::string key, double value) {
  JsonField field;
  field.key = std::move(key);
  field.number = value;
  return field;
}

inline JsonField jstr(std::string key, std::string value) {
  JsonField field;
  field.key = std::move(key);
  field.is_string = true;
  field.text = std::move(value);
  return field;
}

using JsonRow = std::vector<JsonField>;

/// Hardware threads of the host (at least 1).
inline unsigned host_cores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The CPU's model name from /proc/cpuinfo; "unknown" where there is none.
inline std::string host_cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t value = line.find_first_not_of(" \t:", line.find(':'));
    if (value != std::string::npos) return line.substr(value);
  }
  return "unknown";
}

/// Writes `{"bench": <name>, "rows": [...]}` to `path` ("-" for stdout) so
/// the perf trajectory of every bench run is machine-trackable (CI uploads
/// the BENCH_*.json files as artifacts). Every row is stamped with the
/// host facts tools/bench_check.py reads: `cores` (host_cores()), `simd`
/// (the exact path's scoring kernel) and `cpu_model`. Returns false (with
/// a message on stderr) if the file cannot be written — benches report but
/// do not fail on that.
inline bool emit_json(const std::string& path, const std::string& bench_name,
                      std::vector<JsonRow> rows) {
  const std::string cpu_model = host_cpu_model();
  for (JsonRow& row : rows) {
    row.push_back(jnum("cores", host_cores()));
    row.push_back(jstr("simd", index::InvertedIndex::scoring_kernel()));
    row.push_back(jstr("cpu_model", cpu_model));
  }
  const auto escape = [](const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  };
  std::FILE* file = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "emit_json: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(file, "{\"bench\": \"%s\", \"rows\": [\n",
               escape(bench_name).c_str());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::fprintf(file, "  {");
    for (std::size_t f = 0; f < rows[r].size(); ++f) {
      const JsonField& field = rows[r][f];
      if (field.is_string) {
        std::fprintf(file, "\"%s\": \"%s\"", escape(field.key).c_str(),
                     escape(field.text).c_str());
      } else {
        std::fprintf(file, "\"%s\": %.10g", escape(field.key).c_str(),
                     field.number);
      }
      if (f + 1 < rows[r].size()) std::fprintf(file, ", ");
    }
    std::fprintf(file, "}%s\n", r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  if (file != stdout) std::fclose(file);
  return true;
}

// ---------------------------------------------------------------------------
// Shared synthetic-archive model for the scaling benches.
//
// The corpus models the paper's archive structure: several behavior classes
// (cf. the eight traced workloads plus configurations, §4), each drawing
// its kernel functions through its own permutation of a Zipf rank
// distribution over the core-function space — distinct workloads exercise
// distinct kernel paths — with log-normal per-function weight magnitudes
// (call counts per interval span orders of magnitude, Figure 1's power-law
// tails), duplicate samples summed and vectors L2-normalized ("scaled into
// the unit ball", §4.2.1).
// ---------------------------------------------------------------------------

/// Per-class permutations of the Zipf rank -> function-id mapping: class
/// c's hot kernel functions are a different slice of the function space
/// (class 0 keeps the identity mapping).
inline std::vector<std::vector<std::uint32_t>> class_permutations(
    util::Rng& rng, std::size_t classes, std::uint32_t dimension) {
  std::vector<std::vector<std::uint32_t>> perm(
      classes, std::vector<std::uint32_t>(dimension));
  for (std::size_t c = 0; c < classes; ++c) {
    std::iota(perm[c].begin(), perm[c].end(), 0u);
    if (c > 0) {
      for (std::uint32_t i = dimension; i > 1; --i) {
        std::swap(perm[c][i - 1], perm[c][rng.below(i)]);
      }
    }
  }
  return perm;
}

/// One synthetic tf-idf signature of the class whose permutation is given.
inline vsm::SparseVector synthetic_class_signature(
    util::Rng& rng, const util::ZipfDistribution& zipf,
    const std::vector<std::uint32_t>& perm, std::size_t nnz) {
  std::vector<vsm::SparseVector::Entry> entries;
  entries.reserve(nnz);
  for (std::size_t i = 0; i < nnz; ++i) {
    entries.emplace_back(
        static_cast<vsm::SparseVector::Index>(perm[zipf.sample(rng)]),
        std::exp(rng.normal(0.0, 2.0)));
  }
  return vsm::SparseVector::from_entries(std::move(entries)).l2_normalized();
}

/// Times `iterations` runs of `op`, repeated `repetitions` times; returns
/// per-iteration microseconds as samples.
inline std::vector<double> time_op_us(const std::function<void()>& op,
                                      int iterations, int repetitions) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repetitions));
  // Warmup pass.
  for (int i = 0; i < iterations / 2 + 1; ++i) op();
  for (int r = 0; r < repetitions; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) op();
    const auto elapsed = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    samples.push_back(elapsed / iterations);
  }
  return samples;
}

/// Same, on per-process CPU time (util::cpu_micros — the one clock shared
/// with the hardened tracer-overhead tests). Cells compared against each
/// other (the A/B shape checks) are measured minutes apart on shared
/// machines, where wall-clock noise between cells dwarfs real differences;
/// CPU time measures the work itself. Only meaningful for single-threaded
/// ops — thread-parallel benches keep wall clock, which is what they claim.
inline std::vector<double> time_op_cpu_us(const std::function<void()>& op,
                                          int iterations, int repetitions) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repetitions));
  for (int i = 0; i < iterations / 2 + 1; ++i) op();  // warmup
  for (int r = 0; r < repetitions; ++r) {
    const double start = util::cpu_micros();
    for (int i = 0; i < iterations; ++i) op();
    samples.push_back((util::cpu_micros() - start) / iterations);
  }
  return samples;
}

/// Latency distribution summary of a sample set (microseconds by
/// convention). Computed through util::percentile (linear interpolation
/// between order statistics), so bench JSON percentiles and the runtime
/// histogram quantiles agree in method up to bucketing error.
struct LatencyPercentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

inline LatencyPercentiles percentiles_of(const std::vector<double>& samples) {
  LatencyPercentiles out;
  if (samples.empty()) return out;
  out.p50 = util::percentile(samples, 50.0);
  out.p95 = util::percentile(samples, 95.0);
  out.p99 = util::percentile(samples, 99.0);
  return out;
}

/// Prints the standard header for a reproduction binary.
inline void print_banner(const char* experiment, const char* paper_summary) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper reference: %s\n", paper_summary);
  std::printf("================================================================\n\n");
}

struct ShapeCheck {
  std::string description;
  bool holds;
};

/// Prints the SHAPE CHECK block and returns 0 iff all checks hold.
inline int print_shape_checks(const std::vector<ShapeCheck>& checks) {
  std::printf("\nSHAPE CHECK (paper-qualitative properties):\n");
  int failures = 0;
  for (const auto& check : checks) {
    std::printf("  [%s] %s\n", check.holds ? "PASS" : "FAIL",
                check.description.c_str());
    failures += !check.holds;
  }
  std::printf("\n");
  return failures;
}

}  // namespace fmeter::bench
