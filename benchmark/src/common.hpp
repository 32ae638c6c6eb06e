// Shared plumbing of the end-to-end benchmark: seeded input generation that
// does not depend on program code, clocks, percentiles, registry deltas,
// hit comparison and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fmeter/database.hpp"
#include "fmeter/live_database.hpp"
#include "obs/metrics.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmbench {

class Spans;

// --------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;     ///< tiny fixtures and loops: harness check only
  std::string dir;        ///< scratch directory the workload owns
  std::string out;        ///< result JSON path
  std::string trace_out;  ///< Chrome-trace JSON path (traced runs)
};

// ---------------------------------------------------------------- clocks

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double process_cpu_s();  ///< all threads of this process
double thread_cpu_s();   ///< calling thread only
double peak_rss_mb();    ///< getrusage high-water mark so far
std::uint64_t directory_bytes(const std::string& dir);
void remove_tree(const std::string& dir);

/// Linear interpolation between order statistics; 0 for an empty sample.
double percentile(std::vector<double> values, double pct);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

// ---------------------------------------------------------------- inputs

/// xoshiro256** seeded through splitmix64 from (seed, stream), so every
/// input stream of a run is reproducible on its own and no input changes
/// when the program's own generators change.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double normal();

 private:
  std::uint64_t s_[4];
};

/// The synthetic archive model of the repo's scaling benches: 11 behaviour
/// classes, each drawing 120 kernel functions per signature through its own
/// permutation of a Zipf(1.1) rank law over 3800 functions, log-normal
/// weights, L2-normalised. Labels are "c0" ... "c10".
class SyntheticArchive {
 public:
  static constexpr std::size_t kClasses = 11;
  static constexpr std::uint32_t kDimension = 3800;
  static constexpr std::size_t kNnz = 120;
  static constexpr std::size_t kBatch = 100;  ///< docs per generated batch

  explicit SyntheticArchive(std::uint64_t seed);

  fmeter::vsm::SparseVector sample(Rng& rng, std::size_t cls) const;
  static std::string label(std::size_t cls);

  /// Documents [b * kBatch, (b + 1) * kBatch): doc d has class d % 11 and
  /// batch b its own stream, so any prefix regenerates independently.
  void batch(std::size_t b, std::vector<fmeter::vsm::SparseVector>& docs,
             std::vector<std::string>& labels) const;
  /// Query i: a fresh signature of class i % 11 (never stored).
  fmeter::vsm::SparseVector query(std::size_t i) const;
  static std::size_t query_class(std::size_t i) { return i % kClasses; }

 private:
  std::uint64_t seed_;
  std::vector<double> cdf_;
  std::vector<std::vector<std::uint32_t>> perm_;
};

/// Writes `docs` into `archive` with add_batch, then folds until the base
/// holds everything (no segments). Writes go in chunks: each add_batch
/// seals one single-shard segment, and one huge segment takes far longer
/// to build than the folds that spread the same documents over every shard.
void load_folded(fmeter::core::LiveDatabase& archive,
                 const std::vector<fmeter::vsm::SparseVector>& docs,
                 const std::vector<std::string>& labels);

// -------------------------------------------------------- registry deltas

/// Difference of the global metrics registry between construction (or
/// reset()) and each lookup: the program's own per-stage series over one
/// benchmark phase.
class RegistryDelta {
 public:
  RegistryDelta() { reset(); }
  void reset();
  double counter(const std::string& name) const;
  fmeter::obs::HistogramSnapshot histogram(const std::string& name) const;

 private:
  fmeter::obs::MetricsSnapshot before_;
};

/// Quantile of a histogram delta in microseconds (series record ns).
double quantile_us(const fmeter::obs::HistogramSnapshot& h, double q);

/// Query-path counters of one phase, read from the out-params of the
/// searches the benchmark issued (traced runs only).
struct SearchCounters {
  fmeter::core::QueryStats stats;
  std::uint64_t searches = 0;
  std::uint64_t segments_probed = 0;  ///< sum of Snapshot::num_segments()
};

// --------------------------------------------------------------- checking

/// Same ids, labels and order; scores equal within `tolerance` (0 demands
/// bit-identity). On mismatch, fills `why`.
bool same_hits(const std::vector<fmeter::core::SearchHit>& got,
               const std::vector<fmeter::core::SearchHit>& want,
               double tolerance, std::string* why);

/// The program's reference answer: a brute-force scan over `db`.
std::vector<fmeter::core::SearchHit> brute_force(
    const fmeter::core::SignatureDatabase& db,
    const fmeter::vsm::SparseVector& query, std::size_t k);

/// Counts hits whose label is `label`.
std::size_t hits_with_label(const std::vector<fmeter::core::SearchHit>& hits,
                            const std::string& label);

// ----------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One row of the traced run's self-time table (see spans.hpp).
struct LayerTime {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double self_us_p50 = 0.0;
};

class Result {
 public:
  void end_to_end(std::string name, double value, std::string unit);
  void per_layer(std::string name, double value, std::string unit);
  /// Records a correctness check; a failing one counts as a failed op.
  void check(std::string name, bool ok, std::string detail = {});
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

  /// The index/exec per-layer metrics of one search phase.
  void search_counters(const SearchCounters& counters);
  /// The registry-backed per-layer metrics of one phase that archived
  /// `docs` signatures.
  void registry_series(const RegistryDelta& delta, std::uint64_t docs);

  bool correct() const;
  /// Writes the full record (both metric sets, checks, counts and the
  /// traced run's self-time table) as JSON.
  void write(const std::string& path, const Options& options,
             const std::vector<LayerTime>& layers) const;

 private:
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Metric> end_to_end_;
  std::vector<Metric> per_layer_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// -------------------------------------------------------------- workloads

void prepare_archive_search(const Options& options);
void prepare_ingest_query(const Options& options);
void run_monitor(const Options& options, Spans& spans, Result& result);
void run_archive_search(const Options& options, Spans& spans, Result& result);
void run_ingest_query(const Options& options, Spans& spans, Result& result);

}  // namespace fmbench
