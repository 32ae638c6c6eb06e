// Workload `archive-search`: read-only retrieval over a large archive that
// has been folded into a single frozen base. The fixture (100k synthetic
// signatures written with add_batch, then refreeze_now) is built by
// `fmeter_bench prepare` in a separate process, together with the program's
// brute-force answers for the checked queries, so neither its memory nor
// its time lands in the measured process.
//
// The measured process opens the archive (set-up), then runs a single
// client's closed loop of scalar top-10 cosine searches (kAuto) for
// --seconds. A traced run gives the last quarter of that to search_batch
// calls of 64 queries, for the exec layer's pooled throughput; an untraced
// run makes one untimed search_batch call, for the batch-versus-scalar
// check. The index and exec kernels and the engine's pool dispatch do
// almost all the work: there are no segments, no ingest and no tracer. At
// ~175 MB of index the working set is larger than the CPU caches.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "fmeter/live_database.hpp"
#include "io/env.hpp"
#include "spans.hpp"

namespace fmbench {
namespace {

namespace core = fmeter::core;

std::size_t archive_docs(const Options& o) { return o.smoke ? 10000 : 100000; }
constexpr std::size_t kTopK = 10;
constexpr std::size_t kQueryPool = 2048;
constexpr std::size_t kBatchQueries = 64;
/// Queries whose answers prepare computes by brute force.
constexpr std::size_t kChecked = 32;
constexpr std::size_t kWarmup = 256;
constexpr int kSetupRepeats = 3;
/// Floor for mean precision@10 (the share of hits in the query's class).
constexpr double kMinPrecisionAt10 = 0.85;

std::string archive_dir(const Options& o) { return o.dir + "/archive"; }
std::string expected_path(const Options& o) { return o.dir + "/expected.txt"; }

using Answers = std::vector<std::vector<core::SearchHit>>;

/// One line per hit: "<query> <id> <label> <score as a hex float>", so the
/// scores round-trip bit for bit.
void write_answers(const std::string& path, const Answers& answers) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write " + path);
  for (std::size_t q = 0; q < answers.size(); ++q) {
    for (const auto& hit : answers[q]) {
      std::fprintf(file, "%zu %zu %s %a\n", q, hit.id, hit.label.c_str(),
                   hit.score);
    }
  }
  if (std::fclose(file) != 0) throw std::runtime_error("cannot write " + path);
}

Answers read_answers(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Answers answers(kChecked);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::size_t q = 0;
    core::SearchHit hit;
    std::string score;
    if (!(fields >> q >> hit.id >> hit.label >> score) || q >= kChecked) {
      throw std::runtime_error("malformed answer line: " + line);
    }
    hit.score = std::strtod(score.c_str(), nullptr);
    answers[q].push_back(std::move(hit));
  }
  return answers;
}

}  // namespace

void prepare_archive_search(const Options& options) {
  const SyntheticArchive model(options.seed);
  std::vector<fmeter::vsm::SparseVector> docs;
  std::vector<std::string> labels;
  const std::size_t n = archive_docs(options);
  docs.reserve(n);
  labels.reserve(n);
  for (std::size_t b = 0; b < n / SyntheticArchive::kBatch; ++b) {
    model.batch(b, docs, labels);
  }
  {
    core::SignatureDatabase reference;
    reference.add_batch(docs, labels);
    Answers answers(kChecked);
    const auto scan = [&](std::size_t first) {
      for (std::size_t q = first; q < kChecked; q += 2) {
        answers[q] = brute_force(reference, model.query(q), kTopK);
      }
    };
    std::thread other(scan, 1);
    scan(0);
    other.join();
    write_answers(expected_path(options), answers);
  }
  core::LiveDatabase archive(fmeter::io::Env::posix(), archive_dir(options));
  load_folded(archive, docs, labels);
}

void run_archive_search(const Options& options, Spans& spans, Result& result) {
  Lane& lane = spans.lane(0);
  const SyntheticArchive model(options.seed);
  const Answers expected = read_answers(expected_path(options));
  std::vector<fmeter::vsm::SparseVector> queries;
  for (std::size_t i = 0; i < kQueryPool; ++i) queries.push_back(model.query(i));

  // ---- set-up: open the prepared directory (snapshot load), repeated.
  std::vector<double> setups;
  std::unique_ptr<core::LiveDatabase> archive;
  RegistryDelta setup_registry;
  for (int r = 0; r < kSetupRepeats; ++r) {
    archive.reset();
    const auto start = Clock::now();
    const Scoped span(lane, "setup.open", static_cast<std::uint64_t>(r));
    archive = std::make_unique<core::LiveDatabase>(fmeter::io::Env::posix(),
                                                   archive_dir(options));
    setups.push_back(seconds_between(start, Clock::now()));
  }
  const auto load = setup_registry.histogram("fmeter_stage_snapshot_load_ns");

  SearchCounters counters;
  core::QueryStats* stats = spans.enabled() ? &counters.stats : nullptr;
  std::vector<core::QueryOutcome> outcomes;
  core::SearchOptions search_options;
  search_options.outcomes = &outcomes;
  const auto count_outcomes = [&] {
    for (const auto outcome : outcomes) {
      if (outcome != core::QueryOutcome::kOk) result.failed(1);
    }
  };

  for (std::size_t i = 0; i < kWarmup; ++i) {
    archive->search(queries[i % kQueryPool], kTopK);
  }

  // ---- scalar phase: one client, closed loop.
  RegistryDelta registry;
  std::vector<double> latency_us;
  Answers scalar_answers(kChecked);
  double precision_sum = 0.0;
  // The scalar phase carries the end-to-end metrics; the batch phase only
  // feeds the exec layer's figures, so only a traced run times it.
  const double scalar_phase_s = options.seconds * (spans.enabled() ? 0.75 : 1.0);
  const double cpu_start = process_cpu_s();
  auto phase_start = Clock::now();
  std::size_t n = 0;
  for (; n < kChecked ||
         seconds_between(phase_start, Clock::now()) < scalar_phase_s;
       ++n) {
    const std::size_t q = n % kQueryPool;
    result.attempted(1);
    try {
      std::vector<core::SearchHit> hits;
      const auto start = Clock::now();
      {
        const Scoped span(lane, "live.search", n);
        hits = archive->search(queries[q], kTopK,
                               core::SimilarityMetric::kCosine,
                               core::PruningMode::kAuto, stats, search_options);
      }
      latency_us.push_back(micros_between(start, Clock::now()));
      count_outcomes();
      precision_sum +=
          static_cast<double>(hits_with_label(
              hits, SyntheticArchive::label(SyntheticArchive::query_class(q)))) /
          static_cast<double>(kTopK);
      if (n < kChecked) scalar_answers[n] = std::move(hits);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "search %zu failed: %s\n", n, e.what());
      result.failed(1);
    }
  }
  const double scalar_cpu_s = process_cpu_s() - cpu_start;
  counters.searches += n;
  if (spans.enabled()) result.registry_series(registry, 0);

  const double rss_mb = peak_rss_mb();

  // ---- batch phase: search_batch over 64 queries per call (one call when
  // untraced).
  Answers batch_answers;
  std::size_t batched = 0;
  double batch_s = 0.0;
  phase_start = Clock::now();
  for (std::size_t b = 0;
       b == 0 || (spans.enabled() && seconds_between(phase_start, Clock::now()) <
                                         options.seconds - scalar_phase_s);
       ++b) {
    const std::size_t first = (b * kBatchQueries) % kQueryPool;
    const std::span<const fmeter::vsm::SparseVector> batch(
        queries.data() + first, kBatchQueries);
    result.attempted(kBatchQueries);
    try {
      const auto start = Clock::now();
      std::vector<std::vector<core::SearchHit>> hits;
      {
        const Scoped span(lane, "live.search_batch", b);
        hits = archive->search_batch(batch, kTopK,
                                     core::SimilarityMetric::kCosine,
                                     core::PruningMode::kAuto, stats,
                                     search_options);
      }
      batch_s += seconds_between(start, Clock::now());
      batched += kBatchQueries;
      count_outcomes();
      if (b == 0) batch_answers = std::move(hits);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "batch %zu failed: %s\n", b, e.what());
      result.failed(kBatchQueries);
    }
  }
  counters.searches += batched;

  result.end_to_end("setup_s", median(setups), "s");
  result.end_to_end("request_us_p50", percentile(latency_us, 50.0), "us");
  result.end_to_end("request_us_p99", percentile(latency_us, 99.0), "us");
  result.end_to_end("cpu_us_per_op",
                    scalar_cpu_s * 1e6 / static_cast<double>(n), "us");
  result.end_to_end("peak_rss_mb", rss_mb, "MB");

  // ---- correctness, outside the timed phases.
  const double precision = precision_sum / static_cast<double>(n);
  result.check("archive.precision_at_10", precision >= kMinPrecisionAt10,
               "precision@10 " + std::to_string(precision));
  std::size_t bad = 0;
  std::string why;
  for (std::size_t q = 0; q < kChecked; ++q) {
    const auto exact = archive->search(queries[q], kTopK,
                                       core::SimilarityMetric::kCosine,
                                       core::PruningMode::kExact);
    const bool ok = same_hits(scalar_answers[q], expected[q], 1e-9, &why) &&
                    same_hits(exact, expected[q], 0.0, &why) &&
                    (batch_answers.size() <= q ||
                     same_hits(batch_answers[q], scalar_answers[q], 0.0, &why));
    if (!ok) {
      ++bad;
      std::fprintf(stderr, "query %zu: %s\n", q, why.c_str());
    }
  }
  result.check("archive.search_matches_brute_force", bad == 0,
               std::to_string(bad) + " of " + std::to_string(kChecked) +
                   " checked queries differ");
  const std::size_t docs = archive_docs(options);
  result.check("archive.archive_size", archive->size() == docs,
               std::to_string(archive->size()) + " docs");

  if (spans.enabled()) {
    result.search_counters(counters);
    result.per_layer("index.snapshot_load_s",
                     load.count > 0 ? static_cast<double>(load.sum) * 1e-9 /
                                          static_cast<double>(load.count)
                                    : 0.0,
                     "s");
    result.per_layer("index.memory_bytes_per_doc",
                     static_cast<double>(archive->stats().memory_bytes) /
                         static_cast<double>(docs),
                     "B");
    result.per_layer("live.recover_s", median(setups), "s");
    // Pooled batches spread over every core, so they move with whatever
    // else runs on the machine: too noisy for an end-to-end bound.
    result.per_layer("exec.batch_qps", static_cast<double>(batched) / batch_s,
                     "1/s");
    result.per_layer("bench.precision_at_10", precision, "ratio");
    result.per_layer("bench.traced_request_us_p50", percentile(latency_us, 50.0),
                     "us");
    result.per_layer("bench.traced_request_us_p99", percentile(latency_us, 99.0),
                     "us");
    const auto searches = spans.durations_us("live.search");
    result.per_layer("live.search_us_p50", percentile(searches, 50.0), "us");
    result.per_layer("live.search_us_p99", percentile(searches, 99.0), "us");
  }
}

}  // namespace fmbench
