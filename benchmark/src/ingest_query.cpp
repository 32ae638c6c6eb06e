// Workload `ingest-query`: ingest beside an open-loop query stream. The
// fixture (`fmeter_bench prepare`) is an archive with a 50k-signature base
// and a 20-batch journal tail; opening it is the set-up.
//
// Then 100-document batches arrive at a fixed offered rate. At the paper's
// signature interval (one signature per machine every 10 s,
// SignatureGenConfig's default) 2k, 5k and 10k signatures/s are the streams
// of 20k, 50k and 100k monitored machines. Beside the writer, a second
// thread sends top-10 queries at a fixed 100 queries/s. Each batch is
// generated just before it is due, outside the timed window; both streams
// are timed from each request's due time, so a stall also charges the
// requests queued behind it, and the generators' lateness is reported.
// Journal appends, segment seals, publishes and the background folds the
// growing tail triggers compete with queries over a moving base plus its
// segments.
//
// An untraced run offers 2k signatures/s for all of --seconds, and the
// end-to-end metrics describe it: at 2k each fold ends before the next is
// due, so folds happen at the same document counts in every run. A traced
// run steps the rate through 2k, 5k and 10k (half of --seconds at 2k, a
// quarter at each of the others) and reports every step with the per-layer
// metrics, with the highest rate that meets the latency limit. From 5k on a
// fold is nearly always in flight, and the segment count (with it query
// latency), CPU per document and memory track fold duration, which no bound
// could hold. Keeping the higher steps out of the untraced run also keeps it
// short. Each step ends by waiting for its last fold, and CPU and memory are
// read then. Afterwards everything is folded, 50 more batches leave a
// journal tail, and the archive is closed and reopened.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>

#include "common.hpp"
#include "fmeter/live_database.hpp"
#include "io/env.hpp"
#include "spans.hpp"

namespace fmbench {
namespace {

namespace core = fmeter::core;

/// One step of the offered ingest rate.
struct Step {
  const char* suffix;    ///< metric name suffix
  double batches_per_s;  ///< 100-document batches per second
  double share;          ///< share of --seconds
};
/// A traced run's schedule.
constexpr std::array<Step, 3> kRamp = {{
    {"_at_2k", 20.0, 0.5}, {"_at_5k", 50.0, 0.25}, {"_at_10k", 100.0, 0.25}}};
/// An untraced run's schedule: the ramp's first rate for the whole run.
constexpr std::array<Step, 1> kSteady = {{{"_at_2k", 20.0, 1.0}}};
/// 100 rather than 50 queries/s, so that over 10 s the p99 rests on 1000
/// queries, ten of them beyond it.
constexpr double kQueriesPerSecond = 100.0;
/// A step meets the latency limit when its query p99 and ingest-lag p99
/// stay within these (an interactive query; a signature searchable within
/// 1% of its 10 s interval, which a growing backlog soon exceeds).
constexpr double kQueryLimitUs = 10e3;
constexpr double kLagLimitUs = 100e3;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kCheckEvery = 100;
constexpr int kSetupRepeats = 3;
constexpr int kReopenRepeats = 3;

/// Fixture sizes, in 100-document batches.
struct Sizes {
  std::size_t base = 500;   ///< 50k docs in the base
  std::size_t tail = 20;    ///< journal tail replayed on the first open
  std::size_t append = 50;  ///< journal tail replayed on the reopen
};

Sizes sizes(const Options& o) { return o.smoke ? Sizes{50, 5, 20} : Sizes{}; }

std::string archive_dir(const Options& o) { return o.dir + "/archive"; }

std::unique_ptr<core::LiveDatabase> open_archive(const Options& options) {
  return std::make_unique<core::LiveDatabase>(fmeter::io::Env::posix(),
                                              archive_dir(options));
}

void ingest(core::LiveDatabase& archive, const SyntheticArchive& model,
            std::size_t b) {
  std::vector<fmeter::vsm::SparseVector> docs;
  std::vector<std::string> labels;
  model.batch(b, docs, labels);
  archive.add_batch(std::move(docs), std::move(labels));
}

Clock::duration period(double per_second) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / per_second));
}

std::size_t count(double seconds, double per_second) {
  return static_cast<std::size_t>(std::max(1.0, seconds * per_second));
}

/// What one step measured.
struct StepResult {
  std::vector<double> lag_us;    ///< per batch, from its due time
  std::vector<double> add_us;    ///< per batch, add_batch alone
  std::vector<double> query_us;  ///< per query, from its due time
  std::size_t docs = 0;          ///< acknowledged
  double late_us = 0.0;          ///< how late either generator ran, at most
  double cpu_s = 0.0;   ///< process CPU, the writer's input generation excluded
  double rss_mb = 0.0;  ///< high-water mark once the step's folds ended
};

struct Sample {
  std::size_t query = 0;
  std::size_t docs = 0;  ///< archive size the search saw
  std::vector<core::SearchHit> hits;
};

}  // namespace

void prepare_ingest_query(const Options& options) {
  const SyntheticArchive model(options.seed);
  const Sizes size = sizes(options);
  std::vector<fmeter::vsm::SparseVector> docs;
  std::vector<std::string> labels;
  for (std::size_t b = 0; b < size.base; ++b) model.batch(b, docs, labels);
  auto archive = open_archive(options);
  load_folded(*archive, docs, labels);
  for (std::size_t t = 0; t < size.tail; ++t) {
    ingest(*archive, model, size.base + t);
  }
}

void run_ingest_query(const Options& options, Spans& spans, Result& result) {
  const SyntheticArchive model(options.seed);
  const std::span<const Step> schedule = spans.enabled()
                                             ? std::span<const Step>(kRamp)
                                             : std::span<const Step>(kSteady);
  std::size_t query_count = 0;
  for (const Step& step : schedule) {
    query_count += count(options.seconds * step.share, kQueriesPerSecond);
  }
  std::vector<fmeter::vsm::SparseVector> queries;
  for (std::size_t i = 0; i < query_count; ++i) queries.push_back(model.query(i));

  // ---- set-up: open the prepared archive (snapshot load + journal replay).
  std::vector<double> setups;
  std::unique_ptr<core::LiveDatabase> archive;
  for (int r = 0; r < kSetupRepeats; ++r) {
    archive.reset();
    const auto start = Clock::now();
    const Scoped span(spans.lane(0), "setup.open", static_cast<std::uint64_t>(r));
    archive = open_archive(options);
    setups.push_back(seconds_between(start, Clock::now()));
  }
  const Sizes size = sizes(options);
  const std::size_t first_batch = size.base + size.tail;
  const std::size_t docs_before = first_batch * SyntheticArchive::kBatch;

  std::atomic<std::uint64_t> failed{0};
  std::vector<StepResult> steps(schedule.size());
  std::vector<Sample> samples;
  SearchCounters counters;
  std::size_t next_batch = first_batch, next_query = 0;

  // ---- measured phase: each step's paced ingest beside open-loop queries.
  RegistryDelta registry;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    StepResult& step = steps[k];
    const double step_s = options.seconds * schedule[k].share;
    const std::size_t batches = count(step_s, schedule[k].batches_per_s);
    const std::size_t step_queries = count(step_s, kQueriesPerSecond);
    double generate_cpu_s = 0.0, ingest_late_us = 0.0, query_late_us = 0.0;
    const double cpu_start = process_cpu_s();
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    std::thread writer([&] {
      Lane& lane = spans.lane(0);
      for (std::size_t i = 0; i < batches; ++i) {
        const std::size_t b = next_batch + i;
        std::vector<fmeter::vsm::SparseVector> docs;
        std::vector<std::string> labels;
        const double generate_start = thread_cpu_s();
        model.batch(b, docs, labels);
        generate_cpu_s += thread_cpu_s() - generate_start;
        const auto due =
            start + static_cast<long>(i) * period(schedule[k].batches_per_s);
        std::this_thread::sleep_until(due);
        const auto begin = Clock::now();
        ingest_late_us = std::max(ingest_late_us, micros_between(due, begin));
        try {
          const Scoped request(lane, "ingest", b, due);
          const Scoped span(lane, "live.add_batch", b);
          archive->add_batch(std::move(docs), std::move(labels));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "batch %zu failed: %s\n", b, e.what());
          failed.fetch_add(1);
          continue;
        }
        const auto end = Clock::now();
        step.lag_us.push_back(micros_between(due, end));
        step.add_us.push_back(micros_between(begin, end));
        step.docs += SyntheticArchive::kBatch;
      }
    });
    std::thread reader([&] {
      Lane& lane = spans.lane(1);
      core::QueryStats* stats = spans.enabled() ? &counters.stats : nullptr;
      std::vector<core::QueryOutcome> outcomes;
      core::SearchOptions search_options;
      search_options.outcomes = &outcomes;
      const auto offset = period(kQueriesPerSecond) / 2;
      for (std::size_t i = 0; i < step_queries; ++i) {
        const std::size_t j = next_query + i;
        const auto due =
            start + offset + static_cast<long>(i) * period(kQueriesPerSecond);
        std::this_thread::sleep_until(due);
        query_late_us = std::max(query_late_us, micros_between(due, Clock::now()));
        try {
          std::vector<core::SearchHit> hits;
          std::size_t docs = 0, segments = 0;
          {
            const Scoped request(lane, "query", j, due);
            const Scoped span(lane, "live.search", j);
            const auto snapshot = archive->snapshot();
            hits = snapshot.search(queries[j], kTopK,
                                   core::SimilarityMetric::kCosine,
                                   core::PruningMode::kAuto, stats,
                                   search_options);
            docs = snapshot.size();
            segments = snapshot.num_segments();
          }
          step.query_us.push_back(micros_between(due, Clock::now()));
          counters.searches += 1;
          counters.segments_probed += segments;
          for (const auto outcome : outcomes) {
            if (outcome != core::QueryOutcome::kOk) failed.fetch_add(1);
          }
          if (j % kCheckEvery == 0) samples.push_back({j, docs, std::move(hits)});
        } catch (const std::exception& e) {
          std::fprintf(stderr, "query %zu failed: %s\n", j, e.what());
          failed.fetch_add(1);
        }
      }
    });
    writer.join();
    reader.join();
    archive->wait_for_refreeze();
    step.cpu_s = process_cpu_s() - cpu_start - generate_cpu_s;
    step.rss_mb = peak_rss_mb();
    step.late_us = std::max(ingest_late_us, query_late_us);
    result.attempted(batches + step_queries);
    next_batch += batches;
    next_query += step_queries;
  }
  result.failed(failed.load());
  std::size_t acknowledged = 0;
  double ramp_cpu_s = 0.0, late_us = 0.0;
  std::vector<double> lag_us, add_us;
  for (const StepResult& step : steps) {
    acknowledged += step.docs;
    ramp_cpu_s += step.cpu_s;
    late_us = std::max(late_us, step.late_us);
    lag_us.insert(lag_us.end(), step.lag_us.begin(), step.lag_us.end());
    add_us.insert(add_us.end(), step.add_us.begin(), step.add_us.end());
  }
  if (spans.enabled()) result.registry_series(registry, acknowledged);

  // ---- fold everything, then leave a journal tail for the reopen.
  archive->refreeze_now();
  std::size_t appended = 0;
  for (std::size_t i = 0; i < size.append; ++i) {
    result.attempted(1);
    try {
      ingest(*archive, model, next_batch + i);
      appended += SyntheticArchive::kBatch;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "appended batch %zu failed: %s\n", i, e.what());
      result.failed(1);
    }
  }
  const std::size_t expected_docs = docs_before + acknowledged + appended;
  result.check("ingest.archive_size", archive->size() == expected_docs,
               std::to_string(archive->size()) + " docs, acknowledged " +
                   std::to_string(expected_docs));
  const auto memory = archive->stats().memory_bytes;

  // ---- close and reopen (snapshot load + journal replay).
  archive.reset();
  const double disk_bytes = static_cast<double>(directory_bytes(archive_dir(options)));
  std::vector<double> reopens;
  RegistryDelta reopen_registry;
  std::uint64_t replayed = 0;
  // The size check needs one reopen; live.recover_s is the median of three.
  const int reopen_repeats = spans.enabled() ? kReopenRepeats : 1;
  for (int r = 0; r < reopen_repeats; ++r) {
    archive.reset();
    const auto begin = Clock::now();
    const Scoped span(spans.lane(0), "reopen", static_cast<std::uint64_t>(r));
    archive = open_archive(options);
    reopens.push_back(seconds_between(begin, Clock::now()));
    replayed = archive->recovery().journal_records_replayed;
  }
  result.check("ingest.archive_size_after_reopen",
               archive->size() == expected_docs,
               std::to_string(archive->size()) + " docs after reopen, want " +
                   std::to_string(expected_docs));
  archive.reset();

  const StepResult& steady = steps.front();
  const auto per_doc_us = [](double cpu_s, std::size_t docs) {
    return cpu_s * 1e6 / static_cast<double>(std::max<std::size_t>(docs, 1));
  };
  result.end_to_end("setup_s", median(setups), "s");
  result.end_to_end("request_us_p50", percentile(steady.query_us, 50.0), "us");
  result.end_to_end("request_us_p99", percentile(steady.query_us, 99.0), "us");
  result.end_to_end("cpu_us_per_op", per_doc_us(steady.cpu_s, steady.docs), "us");
  result.end_to_end("peak_rss_mb", steady.rss_mb, "MB");
  if (!spans.enabled()) {
    // The traced run's 2k step is the first half of this run's schedule:
    // its latencies against these give the tracing overhead.
    const std::vector<double> first_half(
        steady.query_us.begin(),
        steady.query_us.begin() + static_cast<long>(steady.query_us.size() / 2));
    result.per_layer("bench.first_half_request_us_p50",
                     percentile(first_half, 50.0), "us");
    result.per_layer("bench.first_half_request_us_p99",
                     percentile(first_half, 99.0), "us");
  }

  // ---- correctness: sampled searches against a brute-force scan over
  // exactly the documents each search saw (regenerated from the seed).
  {
    core::SignatureDatabase reference;
    std::size_t reference_batch = 0, bad = 0;
    std::string why;
    std::sort(samples.begin(), samples.end(),
              [](const Sample& a, const Sample& b) { return a.docs < b.docs; });
    for (const Sample& sample : samples) {
      while (reference.size() < sample.docs) {
        std::vector<fmeter::vsm::SparseVector> docs;
        std::vector<std::string> labels;
        model.batch(reference_batch++, docs, labels);
        for (std::size_t d = 0; d < docs.size(); ++d) {
          reference.add(std::move(docs[d]), std::move(labels[d]));
        }
      }
      const auto want = brute_force(reference, queries[sample.query], kTopK);
      if (reference.size() != sample.docs ||
          !same_hits(sample.hits, want, 1e-9, &why)) {
        ++bad;
        std::fprintf(stderr, "query %zu: %s\n", sample.query, why.c_str());
      }
    }
    result.check("ingest.search_matches_brute_force",
                 bad == 0 && !samples.empty(),
                 std::to_string(bad) + " of " + std::to_string(samples.size()) +
                     " sampled searches differ");
  }

  if (spans.enabled()) {
    double max_rate = 0.0;
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      const double query_p99 = percentile(steps[k].query_us, 99.0);
      const double lag_p99 = percentile(steps[k].lag_us, 99.0);
      const std::string suffix = schedule[k].suffix;
      result.per_layer("bench.query_us_p50" + suffix,
                       percentile(steps[k].query_us, 50.0), "us");
      result.per_layer("bench.query_us_p99" + suffix, query_p99, "us");
      result.per_layer("bench.ingest_lag_us_p99" + suffix, lag_p99, "us");
      if (query_p99 <= kQueryLimitUs && lag_p99 <= kLagLimitUs) {
        max_rate = schedule[k].batches_per_s * SyntheticArchive::kBatch;
      }
    }
    result.per_layer("bench.max_ingest_rate_within_limit", max_rate, "1/s");
    result.per_layer("bench.ramp_cpu_us_per_doc",
                     per_doc_us(ramp_cpu_s, acknowledged), "us");
    result.per_layer("bench.ramp_peak_rss_mb", steps.back().rss_mb, "MB");
    result.search_counters(counters);
    const auto load = reopen_registry.histogram("fmeter_stage_snapshot_load_ns");
    result.per_layer("index.snapshot_load_s",
                     load.count > 0 ? static_cast<double>(load.sum) * 1e-9 /
                                          static_cast<double>(load.count)
                                    : 0.0,
                     "s");
    result.per_layer("index.memory_bytes_per_doc",
                     static_cast<double>(memory) /
                         static_cast<double>(expected_docs),
                     "B");
    result.per_layer("io.disk_bytes_per_doc",
                     disk_bytes / static_cast<double>(expected_docs), "B");
    result.per_layer("live.recover_s", median(reopens), "s");
    result.per_layer("live.recovered_journal_records",
                     static_cast<double>(replayed), "count");
    result.per_layer("bench.ingest_lag_us_p50", percentile(lag_us, 50.0), "us");
    result.per_layer("bench.generator_late_us_max", late_us, "us");
    result.per_layer("bench.traced_request_us_p50",
                     percentile(steady.query_us, 50.0), "us");
    result.per_layer("bench.traced_request_us_p99",
                     percentile(steady.query_us, 99.0), "us");
    result.per_layer("live.add_batch_us_p50", percentile(add_us, 50.0), "us");
    result.per_layer("live.add_batch_us_p99", percentile(add_us, 99.0), "us");
    const auto searches = spans.durations_us("live.search");
    result.per_layer("live.search_us_p50", percentile(searches, 50.0), "us");
    result.per_layer("live.search_us_p99", percentile(searches, 99.0), "us");
  }
}

}  // namespace fmbench
