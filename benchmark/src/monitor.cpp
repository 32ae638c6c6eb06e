// Workload `monitor`: the paper's always-on daemon (§1, §3) as a closed
// loop. One simulated machine with Fmeter armed runs five workload classes,
// switching class every 25 intervals. Every interval goes counters ->
// SignatureCollector::roll_interval -> TfIdfModel::transform ->
// LiveDatabase::add_batch (one document, fsync per epoch) ->
// classify_by_syndrome -> top-10 Snapshot::search for precedents.
//
// It is the only workload that exercises the simulated kernel and tracer,
// the collector's debugfs text round-trip, per-interval fsync, and the live
// archive's per-segment fan-out: the Nth search of a pass probes about N
// one-document segments (see kIntervalsPerPass for why passes end in a
// forced fold). The archive stays under 4k documents and fits in cache.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>

#include "common.hpp"
#include "fmeter/fmeter.hpp"
#include "io/env.hpp"
#include "spans.hpp"

namespace fmbench {
namespace {

using fmeter::workloads::WorkloadKind;
namespace core = fmeter::core;

constexpr std::array<WorkloadKind, 5> kClasses = {
    WorkloadKind::kApachebench, WorkloadKind::kDbench, WorkloadKind::kKcompile,
    WorkloadKind::kScp, WorkloadKind::kNetperf151};
constexpr std::size_t kBootstrapPerClass = 100;
constexpr std::size_t kSmokeBootstrapPerClass = 20;
constexpr std::uint64_t kUnitsPerInterval = 30;
constexpr std::size_t kSwitchEvery = 25;
constexpr std::size_t kTopK = 10;
/// Loop length is a fixed function of --seconds, never of elapsed time: the
/// Nth search probes ~N segments, so a time-bounded loop would hand a
/// faster program a larger archive and hide its gain.
constexpr double kIntervalsPerSecond = 120.0;
/// Every pass of this many intervals ends with an untimed refreeze_now(),
/// so each pass probes the same 0..1200 segment range and a longer run adds
/// passes, not fan-out. The default policy folds only once the tail holds
/// more than 4096 documents (refreeze_min_docs), i.e. after ~3600 intervals
/// here. A search over N one-document segments costs ~12 us per segment, so
/// a run through one whole default cycle would spend ~25 ms per search and
/// close to two minutes in all, beyond the 110 s run.py allows one run. A
/// pass is the first ~30% of that cycle, where the fan-out is lightest.
constexpr std::size_t kIntervalsPerPass = 1200;
constexpr std::size_t kCheckEvery = 50;
constexpr int kSetupRepeats = 3;
/// Calibration: alternating vanilla/Fmeter blocks of the same unit mix.
constexpr int kCalibrationPairs = 30;
constexpr std::uint64_t kCalibrationUnitsPerClass = 6;
/// Floor for the syndrome verdict accuracy (exact for a given seed; every
/// seed measured while sizing the workload stayed above it).
constexpr double kMinClassifyAccuracy = 0.90;

struct Monitor {
  std::unique_ptr<core::MonitoredSystem> system;
  fmeter::vsm::TfIdfModel model;
  std::unique_ptr<core::SignatureDatabase> syndromes;
  std::unique_ptr<core::LiveDatabase> archive;
  std::vector<fmeter::vsm::SparseVector> mirror;  ///< every archived doc
  std::vector<std::string> mirror_labels;
};

/// Set-up as an operator would do it: collect a labelled bootstrap corpus,
/// fit tf-idf, build the syndrome database and seed the live archive.
Monitor bootstrap(const Options& options, const std::string& dir, Lane& lane) {
  const Scoped setup(lane, "setup", 0);
  Monitor m;
  m.system = std::make_unique<core::MonitoredSystem>();
  fmeter::vsm::Corpus corpus;
  {
    const Scoped span(lane, "setup.collect", 0);
    core::SignatureGenConfig gen;
    gen.signatures_per_workload =
        options.smoke ? kSmokeBootstrapPerClass : kBootstrapPerClass;
    gen.units_per_interval = kUnitsPerInterval;
    gen.seed = options.seed;
    corpus = core::collect_signatures(*m.system, kClasses, gen);
  }
  {
    const Scoped span(lane, "setup.fit", 0);
    m.mirror = core::signatures_from(corpus, {}, &m.model);
  }
  for (const auto& doc : corpus.documents()) m.mirror_labels.push_back(doc.label);
  {
    const Scoped span(lane, "setup.syndromes", 0);
    m.syndromes = std::make_unique<core::SignatureDatabase>();
    m.syndromes->add_batch(m.mirror, m.mirror_labels);
    m.syndromes->classify_by_syndrome(m.mirror.front());  // builds centroids
  }
  {
    const Scoped span(lane, "setup.open", 0);
    m.archive = std::make_unique<core::LiveDatabase>(
        fmeter::io::Env::posix(), dir, core::LiveOptions{});
  }
  {
    const Scoped span(lane, "setup.seed", 0);
    m.archive->add_batch(m.mirror, m.mirror_labels);
  }
  return m;
}

struct Sample {
  std::size_t interval = 0;
  fmeter::vsm::SparseVector query;
  core::LiveDatabase::Snapshot snapshot;
  std::vector<core::SearchHit> hits;
};

/// Median over paired blocks of thread CPU per unit, vanilla vs Fmeter,
/// alternating which side runs first.
void calibrate(Monitor& m, Lane& lane, Result& result) {
  auto& system = *m.system;
  auto& cpu = system.kernel().cpu(0);
  std::vector<std::unique_ptr<fmeter::workloads::Workload>> mix;
  for (const auto kind : kClasses) {
    mix.push_back(fmeter::workloads::make_workload(kind, system.ops()));
  }
  const double units =
      static_cast<double>(kCalibrationUnitsPerClass * kClasses.size());
  const auto block = [&](core::TracerKind kind, const char* name, int pair) {
    system.select_tracer(kind);
    const Scoped span(lane, name, static_cast<std::uint64_t>(pair));
    const double start = thread_cpu_s();
    for (auto& workload : mix) {
      for (std::uint64_t u = 0; u < kCalibrationUnitsPerClass; ++u) {
        workload->run_unit(cpu);
      }
    }
    return (thread_cpu_s() - start) * 1e6 / units;
  };
  std::vector<double> vanilla, added, overhead;
  for (int pair = 0; pair < kCalibrationPairs; ++pair) {
    double v = 0.0, f = 0.0;
    if (pair % 2 == 0) {
      v = block(core::TracerKind::kVanilla, "calibrate.vanilla", pair);
      f = block(core::TracerKind::kFmeter, "calibrate.fmeter", pair);
    } else {
      f = block(core::TracerKind::kFmeter, "calibrate.fmeter", pair);
      v = block(core::TracerKind::kVanilla, "calibrate.vanilla", pair);
    }
    vanilla.push_back(v);
    added.push_back(f - v);
    overhead.push_back((f / v - 1.0) * 100.0);
  }
  system.select_tracer(core::TracerKind::kFmeter);
  result.per_layer("simkern.unit_cpu_us", median(vanilla), "us");
  result.per_layer("trace.unit_cpu_us", median(added), "us");
  result.per_layer("trace.overhead_pct", median(overhead), "%");
}

}  // namespace

void run_monitor(const Options& options, Spans& spans, Result& result) {
  Lane& lane = spans.lane(0);
  const std::string dir = options.dir + "/monitor-archive";

  // ---- set-up, repeated; the last repetition is the one that runs.
  std::vector<double> setups;
  Monitor m;
  for (int r = 0; r < kSetupRepeats; ++r) {
    m = Monitor();
    remove_tree(dir);
    const auto start = Clock::now();
    m = bootstrap(options, dir, lane);
    setups.push_back(seconds_between(start, Clock::now()));
  }
  const std::size_t bootstrap_docs = m.mirror.size();

  auto& system = *m.system;
  auto& cpu = system.kernel().cpu(0);
  std::vector<std::unique_ptr<fmeter::workloads::Workload>> classes;
  for (const auto kind : kClasses) {
    classes.push_back(fmeter::workloads::make_workload(kind, system.ops()));
    classes.back()->warmup(cpu);
  }
  core::SignatureCollector collector(system.debugfs());
  collector.begin_interval();

  const auto intervals = static_cast<std::size_t>(
      std::max(1.0, options.seconds * kIntervalsPerSecond));
  Rng rng(options.seed, 7);
  std::array<std::size_t, kClasses.size()> order{};
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<double> verdict_us;
  verdict_us.reserve(intervals);
  std::vector<Sample> samples;
  std::size_t acknowledged = 0, correct_verdicts = 0;
  double calls = 0.0;
  SearchCounters counters;
  core::QueryStats* stats = spans.enabled() ? &counters.stats : nullptr;
  std::vector<core::QueryOutcome> outcomes;
  core::SearchOptions search_options;
  search_options.outcomes = &outcomes;

  // Sampled searches against a brute-force scan over the documents their
  // snapshot held. Run at the end of each pass, so that no pinned snapshot
  // keeps a folded pass's segments alive.
  core::SignatureDatabase reference;
  std::size_t checked = 0, bad = 0;
  const auto check_samples = [&] {
    std::string why;
    for (const Sample& sample : samples) {
      while (reference.size() < sample.snapshot.size()) {
        reference.add(m.mirror[reference.size()],
                      m.mirror_labels[reference.size()]);
      }
      const auto want = brute_force(reference, sample.query, kTopK);
      const auto exact = sample.snapshot.search(
          sample.query, kTopK, core::SimilarityMetric::kCosine,
          core::PruningMode::kExact);
      if (!same_hits(sample.hits, want, 1e-9, &why) ||
          !same_hits(exact, want, 0.0, &why)) {
        ++bad;
        std::fprintf(stderr, "interval %zu: %s\n", sample.interval, why.c_str());
      }
    }
    checked += samples.size();
    samples.clear();
  };

  // ---- measured loop.
  RegistryDelta registry;
  double untimed_cpu_s = 0.0;
  const double cpu_start = process_cpu_s();
  for (std::size_t i = 0; i < intervals; ++i) {
    if (i > 0 && i % kIntervalsPerPass == 0) {
      // Untimed: check the pass, then fold its one-document segments.
      const double pause_cpu_start = process_cpu_s();
      check_samples();
      m.archive->refreeze_now();
      untimed_cpu_s += process_cpu_s() - pause_cpu_start;
    }
    const std::size_t block = i / kSwitchEvery;
    if (i % kSwitchEvery == 0 && block % order.size() == 0) {
      for (std::size_t j = order.size(); j > 1; --j) {
        std::swap(order[j - 1], order[rng.below(j)]);
      }
    }
    const std::size_t cls = order[block % order.size()];
    auto& workload = *classes[cls];
    const std::string label = workload.name();
    const auto noise = static_cast<std::uint64_t>(rng.uniform(200.0, 2500.0));
    {
      const Scoped span(lane, "simkern.units", i);
      for (std::uint64_t u = 0; u < kUnitsPerInterval; ++u) workload.run_unit(cpu);
      system.ops().background_noise(cpu, noise);
      system.ops().create_write_close(cpu, 1);
    }

    result.attempted(1);
    try {
      const auto start = Clock::now();
      fmeter::vsm::SparseVector signature;
      std::string verdict;
      std::vector<core::SearchHit> hits;
      std::size_t segments = 0;
      std::optional<core::LiveDatabase::Snapshot> pinned;
      {
        const Scoped span(lane, "verdict", i);
        fmeter::vsm::CountDocument doc;
        {
          const Scoped s(lane, "collector.roll", i);
          doc = collector.roll_interval(label, 10.0);
        }
        {
          const Scoped s(lane, "vsm.transform", i);
          signature = m.model.transform(doc);
        }
        {
          const Scoped s(lane, "live.add_batch", i);
          m.archive->add_batch({signature}, {label});
        }
        ++acknowledged;
        {
          const Scoped s(lane, "database.classify", i);
          verdict = m.syndromes->classify_by_syndrome(signature);
        }
        {
          const Scoped s(lane, "live.search", i);
          const auto snapshot = m.archive->snapshot();
          hits = snapshot.search(signature, kTopK,
                                 core::SimilarityMetric::kCosine,
                                 core::PruningMode::kAuto, stats,
                                 search_options);
          segments = snapshot.num_segments();
          if (i % kCheckEvery == 0) pinned = snapshot;
        }
        if (spans.enabled()) calls += static_cast<double>(doc.total());
      }
      verdict_us.push_back(micros_between(start, Clock::now()));
      correct_verdicts += verdict == label;
      counters.searches += 1;
      counters.segments_probed += segments;
      for (const auto outcome : outcomes) {
        if (outcome != core::QueryOutcome::kOk) result.failed(1);
      }
      m.mirror.push_back(signature);
      m.mirror_labels.push_back(label);
      if (pinned) samples.push_back({i, signature, *pinned, std::move(hits)});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "interval %zu failed: %s\n", i, e.what());
      result.failed(1);
    }
  }
  const double loop_cpu_s = process_cpu_s() - cpu_start - untimed_cpu_s;
  const double rss_mb = peak_rss_mb();
  check_samples();
  const auto memory = m.archive->stats().memory_bytes;

  result.end_to_end("setup_s", median(setups), "s");
  result.end_to_end("request_us_p50", percentile(verdict_us, 50.0), "us");
  result.end_to_end("request_us_p99", percentile(verdict_us, 99.0), "us");
  result.end_to_end("cpu_us_per_op",
                    loop_cpu_s * 1e6 / static_cast<double>(intervals), "us");
  result.end_to_end("peak_rss_mb", rss_mb, "MB");

  // ---- correctness, outside the timed loop.
  const double accuracy = static_cast<double>(correct_verdicts) /
                          static_cast<double>(intervals);
  result.check("monitor.classify_accuracy", accuracy >= kMinClassifyAccuracy,
               "accuracy " + std::to_string(accuracy));
  result.check("monitor.search_matches_brute_force", bad == 0 && checked > 0,
               std::to_string(bad) + " of " + std::to_string(checked) +
                   " sampled searches differ");
  const std::size_t expected_docs = bootstrap_docs + acknowledged;
  result.check("monitor.archive_size", m.archive->size() == expected_docs,
               std::to_string(m.archive->size()) + " docs, acknowledged " +
                   std::to_string(expected_docs));

  if (spans.enabled()) {
    result.search_counters(counters);
    result.registry_series(registry, intervals);
    result.per_layer("trace.calls_per_interval",
                     calls / static_cast<double>(intervals), "count");
    result.per_layer("index.memory_bytes_per_doc",
                     static_cast<double>(memory) /
                         static_cast<double>(expected_docs),
                     "B");
    result.per_layer("bench.classify_accuracy", accuracy, "ratio");
    result.per_layer("bench.traced_request_us_p50", percentile(verdict_us, 50.0),
                     "us");
    result.per_layer("bench.traced_request_us_p99", percentile(verdict_us, 99.0),
                     "us");
    for (const char* layer : {"collector.roll", "vsm.transform",
                              "database.classify"}) {
      result.per_layer(std::string(layer) + "_us_p50",
                       median(spans.durations_us(layer)), "us");
    }
    const auto adds = spans.durations_us("live.add_batch");
    const auto searches = spans.durations_us("live.search");
    result.per_layer("live.add_batch_us_p50", percentile(adds, 50.0), "us");
    result.per_layer("live.add_batch_us_p99", percentile(adds, 99.0), "us");
    result.per_layer("live.search_us_p50", percentile(searches, 50.0), "us");
    result.per_layer("live.search_us_p99", percentile(searches, 99.0), "us");
    calibrate(m, lane, result);
  }

  // ---- reopen: the archive must hold every acknowledged document.
  m.archive.reset();
  const double disk_bytes = static_cast<double>(directory_bytes(dir));
  RegistryDelta reopen_registry;
  const auto reopen_start = Clock::now();
  core::LiveDatabase reopened(fmeter::io::Env::posix(), dir);
  const double reopen_s = seconds_between(reopen_start, Clock::now());
  result.check("monitor.archive_size_after_reopen",
               reopened.size() == expected_docs,
               std::to_string(reopened.size()) + " docs after reopen, want " +
                   std::to_string(expected_docs));
  if (spans.enabled()) {
    result.per_layer("io.disk_bytes_per_doc",
                     disk_bytes / static_cast<double>(expected_docs), "B");
    result.per_layer("live.recover_s", reopen_s, "s");
    result.per_layer("index.snapshot_load_s",
                     static_cast<double>(
                         reopen_registry.histogram("fmeter_stage_snapshot_load_ns")
                             .sum) * 1e-9,
                     "s");
    result.per_layer("live.recovered_journal_records",
                     static_cast<double>(
                         reopened.recovery().journal_records_replayed),
                     "count");
  }
}

}  // namespace fmbench
