// What the live archive sustains: streaming ingest throughput while
// serving a concurrent query load (ISSUE 10's tentpole ledger).
//
// SignatureDatabase's add_batch copies every shard of one shared index and
// merges the batch into it, so its per-batch cost grows with the archive.
// LiveDatabase seals each batch into a small frozen segment ladder (merged
// by size, O(log tail) segments) and publishes an immutable epoch, so
// amortized per-batch cost is O(batch * log tail), independent of the
// base's size — and queries keep serving from pinned epochs the whole
// time. This bench measures the three-way contract:
//
//   ingest        — pure streaming ingest, no queries: the sigs/sec the
//                   epoch design sustains (journaled with an fsync per
//                   batch, background re-freezes folding the tail);
//   idle          — query latency against the finished archive with no
//                   ingest running: the p99 reference;
//   ingest+query  — a fresh archive ingested at full speed while a paced
//                   query stream serves from pinned snapshots: sustained
//                   sigs/sec under load, served-query p99, and
//                   `p99_vs_idle` — the paired same-run ratio
//                   bench_check.py gates at <= 2x (machine-relative, so
//                   it transfers to CI the way absolute microseconds
//                   do not).
//
// Measurement methodology (both idle and loaded, so the ratio compares
// like with like): the query stream is duty-cycle paced — a ~10%-of-one-
// core monitoring load, the shape of an operator dashboard, not a
// CPU-saturating spin — and each latency sample is the minimum of three
// back-to-back runs of the same query against the same pinned snapshot.
// On the 1-2 core runners
// this bench lives on, a free-running second thread measures the kernel
// scheduler's timeslices (a single involuntary deschedule adds ~4ms to
// whatever query it lands on), not the archive; min-of-three strips that
// noise while keeping everything the archive actually contributes:
// segment-count growth, fold interference, epoch-pin overhead.
//
// Every row carries the host's hardware thread count (`cores`) and the
// exact path's scoring kernel (`simd`).
//
// Usage: bench_live_ingest_scaling [max_docs]   (e.g. 10000 as a CI smoke)
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "exec/task_pool.hpp"
#include "fmeter/live_database.hpp"
#include "index/inverted_index.hpp"
#include "io/env.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace {

constexpr std::uint32_t kDimension = 3800;
constexpr std::size_t kNnz = 120;
constexpr std::size_t kClasses = 11;
constexpr std::size_t kShards = 4;
// Group commit fsyncs once per add_batch, so the batch size sets the
// fsync amortization: 100-doc batches leave ingest fsync-bound well below
// the epoch design's capacity. 4000 matches a logging daemon that flushes
// several seconds of intervals at a time.
constexpr std::size_t kBatchDocs = 4000;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kIdleSamples = 200;
/// The one-doc-batch row: an always-on monitor's tail just below the
/// default refreeze_min_docs (4096), where it is longest before a fold.
constexpr std::size_t kOneDocBatches = 4000;
// The query stream is duty-cycle paced: after each sample it sleeps nine
// times the sample's own wall time, bounding the monitoring load at ~10%
// of one core regardless of archive size or machine speed. A fixed-wall
// pace does not transfer: at the 100k rung one min-of-three sample costs
// ~2.7ms of CPU, so any fixed pace tight enough to gather samples at 10k
// turns into a near-saturating duty cycle at 100k on a 1-2 core runner,
// and the bench measures core-sharing instead of the archive. The same
// pacing applies idle and loaded so the p99 ratio compares like with
// like.
constexpr double kQueryDutySleepFactor = 9.0;
constexpr auto kQueryMinPace = std::chrono::milliseconds(2);

void duty_cycle_sleep(double sample_seconds) {
  const auto scaled = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(sample_seconds * kQueryDutySleepFactor));
  std::this_thread::sleep_for(std::max<std::chrono::steady_clock::duration>(
      scaled, kQueryMinPace));
}

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Batch {
  std::vector<fmeter::vsm::SparseVector> signatures;
  std::vector<std::string> labels;
};

std::vector<Batch> synthetic_batches(std::size_t docs) {
  fmeter::util::Rng rng(0x11fe);
  const fmeter::util::ZipfDistribution zipf(kDimension, 1.1);
  const auto perms =
      fmeter::bench::class_permutations(rng, kClasses, kDimension);
  std::vector<Batch> batches((docs + kBatchDocs - 1) / kBatchDocs);
  std::size_t doc = 0;
  for (Batch& batch : batches) {
    const std::size_t take = std::min(kBatchDocs, docs - doc);
    for (std::size_t i = 0; i < take; ++i, ++doc) {
      batch.signatures.push_back(fmeter::bench::synthetic_class_signature(
          rng, zipf, perms[doc % kClasses], kNnz));
      batch.labels.push_back("class-" + std::to_string(doc % kClasses));
    }
  }
  return batches;
}

std::vector<fmeter::vsm::SparseVector> synthetic_queries(std::size_t count) {
  fmeter::util::Rng rng(0x9e17);
  const fmeter::util::ZipfDistribution zipf(kDimension, 1.1);
  const auto perms =
      fmeter::bench::class_permutations(rng, kClasses, kDimension);
  std::vector<fmeter::vsm::SparseVector> queries;
  queries.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    queries.push_back(fmeter::bench::synthetic_class_signature(
        rng, zipf, perms[q % kClasses], kNnz));
  }
  return queries;
}

/// One latency sample: the same query served three times from the same
/// pinned snapshot, keeping the fastest. A query takes ~100us, far below
/// the scheduler's preemption granularity, so at least one of the three
/// runs deschedule-free and the minimum estimates the archive's intrinsic
/// service time rather than the timeslice lottery.
double sample_query_us(const fmeter::core::LiveDatabase::Snapshot& snapshot,
                       const fmeter::vsm::SparseVector& query) {
  double best_us = 1e30;
  for (int run = 0; run < 3; ++run) {
    const auto start = std::chrono::steady_clock::now();
    const auto hits = snapshot.search(query, kTopK);
    best_us = std::min(best_us, seconds_since(start) * 1e6);
    if (hits.size() > kTopK) std::abort();  // contract, not a measurement
  }
  return best_us;
}

void remove_tree(const std::string& dir) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t parsed = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 0;
  const std::size_t max_docs = parsed > 0 ? parsed : 100000;

  fmeter::bench::print_banner(
      "live_ingest_scaling: epoch-swapped streaming ingest under query load",
      "continuous monitoring needs an archive that ingests every interval "
      "without ever blocking the queries diagnosing the current one");

  const auto tmp = std::filesystem::temp_directory_path();
  fmeter::io::Env& env = fmeter::io::Env::posix();
  const auto queries = synthetic_queries(64);
  // Every row records the host's hardware threads and scoring kernel:
  // ingest, fold and query rates mean little without them.
  std::printf("hardware threads: %u, scoring kernel: %s\n\n",
              fmeter::bench::host_cores(),
              fmeter::index::InvertedIndex::scoring_kernel());

  std::printf("%8s %-14s %10s %12s %9s %9s %9s\n", "docs", "mode", "seconds",
              "sigs_per_s", "p50us", "p99us", "p99/idle");

  std::vector<fmeter::bench::ShapeCheck> checks;
  std::vector<fmeter::bench::JsonRow> json_rows;

  for (const std::size_t docs : {std::size_t{10000}, std::size_t{100000}}) {
    if (docs > max_docs) break;
    const auto batches = synthetic_batches(docs);
    const std::string dir =
        (tmp / ("fmeter_live_bench_" + std::to_string(docs))).string();
    fmeter::exec::TaskPool pool(2);
    fmeter::core::LiveOptions options;
    options.num_shards = kShards;
    options.pool = &pool;
    // Re-freeze tuning: each fold rebuilds the whole base (O(archive)),
    // so on the 1-2 cores this bench runs on the fold cadence is the knob
    // that trades ingest CPU against reader-visible segment count. The
    // tail-triples-the-base fraction gives a deterministic fold schedule
    // at both rungs (one fold at 10k; two at 100k, near 8k and ~50k docs)
    // with every fold landing well before the rung ends — a growth
    // fraction below ~1 puts a final O(archive) fold right at the 100k
    // mark, where firing-or-not flips run to run on fold-commit timing
    // and swings measured ingest by ~15%.
    options.refreeze_min_docs = 8000;
    options.refreeze_fraction = 3.0;

    // -- Phase 1: pure streaming ingest ------------------------------------
    remove_tree(dir);
    auto db = std::make_unique<fmeter::core::LiveDatabase>(env, dir, options);
    auto t_start = std::chrono::steady_clock::now();
    for (const Batch& batch : batches) {
      db->add_batch(batch.signatures, batch.labels);
    }
    const double ingest_seconds = seconds_since(t_start);
    const double ingest_rate = static_cast<double>(docs) / ingest_seconds;
    db->wait_for_refreeze();
    const auto ingest_refreezes = db->refreezes();
    std::printf("%8zu %-14s %10.2f %12.0f %9s %9s %9s\n", docs, "ingest",
                ingest_seconds, ingest_rate, "-", "-", "-");
    json_rows.push_back(
        {fmeter::bench::jnum("docs", static_cast<double>(docs)),
         fmeter::bench::jnum("shards", kShards),
         fmeter::bench::jstr("mode", "ingest"),
         fmeter::bench::jnum("seconds", ingest_seconds),
         fmeter::bench::jnum("sigs_per_sec", ingest_rate),
         fmeter::bench::jnum("refreezes",
                             static_cast<double>(ingest_refreezes))});

    // -- Phase 2: idle query baseline on the finished archive --------------
    std::vector<double> idle_us;
    idle_us.reserve(kIdleSamples);
    for (std::size_t r = 0; r < kIdleSamples; ++r) {
      const double us =
          sample_query_us(db->snapshot(), queries[r % queries.size()]);
      idle_us.push_back(us);
      duty_cycle_sleep(3.0 * us * 1e-6);
    }
    const auto idle = fmeter::bench::percentiles_of(idle_us);
    std::printf("%8zu %-14s %10s %12s %9.1f %9.1f %9s\n", docs, "idle", "-",
                "-", idle.p50, idle.p99, "-");
    json_rows.push_back(
        {fmeter::bench::jnum("docs", static_cast<double>(docs)),
         fmeter::bench::jnum("shards", kShards),
         fmeter::bench::jstr("mode", "idle"),
         fmeter::bench::jnum("queries_served",
                             static_cast<double>(idle_us.size() * 3)),
         fmeter::bench::jnum("us_p50", idle.p50),
         fmeter::bench::jnum("us_p95", idle.p95),
         fmeter::bench::jnum("us_p99", idle.p99)});
    db.reset();

    // -- Phase 3: full-speed ingest while serving the paced query load ----
    remove_tree(dir);
    db = std::make_unique<fmeter::core::LiveDatabase>(env, dir, options);
    std::atomic<bool> ingest_done{false};
    std::vector<double> served_us;
    std::thread querier([&] {
      // The monitoring load: one paced query per wake against a freshly
      // pinned snapshot, for the whole ingest and the trailing fold. A
      // query against a still-empty archive returns in ~0.2us and would
      // drown the distribution in meaningless samples, so only probes of
      // actual documents count.
      std::size_t cursor = 0;
      while (!ingest_done.load(std::memory_order_relaxed)) {
        const auto snapshot = db->snapshot();
        if (snapshot.size() == 0) {
          std::this_thread::sleep_for(kQueryMinPace);
          continue;
        }
        const double us =
            sample_query_us(snapshot, queries[cursor++ % queries.size()]);
        served_us.push_back(us);
        duty_cycle_sleep(3.0 * us * 1e-6);
      }
    });
    t_start = std::chrono::steady_clock::now();
    for (const Batch& batch : batches) {
      db->add_batch(batch.signatures, batch.labels);
    }
    const double loaded_seconds = seconds_since(t_start);
    // Keep the query stream running through the trailing background fold —
    // query-during-refreeze is the epoch design's whole point.
    db->wait_for_refreeze();
    ingest_done.store(true, std::memory_order_relaxed);
    querier.join();
    const double loaded_rate = static_cast<double>(docs) / loaded_seconds;
    const auto served = fmeter::bench::percentiles_of(served_us);
    const double p99_vs_idle = idle.p99 > 0.0 ? served.p99 / idle.p99 : 0.0;
    std::printf("%8zu %-14s %10.2f %12.0f %9.1f %9.1f %9.2f\n", docs,
                "ingest+query", loaded_seconds, loaded_rate, served.p50,
                served.p99, p99_vs_idle);
    json_rows.push_back(
        {fmeter::bench::jnum("docs", static_cast<double>(docs)),
         fmeter::bench::jnum("shards", kShards),
         fmeter::bench::jstr("mode", "ingest+query"),
         fmeter::bench::jnum("seconds", loaded_seconds),
         fmeter::bench::jnum("sigs_per_sec", loaded_rate),
         fmeter::bench::jnum("refreezes",
                             static_cast<double>(db->refreezes())),
         fmeter::bench::jnum("queries_served",
                             static_cast<double>(served_us.size() * 3)),
         fmeter::bench::jnum("us_p50", served.p50),
         fmeter::bench::jnum("us_p95", served.p95),
         fmeter::bench::jnum("us_p99", served.p99),
         fmeter::bench::jnum("p99_vs_idle", p99_vs_idle)});

    checks.push_back(
        {"every signature archived under concurrent load at " +
             std::to_string(docs),
         db->size() == docs});
    checks.push_back(
        {"background re-freeze folded the tail at " + std::to_string(docs),
         db->refreezes() >= 1});
    // The two perf gates hold at the 100k acceptance rung. The 10k smoke
    // rung is too small to gate: its fully folded idle base answers in
    // ~50us, so the ratio denominator sits inside scheduler noise, and a
    // single mid-fold sample decides p99.
    if (docs >= 100000) {
      checks.push_back(
          {"sustained ingest >= 50k sigs/sec under query load at " +
               std::to_string(docs),
           loaded_rate >= 50000.0});
      checks.push_back(
          {"served-query p99 within 2x of idle p99 at " +
               std::to_string(docs),
           p99_vs_idle <= 2.0});
    }

    // Reopen the loaded archive once (smallest rung only — recovery cost
    // has its own bench): the journal + snapshot must replay every doc.
    if (docs == 10000) {
      db.reset();
      fmeter::core::LiveDatabase reopened(env, dir, options);
      checks.push_back({"reopen recovers the full archive at 10000",
                        reopened.size() == docs});
      db = nullptr;
    }
    db.reset();
    remove_tree(dir);
  }

  // -- One-doc batches: the always-on monitor's shape ----------------------
  // One signature per add_batch, no fold: the segment ladder must keep the
  // tail at most floor(log2(tail)) + 1 segments, so an idle query probes a
  // handful of segments instead of one per batch.
  {
    const auto batches = synthetic_batches(kOneDocBatches);
    const std::string dir = (tmp / "fmeter_live_bench_one_doc").string();
    remove_tree(dir);
    fmeter::core::LiveOptions options;
    options.background_refreeze = false;
    // The row measures shape, not fsync.
    options.durability = fmeter::core::Durability::kAsync;
    fmeter::core::LiveDatabase db(env, dir, options);
    const auto t_start = std::chrono::steady_clock::now();
    for (const Batch& batch : batches) {
      for (std::size_t i = 0; i < batch.signatures.size(); ++i) {
        db.add_batch({batch.signatures[i]}, {batch.labels[i]});
      }
    }
    const double seconds = seconds_since(t_start);
    const auto stats = db.stats();
    std::vector<double> idle_us;
    for (std::size_t r = 0; r < kIdleSamples; ++r) {
      idle_us.push_back(
          sample_query_us(db.snapshot(), queries[r % queries.size()]));
    }
    const auto idle = fmeter::bench::percentiles_of(idle_us);
    std::printf("%8zu %-14s %10.2f %12.0f %9.1f %9.1f %9s  (%zu segments)\n",
                stats.tail_docs, "one-doc idle", seconds,
                static_cast<double>(stats.tail_docs) / seconds, idle.p50,
                idle.p99, "-", stats.segments);
    json_rows.push_back(
        {fmeter::bench::jnum("docs", static_cast<double>(stats.tail_docs)),
         fmeter::bench::jnum("batch_docs", 1),
         fmeter::bench::jstr("mode", "one-doc-idle"),
         fmeter::bench::jnum("seconds", seconds),
         fmeter::bench::jnum("segments", static_cast<double>(stats.segments)),
         fmeter::bench::jnum("us_p50", idle.p50),
         fmeter::bench::jnum("us_p99", idle.p99)});
    checks.push_back(
        {"one-doc batches keep segments <= log2(tail)+1 at " +
             std::to_string(stats.tail_docs),
         stats.segments <=
             static_cast<std::size_t>(std::bit_width(stats.tail_docs))});
    remove_tree(dir);
  }

  fmeter::bench::emit_json("BENCH_live.json", "live_ingest_scaling",
                           json_rows);
  std::printf("\nwrote BENCH_live.json (%zu rows)\n", json_rows.size());
  return fmeter::bench::print_shape_checks(checks);
}
