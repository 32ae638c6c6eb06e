// Robustness cost and payoff on the serving path (ISSUE 9):
//
//  1. checkpoint — what the always-armed cooperative checkpoints cost.
//     The same pinned 64-query stream is swept through the engine twice
//     per repetition, back to back: once with no deadline (the unchanged
//     pre-robustness instruction stream) and once under a far-future
//     deadline that keeps every checkpoint polling but never fires.
//     overhead_vs_off is the median of the per-rep process-CPU-time ratios:
//     pairing cancels machine drift between reps (the query_engine_scaling
//     / durability_scaling discipline) and CPU time keeps the resolution
//     below the 2% gate on shared hosts where wall clock cannot. Gated at <= 2% on the ladder's full corpus (both in the
//     binary's shape checks and by tools/bench_check.py --overhead-ceiling
//     against the committed BENCH_robustness.json).
//
//  2. shedload — what admission control buys under adversarial load.
//     A serving stream where 1 in 16 queries is pathologically dense (an
//     order of magnitude more posting mass than the honest ones) is pushed
//     through a SignatureDatabase scalar-search loop with load shedding
//     off and then on (per-query cost cap between the honest and heavy
//     cost estimates). With shedding off, the heavy queries own the tail;
//     with shedding on they are rejected at the front door before touching
//     a shard, and the p99 an honest caller sees collapses back toward the
//     honest median. The rejected count is reported so the shed rate is
//     auditable.
//
// Results stay trustworthy: the deadline-armed sweep must return hits
// bit-identical to the unarmed sweep before any ratio is reported.
//
// Usage: bench_robustness_scaling [--docs N | N]
//   e.g. `bench_robustness_scaling --docs 10000` as a CI smoke; the full
//   ladder is 10k/100k signatures.
// Writes machine-readable results to BENCH_robustness.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "exec/query_engine.hpp"
#include "exec/sharded_index.hpp"
#include "fmeter/database.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/zipf.hpp"
#include "vsm/sparse_vector.hpp"

namespace {

using fmeter::core::SignatureDatabase;
using fmeter::exec::Deadline;
using fmeter::exec::PruningMode;
using fmeter::exec::QueryEngine;
using fmeter::exec::QueryStats;
using fmeter::exec::RunOptions;
using fmeter::exec::ShardedIndex;

constexpr std::uint32_t kDimension = 3800;  // core-kernel function count, §2.1
constexpr std::size_t kNnz = 200;           // function samples per interval
constexpr std::size_t kTopK = 10;
constexpr std::size_t kClasses = 11;
constexpr std::size_t kShards = 4;
constexpr std::size_t kBatch = 16;
/// The robustness bargain: always-armed checkpoints may cost at most this
/// fraction of the no-deadline serving path at the ladder's full corpus.
constexpr double kOverheadCeiling = 0.02;
/// One query in this many of the shedload stream is adversarially dense.
constexpr std::size_t kHeavyEvery = 16;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Sweeps the whole query stream through `engine` in kBatch-sized chunks
/// under `options`; returns elapsed process CPU seconds. CPU time, not
/// wall clock: the 2% ceiling needs a resolution below what wall clock
/// delivers on a shared host, and process CPU time counts the work itself
/// (summed across pool workers) instead of whoever preempted it — the same
/// reasoning as bench_common's time_op_cpu_us.
double sweep_cpu_seconds(const QueryEngine& engine,
                         const std::vector<fmeter::vsm::SparseVector>& queries,
                         PruningMode mode, const RunOptions& options) {
  const std::span<const fmeter::vsm::SparseVector> all(queries);
  const double start = fmeter::util::cpu_micros();
  for (std::size_t begin = 0; begin < all.size(); begin += kBatch) {
    const auto chunk =
        all.subspan(begin, std::min(kBatch, all.size() - begin));
    (void)engine.run_batch(chunk, kTopK, fmeter::exec::Metric::kCosine, mode,
                           nullptr, options);
  }
  return (fmeter::util::cpu_micros() - start) / 1e6;
}

/// Hit lists of the full stream under `options` — the bit-identity witness.
std::vector<std::vector<fmeter::exec::IndexHit>> sweep_hits(
    const QueryEngine& engine,
    const std::vector<fmeter::vsm::SparseVector>& queries, PruningMode mode,
    const RunOptions& options) {
  std::vector<std::vector<fmeter::exec::IndexHit>> out;
  const std::span<const fmeter::vsm::SparseVector> all(queries);
  for (std::size_t begin = 0; begin < all.size(); begin += kBatch) {
    const auto chunk =
        all.subspan(begin, std::min(kBatch, all.size() - begin));
    auto hits = engine.run_batch(chunk, kTopK, fmeter::exec::Metric::kCosine,
                                 mode, nullptr, options);
    for (auto& list : hits) out.push_back(std::move(list));
  }
  return out;
}

bool hits_identical(
    const std::vector<std::vector<fmeter::exec::IndexHit>>& a,
    const std::vector<std::vector<fmeter::exec::IndexHit>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t r = 0; r < a[q].size(); ++r) {
      if (a[q][r].doc != b[q][r].doc || a[q][r].score != b[q][r].score) {
        return false;
      }
    }
  }
  return true;
}

std::size_t parse_docs(int argc, char** argv) {
  for (int arg = 1; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--docs") == 0 && arg + 1 < argc) {
      return std::strtoul(argv[arg + 1], nullptr, 10);
    }
  }
  if (argc > 1 && argv[1][0] != '-') {
    return std::strtoul(argv[1], nullptr, 10);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t parsed = parse_docs(argc, argv);
  const std::size_t max_corpus = parsed > 0 ? parsed : 100000;

  fmeter::bench::print_banner(
      "robustness_scaling: checkpoint overhead and load-shedding payoff",
      "compute-path robustness — deadlines and admission control must be "
      "cheap when idle and decisive under overload");

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware threads: %u\n\n", cores);

  // Pinned query stream, drawn before any corpus material (the
  // query_engine_scaling discipline): every run times the same queries.
  fmeter::util::Rng query_rng(0xf33d5eed);
  const fmeter::util::ZipfDistribution zipf(kDimension, 1.1);
  const auto perms =
      fmeter::bench::class_permutations(query_rng, kClasses, kDimension);
  std::vector<fmeter::vsm::SparseVector> queries;
  for (std::size_t i = 0; i < 64; ++i) {
    queries.push_back(fmeter::bench::synthetic_class_signature(
        query_rng, zipf, perms[i % kClasses], kNnz));
  }
  // The shedload stream: honest queries with every kHeavyEvery-th replaced
  // by a dense adversary touching an order of magnitude more posting mass.
  fmeter::util::Rng heavy_rng(0xbad10ad);
  std::vector<fmeter::vsm::SparseVector> shed_stream;
  std::size_t heavy_count = 0;
  for (std::size_t i = 0; i < 128; ++i) {
    if (i % kHeavyEvery == 0) {
      shed_stream.push_back(fmeter::bench::synthetic_class_signature(
          heavy_rng, zipf, perms[i % kClasses], kNnz * 10));
      ++heavy_count;
    } else {
      shed_stream.push_back(fmeter::bench::synthetic_class_signature(
          heavy_rng, zipf, perms[i % kClasses], kNnz));
    }
  }

  fmeter::util::Rng corpus_rng(0x5ca1e);
  std::vector<std::size_t> corpus_sizes;
  for (const std::size_t size : {std::size_t{10000}, std::size_t{100000}}) {
    if (size <= max_corpus) corpus_sizes.push_back(size);
  }
  if (corpus_sizes.empty()) corpus_sizes.push_back(max_corpus);

  std::vector<fmeter::vsm::SparseVector> signatures;
  std::vector<fmeter::bench::ShapeCheck> checks;
  std::vector<fmeter::bench::JsonRow> json_rows;

  for (const std::size_t corpus : corpus_sizes) {
    while (signatures.size() < corpus) {
      signatures.push_back(fmeter::bench::synthetic_class_signature(
          corpus_rng, zipf, perms[signatures.size() % kClasses], kNnz));
    }
    const int reps = corpus >= 100000 ? 8 : 10;
    const std::span<const fmeter::vsm::SparseVector> corpus_span(
        signatures.data(), corpus);

    // ---- phase 1: checkpoint overhead -----------------------------------
    // Bulk-ingested => frozen serving layout.
    const ShardedIndex index = ShardedIndex(kShards).appended(corpus_span);
    const QueryEngine engine(index);

    // A deadline that keeps every checkpoint armed but can never fire
    // within the run: the cost being measured is the polling, not a stop.
    const RunOptions unarmed{};
    RunOptions armed;
    armed.deadline = Deadline::after(std::chrono::hours(24));

    std::printf("%10s %7s %8s %12s %12s %12s %8s\n", "corpus", "phase",
                "kernel", "off_us/q", "armed_us/q", "overhead", "polls");
    for (const auto mode : {PruningMode::kExact, PruningMode::kMaxScore}) {
      const char* kernel =
          mode == PruningMode::kExact ? "exact" : "pruned";
      // Armed checkpoints must not change a single bit of any hit list.
      const bool identical =
          hits_identical(sweep_hits(engine, queries, mode, unarmed),
                         sweep_hits(engine, queries, mode, armed));
      checks.push_back({"deadline-armed " + std::string(kernel) +
                            " sweep bit-identical to unarmed at " +
                            std::to_string(corpus),
                        identical});

      (void)sweep_cpu_seconds(engine, queries, mode, unarmed);  // warmup
      (void)sweep_cpu_seconds(engine, queries, mode, armed);
      std::vector<double> off_s, armed_s, ratios;
      for (int r = 0; r < reps; ++r) {
        // Alternate which side of the pair runs first: whoever runs second
        // inherits a warmer cache, and with a fixed order that bias shows
        // up as a phantom ±2% "overhead" — larger than the effect gated.
        double off, on;
        if (r % 2 == 0) {
          off = sweep_cpu_seconds(engine, queries, mode, unarmed);
          on = sweep_cpu_seconds(engine, queries, mode, armed);
        } else {
          on = sweep_cpu_seconds(engine, queries, mode, armed);
          off = sweep_cpu_seconds(engine, queries, mode, unarmed);
        }
        off_s.push_back(off);
        armed_s.push_back(on);
        ratios.push_back(on / off - 1.0);
      }
      const double off_us = fmeter::util::percentile(off_s, 50.0) * 1e6 /
                            static_cast<double>(queries.size());
      const double armed_us = fmeter::util::percentile(armed_s, 50.0) * 1e6 /
                              static_cast<double>(queries.size());
      const double overhead = fmeter::util::percentile(ratios, 50.0);
      QueryStats armed_stats;
      RunOptions counted = armed;
      {  // untimed counter sweep: how often the checkpoints actually poll
        const std::span<const fmeter::vsm::SparseVector> all(queries);
        for (std::size_t begin = 0; begin < all.size(); begin += kBatch) {
          const auto chunk =
              all.subspan(begin, std::min(kBatch, all.size() - begin));
          (void)engine.run_batch(chunk, kTopK, fmeter::exec::Metric::kCosine,
                                 mode, &armed_stats, counted);
        }
      }
      std::printf("%10zu %7s %8s %12.1f %12.1f %11.2f%% %8zu\n", corpus,
                  "chkpt", kernel, off_us, armed_us, 100.0 * overhead,
                  armed_stats.checkpoint_polls);
      json_rows.push_back(
          {fmeter::bench::jnum("docs", static_cast<double>(corpus)),
           fmeter::bench::jnum("shards", kShards),
           fmeter::bench::jstr("phase", "checkpoint"),
           fmeter::bench::jstr("kernel", kernel),
           fmeter::bench::jstr("mode", "off"),
           fmeter::bench::jnum("us_per_query", off_us)});
      json_rows.push_back(
          {fmeter::bench::jnum("docs", static_cast<double>(corpus)),
           fmeter::bench::jnum("shards", kShards),
           fmeter::bench::jstr("phase", "checkpoint"),
           fmeter::bench::jstr("kernel", kernel),
           fmeter::bench::jstr("mode", "deadline"),
           fmeter::bench::jnum("us_per_query", armed_us),
           fmeter::bench::jnum("overhead_vs_off", overhead),
           fmeter::bench::jnum(
               "checkpoint_polls",
               static_cast<double>(armed_stats.checkpoint_polls))});
      // The ceiling is enforced at the ladder's full size only: smoke runs
      // (sanitizers, truncated --docs) are too short for a 2% resolution.
      if (corpus >= 100000) {
        checks.push_back(
            {"armed checkpoints cost <= 2% over no-deadline (" +
                 std::string(kernel) + " at " + std::to_string(corpus) +
                 ": " + std::to_string(100.0 * overhead) + "%)",
             overhead <= kOverheadCeiling});
      }
    }

    // ---- phase 2: load shedding under adversarial heavy queries ---------
    SignatureDatabase db(kShards);
    {
      std::vector<fmeter::vsm::SparseVector> batch(corpus_span.begin(),
                                                   corpus_span.end());
      std::vector<std::string> labels;
      labels.reserve(corpus);
      for (std::size_t i = 0; i < corpus; ++i) {
        labels.push_back("class-" + std::to_string(i % kClasses));
      }
      db.add_batch(std::move(batch), std::move(labels));
    }
    // Cost cap between the honest and adversarial estimates, from the same
    // model the dispatcher trusts.
    double honest_cost = 0.0, heavy_cost = 1e300;
    for (std::size_t i = 0; i < shed_stream.size(); ++i) {
      const double cost = QueryEngine::estimated_query_cost(
          *db.index(), shed_stream[i], kTopK, fmeter::exec::Metric::kCosine,
          PruningMode::kMaxScore);
      if (i % kHeavyEvery == 0) {
        heavy_cost = std::min(heavy_cost, cost);
      } else {
        honest_cost = std::max(honest_cost, cost);
      }
    }
    const bool separable = honest_cost < heavy_cost;
    checks.push_back({"cost model separates honest from heavy queries at " +
                          std::to_string(corpus),
                      separable});

    struct ShedResult {
      fmeter::bench::LatencyPercentiles latency_us;
      std::size_t rejected = 0;
    };
    const auto run_stream = [&](bool shed) {
      ShedResult result;
      db.set_admission(
          {.max_inflight_queries = 0,
           .max_query_cost_docs =
               shed ? (honest_cost + heavy_cost) / 2.0 : 0.0});
      std::vector<double> latencies;
      QueryStats stats;
      for (int warm = 0; warm < 2; ++warm) {  // warmup: caches + arenas
        (void)db.search(shed_stream.front(), kTopK);
      }
      for (const auto& query : shed_stream) {
        const auto start = std::chrono::steady_clock::now();
        (void)db.search(query, kTopK, fmeter::core::SimilarityMetric::kCosine,
                        fmeter::core::ScanPolicy::kIndexed,
                        PruningMode::kMaxScore, &stats);
        latencies.push_back(seconds_since(start) * 1e6);
      }
      result.latency_us = fmeter::bench::percentiles_of(latencies);
      result.rejected = static_cast<std::size_t>(stats.rejected);
      db.set_admission({});
      return result;
    };
    const ShedResult shed_off = run_stream(false);
    const ShedResult shed_on = run_stream(true);

    std::printf(
        "%10zu %7s %8s p50 %8.1fus p95 %8.1fus p99 %8.1fus rejected %zu\n",
        corpus, "shed", "off", shed_off.latency_us.p50,
        shed_off.latency_us.p95, shed_off.latency_us.p99, shed_off.rejected);
    std::printf(
        "%10zu %7s %8s p50 %8.1fus p95 %8.1fus p99 %8.1fus rejected %zu\n\n",
        corpus, "shed", "on", shed_on.latency_us.p50, shed_on.latency_us.p95,
        shed_on.latency_us.p99, shed_on.rejected);
    for (const auto& [mode_name, result] :
         {std::pair<const char*, const ShedResult&>{"shed_off", shed_off},
          {"shed_on", shed_on}}) {
      json_rows.push_back(
          {fmeter::bench::jnum("docs", static_cast<double>(corpus)),
           fmeter::bench::jnum("shards", kShards),
           fmeter::bench::jstr("phase", "shedload"),
           fmeter::bench::jstr("mode", mode_name),
           fmeter::bench::jnum("us_per_query", result.latency_us.p50),
           fmeter::bench::jnum("us_p50", result.latency_us.p50),
           fmeter::bench::jnum("us_p95", result.latency_us.p95),
           fmeter::bench::jnum("us_p99", result.latency_us.p99),
           fmeter::bench::jnum("rejected",
                               static_cast<double>(result.rejected))});
    }
    checks.push_back({"shedding rejects exactly the heavy queries at " +
                          std::to_string(corpus) + " (" +
                          std::to_string(shed_on.rejected) + "/" +
                          std::to_string(heavy_count) + ")",
                      shed_on.rejected == heavy_count &&
                          shed_off.rejected == 0});
    checks.push_back(
        {"shedding pulls p99 below the unshed tail at " +
             std::to_string(corpus),
         shed_on.latency_us.p99 < shed_off.latency_us.p99});
  }

  fmeter::bench::emit_json("BENCH_robustness.json", "robustness_scaling",
                           json_rows);
  std::printf("wrote BENCH_robustness.json (%zu rows)\n", json_rows.size());
  return fmeter::bench::print_shape_checks(checks);
}
