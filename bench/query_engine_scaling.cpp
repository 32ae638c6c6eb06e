// Query-engine throughput vs. shard count, batch size and pruning mode.
//
// PR 1's bench (index_scaling) showed the inverted index beating the linear
// scan; this one shows the execution layer serving that index: the same
// synthetic tf-idf corpus as bench_index_scaling (eleven behavior classes
// with per-class Zipf permutations, log-normal weight magnitudes — Figure
// 1's power-law call counts) is served through exec::QueryEngine at every
// combination of shard count {1,2,4,8}, batch size {1,16,64} and
// PruningMode {exact, max-score}. Indexes are built with the parallel bulk
// ingest (appended) and therefore frozen — the serving-path layout every
// real archive ends up in.
//
// Two things keep the numbers honest on noisy hosts:
//  * The query stream is pinned: generated once, from its own fixed-seed
//    RNG, before any corpus material — every variant, every corpus size
//    and every run replays the same 64 queries.
//  * speedup_vs_scalar is measured PAIRED: each timed repetition runs the
//    variant sweep and immediately the scalar baseline sweep (1 shard,
//    batch 1, exact, through the engine), and the reported speedup is the
//    median of per-rep ratios. Machine-speed drift between reps cancels
//    instead of polluting the ratio.
//
// Exact results are bit-identical across all configurations; max-score
// results carry the same documents in the same order with scores within
// 1e-9 (both checked below before any throughput number is trusted).
//
// The engine seeds each shard's pruning threshold from the running global
// top-k floor, so later shards inherit earlier shards' floor. The
// seeded-vs-independent section quantifies that with deterministic
// counters: the same queries are pushed through the shards sequentially
// once with the floor carried across shards and once with every shard
// pruning on its own, and the total work (posting entries visited plus
// forward-store re-scoring) must not grow — and the scored-doc count must
// shrink at scale.
//
// Usage: bench_query_engine_scaling [--docs N | N]
//   e.g. `bench_query_engine_scaling --docs 5000` as a CI smoke; the full
//   ladder is 10k/100k signatures.
// Writes machine-readable results to BENCH_query_engine.json. Every row
// carries the host's hardware thread count (`cores`): dispatch_pooled and
// the multi-shard speedups only mean parallelism when it is above 1. It
// also carries the exact path's scoring kernel (`simd`), which sets the
// exact rows' cost per posting.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/query_engine.hpp"
#include "exec/sharded_index.hpp"
#include "index/inverted_index.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/zipf.hpp"
#include "vsm/sparse_vector.hpp"

namespace {

using fmeter::exec::PruneStats;
using fmeter::exec::PruningMode;
using fmeter::exec::QueryEngine;
using fmeter::exec::QueryStats;
using fmeter::exec::ShardedIndex;

constexpr std::uint32_t kDimension = 3800;  // core-kernel function count, §2.1
constexpr std::size_t kNnz = 200;           // function samples per interval
constexpr std::size_t kTopK = 10;
constexpr std::size_t kClasses = 11;
constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};
constexpr std::size_t kBatchSizes[] = {1, 16, 64};
/// Every (shards, batch, mode) cell must stay within this factor of the
/// scalar baseline — sharding is allowed to cost a little at batch 1 on a
/// starved host, but a real regression fails the bench (and CI).
constexpr double kSpeedupFloor = 0.9;

fmeter::vsm::SparseVector synthetic_signature(
    fmeter::util::Rng& rng, const fmeter::util::ZipfDistribution& zipf,
    const std::vector<std::uint32_t>& perm) {
  return fmeter::bench::synthetic_class_signature(rng, zipf, perm, kNnz);
}

/// One timed configuration, measured paired against the scalar baseline.
struct CellTiming {
  double qps = 0.0;       ///< median queries/sec over the reps
  double speedup = 0.0;   ///< median per-rep (baseline time / variant time)
  fmeter::bench::LatencyPercentiles latency_us;  ///< per-query, per-chunk
  QueryStats stats;       ///< counters from one untimed sweep
};

/// Runs the whole query set through `engine` in chunks of `batch`. When
/// `latency_us` is given, each chunk's wall time is recorded as
/// microseconds-per-query samples (one sample per chunk — the latency a
/// caller submitting that batch would see, amortized over its queries).
void sweep(const QueryEngine& engine,
           const std::vector<fmeter::vsm::SparseVector>& queries,
           std::size_t batch, PruningMode mode, QueryStats* stats,
           std::vector<double>* latency_us = nullptr) {
  const std::span<const fmeter::vsm::SparseVector> all(queries);
  for (std::size_t begin = 0; begin < all.size(); begin += batch) {
    const auto chunk = all.subspan(begin, std::min(batch, all.size() - begin));
    if (latency_us != nullptr) {
      const auto start = std::chrono::steady_clock::now();
      (void)engine.run_batch(chunk, kTopK, fmeter::exec::Metric::kCosine, mode,
                             stats);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      latency_us->push_back(us / static_cast<double>(chunk.size()));
    } else {
      (void)engine.run_batch(chunk, kTopK, fmeter::exec::Metric::kCosine, mode,
                             stats);
    }
  }
}

/// Times `engine` at (batch, mode) with the scalar baseline interleaved:
/// every rep measures the variant sweep and immediately the baseline sweep
/// (1 shard, batch 1, exact), so the reported speedup is a ratio of two
/// back-to-back measurements, immune to slow drift in machine load.
CellTiming measure_cell(const QueryEngine& engine, const QueryEngine& baseline,
                        const std::vector<fmeter::vsm::SparseVector>& queries,
                        std::size_t batch, PruningMode mode, int reps) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_of = [&](const QueryEngine& e, std::size_t b,
                              PruningMode m, std::vector<double>* latency) {
    const auto start = Clock::now();
    sweep(e, queries, b, m, nullptr, latency);
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  sweep(engine, queries, batch, mode, nullptr);       // warmup variant
  sweep(baseline, queries, 1, PruningMode::kExact, nullptr);  // warmup base
  std::vector<double> qps_samples, ratio_samples, latency_samples;
  qps_samples.reserve(static_cast<std::size_t>(reps));
  ratio_samples.reserve(static_cast<std::size_t>(reps));
  latency_samples.reserve(static_cast<std::size_t>(reps) *
                          (queries.size() / std::max<std::size_t>(batch, 1) + 1));
  for (int r = 0; r < reps; ++r) {
    const double variant = seconds_of(engine, batch, mode, &latency_samples);
    const double scalar = seconds_of(baseline, 1, PruningMode::kExact, nullptr);
    qps_samples.push_back(static_cast<double>(queries.size()) / variant);
    ratio_samples.push_back(scalar / variant);
  }
  CellTiming timing;
  timing.qps = fmeter::util::percentile(qps_samples, 50.0);
  timing.speedup = fmeter::util::percentile(ratio_samples, 50.0);
  timing.latency_us = fmeter::bench::percentiles_of(latency_samples);
  sweep(engine, queries, batch, mode, &timing.stats);  // untimed counters
  return timing;
}

/// Exact configurations must return bit-identical hits; pruned ones the
/// same documents in the same order with scores within 1e-9. Verify a
/// sample against the 1-shard scalar exact reference before trusting any
/// throughput number.
bool results_equivalent(const QueryEngine& reference, const QueryEngine& engine,
                        PruningMode mode,
                        const std::vector<fmeter::vsm::SparseVector>& queries) {
  const std::size_t sample = std::min<std::size_t>(4, queries.size());
  const auto batched = engine.run_batch({queries.data(), sample}, kTopK,
                                        fmeter::exec::Metric::kCosine, mode);
  for (std::size_t q = 0; q < sample; ++q) {
    const auto expected = reference.run(queries[q], kTopK);
    if (batched[q].size() != expected.size()) return false;
    for (std::size_t r = 0; r < expected.size(); ++r) {
      if (batched[q][r].doc != expected[r].doc) return false;
      if (mode == PruningMode::kExact
              ? batched[q][r].score != expected[r].score
              : std::abs(batched[q][r].score - expected[r].score) > 1e-9) {
        return false;
      }
    }
  }
  return true;
}

/// Pushes `queries` through every shard sequentially, once carrying the
/// top-k score floor across shards (what the engine's threshold seeding
/// does, made deterministic) and once with every shard pruning
/// independently. Returns the two counter sets.
struct SeedingComparison {
  PruneStats seeded;
  PruneStats independent;
  bool results_match = true;
};

SeedingComparison compare_seeding(
    const ShardedIndex& index,
    const std::vector<fmeter::vsm::SparseVector>& queries) {
  SeedingComparison cmp;
  fmeter::index::TopKScratch scratch;
  for (const auto& query : queries) {
    std::vector<fmeter::exec::IndexHit> seeded_hits, independent_hits;
    double floor = fmeter::index::InvertedIndex::kNoSeed;
    for (std::size_t s = 0; s < index.num_shards(); ++s) {
      auto hits = index.shard(s).top_k_pruned(
          query, kTopK, fmeter::exec::Metric::kCosine, &scratch, floor,
          &cmp.seeded);
      if (hits.size() == kTopK) floor = std::max(floor, hits.back().score);
      for (auto& hit : hits) {
        hit.doc = index.global_of(s, hit.doc);
        seeded_hits.push_back(hit);
      }
    }
    for (std::size_t s = 0; s < index.num_shards(); ++s) {
      auto hits = index.shard(s).top_k_pruned(
          query, kTopK, fmeter::exec::Metric::kCosine, &scratch,
          fmeter::index::InvertedIndex::kNoSeed, &cmp.independent);
      for (auto& hit : hits) {
        hit.doc = index.global_of(s, hit.doc);
        independent_hits.push_back(hit);
      }
    }
    // Both merges must produce the same global top-k.
    const auto merge = [](std::vector<fmeter::exec::IndexHit> hits) {
      std::sort(hits.begin(), hits.end(), fmeter::index::ranks_better);
      if (hits.size() > kTopK) hits.resize(kTopK);
      return hits;
    };
    const auto from_seeded = merge(std::move(seeded_hits));
    const auto from_independent = merge(std::move(independent_hits));
    if (from_seeded.size() != from_independent.size()) {
      cmp.results_match = false;
      continue;
    }
    for (std::size_t r = 0; r < from_seeded.size(); ++r) {
      if (from_seeded[r].doc != from_independent[r].doc ||
          std::abs(from_seeded[r].score - from_independent[r].score) > 1e-9) {
        cmp.results_match = false;
      }
    }
  }
  return cmp;
}

/// Total cost model of a pruned execution: posting entries walked plus
/// forward-store re-scoring work (docs scored × average doc nnz).
double pruned_work(const PruneStats& stats, const ShardedIndex& index) {
  const double avg_nnz =
      index.size() > 0 ? static_cast<double>(index.num_postings()) /
                             static_cast<double>(index.size())
                       : 0.0;
  return static_cast<double>(stats.postings_visited) +
         avg_nnz * static_cast<double>(stats.docs_scored);
}

std::size_t parse_docs(int argc, char** argv) {
  for (int arg = 1; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--docs") == 0 && arg + 1 < argc) {
      return std::strtoul(argv[arg + 1], nullptr, 10);
    }
  }
  // Positional form kept for existing CI invocations.
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
      "query_engine_scaling: sharded + batched + pruned execution vs. scalar",
      "§1/§2.2 — indexable signatures, served shard-parallel with max-score");

  const unsigned cores = fmeter::bench::host_cores();
  std::printf("hardware threads: %u, scoring kernel: %s\n\n", cores,
              fmeter::index::InvertedIndex::scoring_kernel());

  // The query stream is its own RNG, drawn before anything else: corpus
  // growth or bench restructuring can never shift which queries run.
  fmeter::util::Rng query_rng(0xf33d5eed);
  const fmeter::util::ZipfDistribution zipf(kDimension, 1.1);
  const auto perms =
      fmeter::bench::class_permutations(query_rng, kClasses, kDimension);
  std::vector<fmeter::vsm::SparseVector> queries;
  for (std::size_t i = 0; i < 64; ++i) {
    queries.push_back(synthetic_signature(query_rng, zipf, perms[i % kClasses]));
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

  std::printf("%10s %7s %7s %8s %14s %9s %9s %7s\n", "corpus", "shards",
              "batch", "mode", "queries/s", "speedup", "dispatch", "spans");
  for (const std::size_t corpus : corpus_sizes) {
    while (signatures.size() < corpus) {
      signatures.push_back(synthetic_signature(
          corpus_rng, zipf, perms[signatures.size() % kClasses]));
    }
    const int reps = corpus >= 100000 ? 3 : 5;
    const std::span<const fmeter::vsm::SparseVector> corpus_span(
        signatures.data(), corpus);

    // Bulk-ingested (frozen) 1-shard index: the equivalence reference and
    // the scalar baseline every ratio is paired against.
    ShardedIndex reference_index(1);
    reference_index = reference_index.appended(corpus_span);
    const QueryEngine reference(reference_index);

    double baseline_qps = 0.0;
    double best_parallel_qps = 0.0;
    double min_speedup = 1e300;
    bool all_equivalent = true;
    for (const std::size_t shards : kShardCounts) {
      ShardedIndex sharded(shards);
      if (shards > 1) sharded = sharded.appended(corpus_span);
      const ShardedIndex& index = shards == 1 ? reference_index : sharded;
      const QueryEngine engine(index);
      for (const auto mode : {PruningMode::kExact, PruningMode::kMaxScore}) {
        all_equivalent = all_equivalent &&
                         results_equivalent(reference, engine, mode, queries);
        const char* mode_name =
            mode == PruningMode::kExact ? "exact" : "pruned";
        for (const std::size_t batch : kBatchSizes) {
          const CellTiming cell =
              measure_cell(engine, reference, queries, batch, mode, reps);
          if (shards == 1 && batch == 1 && mode == PruningMode::kExact) {
            baseline_qps = cell.qps;
          }
          if (shards > 1 && batch > 1) {
            best_parallel_qps = std::max(best_parallel_qps, cell.qps);
          }
          min_speedup = std::min(min_speedup, cell.speedup);
          std::printf(
              "%10zu %7zu %7zu %8s %14.0f %8.2fx %9s %7llu\n", corpus, shards,
              batch, mode_name, cell.qps, cell.speedup,
              cell.stats.dispatch_pooled > 0 ? "pooled" : "inline",
              static_cast<unsigned long long>(cell.stats.spans_reserved));
          json_rows.push_back(
              {fmeter::bench::jnum("docs", static_cast<double>(corpus)),
               fmeter::bench::jnum("shards", static_cast<double>(shards)),
               fmeter::bench::jnum("batch", static_cast<double>(batch)),
               fmeter::bench::jnum("k", kTopK),
               fmeter::bench::jstr("mode", mode_name),
               fmeter::bench::jnum("us_per_query", 1e6 / cell.qps),
               fmeter::bench::jnum("us_p50", cell.latency_us.p50),
               fmeter::bench::jnum("us_p95", cell.latency_us.p95),
               fmeter::bench::jnum("us_p99", cell.latency_us.p99),
               fmeter::bench::jnum("queries_per_sec", cell.qps),
               fmeter::bench::jnum("speedup_vs_scalar", cell.speedup),
               fmeter::bench::jnum(
                   "dispatch_inline",
                   static_cast<double>(cell.stats.dispatch_inline)),
               fmeter::bench::jnum(
                   "dispatch_pooled",
                   static_cast<double>(cell.stats.dispatch_pooled)),
               fmeter::bench::jnum(
                   "spans_reserved",
                   static_cast<double>(cell.stats.spans_reserved)),
               fmeter::bench::jnum(
                   "tasks_executed",
                   static_cast<double>(cell.stats.tasks_executed))});
        }
      }

      // Threshold seeding: deterministic counter comparison on the 4-shard
      // layout (sequential shard order, so the floor hand-off is exactly
      // reproducible run to run). Reuses the ladder's 4-shard index.
      if (shards == 4) {
        const std::vector<fmeter::vsm::SparseVector> sample(
            queries.begin(),
            queries.begin() + std::min<std::size_t>(queries.size(), 16));
        const auto cmp = compare_seeding(index, sample);
        const double seeded_work = pruned_work(cmp.seeded, index);
        const double independent_work = pruned_work(cmp.independent, index);
        std::printf(
            "\nseeding at %zu docs, 4 shards: seeded scored %zu / visited "
            "%zu,\n  independent scored %zu / visited %zu  (work ratio "
            "%.3f)\n\n",
            corpus, cmp.seeded.docs_scored, cmp.seeded.postings_visited,
            cmp.independent.docs_scored, cmp.independent.postings_visited,
            seeded_work / independent_work);
        json_rows.push_back(
            {fmeter::bench::jnum("docs", static_cast<double>(corpus)),
             fmeter::bench::jnum("shards", 4.0),
             fmeter::bench::jstr("mode", "seeding_comparison"),
             fmeter::bench::jnum("seeded_docs_scored",
                                 static_cast<double>(cmp.seeded.docs_scored)),
             fmeter::bench::jnum(
                 "independent_docs_scored",
                 static_cast<double>(cmp.independent.docs_scored)),
             fmeter::bench::jnum(
                 "seeded_postings_visited",
                 static_cast<double>(cmp.seeded.postings_visited)),
             fmeter::bench::jnum(
                 "independent_postings_visited",
                 static_cast<double>(cmp.independent.postings_visited)),
             fmeter::bench::jnum("work_ratio",
                                 seeded_work / independent_work)});
        checks.push_back(
            {"seeded and independent pruning agree on results at " +
                 std::to_string(corpus),
             cmp.results_match});
        checks.push_back(
            {"threshold seeding does not increase pruned work at " +
                 std::to_string(corpus),
             seeded_work <= independent_work});
        if (corpus >= 100000) {
          checks.push_back(
              {"threshold seeding scores strictly fewer docs than "
               "independent pruning at " +
                   std::to_string(corpus),
               cmp.seeded.docs_scored < cmp.independent.docs_scored});
        }
      }
    }

    checks.push_back({"all shard/batch/mode configurations equivalent at " +
                          std::to_string(corpus) + " signatures",
                      all_equivalent});
    // The floor is enforced at the ladder's measured sizes only: CI smoke
    // runs (sanitizer builds, truncated --docs) distort per-cell ratios
    // enough to flake a hard gate, and bench_check.py re-enforces the floor
    // from the emitted JSON wherever the full ladder runs.
    if (corpus >= 10000) {
      checks.push_back(
          {"every (shards, batch, mode) cell within " +
               std::to_string(kSpeedupFloor) + "x of scalar at " +
               std::to_string(corpus) + " signatures (worst " +
               std::to_string(min_speedup) + "x)",
           min_speedup >= kSpeedupFloor});
    }
    if (corpus >= 100000 && cores >= 4) {
      checks.push_back(
          {"batched sharded >= 2x scalar single-shard at 100k signatures",
           best_parallel_qps >= 2.0 * baseline_qps});
    }
  }

  fmeter::bench::emit_json("BENCH_query_engine.json", "query_engine_scaling",
                           json_rows);
  std::printf("wrote BENCH_query_engine.json (%zu rows)\n", json_rows.size());
  return fmeter::bench::print_shape_checks(checks);
}
