// Scan vs. inverted-index vs. max-score-pruned query throughput as the
// signature archive grows, over the struct-of-arrays posting arena with
// block-max metadata and doc reordering.
//
// The paper's pitch is that signatures are indexable "similar to regular
// text documents" — which only pays off if the index actually beats a
// linear scan once the archive is big, and classic IR engines additionally
// prune with score upper bounds instead of scoring every document. This
// bench bulk-loads 1k/10k/100k synthetic tf-idf signatures and measures
// queries/sec for both metrics: the brute-force scan, the exact indexed
// path (bit-identical to the scan), the block-max pruned path, and the
// kAuto policy that picks exact-vs-pruned per shard from the measured
// crossover.
//
// Correctness gates run before any throughput number is trusted: pruned
// hits must match the scan (same set, same order, scores within 1e-9) and
// exact hits must match the scan bit-for-bit.
//
// The synthetic corpus is bench_common.hpp's shared archive model: eleven
// behavior classes over per-class Zipf(1.1) permutations of the ~3.8k
// core-function space with log-normal weight magnitudes (Figure 1).
//
// Usage: bench_index_scaling [max_corpus]   (e.g. 1000 as a CI smoke)
// Writes machine-readable results to BENCH_index_scaling.json. Every row
// carries the host facts the numbers depend on: its hardware thread count
// (`cores`) and the exact path's scoring kernel (`simd`).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fmeter/database.hpp"
#include "index/inverted_index.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "vsm/sparse_vector.hpp"

namespace {

using fmeter::core::PruningMode;
using fmeter::core::QueryStats;
using fmeter::core::ScanPolicy;
using fmeter::core::SearchHit;
using fmeter::core::SignatureDatabase;
using fmeter::core::SimilarityMetric;

constexpr std::uint32_t kDimension = 3800;  // core-kernel function count, §2.1
constexpr std::size_t kNnz = 200;           // function samples per interval
constexpr std::size_t kTopK = 10;
constexpr std::size_t kClasses = 11;        // distinct behaviors in the archive
constexpr std::uint64_t kSeed = 0x1d9;
constexpr std::size_t kCorpusLadder[] = {1000, 10000, 100000};

double queries_per_sec(const SignatureDatabase& db,
                       const std::vector<fmeter::vsm::SparseVector>& queries,
                       SimilarityMetric metric, ScanPolicy policy,
                       PruningMode mode, int repetitions) {
  std::size_t q = 0;
  // CPU time: the ratios below compare cells measured minutes apart, where
  // shared-box wall-clock noise would drown the signal.
  const auto samples = fmeter::bench::time_op_cpu_us(
      [&] {
        (void)db.search(queries[q++ % queries.size()], kTopK, metric, policy,
                        mode);
      },
      static_cast<int>(queries.size()), repetitions);
  const double us = fmeter::util::percentile(samples, 50.0);
  return 1e6 / us;
}

/// Same documents, same order, scores within 1e-9 — the pruned-path
/// contract, checked against the golden brute-force scan. With
/// `bit_identical` the scores must match exactly (the exact-path contract).
bool hits_equivalent(const std::vector<SearchHit>& got,
                     const std::vector<SearchHit>& golden,
                     bool bit_identical = false) {
  if (got.size() != golden.size()) return false;
  for (std::size_t r = 0; r < golden.size(); ++r) {
    if (got[r].id != golden[r].id || got[r].label != golden[r].label) {
      return false;
    }
    if (bit_identical ? got[r].score != golden[r].score
                      : std::abs(got[r].score - golden[r].score) > 1e-9) {
      return false;
    }
  }
  return true;
}

/// Measured numbers for one (corpus, metric, policy) cell.
struct Cell {
  double qps = 0.0;
  double prune_rate = 0.0;
  double visited_per_query = 0.0;
  double blocks_skipped_per_query = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  // Optional cap on the corpus sweep (e.g. `index_scaling 1000` for a quick
  // CI smoke); unparsable or missing arguments run the full 1k/10k/100k
  // ladder.
  const std::size_t parsed =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 0;
  const std::size_t max_corpus = parsed > 0 ? parsed : 100000;

  fmeter::bench::print_banner(
      "index_scaling: scan vs. block-max indexed arena",
      "§1/§2.2 — signatures are indexable like text documents");

  std::printf("hardware threads: %u, scoring kernel: %s\n\n",
              fmeter::bench::host_cores(),
              fmeter::index::InvertedIndex::scoring_kernel());

  std::printf("%8s %7s %14s %8s %8s %10s %8s\n", "corpus", "metric",
              "policy", "q/s", "pruned%", "visited/q", "blkskip");

  std::vector<fmeter::bench::ShapeCheck> checks;
  std::vector<fmeter::bench::JsonRow> json_rows;

  const auto record = [&](std::size_t corpus, const char* metric,
                          const char* policy, const Cell& cell) {
    std::printf("%8zu %7s %14s %8.0f %7.1f%% %10.0f %8.0f\n", corpus, metric,
                policy, cell.qps, 100.0 * cell.prune_rate,
                cell.visited_per_query, cell.blocks_skipped_per_query);
    json_rows.push_back(
        {fmeter::bench::jnum("docs", static_cast<double>(corpus)),
         fmeter::bench::jnum("shards", 1.0), fmeter::bench::jnum("batch", 1.0),
         fmeter::bench::jnum("k", kTopK), fmeter::bench::jstr("metric", metric),
         fmeter::bench::jstr("policy", policy),
         fmeter::bench::jnum("us_per_query", 1e6 / cell.qps),
         fmeter::bench::jnum("queries_per_sec", cell.qps),
         fmeter::bench::jnum("prune_rate", cell.prune_rate),
         fmeter::bench::jnum("postings_visited", cell.visited_per_query),
         fmeter::bench::jnum("blocks_skipped",
                             cell.blocks_skipped_per_query)});
  };

  const int reps = 5;
  fmeter::util::Rng rng(kSeed);
  const fmeter::util::ZipfDistribution zipf(kDimension, 1.1);
  const auto perms =
      fmeter::bench::class_permutations(rng, kClasses, kDimension);
  std::vector<fmeter::vsm::SparseVector> queries;
  for (std::size_t i = 0; i < 32; ++i) {
    queries.push_back(fmeter::bench::synthetic_class_signature(
        rng, zipf, perms[i % kClasses], kNnz));
  }
  // One shard: this bench isolates index-layer savings against the scan;
  // shard-parallel execution is bench_query_engine_scaling's story.
  SignatureDatabase db(1);
  for (const std::size_t corpus : kCorpusLadder) {
    if (corpus > max_corpus) break;
    // Bulk-load the increment (bench_build_scaling measures the build).
    std::vector<fmeter::vsm::SparseVector> batch;
    std::vector<std::string> labels;
    while (db.size() + batch.size() < corpus) {
      const std::size_t id = db.size() + batch.size();
      batch.push_back(fmeter::bench::synthetic_class_signature(
          rng, zipf, perms[id % kClasses], kNnz));
      labels.push_back("class-" + std::to_string(id % kClasses));
    }
    db.add_batch(std::move(batch), std::move(labels));
    for (const auto metric :
         {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
      const char* name =
          metric == SimilarityMetric::kCosine ? "cosine" : "euclid";
      // Correctness gates before any throughput number.
      QueryStats stats;
      bool pruned_ok = true;
      bool exact_bit_identical = true;
      for (const auto& query : queries) {
        const auto golden =
            db.search(query, kTopK, metric, ScanPolicy::kBruteForce);
        const auto exact = db.search(query, kTopK, metric);
        const auto pruned =
            db.search(query, kTopK, metric, ScanPolicy::kIndexed,
                      PruningMode::kMaxScore, &stats);
        exact_bit_identical = exact_bit_identical &&
                              hits_equivalent(exact, golden,
                                              /*bit_identical=*/true);
        pruned_ok = pruned_ok && hits_equivalent(pruned, golden);
      }
      checks.push_back({"frozen exact bit-identical to golden scan at " +
                            std::to_string(corpus) + " (" + name + ")",
                        exact_bit_identical});
      checks.push_back({"frozen pruned == scan (set+order, 1e-9) at " +
                            std::to_string(corpus) + " (" + name + ")",
                        pruned_ok});
      const double considered =
          static_cast<double>(stats.docs_scored + stats.docs_pruned);
      Cell scan, exact, pruned, autod;
      scan.qps = queries_per_sec(db, queries, metric, ScanPolicy::kBruteForce,
                                 PruningMode::kExact, reps);
      exact.qps = queries_per_sec(db, queries, metric, ScanPolicy::kIndexed,
                                  PruningMode::kExact, reps);
      pruned.qps = queries_per_sec(db, queries, metric, ScanPolicy::kIndexed,
                                   PruningMode::kMaxScore, reps);
      autod.qps = queries_per_sec(db, queries, metric, ScanPolicy::kIndexed,
                                  PruningMode::kAuto, reps);
      pruned.prune_rate =
          considered > 0.0
              ? static_cast<double>(stats.docs_pruned) / considered
              : 0.0;
      pruned.visited_per_query = static_cast<double>(stats.postings_visited) /
                                 static_cast<double>(queries.size());
      pruned.blocks_skipped_per_query =
          static_cast<double>(stats.blocks_skipped) /
          static_cast<double>(queries.size());
      record(corpus, name, "scan", scan);
      record(corpus, name, "indexed_frozen", exact);
      record(corpus, name, "pruned_frozen", pruned);
      record(corpus, name, "auto", autod);
      if (corpus >= 10000) {
        checks.push_back({"indexed beats scan at " + std::to_string(corpus) +
                              " signatures (" + name + ")",
                          exact.qps > scan.qps});
      }
      if (corpus <= 1000) {
        // Pruning's bookkeeping costs more than it saves on small shards;
        // kAuto must stay at exact-path speed there.
        checks.push_back({"kAuto holds exact-path speed at " +
                              std::to_string(corpus) + " docs (" + name + ")",
                          autod.qps >= 0.8 * exact.qps});
      }
      if (corpus >= 100000) {
        checks.push_back({"frozen pruned skips whole blocks at " +
                              std::to_string(corpus) + " (" + name + ")",
                          pruned.blocks_skipped_per_query > 0.0});
      }
    }
  }
  std::printf("\nindex stats: %zu docs, %zu terms, %zu postings, %.1f KiB\n",
              db.index()->size(), db.index()->num_terms(),
              db.index()->num_postings(),
              static_cast<double>(db.index()->memory_bytes()) / 1024.0);

  fmeter::bench::emit_json("BENCH_index_scaling.json", "index_scaling",
                           json_rows);
  std::printf("wrote BENCH_index_scaling.json (%zu rows)\n", json_rows.size());
  return fmeter::bench::print_shape_checks(checks);
}
