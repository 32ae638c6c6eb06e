// PruneStats / QueryStats aggregation invariants.
//
// The counters are the observability surface of the whole query engine
// (fmeter_inspect prints them, the benches gate on them), so their
// arithmetic has contracts of its own: per-query they partition the corpus
// (docs_scored + docs_pruned == documents considered), they *accumulate*
// into whatever struct the caller passes (so summing per-query structs
// equals one shared struct across a batch, across any shard count and any
// task split), scratch reuse between queries must not leak counts, skipped
// blocks can never contribute visited postings, and forward_gathers counts
// only candidate-mode forward-store fetches (zero on the exact path, never
// more than docs_scored on the pruned path).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "exec/query_engine.hpp"
#include "exec/sharded_index.hpp"
#include "exec/task_pool.hpp"
#include "index/inverted_index.hpp"
#include "util/rng.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::index {
namespace {

vsm::SparseVector random_sparse(util::Rng& rng, std::uint32_t dimension,
                                std::size_t max_nnz) {
  std::vector<vsm::SparseVector::Entry> entries;
  const std::size_t nnz = 1 + rng.below(max_nnz);
  for (std::size_t i = 0; i < nnz; ++i) {
    entries.emplace_back(
        static_cast<vsm::SparseVector::Index>(rng.below(dimension)),
        rng.uniform(0.05, 1.0));
  }
  return vsm::SparseVector::from_entries(std::move(entries));
}

/// A clustered corpus (a few tight classes) where pruning and block
/// skipping actually fire — uniform random corpora prune nothing.
std::vector<vsm::SparseVector> clustered_corpus(std::uint64_t seed,
                                                std::size_t docs) {
  util::Rng rng(seed);
  std::vector<vsm::SparseVector> out;
  out.reserve(docs);
  for (std::size_t d = 0; d < docs; ++d) {
    const std::uint32_t base = 40 * static_cast<std::uint32_t>(d % 5);
    std::vector<vsm::SparseVector::Entry> entries;
    for (int i = 0; i < 8; ++i) {
      entries.emplace_back(base + rng.below(12), rng.uniform(0.5, 1.0));
    }
    entries.emplace_back(200 + rng.below(20), rng.uniform(0.0, 0.05) + 0.01);
    out.push_back(
        vsm::SparseVector::from_entries(std::move(entries)).l2_normalized());
  }
  return out;
}

void expect_stats_equal(const PruneStats& got, const PruneStats& want,
                        const std::string& context) {
  EXPECT_EQ(got.docs_scored, want.docs_scored) << context;
  EXPECT_EQ(got.docs_pruned, want.docs_pruned) << context;
  EXPECT_EQ(got.postings_visited, want.postings_visited) << context;
  EXPECT_EQ(got.blocks_skipped, want.blocks_skipped) << context;
  EXPECT_EQ(got.forward_gathers, want.forward_gathers) << context;
}

TEST(QueryStats, ExactPathCountersAreExactlyDetermined) {
  util::Rng rng(0xe1);
  InvertedIndex idx;
  std::vector<vsm::SparseVector> corpus;
  for (int i = 0; i < 300; ++i) corpus.push_back(random_sparse(rng, 64, 10));
  idx = idx.appended(std::span<const vsm::SparseVector>(corpus));
  for (int q = 0; q < 6; ++q) {
    const auto query = random_sparse(rng, 64, 10);
    PruneStats stats;
    idx.top_k(query, 10, Metric::kCosine, nullptr,
              index::InvertedIndex::kNoSeed, &stats);
    EXPECT_EQ(stats.docs_scored, idx.size());
    EXPECT_EQ(stats.docs_pruned, 0u);
    EXPECT_EQ(stats.postings_visited, idx.num_postings_for(query));
    EXPECT_EQ(stats.blocks_skipped, 0u);
    EXPECT_EQ(stats.forward_gathers, 0u);
  }
}

TEST(QueryStats, CountersAccumulateAndFreshStructsSumToShared) {
  // One shared struct across N queries == the sum of N per-query structs:
  // counters are increments, never absolute writes, so scratch reuse and
  // stats reuse cannot leak or reset each other's counts.
  const auto docs = clustered_corpus(0xacc, 800);
  InvertedIndex idx;
  idx = idx.appended(docs);

  util::Rng rng(0x5);
  std::vector<vsm::SparseVector> queries;
  for (int q = 0; q < 8; ++q) queries.push_back(docs[rng.below(docs.size())]);

  for (const bool pruned : {false, true}) {
    TopKScratch scratch;
    PruneStats shared;
    PruneStats summed;
    for (const auto& query : queries) {
      PruneStats per_query;
      if (pruned) {
        idx.top_k_pruned(query, 5, Metric::kCosine, &scratch,
                         InvertedIndex::kNoSeed, &shared);
        idx.top_k_pruned(query, 5, Metric::kCosine, &scratch,
                         InvertedIndex::kNoSeed, &per_query);
      } else {
        idx.top_k(query, 5, Metric::kCosine, &scratch,
                  index::InvertedIndex::kNoSeed, &shared);
        idx.top_k(query, 5, Metric::kCosine, &scratch,
                  index::InvertedIndex::kNoSeed, &per_query);
      }
      // Per-query partition invariant.
      EXPECT_EQ(per_query.docs_scored + per_query.docs_pruned, idx.size());
      EXPECT_LE(per_query.forward_gathers, per_query.docs_scored);
      summed += per_query;
    }
    expect_stats_equal(shared, summed,
                       pruned ? "pruned shared-vs-summed"
                              : "exact shared-vs-summed");
  }
}

TEST(QueryStats, SkippedBlocksNeverContributeVisitedPostings) {
  // Cluster-in-noise regime (the workload block skipping exists for — see
  // test_frozen_index's BlockSkippingReducesPostingsVisited): the cluster's
  // posting lists are mostly noise postings, so the tail phase has whole
  // blocks of already-pruned documents to drop. Invariant under test:
  // every skipped block holds at least one posting that was not visited,
  // so visited <= total - skipped — skipped blocks never contribute
  // visited postings.
  util::Rng rng(0xb10c);
  constexpr std::size_t kClusterDocs = 300;
  constexpr std::size_t kNoiseDocs = 8000;
  constexpr std::uint32_t kClusterTerms = 30;
  constexpr std::uint32_t kDim = 400;
  std::vector<vsm::SparseVector> docs;
  for (std::size_t d = 0; d < kClusterDocs; ++d) {
    std::vector<vsm::SparseVector::Entry> entries;
    for (std::uint32_t t = 0; t < kClusterTerms; ++t) {
      entries.emplace_back(t, 1.0 + 0.01 * rng.uniform());
    }
    docs.push_back(vsm::SparseVector::from_entries(std::move(entries))
                       .l2_normalized());
  }
  for (std::size_t d = 0; d < kNoiseDocs; ++d) {
    std::vector<vsm::SparseVector::Entry> entries;
    entries.emplace_back(static_cast<std::uint32_t>(d % kClusterTerms), 0.2);
    for (int i = 0; i < 20; ++i) {
      entries.emplace_back(
          kClusterTerms +
              static_cast<std::uint32_t>(rng.below(kDim - kClusterTerms)),
          0.5 + rng.uniform());
    }
    docs.push_back(vsm::SparseVector::from_entries(std::move(entries))
                       .l2_normalized());
  }
  InvertedIndex idx;
  idx = idx.appended(docs);

  std::vector<vsm::SparseVector::Entry> q_entries;
  for (std::uint32_t t = 0; t < kClusterTerms; ++t) {
    q_entries.emplace_back(t, 1.0);
  }
  const auto query =
      vsm::SparseVector::from_entries(std::move(q_entries)).l2_normalized();

  std::size_t skips_seen = 0;
  for (const std::size_t k : {std::size_t{10}, std::size_t{100}}) {
    PruneStats stats;
    idx.top_k_pruned(query, k, Metric::kCosine, nullptr,
                     InvertedIndex::kNoSeed, &stats);
    const std::size_t total = idx.num_postings_for(query);
    EXPECT_LE(stats.postings_visited + stats.blocks_skipped, total)
        << "k " << k;
    EXPECT_EQ(stats.docs_scored + stats.docs_pruned, idx.size()) << "k " << k;
    skips_seen += stats.blocks_skipped;
  }
  EXPECT_GT(skips_seen, 0u) << "cluster-in-noise corpus produced no skips";
}

TEST(QueryStats, EngineSumsAcrossShardsAndBatchedTasks) {
  // Exact mode is deterministic, so the engine totals must equal the sum
  // of independent per-shard runs — for every shard count, scalar or
  // batched, inline or through the pool.
  const auto docs = clustered_corpus(0x5a7d, 5000);  // above dispatch cutoff
  util::Rng rng(0x44);
  std::vector<vsm::SparseVector> queries;
  for (int q = 0; q < 12; ++q) queries.push_back(docs[rng.below(docs.size())]);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{5}}) {
    exec::ShardedIndex index(shards);
    index = index.appended(std::span<const vsm::SparseVector>(docs));

    // Expected totals from direct per-shard exact runs.
    PruneStats expected;
    for (const auto& query : queries) {
      for (std::size_t s = 0; s < shards; ++s) {
        index.shard(s).top_k(query, 5, Metric::kCosine, nullptr,
                             index::InvertedIndex::kNoSeed, &expected);
      }
    }

    exec::TaskPool pool(3);
    const exec::QueryEngine engine(index, &pool);
    const std::string context = std::to_string(shards) + " shards";

    exec::QueryStats batched;
    engine.run_batch(std::span<const vsm::SparseVector>(queries), 5,
                     Metric::kCosine, PruningMode::kExact, &batched);
    expect_stats_equal(batched, expected, context + " batched");

    exec::QueryStats scalar;
    for (const auto& query : queries) {
      engine.run(query, 5, Metric::kCosine, PruningMode::kExact, &scalar);
    }
    expect_stats_equal(scalar, expected, context + " scalar");

    // Pruned mode is not bit-deterministic across task interleavings (the
    // cross-shard seeding floor is racy by design), but the partition
    // invariant must still hold in aggregate.
    exec::QueryStats pruned;
    engine.run_batch(std::span<const vsm::SparseVector>(queries), 5,
                     Metric::kCosine, PruningMode::kMaxScore, &pruned);
    EXPECT_EQ(pruned.docs_scored + pruned.docs_pruned,
              docs.size() * queries.size())
        << context;
    EXPECT_LE(pruned.forward_gathers, pruned.docs_scored) << context;
  }
}

TEST(QueryStats, ForwardGathersFireInCandidateModeOnly) {
  // A needle-in-haystack query against a clustered frozen corpus collapses
  // the survivor set, which is what flips the pruned path into candidate
  // mode — forward_gathers must then be positive, bounded by docs_scored,
  // and exactly zero on the exact path over the same index.
  const auto docs = clustered_corpus(0xf0a4, 4000);
  InvertedIndex idx;
  idx = idx.appended(docs);

  util::Rng rng(0x21);
  std::size_t gathers_seen = 0;
  for (int q = 0; q < 12; ++q) {
    const auto& query = docs[rng.below(docs.size())];
    PruneStats pruned;
    idx.top_k_pruned(query, 3, Metric::kCosine, nullptr,
                     InvertedIndex::kNoSeed, &pruned);
    EXPECT_LE(pruned.forward_gathers, pruned.docs_scored) << "query " << q;
    gathers_seen += pruned.forward_gathers;

    PruneStats exact;
    idx.top_k(query, 3, Metric::kCosine, nullptr,
              index::InvertedIndex::kNoSeed, &exact);
    EXPECT_EQ(exact.forward_gathers, 0u) << "query " << q;
  }
  EXPECT_GT(gathers_seen, 0u)
      << "no query entered candidate mode on the clustered corpus";
}

}  // namespace
}  // namespace fmeter::index
