// Property suite for the max-score pruned query path (PruningMode::kMaxScore).
//
// The pruned path's contract is deliberately weaker than the exact path's
// golden guarantee: it must return the *same document set in the same
// order* as the brute-force scan, with scores equal within 1e-9 — but not
// bit-identical, because pruning accumulates posting lists in impact order
// rather than term order. Everything here is seeded-RNG and wall-clock
// free: randomized corpora across metrics, shard counts {1, 2, 5} and
// k ∈ {0, 1, 10, size}; adversarial tie/duplicate/zero-weight corpora; a
// clustered corpus large enough to drive the candidate-mode switch; the
// incremental-add freshness of the per-term bounds; cross-shard threshold
// seeding; and the observability counters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "exec/query_engine.hpp"
#include "exec/sharded_index.hpp"
#include "exec/task_pool.hpp"
#include "fmeter/database.hpp"
#include "fmeter/retrieval.hpp"
#include "index/inverted_index.hpp"
#include "util/rng.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::core {
namespace {

constexpr double kScoreTolerance = 1e-9;
constexpr std::size_t kShardCounts[] = {1, 2, 5};

vsm::SparseVector random_sparse(util::Rng& rng, std::uint32_t dimension,
                                std::size_t max_nnz,
                                bool allow_negative = false) {
  std::vector<vsm::SparseVector::Entry> entries;
  const std::size_t nnz = rng.below(max_nnz + 1);  // may be 0 => empty vector
  for (std::size_t i = 0; i < nnz; ++i) {
    const auto term =
        static_cast<vsm::SparseVector::Index>(rng.below(dimension));
    double value = rng.uniform(0.05, 1.0);
    if (allow_negative && rng.bernoulli(0.3)) value = -value;
    entries.emplace_back(term, value);
  }
  return vsm::SparseVector::from_entries(std::move(entries));
}

/// Same documents, same labels, same order; scores within tolerance.
void expect_hits_match(const std::vector<SearchHit>& pruned,
                       const std::vector<SearchHit>& golden,
                       const std::string& context) {
  ASSERT_EQ(pruned.size(), golden.size()) << context;
  for (std::size_t rank = 0; rank < golden.size(); ++rank) {
    EXPECT_EQ(pruned[rank].id, golden[rank].id) << context << " rank " << rank;
    EXPECT_EQ(pruned[rank].label, golden[rank].label)
        << context << " rank " << rank;
    EXPECT_NEAR(pruned[rank].score, golden[rank].score, kScoreTolerance)
        << context << " rank " << rank;
  }
}

void expect_pruned_equivalence(const SignatureDatabase& db,
                               const vsm::SparseVector& query, std::size_t k,
                               const std::string& context) {
  for (const auto metric :
       {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
    const auto golden = db.search(query, k, metric, ScanPolicy::kBruteForce);
    const auto pruned = db.search(query, k, metric, ScanPolicy::kIndexed,
                                  PruningMode::kMaxScore);
    expect_hits_match(
        pruned, golden,
        context + (metric == SimilarityMetric::kCosine ? " cosine" : " l2"));
  }
}

TEST(PrunedSearch, RandomizedCorporaMatchBruteForceAcrossShardsAndK) {
  util::Rng rng(0x9a55);
  for (const std::size_t shards : kShardCounts) {
    for (int trial = 0; trial < 6; ++trial) {
      SignatureDatabase db(shards);
      const std::size_t n = 50 + rng.below(60);
      for (std::size_t i = 0; i < n; ++i) {
        db.add(random_sparse(rng, 48, 10), "label-" + std::to_string(i % 7));
      }
      for (int q = 0; q < 6; ++q) {
        const auto query = random_sparse(rng, 48, 10);
        for (const std::size_t k :
             {std::size_t{0}, std::size_t{1}, std::size_t{10}, db.size()}) {
          expect_pruned_equivalence(
              db, query,
              k, "shards " + std::to_string(shards) + " trial " +
                     std::to_string(trial) + " query " + std::to_string(q) +
                     " k " + std::to_string(k));
        }
      }
    }
  }
}

TEST(PrunedSearch, NegativeWeightsMatchBruteForce) {
  // tf-idf weights are non-negative, but the pruned bounds must not assume
  // it: per-term minima bound negative query weights, and the
  // Cauchy–Schwarz remainder is sign-agnostic.
  util::Rng rng(0x4e9a7e);
  for (const std::size_t shards : kShardCounts) {
    SignatureDatabase db(shards);
    for (int i = 0; i < 70; ++i) {
      db.add(random_sparse(rng, 32, 10, /*allow_negative=*/true),
             "label-" + std::to_string(i % 5));
    }
    for (int q = 0; q < 12; ++q) {
      const auto query = random_sparse(rng, 32, 10, /*allow_negative=*/true);
      expect_pruned_equivalence(db, query, 8,
                                "negative shards " + std::to_string(shards) +
                                    " query " + std::to_string(q));
    }
  }
}

TEST(PrunedSearch, AdversarialTiesDuplicatesAndZeroWeights) {
  // Exact duplicates tie on every metric, so ranking degenerates to the
  // ascending-id tie-break; empty documents and the empty query probe the
  // zero-weight conventions (cosine 0, euclidean -|q|); negated duplicates
  // put ties below zero, and k = 7 cuts through the tied duplicate runs.
  // Duplicates take identical accumulation sequences in the pruned path,
  // so their scores tie exactly and the order must match the scan's
  // everywhere.
  const auto base = vsm::SparseVector::from_entries({{3, 0.6}, {11, 0.8}});
  const auto other = vsm::SparseVector::from_entries({{3, 1.0}, {7, 0.2}});
  for (const std::size_t shards : kShardCounts) {
    SignatureDatabase db(shards);
    for (int rep = 0; rep < 5; ++rep) db.add(base, "dup-base");
    for (int rep = 0; rep < 5; ++rep) db.add(other, "dup-other");
    db.add(vsm::SparseVector(), "empty-a");
    db.add(vsm::SparseVector(), "empty-b");
    db.add(base.scaled(2.0), "scaled");
    for (int rep = 0; rep < 3; ++rep) db.add(base.scaled(-1.0), "negated");
    for (const auto& query :
         {base, other, base.scaled(0.5), base.scaled(-1.0),
          vsm::SparseVector(), vsm::SparseVector::from_entries({{999, 1.0}})}) {
      for (const std::size_t k :
           {std::size_t{1}, std::size_t{4}, std::size_t{7}, db.size()}) {
        const std::string context = "ties shards " + std::to_string(shards) +
                                    " k " + std::to_string(k);
        expect_pruned_equivalence(db, query, k, context);
        // The exact kernel (and kAuto, which runs it on shards this small)
        // raises its divide-free pre-test from its own heap; with the k-th
        // score tied across duplicates, results must still match the scan
        // to the bit.
        for (const auto metric :
             {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
          const auto golden =
              db.search(query, k, metric, ScanPolicy::kBruteForce);
          for (const auto mode : {PruningMode::kExact, PruningMode::kAuto}) {
            const auto hits =
                db.search(query, k, metric, ScanPolicy::kIndexed, mode);
            ASSERT_EQ(hits.size(), golden.size()) << context;
            for (std::size_t rank = 0; rank < golden.size(); ++rank) {
              EXPECT_EQ(hits[rank].id, golden[rank].id)
                  << context << " rank " << rank;
              EXPECT_EQ(hits[rank].score, golden[rank].score)
                  << context << " rank " << rank;
            }
          }
        }
      }
    }
  }
}

/// Clustered log-normal corpus — the shape pruning is built for: distinct
/// behavior classes whose signatures concentrate their mass on disjoint
/// term slices. Large enough that the pruned path leaves the give-up
/// branch and actually prunes (asserted via the counters).
index::InvertedIndex clustered_index(util::Rng& rng, std::size_t docs,
                                     std::uint32_t dimension,
                                     std::size_t classes, std::size_t nnz,
                                     std::vector<vsm::SparseVector>* out) {
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
  std::vector<vsm::SparseVector> built;
  for (std::size_t d = 0; d < docs; ++d) {
    std::vector<vsm::SparseVector::Entry> entries;
    for (std::size_t i = 0; i < nnz; ++i) {
      // Zipf-ish rank skew via squared uniform; log-normal magnitudes.
      const auto rank = static_cast<std::size_t>(
          rng.uniform() * rng.uniform() * static_cast<double>(dimension));
      entries.emplace_back(perm[d % classes][std::min<std::size_t>(
                               rank, dimension - 1)],
                           std::exp(rng.normal(0.0, 2.0)));
    }
    built.push_back(vsm::SparseVector::from_entries(std::move(entries))
                        .l2_normalized());
  }
  index::InvertedIndex idx;
  idx = idx.appended(built);
  if (out != nullptr) *out = std::move(built);
  return idx;
}

TEST(PrunedSearch, ClusteredCorpusActuallyPrunesAndStaysEquivalent) {
  util::Rng rng(0xc1a57e9);
  std::vector<vsm::SparseVector> docs;
  const auto idx = clustered_index(rng, 6000, 256, 4, 24, &docs);
  index::TopKScratch scratch;
  index::PruneStats total;
  for (int q = 0; q < 12; ++q) {
    const auto& query = docs[rng.below(docs.size())];
    for (const auto metric :
         {index::Metric::kCosine, index::Metric::kEuclidean}) {
      const auto exact = idx.top_k(query, 10, metric, &scratch);
      index::PruneStats stats;
      const auto pruned = idx.top_k_pruned(query, 10, metric, &scratch,
                                           index::InvertedIndex::kNoSeed,
                                           &stats);
      ASSERT_EQ(pruned.size(), exact.size()) << "query " << q;
      for (std::size_t r = 0; r < exact.size(); ++r) {
        EXPECT_EQ(pruned[r].doc, exact[r].doc) << "query " << q << " rank " << r;
        EXPECT_NEAR(pruned[r].score, exact[r].score, kScoreTolerance)
            << "query " << q << " rank " << r;
      }
      EXPECT_EQ(stats.docs_scored + stats.docs_pruned, idx.size())
          << "query " << q;
      EXPECT_LE(stats.postings_visited, idx.num_postings_for(query));
      total += stats;
    }
  }
  // The suite must exercise real pruning, not just the give-up fallback.
  EXPECT_GT(total.docs_pruned, total.docs_scored);
}

TEST(PrunedSearch, PerTermBoundsStayFreshUnderRepeatedAppends) {
  // Every appended() must leave the per-term max/min weights current even
  // when builds interleave with queries — a stale bound would make the
  // pruned path silently drop documents whose new weights beat the cached
  // maximum.
  util::Rng rng(0xadd5);
  index::InvertedIndex idx;
  std::vector<vsm::SparseVector> docs;
  index::TopKScratch scratch;
  for (int i = 0; i < 120; ++i) {
    const auto doc = random_sparse(rng, 24, 8, /*allow_negative=*/true);
    docs.push_back(doc);
    idx = idx.appended(std::span(&doc, 1));

    // Reference bounds recomputed from scratch over every stored doc.
    std::vector<double> max_ref(24, 0.0), min_ref(24, 0.0);
    std::vector<bool> seen(24, false);
    for (const auto& stored : docs) {
      const auto idxs = stored.indices();
      const auto vals = stored.values();
      for (std::size_t t = 0; t < idxs.size(); ++t) {
        if (!seen[idxs[t]]) {
          seen[idxs[t]] = true;
          max_ref[idxs[t]] = min_ref[idxs[t]] = vals[t];
        } else {
          max_ref[idxs[t]] = std::max(max_ref[idxs[t]], vals[t]);
          min_ref[idxs[t]] = std::min(min_ref[idxs[t]], vals[t]);
        }
      }
    }
    for (std::uint32_t t = 0; t < 24; ++t) {
      EXPECT_DOUBLE_EQ(idx.max_weight(t), max_ref[t]) << "term " << t;
      EXPECT_DOUBLE_EQ(idx.min_weight(t), min_ref[t]) << "term " << t;
    }

    // And the pruned results keep matching the exact path after every add.
    if (i % 10 == 9) {
      const auto query = random_sparse(rng, 24, 8, /*allow_negative=*/true);
      for (const auto metric :
           {index::Metric::kCosine, index::Metric::kEuclidean}) {
        const auto exact = idx.top_k(query, 5, metric, &scratch);
        const auto pruned = idx.top_k_pruned(query, 5, metric, &scratch);
        ASSERT_EQ(pruned.size(), exact.size()) << "after add " << i;
        for (std::size_t r = 0; r < exact.size(); ++r) {
          EXPECT_EQ(pruned[r].doc, exact[r].doc) << "after add " << i;
          EXPECT_NEAR(pruned[r].score, exact[r].score, kScoreTolerance)
              << "after add " << i;
        }
      }
    }
  }
}

TEST(PrunedSearch, CrossShardSeedingNeverChangesResults) {
  // A seeded threshold may only prune documents provably below the global
  // k-th best, so carrying the floor across shards (in any order) must
  // produce exactly the same merged hits as independent per-shard pruning
  // and as the exact path — while never scoring more documents.
  util::Rng rng(0x5eed5);
  exec::ShardedIndex index(3);
  std::vector<vsm::SparseVector> docs;
  for (int i = 0; i < 400; ++i) docs.push_back(random_sparse(rng, 40, 9));
  index = index.appended(std::span<const vsm::SparseVector>(docs));
  index::TopKScratch scratch;
  for (int q = 0; q < 15; ++q) {
    const auto query = random_sparse(rng, 40, 9);
    if (query.empty()) continue;
    for (const auto metric :
         {index::Metric::kCosine, index::Metric::kEuclidean}) {
      const std::size_t k = 7;
      index::PruneStats seeded_stats, independent_stats;
      const auto run = [&](bool seed, index::PruneStats* stats) {
        std::vector<index::IndexHit> merged;
        double floor = index::InvertedIndex::kNoSeed;
        for (std::size_t s = 0; s < index.num_shards(); ++s) {
          auto hits = index.shard(s).top_k_pruned(
              query, k, metric, &scratch,
              seed ? floor : index::InvertedIndex::kNoSeed, stats);
          if (seed && hits.size() == k) {
            floor = std::max(floor, hits.back().score);
          }
          for (auto& hit : hits) {
            hit.doc = index.global_of(s, hit.doc);
            merged.push_back(hit);
          }
        }
        std::sort(merged.begin(), merged.end(), index::ranks_better);
        if (merged.size() > k) merged.resize(k);
        return merged;
      };
      const auto seeded = run(true, &seeded_stats);
      const auto independent = run(false, &independent_stats);
      const exec::QueryEngine reference(index);
      const auto exact = reference.run(query, k, metric);
      ASSERT_EQ(seeded.size(), exact.size()) << "query " << q;
      ASSERT_EQ(independent.size(), exact.size()) << "query " << q;
      for (std::size_t r = 0; r < exact.size(); ++r) {
        EXPECT_EQ(seeded[r].doc, exact[r].doc) << "query " << q;
        EXPECT_EQ(independent[r].doc, exact[r].doc) << "query " << q;
        EXPECT_NEAR(seeded[r].score, exact[r].score, kScoreTolerance);
        EXPECT_NEAR(independent[r].score, exact[r].score, kScoreTolerance);
      }
      EXPECT_LE(seeded_stats.docs_scored, independent_stats.docs_scored)
          << "query " << q;
    }
  }
}

TEST(PrunedSearch, EngineDispatchPathMatchesExactUnderThreads) {
  // Above the engine's inline cutoff with a real pool: the (shard,
  // query-block) tasks share per-query atomic floors, and the merged
  // results must still match the exact path for every query. This is the
  // configuration the TSan CI job exercises for the new cross-thread
  // threshold hand-off.
  util::Rng rng(0xd15b);
  exec::ShardedIndex index(4);
  std::vector<vsm::SparseVector> corpus;
  for (int i = 0; i < 5000; ++i) corpus.push_back(random_sparse(rng, 32, 8));
  index = index.appended(std::span<const vsm::SparseVector>(corpus));

  std::vector<vsm::SparseVector> queries;
  for (int q = 0; q < 24; ++q) queries.push_back(random_sparse(rng, 32, 8));

  exec::TaskPool pool(3);
  const exec::QueryEngine engine(index, &pool);
  for (const auto metric :
       {index::Metric::kCosine, index::Metric::kEuclidean}) {
    exec::QueryStats stats;
    const auto exact = engine.run_batch(queries, 6, metric);
    const auto pruned = engine.run_batch(queries, 6, metric,
                                         exec::PruningMode::kMaxScore, &stats);
    ASSERT_EQ(pruned.size(), exact.size());
    std::size_t eligible = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      eligible += !queries[q].empty();
      ASSERT_EQ(pruned[q].size(), exact[q].size()) << "query " << q;
      for (std::size_t r = 0; r < exact[q].size(); ++r) {
        EXPECT_EQ(pruned[q][r].doc, exact[q][r].doc)
            << "query " << q << " rank " << r;
        EXPECT_NEAR(pruned[q][r].score, exact[q][r].score, kScoreTolerance)
            << "query " << q << " rank " << r;
      }
    }
    // Every eligible query considered every document exactly once.
    EXPECT_EQ(stats.docs_scored + stats.docs_pruned, eligible * index.size());
  }
}

TEST(PrunedSearch, DatabaseBatchClassifyAndRetrievalHonorMaxScore) {
  util::Rng rng(0xdb5);
  SignatureDatabase db(2);
  util::Rng corpus_rng(0xfeedbee5);
  for (int i = 0; i < 80; ++i) {
    db.add(random_sparse(corpus_rng, 32, 8), "label-" + std::to_string(i % 4));
  }
  std::vector<vsm::SparseVector> queries;
  std::vector<RetrievalQuery> retrieval_queries;
  for (int q = 0; q < 20; ++q) {
    queries.push_back(random_sparse(rng, 32, 8));
    RetrievalQuery rq;
    rq.signature = queries.back();
    rq.true_label = "label-" + std::to_string(rng.below(4));
    retrieval_queries.push_back(std::move(rq));
  }
  for (const auto metric :
       {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
    const auto golden =
        db.search_batch(queries, 5, metric, ScanPolicy::kBruteForce);
    const auto pruned = db.search_batch(queries, 5, metric,
                                        ScanPolicy::kIndexed,
                                        PruningMode::kMaxScore);
    ASSERT_EQ(pruned.size(), golden.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      expect_hits_match(pruned[q], golden[q],
                        "batch query " + std::to_string(q));
    }
    for (int q = 0; q < 20; q += 3) {
      EXPECT_EQ(db.classify_by_syndrome(queries[q], metric,
                                        ScanPolicy::kIndexed,
                                        PruningMode::kMaxScore),
                db.classify_by_syndrome(queries[q], metric,
                                        ScanPolicy::kBruteForce))
          << "query " << q;
    }
    // Retrieval measures are functions of the retrieved labels only, and
    // the pruned path retrieves the identical ranked documents.
    const auto golden_quality = evaluate_retrieval(
        db, retrieval_queries, 5, metric, ScanPolicy::kBruteForce);
    const auto pruned_quality =
        evaluate_retrieval(db, retrieval_queries, 5, metric,
                           ScanPolicy::kIndexed, PruningMode::kMaxScore);
    EXPECT_DOUBLE_EQ(pruned_quality.precision_at_k,
                     golden_quality.precision_at_k);
    EXPECT_DOUBLE_EQ(pruned_quality.mean_reciprocal_rank,
                     golden_quality.mean_reciprocal_rank);
    EXPECT_DOUBLE_EQ(pruned_quality.top1_accuracy,
                     golden_quality.top1_accuracy);
  }
}

TEST(PrunedSearch, ExactModeStatsReportFullScan) {
  util::Rng rng(0x57a7);
  SignatureDatabase db(1);
  for (int i = 0; i < 50; ++i) {
    db.add(random_sparse(rng, 16, 6), "label");
  }
  auto query = random_sparse(rng, 16, 6);
  while (query.empty()) query = random_sparse(rng, 16, 6);
  QueryStats stats;
  (void)db.search(query, 5, SimilarityMetric::kCosine, ScanPolicy::kIndexed,
                  PruningMode::kExact, &stats);
  EXPECT_EQ(stats.docs_scored, db.size());
  EXPECT_EQ(stats.docs_pruned, 0u);
  EXPECT_EQ(stats.postings_visited,
            db.index()->shard(0).num_postings_for(query));
}

}  // namespace
}  // namespace fmeter::core
