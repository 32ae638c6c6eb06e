// Cross-policy equivalence for the parallel query engine: over randomized
// corpora, the brute-force scan, the single-shard index, every N-shard
// configuration and the batched API must return bit-identical results —
// same ids, same labels, same ordering, same scores. Plus the defined
// degenerate behavior (k == 0 / empty query => no hits, no dispatch),
// Euclidean classification through the engine, the dispatch cost model
// pricing each shard at the kernel it runs, and a run over several parts
// placed side by side in one id space.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
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

constexpr std::size_t kShardCounts[] = {1, 2, 3, 5, 8};

vsm::SparseVector random_sparse(util::Rng& rng, std::uint32_t dimension,
                                std::size_t max_nnz,
                                bool allow_negative = false) {
  std::vector<vsm::SparseVector::Entry> entries;
  const std::size_t nnz = rng.below(max_nnz + 1);  // may be 0 => empty vector
  for (std::size_t i = 0; i < nnz; ++i) {
    double value = rng.uniform(0.05, 1.0);
    if (allow_negative && rng.bernoulli(0.3)) value = -value;
    entries.emplace_back(
        static_cast<vsm::SparseVector::Index>(rng.below(dimension)), value);
  }
  return vsm::SparseVector::from_entries(std::move(entries));
}

/// The same corpus replicated into one database per shard count.
std::vector<SignatureDatabase> replicated_dbs(util::Rng& rng, std::size_t n,
                                              std::uint32_t dimension,
                                              std::size_t max_nnz) {
  std::vector<SignatureDatabase> dbs;
  for (const std::size_t shards : kShardCounts) {
    dbs.emplace_back(shards);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto signature = random_sparse(rng, dimension, max_nnz);
    const auto label = "label-" + std::to_string(i % 5);
    for (auto& db : dbs) db.add(signature, label);
  }
  return dbs;
}

std::size_t id_of(const SearchHit& hit) { return hit.id; }
std::size_t id_of(const exec::IndexHit& hit) { return hit.doc; }

/// Same ids in the same order with bit-identical scores — database hits or
/// raw engine hits on either side; labels too when both sides carry them.
template <typename Actual, typename Expected>
void expect_hits_identical(const std::vector<Actual>& actual,
                           const std::vector<Expected>& expected,
                           const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t rank = 0; rank < actual.size(); ++rank) {
    EXPECT_EQ(id_of(actual[rank]), id_of(expected[rank]))
        << context << " rank " << rank;
    if constexpr (std::is_same_v<Actual, SearchHit> &&
                  std::is_same_v<Expected, SearchHit>) {
      EXPECT_EQ(actual[rank].label, expected[rank].label)
          << context << " rank " << rank;
    }
    EXPECT_EQ(actual[rank].score, expected[rank].score)
        << context << " rank " << rank;
  }
}

TEST(QueryEngine, AllShardCountsAndBatchingMatchBruteForce) {
  util::Rng rng(0x9a7e);
  for (int trial = 0; trial < 8; ++trial) {
    const auto dbs = replicated_dbs(rng, 30 + rng.below(50), 48, 10);

    std::vector<vsm::SparseVector> queries;
    for (int q = 0; q < 12; ++q) queries.push_back(random_sparse(rng, 48, 10));
    const std::size_t k = 1 + rng.below(10);

    for (const auto metric :
         {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
      // One golden reference per metric: the scan on the first replica (the
      // scan never touches the index, so any replica would do).
      const auto golden =
          dbs.front().search_batch(queries, k, metric, ScanPolicy::kBruteForce);
      for (std::size_t d = 0; d < dbs.size(); ++d) {
        const std::string context =
            "trial " + std::to_string(trial) + " shards " +
            std::to_string(dbs[d].num_shards()) +
            (metric == SimilarityMetric::kCosine ? " cosine" : " l2");
        // Batched path.
        const auto batched =
            dbs[d].search_batch(queries, k, metric, ScanPolicy::kIndexed);
        ASSERT_EQ(batched.size(), queries.size()) << context;
        for (std::size_t q = 0; q < queries.size(); ++q) {
          expect_hits_identical(batched[q], golden[q],
                                context + " batched query " + std::to_string(q));
        }
        // Scalar path (batch of one) on a sample of the queries.
        for (std::size_t q = 0; q < queries.size(); q += 4) {
          expect_hits_identical(
              dbs[d].search(queries[q], k, metric, ScanPolicy::kIndexed),
              golden[q], context + " scalar query " + std::to_string(q));
        }
      }
    }
  }

  // Edge inputs for the exact kernel's running top-k threshold, on a corpus
  // large enough that a 6-query batch fans out: a quarter of the documents
  // are one duplicated vector (hundreds tied exactly at the k-th score, so
  // the ranking rests on the id tie-break), a quarter are zero-norm, a
  // quarter carry negative weights. k runs up to and past the shard size.
  // The one-worker pool keeps every batch on the caller; the two-worker
  // pool must take the pooled branch, where every shard starts unseeded.
  const auto tied = vsm::SparseVector::from_entries({{2, 0.6}, {5, 0.8}});
  std::vector<vsm::SparseVector> corpus;
  constexpr std::size_t kEdgeDocs = 3200;
  for (std::size_t i = 0; i < kEdgeDocs; ++i) {
    switch (i % 4) {
      case 0: corpus.push_back(tied); break;
      case 1: corpus.emplace_back(); break;
      case 2: corpus.push_back(random_sparse(rng, 48, 10, true)); break;
      default: corpus.push_back(random_sparse(rng, 48, 10)); break;
    }
  }
  SignatureDatabase scan_db(1);
  for (const auto& doc : corpus) scan_db.add(doc, "edge");
  const std::vector<vsm::SparseVector> queries = {
      tied,
      tied.scaled(-1.0),  // the duplicates all score -1
      vsm::SparseVector::from_entries({{2, 1.0}, {7, -0.5}}),
      vsm::SparseVector::from_entries({{999, 1.0}}),  // scores all zero
      vsm::SparseVector::from_entries({{1, -0.7}, {5, 0.3}, {20, 0.9}})
          .scaled(3.0),
      vsm::SparseVector::from_entries({{5, 0.5}, {11, 0.5}, {40, 0.25}})};
  exec::TaskPool solo(1);
  exec::TaskPool duo(2);
  for (const std::size_t shards : {1, 2, 3, 8}) {
    exec::ShardedIndex index(shards);
    index = index.appended(std::span<const vsm::SparseVector>(corpus));
    const exec::QueryEngine inline_engine(index, &solo);
    const exec::QueryEngine pooled_engine(index, &duo);
    exec::QueryStats inline_stats;
    for (const std::size_t k : {std::size_t{1}, std::size_t{10},
                                kEdgeDocs / 8, kEdgeDocs}) {
      for (const auto metric :
           {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
        const auto golden =
            scan_db.search_batch(queries, k, metric, ScanPolicy::kBruteForce);
        const auto index_metric = metric == SimilarityMetric::kCosine
                                      ? exec::Metric::kCosine
                                      : exec::Metric::kEuclidean;
        for (const auto mode : {PruningMode::kExact, PruningMode::kAuto}) {
          const std::string context =
              "edge shards " + std::to_string(shards) + " k " +
              std::to_string(k) +
              (metric == SimilarityMetric::kCosine ? " cosine" : " l2") +
              (mode == PruningMode::kExact ? " exact" : " auto");
          exec::QueryStats pooled_stats;
          const auto inlined = inline_engine.run_batch(queries, k, index_metric,
                                                       mode, &inline_stats);
          const auto pooled = pooled_engine.run_batch(queries, k, index_metric,
                                                      mode, &pooled_stats);
          EXPECT_GT(pooled_stats.dispatch_pooled, 0u) << context;
          EXPECT_EQ(pooled_stats.dispatch_inline, 0u) << context;
          for (std::size_t q = 0; q < queries.size(); ++q) {
            expect_hits_identical(
                inlined[q], golden[q],
                context + " inline query " + std::to_string(q));
            expect_hits_identical(
                pooled[q], golden[q],
                context + " pooled query " + std::to_string(q));
          }
        }
      }
    }
    EXPECT_EQ(inline_stats.dispatch_pooled, 0u) << "shards " << shards;
  }
}

TEST(QueryEngine, ShardsArePricedAtTheKernelTheyRun) {
  // 4 × 4k documents: every shard sits below the kAuto crossover, so kAuto
  // and kMaxScore both run the exact kernel on each — 16k documents of
  // exact work, which clears the pooled gate even for a single query. The
  // cost model must price that work, not a pruned discount of it (priced
  // as pruned, the query would stay under the gate and run inline).
  util::Rng rng(0x5ca1ed);
  constexpr std::size_t k = 10;
  std::vector<vsm::SparseVector> corpus;
  for (int i = 0; i < 16000; ++i) corpus.push_back(random_sparse(rng, 32, 8));
  exec::ShardedIndex sharded(4);
  sharded = sharded.appended(std::span<const vsm::SparseVector>(corpus));
  for (const auto metric : {exec::Metric::kCosine, exec::Metric::kEuclidean}) {
    ASSERT_EQ(index::InvertedIndex::resolve_auto(sharded.shard(0).size(), k,
                                                 metric),
              PruningMode::kExact);
  }
  SignatureDatabase scan_db(1);
  scan_db.add_batch(corpus, std::vector<std::string>(corpus.size(), "doc"));

  auto query = random_sparse(rng, 32, 8);
  if (query.empty()) query = vsm::SparseVector::from_entries({{3, 1.0}});
  exec::TaskPool solo(1);
  const exec::QueryEngine reference(sharded, &solo);
  exec::QueryStats reference_stats;
  const auto exact = reference.run(query, k, exec::Metric::kCosine,
                                   PruningMode::kExact, &reference_stats);
  EXPECT_EQ(reference_stats.dispatch_inline, 1u);
  expect_hits_identical(exact,
                        scan_db.search(query, k, SimilarityMetric::kCosine,
                                       ScanPolicy::kBruteForce),
                        "inline exact vs scan");

  exec::TaskPool pool(2);
  for (const auto mode : {PruningMode::kAuto, PruningMode::kMaxScore}) {
    const std::string context =
        mode == PruningMode::kAuto ? "auto" : "maxscore";
    const exec::QueryEngine engine(sharded, &pool);
    exec::QueryStats stats;
    const auto hits = engine.run(query, k, exec::Metric::kCosine, mode, &stats);
    EXPECT_EQ(stats.dispatch_pooled, 1u) << context;
    EXPECT_EQ(stats.docs_scored, corpus.size()) << context;  // no pruning ran
    expect_hits_identical(hits, exact, context);
  }

  // Admission control prices through the same model.
  const auto cost = [&query, k](const exec::ShardedIndex& index,
                                exec::Metric metric, PruningMode mode) {
    return exec::QueryEngine::estimated_query_cost(index, query, k, metric,
                                                   mode);
  };
  for (const auto metric : {exec::Metric::kCosine, exec::Metric::kEuclidean}) {
    const double exact_cost = cost(sharded, metric, PruningMode::kExact);
    EXPECT_EQ(cost(sharded, metric, PruningMode::kAuto), exact_cost);
    EXPECT_EQ(cost(sharded, metric, PruningMode::kMaxScore), exact_cost);
  }

  // At the Euclidean crossover the shard really prunes under that metric,
  // and is priced below exact; cosine's crossover lies further out, so the
  // same shard still runs, and is priced as, the exact kernel for it.
  while (corpus.size() < 20000) corpus.push_back(random_sparse(rng, 32, 8));
  exec::ShardedIndex large(1);
  large = large.appended(std::span<const vsm::SparseVector>(corpus));
  ASSERT_EQ(index::InvertedIndex::resolve_auto(large.size(), k,
                                               exec::Metric::kEuclidean),
            PruningMode::kMaxScore);
  ASSERT_EQ(index::InvertedIndex::resolve_auto(large.size(), k,
                                               exec::Metric::kCosine),
            PruningMode::kExact);
  const double euclid_exact =
      cost(large, exec::Metric::kEuclidean, PruningMode::kExact);
  EXPECT_LT(cost(large, exec::Metric::kEuclidean, PruningMode::kAuto),
            euclid_exact);
  EXPECT_LT(cost(large, exec::Metric::kEuclidean, PruningMode::kMaxScore),
            euclid_exact);
  const double cosine_exact =
      cost(large, exec::Metric::kCosine, PruningMode::kExact);
  EXPECT_EQ(cost(large, exec::Metric::kCosine, PruningMode::kAuto),
            cosine_exact);
  EXPECT_EQ(cost(large, exec::Metric::kCosine, PruningMode::kMaxScore),
            cosine_exact);
}

// A multi-part run — a 4-shard index, two 1-shard ones and an empty one,
// each placed at its first id — answers like one bulk-built index of the
// same documents: bit-identical under kExact, within 1e-9 under the pruned
// modes, inline and pooled alike. Every 97th document is one duplicated
// vector, so the id tie-break runs across part boundaries.
TEST(QueryEngine, PartsAnswerLikeOneBulkBuiltIndex) {
  util::Rng rng(0x9a27);
  const auto tied = vsm::SparseVector::from_entries({{4, 0.5}, {9, 0.7}});
  std::vector<vsm::SparseVector> corpus;
  for (std::size_t i = 0; i < 3000; ++i) {
    corpus.push_back(i % 97 == 0 ? tied : random_sparse(rng, 48, 10));
  }
  const auto slice = [&corpus](std::size_t begin, std::size_t end) {
    return std::span<const vsm::SparseVector>(corpus).subspan(begin,
                                                              end - begin);
  };
  const exec::ShardedIndex first =
      exec::ShardedIndex(4).appended(slice(0, 2000));
  const exec::ShardedIndex empty(2);
  const exec::ShardedIndex second =
      exec::ShardedIndex(1).appended(slice(2000, 2700));
  const exec::ShardedIndex third =
      exec::ShardedIndex(1).appended(slice(2700, 3000));
  const exec::IndexPart parts[] = {
      {&first, 0}, {&empty, 2000}, {&second, 2000}, {&third, 2700}};
  const exec::ShardedIndex bulk =
      exec::ShardedIndex(3).appended(slice(0, corpus.size()));

  std::vector<vsm::SparseVector> queries = {tied};
  while (queries.size() < 8) queries.push_back(random_sparse(rng, 48, 10));
  exec::TaskPool solo(1);
  exec::TaskPool duo(2);
  const exec::QueryEngine reference(bulk, &solo);
  const exec::QueryEngine inline_engine(parts, &solo);
  const exec::QueryEngine pooled_engine(parts, &duo);
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{10}, std::size_t{60}}) {
    for (const auto metric :
         {exec::Metric::kCosine, exec::Metric::kEuclidean}) {
      for (const auto mode : {PruningMode::kExact, PruningMode::kMaxScore,
                              PruningMode::kAuto}) {
        const std::string context =
            "k " + std::to_string(k) +
            (metric == exec::Metric::kCosine ? " cosine" : " l2") + " mode " +
            std::to_string(static_cast<int>(mode));
        const auto want = reference.run_batch(queries, k, metric, mode);
        exec::QueryStats inline_stats;
        exec::QueryStats pooled_stats;
        const auto got_inline =
            inline_engine.run_batch(queries, k, metric, mode, &inline_stats);
        const auto got_pooled =
            pooled_engine.run_batch(queries, k, metric, mode, &pooled_stats);
        EXPECT_EQ(inline_stats.dispatch_pooled, 0u) << context;
        EXPECT_GT(pooled_stats.dispatch_pooled, 0u) << context;
        for (std::size_t q = 0; q < queries.size(); ++q) {
          for (const auto* got : {&got_inline[q], &got_pooled[q]}) {
            const std::string where = context + " query " + std::to_string(q) +
                                      (got == &got_inline[q] ? " inline"
                                                             : " pooled");
            if (mode == PruningMode::kExact) {
              expect_hits_identical(*got, want[q], where);
              continue;
            }
            ASSERT_EQ(got->size(), want[q].size()) << where;
            for (std::size_t r = 0; r < got->size(); ++r) {
              EXPECT_EQ((*got)[r].doc, want[q][r].doc)
                  << where << " rank " << r;
              EXPECT_NEAR((*got)[r].score, want[q][r].score, 1e-9)
                  << where << " rank " << r;
            }
          }
        }
      }
    }
  }
}

TEST(QueryEngine, IncrementalAddsKeepAllShardCountsEquivalent) {
  util::Rng rng(0x1bad);
  std::vector<SignatureDatabase> dbs;
  for (const std::size_t shards : kShardCounts) dbs.emplace_back(shards);
  for (int i = 0; i < 40; ++i) {
    const auto signature = random_sparse(rng, 24, 8);
    for (auto& db : dbs) db.add(signature, "label-" + std::to_string(i % 3));
    const auto query = random_sparse(rng, 24, 8);
    const auto golden =
        dbs.front().search(query, 5, SimilarityMetric::kCosine,
                           ScanPolicy::kBruteForce);
    for (const auto& db : dbs) {
      expect_hits_identical(
          db.search(query, 5, SimilarityMetric::kCosine, ScanPolicy::kIndexed),
          golden, "after add " + std::to_string(i) + " shards " +
                      std::to_string(db.num_shards()));
    }
  }
}

TEST(QueryEngine, KZeroAndEmptyQueriesShortCircuitWithoutDispatch) {
  util::Rng rng(0xd15c);
  exec::ShardedIndex index(4);
  // Large enough that a non-degenerate batch *does* dispatch (see the
  // control at the end) — otherwise the zero-dispatch assertions below
  // would hold vacuously via the small-index inline path.
  std::vector<vsm::SparseVector> corpus;
  for (int i = 0; i < 5000; ++i) corpus.push_back(random_sparse(rng, 32, 8));
  index = index.appended(std::span<const vsm::SparseVector>(corpus));

  exec::TaskPool pool(2);
  const exec::QueryEngine engine(index, &pool);

  std::vector<vsm::SparseVector> queries;
  for (int q = 0; q < 8; ++q) {
    queries.push_back(random_sparse(rng, 32, 8));
    if (queries.back().empty()) {
      queries.back() = vsm::SparseVector::from_entries(
          {{static_cast<vsm::SparseVector::Index>(q), 1.0}});
    }
  }

  // k == 0: per-query empty results, nothing reaches the pool.
  const auto zero_k = engine.run_batch(queries, 0);
  ASSERT_EQ(zero_k.size(), queries.size());
  for (const auto& hits : zero_k) EXPECT_TRUE(hits.empty());
  EXPECT_EQ(pool.span_batches(), 0u);
  EXPECT_EQ(pool.tasks_executed(), 0u);

  // A batch of only empty/all-zero queries: same story.
  const std::vector<vsm::SparseVector> empties(5);
  const auto no_hits = engine.run_batch(empties, 10);
  ASSERT_EQ(no_hits.size(), empties.size());
  for (const auto& hits : no_hits) EXPECT_TRUE(hits.empty());
  EXPECT_EQ(pool.span_batches(), 0u);
  EXPECT_EQ(pool.tasks_executed(), 0u);

  EXPECT_TRUE(engine.run(vsm::SparseVector(), 10).empty());
  EXPECT_EQ(pool.span_batches(), 0u);
  EXPECT_EQ(pool.tasks_executed(), 0u);

  // Control: the same batch with a valid k does dispatch — proving the
  // zero counts above came from the degenerate short-circuits, not from
  // an index too small to ever reach the pool. (span_batches, not
  // tasks_executed: on a loaded one-core host the caller can legitimately
  // drain the whole reservation grid before any worker wakes.)
  exec::QueryStats stats;
  const auto real = engine.run_batch(queries, 5, index::Metric::kCosine,
                                     exec::PruningMode::kExact, &stats);
  ASSERT_EQ(real.size(), queries.size());
  for (const auto& hits : real) EXPECT_EQ(hits.size(), 5u);
  EXPECT_EQ(pool.span_batches(), 1u);
  EXPECT_EQ(stats.dispatch_pooled, queries.size());
  EXPECT_EQ(stats.dispatch_inline, 0u);
  EXPECT_GT(stats.spans_reserved, 0u);
  EXPECT_EQ(pool.spans_reserved(), stats.spans_reserved);
}

TEST(QueryEngine, MixedBatchGivesEmptyQueriesNoHitsAndOthersFullHits) {
  util::Rng rng(0x3b1d);
  SignatureDatabase db(3);
  for (int i = 0; i < 20; ++i) {
    db.add(random_sparse(rng, 16, 6), "label-" + std::to_string(i % 2));
  }
  std::vector<vsm::SparseVector> queries;
  queries.push_back(vsm::SparseVector::from_entries({{3, 1.0}}));
  queries.push_back(vsm::SparseVector());  // empty in the middle
  queries.push_back(vsm::SparseVector::from_entries({{5, 0.5}, {9, 0.5}}));
  for (const auto policy : {ScanPolicy::kIndexed, ScanPolicy::kBruteForce}) {
    const auto results = db.search_batch(queries, 4, SimilarityMetric::kCosine,
                                         policy);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].size(), 4u);
    EXPECT_TRUE(results[1].empty());
    EXPECT_EQ(results[2].size(), 4u);
    expect_hits_identical(results[0], db.search(queries[0], 4), "mixed q0");
    expect_hits_identical(results[2], db.search(queries[2], 4), "mixed q2");
  }
}

TEST(QueryEngine, EuclideanClassifyDisagreesWithCosineWhereItShould) {
  // Centroid "short" and "long" point the same direction, so cosine cannot
  // tell them apart (tie resolves to the first-seen label); Euclidean must
  // pick the nearer magnitude — through both policies, i.e. the engine's
  // Euclidean scoring really is exercised end to end.
  SignatureDatabase db(2);
  db.add(vsm::SparseVector::from_entries({{0, 1.0}}), "short");
  db.add(vsm::SparseVector::from_entries({{0, 10.0}}), "long");
  const auto query = vsm::SparseVector::from_entries({{0, 9.0}});
  for (const auto policy : {ScanPolicy::kIndexed, ScanPolicy::kBruteForce}) {
    EXPECT_EQ(db.classify_by_syndrome(query, SimilarityMetric::kCosine, policy),
              "short");
    EXPECT_EQ(
        db.classify_by_syndrome(query, SimilarityMetric::kEuclidean, policy),
        "long");
  }
}

TEST(QueryEngine, ClassifyBySyndromeAgreesAcrossPoliciesOnShardedDbs) {
  util::Rng rng(0xc1a5);
  for (const std::size_t shards : kShardCounts) {
    SignatureDatabase db(shards);
    for (int i = 0; i < 60; ++i) {
      db.add(random_sparse(rng, 40, 9), "label-" + std::to_string(i % 6));
    }
    for (int q = 0; q < 20; ++q) {
      const auto query = random_sparse(rng, 40, 9);
      for (const auto metric :
           {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
        EXPECT_EQ(db.classify_by_syndrome(query, metric, ScanPolicy::kIndexed),
                  db.classify_by_syndrome(query, metric,
                                          ScanPolicy::kBruteForce))
            << "shards " << shards << " query " << q;
      }
    }
  }
}

TEST(QueryEngine, RetrievalEvaluationIdenticalAcrossPoliciesAndShards) {
  util::Rng rng(0x6e7a);
  std::vector<RetrievalQuery> queries;
  for (int q = 0; q < 25; ++q) {
    RetrievalQuery query;
    query.signature = random_sparse(rng, 32, 8);
    query.true_label = "label-" + std::to_string(rng.below(4));
    queries.push_back(std::move(query));
  }
  for (const std::size_t shards : kShardCounts) {
    SignatureDatabase db(shards);
    util::Rng corpus_rng(0xfeed);  // same corpus for every shard count
    for (int i = 0; i < 50; ++i) {
      db.add(random_sparse(corpus_rng, 32, 8), "label-" + std::to_string(i % 4));
    }
    for (const auto metric :
         {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
      const auto indexed =
          evaluate_retrieval(db, queries, 5, metric, ScanPolicy::kIndexed);
      const auto scanned =
          evaluate_retrieval(db, queries, 5, metric, ScanPolicy::kBruteForce);
      EXPECT_EQ(indexed.precision_at_k, scanned.precision_at_k)
          << "shards " << shards;
      EXPECT_EQ(indexed.mean_reciprocal_rank, scanned.mean_reciprocal_rank)
          << "shards " << shards;
      EXPECT_EQ(indexed.top1_accuracy, scanned.top1_accuracy)
          << "shards " << shards;
    }
  }
}

TEST(QueryEngine, SearchesIssuedFromInsidePoolTasksDoNotDeadlock) {
  // Every worker of a fixed-size pool running a search that fans subtasks
  // out to the *same* pool used to be a guaranteed deadlock (all workers
  // blocked as submitters). The engine must detect worker re-entry and run
  // inline instead — with identical results.
  util::Rng rng(0xdead);
  exec::ShardedIndex index(4);
  // Big enough to clear the engine's small-index inline cutoff: this test
  // must reach the dispatch path, or the re-entry guard goes unexercised.
  std::vector<vsm::SparseVector> corpus;
  for (int i = 0; i < 5000; ++i) corpus.push_back(random_sparse(rng, 32, 8));
  index = index.appended(std::span<const vsm::SparseVector>(corpus));

  std::vector<vsm::SparseVector> queries;
  for (int q = 0; q < 4; ++q) queries.push_back(random_sparse(rng, 32, 8));

  exec::TaskPool pool(2);
  const exec::QueryEngine engine(index, &pool);
  std::vector<std::future<std::vector<exec::IndexHit>>> pending;
  // 2x more nested searches than workers: without the inline fallback at
  // least two of these would block on subtasks nobody can pick up.
  for (int i = 0; i < 4; ++i) {
    pending.push_back(pool.submit(
        [&engine, &queries, i] { return engine.run(queries[i % 4], 6); }));
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const auto nested = pending[i].get();
    const auto direct = engine.run(queries[i % 4], 6);
    ASSERT_EQ(nested.size(), direct.size()) << "nested search " << i;
    for (std::size_t r = 0; r < nested.size(); ++r) {
      EXPECT_EQ(nested[r].doc, direct[r].doc);
      EXPECT_EQ(nested[r].score, direct[r].score);
    }
  }
}

TEST(QueryEngine, PointerBatchMatchesValueBatch) {
  util::Rng rng(0x9019);
  SignatureDatabase db(3);
  for (int i = 0; i < 30; ++i) {
    db.add(random_sparse(rng, 24, 7), "label-" + std::to_string(i % 3));
  }
  std::vector<vsm::SparseVector> queries;
  for (int q = 0; q < 10; ++q) queries.push_back(random_sparse(rng, 24, 7));
  std::vector<const vsm::SparseVector*> pointers;
  for (const auto& query : queries) pointers.push_back(&query);

  const auto by_value = db.search_batch(queries, 5);
  const auto by_pointer = db.search_batch(pointers, 5);
  ASSERT_EQ(by_value.size(), by_pointer.size());
  for (std::size_t q = 0; q < by_value.size(); ++q) {
    expect_hits_identical(by_pointer[q], by_value[q],
                          "pointer batch query " + std::to_string(q));
  }
}

TEST(QueryEngine, DedicatedPoolProducesSameResultsAsSharedPool) {
  util::Rng rng(0x9001);
  exec::ShardedIndex index(4);
  // Above the small-index inline cutoff so both engines actually dispatch.
  std::vector<vsm::SparseVector> corpus;
  for (int i = 0; i < 5000; ++i) corpus.push_back(random_sparse(rng, 32, 8));
  index = index.appended(std::span<const vsm::SparseVector>(corpus));

  std::vector<vsm::SparseVector> queries;
  for (int q = 0; q < 16; ++q) queries.push_back(random_sparse(rng, 32, 8));

  exec::TaskPool own_pool(3);
  const exec::QueryEngine shared_engine(index);
  const exec::QueryEngine own_engine(index, &own_pool);
  for (const auto metric : {exec::Metric::kCosine, exec::Metric::kEuclidean}) {
    const auto from_shared = shared_engine.run_batch(queries, 6, metric);
    const auto from_own = own_engine.run_batch(queries, 6, metric);
    ASSERT_EQ(from_shared.size(), from_own.size());
    for (std::size_t q = 0; q < from_shared.size(); ++q) {
      ASSERT_EQ(from_shared[q].size(), from_own[q].size()) << "query " << q;
      for (std::size_t r = 0; r < from_shared[q].size(); ++r) {
        EXPECT_EQ(from_shared[q][r].doc, from_own[q][r].doc);
        EXPECT_EQ(from_shared[q][r].score, from_own[q][r].score);
      }
    }
  }
}

TEST(QueryEngine, SchedulerStressOversubscribedConcurrentAndNested) {
  // The batch-reservation scheduler under everything at once (run under
  // TSan in CI): a pool oversubscribed well past the host's cores, many
  // threads running batches over it concurrently, nested re-entry from
  // inside pool tasks, and degenerate empty/one-query batches interleaved
  // throughout. Every batch builds a fresh engine, as the database
  // front-ends do, so engines come and go while pool workers score in
  // their own thread's scratch. Every result must stay bit-identical to a
  // single-threaded reference.
  util::Rng rng(0x57e5);
  exec::ShardedIndex index(5);
  std::vector<vsm::SparseVector> corpus;
  for (int i = 0; i < 6000; ++i) corpus.push_back(random_sparse(rng, 32, 8));
  index = index.appended(std::span<const vsm::SparseVector>(corpus));

  std::vector<vsm::SparseVector> queries;
  for (int q = 0; q < 24; ++q) {
    auto query = random_sparse(rng, 32, 8);
    if (query.empty()) {  // keep the reference lists non-degenerate
      query = vsm::SparseVector::from_entries(
          {{static_cast<vsm::SparseVector::Index>(q), 1.0}});
    }
    queries.push_back(std::move(query));
  }

  // Single-threaded reference through a one-worker pool (always inline).
  exec::TaskPool solo(1);
  const auto reference =
      exec::QueryEngine(index, &solo).run_batch(queries, 7);

  exec::TaskPool pool(3 * std::max(1u, std::thread::hardware_concurrency()));
  const auto search = [&index, &pool](std::span<const vsm::SparseVector> batch) {
    return exec::QueryEngine(index, &pool).run_batch(batch, 7);
  };

  const auto check = [&](const std::vector<std::vector<exec::IndexHit>>& got,
                         const char* context) {
    ASSERT_EQ(got.size(), reference.size()) << context;
    for (std::size_t q = 0; q < got.size(); ++q) {
      ASSERT_EQ(got[q].size(), reference[q].size()) << context << " q " << q;
      for (std::size_t r = 0; r < got[q].size(); ++r) {
        EXPECT_EQ(got[q][r].doc, reference[q][r].doc) << context << " q " << q;
        EXPECT_EQ(got[q][r].score, reference[q][r].score)
            << context << " q " << q;
      }
    }
  };

  // Nested re-entry: searches issued from inside pool tasks while outside
  // callers hammer the pooled path.
  std::vector<std::future<std::vector<std::vector<exec::IndexHit>>>> nested;
  for (int i = 0; i < 6; ++i) {
    nested.push_back(pool.submit(
        [&search, &queries, i] { return search({&queries[i % 24], 1}); }));
  }

  constexpr int kCallers = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> callers;
  std::vector<std::vector<std::vector<exec::IndexHit>>> outputs(kCallers);
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        // Degenerate batches between real ones: must not disturb anything.
        (void)search({});
        (void)search({&queries[static_cast<std::size_t>(c)], 1});
        outputs[c] = search(queries);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) {
    check(outputs[c], ("caller " + std::to_string(c)).c_str());
  }
  for (std::size_t i = 0; i < nested.size(); ++i) {
    const auto hits = nested[i].get().front();
    ASSERT_EQ(hits.size(), reference[i % 24].size()) << "nested " << i;
    for (std::size_t r = 0; r < hits.size(); ++r) {
      EXPECT_EQ(hits[r].doc, reference[i % 24][r].doc) << "nested " << i;
      EXPECT_EQ(hits[r].score, reference[i % 24][r].score) << "nested " << i;
    }
  }
}

TEST(QueryEngine, SteadyStateDispatchAllocationsStabilize) {
  // The dispatch buffers (floors, partial grid, span stats, eligible list)
  // and the scoring scratch belong to threads, not to an engine. After a
  // warm-up batch has sized them, identical batches through fresh engines
  // — one per batch, as every database front-end builds them — must grow
  // nothing: the process-wide growth counter stays flat across both the
  // inline and the pooled branch.
  util::Rng rng(0xa110);
  exec::ShardedIndex index(4);
  std::vector<vsm::SparseVector> corpus;
  for (int i = 0; i < 6000; ++i) corpus.push_back(random_sparse(rng, 32, 8));
  index = index.appended(std::span<const vsm::SparseVector>(corpus));

  std::vector<vsm::SparseVector> queries;
  for (int q = 0; q < 16; ++q) queries.push_back(random_sparse(rng, 32, 8));

  exec::TaskPool pool(3);
  const auto run_batch = [&](exec::PruningMode mode) {
    exec::QueryStats stats;
    (void)exec::QueryEngine(index, &pool)
        .run_batch(queries, 5, exec::Metric::kCosine, mode, &stats);
    return stats;
  };
  EXPECT_GT(run_batch(exec::PruningMode::kExact).dispatch_pooled, 0u);
  const auto after_warmup = exec::QueryEngine::dispatch_allocations();
  EXPECT_GT(after_warmup, 0u);  // some batch in this process sized them
  for (int round = 0; round < 5; ++round) {
    EXPECT_GT(run_batch(exec::PruningMode::kExact).dispatch_pooled, 0u);
    EXPECT_GT(run_batch(exec::PruningMode::kMaxScore).dispatch_pooled, 0u);
  }
  EXPECT_EQ(exec::QueryEngine::dispatch_allocations(), after_warmup);

  // Single queries reuse the same, already-sized buffers.
  exec::QueryStats single;
  for (int q = 0; q < 8; ++q) {
    (void)exec::QueryEngine(index, &pool)
        .run(queries[0], 5, exec::Metric::kCosine, exec::PruningMode::kExact,
             &single);
  }
  EXPECT_EQ(exec::QueryEngine::dispatch_allocations(), after_warmup);
}

}  // namespace
}  // namespace fmeter::core
