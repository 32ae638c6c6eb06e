// Compute-path robustness matrix: deadlines, cooperative cancellation,
// admission control and per-shard failure isolation across the execution
// stack (ISSUE 9). The contract under test, end to end:
//
//  * every failure mode yields a structured QueryOutcome, never a poisoned
//    batch — queries that completed keep bit-identical hits;
//  * cancellation is exercised at *every* checkpoint granularity via the
//    deterministic CancelToken::cancel_after_polls trip wire (checkpoint
//    placement is deterministic for a fixed corpus/query/k/mode, so the
//    sweep needs no timing);
//  * a throwing shard degrades exactly its query to a flagged partial
//    (remaining shards' hits survive) — injected through
//    RunOptions::inject_cell_fault, the query-path sibling of
//    io::FaultInjectingEnv;
//  * admission control rejects before any shard is touched;
//  * the engine and database remain fully usable after every one of the
//    above (each test re-runs the golden batch afterwards).
//
// This test also runs under TSan in CI: concurrent run_batch callers where
// one caller cancels mid-batch must leave the others bit-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/query_engine.hpp"
#include "fmeter/database.hpp"
#include "util/rng.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::core {
namespace {

vsm::SparseVector random_sparse(util::Rng& rng, std::uint32_t dimension,
                                std::size_t nnz) {
  std::vector<vsm::SparseVector::Entry> entries;
  for (std::size_t i = 0; i < nnz; ++i) {
    entries.emplace_back(
        static_cast<vsm::SparseVector::Index>(rng.below(dimension)),
        rng.uniform(0.05, 1.0));
  }
  return vsm::SparseVector::from_entries(std::move(entries));
}

SignatureDatabase build_db(std::size_t shards, std::size_t docs,
                           std::uint32_t dimension, std::size_t nnz,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<vsm::SparseVector> signatures;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < docs; ++i) {
    signatures.push_back(random_sparse(rng, dimension, 1 + rng.below(nnz)));
    labels.push_back("label-" + std::to_string(i % 7));
  }
  SignatureDatabase db(shards);
  db.add_batch(std::move(signatures), std::move(labels));
  return db;
}

std::vector<vsm::SparseVector> make_queries(std::size_t n,
                                            std::uint32_t dimension,
                                            std::size_t nnz,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<vsm::SparseVector> queries;
  for (std::size_t i = 0; i < n; ++i) {
    queries.push_back(random_sparse(rng, dimension, 1 + rng.below(nnz)));
  }
  return queries;
}

bool hits_identical(const std::vector<SearchHit>& actual,
                    const std::vector<SearchHit>& expected) {
  if (actual.size() != expected.size()) return false;
  for (std::size_t rank = 0; rank < actual.size(); ++rank) {
    if (actual[rank].id != expected[rank].id ||
        actual[rank].label != expected[rank].label ||
        actual[rank].score != expected[rank].score) {
      return false;
    }
  }
  return true;
}

void expect_hits_identical(const std::vector<SearchHit>& actual,
                           const std::vector<SearchHit>& expected,
                           const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t rank = 0; rank < actual.size(); ++rank) {
    EXPECT_EQ(actual[rank].id, expected[rank].id) << context << " rank "
                                                  << rank;
    EXPECT_EQ(actual[rank].label, expected[rank].label)
        << context << " rank " << rank;
    EXPECT_EQ(actual[rank].score, expected[rank].score)
        << context << " rank " << rank;
  }
}

/// The golden-after check every failure-mode test ends with: the database
/// (and the engine + arenas inside it) must serve the exact pre-failure
/// results once the failure condition is gone.
void expect_reusable(const SignatureDatabase& db,
                     const std::vector<vsm::SparseVector>& queries,
                     std::size_t k,
                     const std::vector<std::vector<SearchHit>>& golden,
                     const std::string& context) {
  std::vector<QueryOutcome> outcomes;
  SearchOptions options;
  options.outcomes = &outcomes;
  const auto after = db.search_batch(queries, k, SimilarityMetric::kCosine,
                                     ScanPolicy::kIndexed,
                                     PruningMode::kExact, nullptr, options);
  ASSERT_EQ(after.size(), golden.size()) << context;
  for (std::size_t q = 0; q < golden.size(); ++q) {
    EXPECT_EQ(outcomes[q], QueryOutcome::kOk) << context << " query " << q;
    expect_hits_identical(after[q], golden[q],
                          context + " reuse query " + std::to_string(q));
  }
}

TEST(QueryRobustness, PreCancelledTokenStopsEveryQueryImmediately) {
  const auto db = build_db(3, 240, 64, 12, 0xc0ffee);
  const auto queries = make_queries(10, 64, 12, 0x1234);
  const std::size_t k = 8;
  const auto golden = db.search_batch(queries, k);

  CancelToken token;
  token.cancel();
  std::vector<QueryOutcome> outcomes;
  QueryStats stats;
  SearchOptions options;
  options.deadline = Deadline::of_token(token);
  options.outcomes = &outcomes;
  const auto hits = db.search_batch(queries, k, SimilarityMetric::kCosine,
                                    ScanPolicy::kIndexed, PruningMode::kExact,
                                    &stats, options);
  ASSERT_EQ(outcomes.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(outcomes[q], QueryOutcome::kCancelled) << "query " << q;
    EXPECT_TRUE(hits[q].empty()) << "query " << q;
  }
  EXPECT_EQ(stats.cancelled, queries.size());
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_GE(stats.checkpoint_polls, 1u);

  expect_reusable(db, queries, k, golden, "after pre-cancel");
}

TEST(QueryRobustness, ExpiredDeadlineDegradesEveryQuery) {
  const auto db = build_db(4, 300, 64, 12, 0xdead11);
  const auto queries = make_queries(8, 64, 12, 0x5eed);
  const std::size_t k = 10;
  const auto golden = db.search_batch(queries, k);

  std::vector<QueryOutcome> outcomes;
  QueryStats stats;
  SearchOptions options;
  // Already-expired budget: the very first checkpoint of every cell trips.
  options.deadline = Deadline::after(Deadline::Clock::duration::zero());
  options.outcomes = &outcomes;
  const auto hits = db.search_batch(queries, k, SimilarityMetric::kCosine,
                                    ScanPolicy::kIndexed, PruningMode::kExact,
                                    &stats, options);
  ASSERT_EQ(outcomes.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(outcomes[q], QueryOutcome::kDeadlineExceeded) << "query " << q;
    EXPECT_TRUE(hits[q].empty()) << "query " << q;
  }
  EXPECT_EQ(stats.deadline_exceeded, queries.size());
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.partial_results, 0u);

  expect_reusable(db, queries, k, golden, "after expired deadline");
}

// The matrix core: abort the batch at checkpoint poll p for every p in
// [1, P] where P is the batch's deterministic total poll count. Every
// granularity must yield structured outcomes, keep completed queries
// bit-identical, and leave the database reusable.
TEST(QueryRobustness, CancelAtEveryCheckpointGranularity) {
  const auto db = build_db(3, 260, 64, 12, 0x92a19);
  const auto queries = make_queries(9, 64, 12, 0xfeed);
  const std::size_t k = 7;
  const auto golden = db.search_batch(queries, k);

  // Count the polls of an undisturbed instrumented run: a token that never
  // trips keeps the deadline active (so every checkpoint polls) without
  // changing any result.
  CancelToken idle;
  QueryStats probe_stats;
  std::vector<QueryOutcome> probe_outcomes;
  SearchOptions probe;
  probe.deadline = Deadline::of_token(idle);
  probe.outcomes = &probe_outcomes;
  const auto probed = db.search_batch(queries, k, SimilarityMetric::kCosine,
                                      ScanPolicy::kIndexed,
                                      PruningMode::kExact, &probe_stats,
                                      probe);
  const std::size_t total_polls = probe_stats.checkpoint_polls;
  ASSERT_GE(total_polls, queries.size())
      << "every (query, shard) cell polls at least once on its first charge";
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(probe_outcomes[q], QueryOutcome::kOk);
    expect_hits_identical(probed[q], golden[q],
                          "idle token query " + std::to_string(q));
  }

  for (std::size_t p = 1; p <= total_polls + 1; ++p) {
    CancelToken token;
    token.cancel_after_polls(static_cast<std::int64_t>(p));
    std::vector<QueryOutcome> outcomes;
    QueryStats stats;
    SearchOptions options;
    options.deadline = Deadline::of_token(token);
    options.outcomes = &outcomes;
    const auto hits = db.search_batch(queries, k, SimilarityMetric::kCosine,
                                      ScanPolicy::kIndexed,
                                      PruningMode::kExact, &stats, options);
    ASSERT_EQ(outcomes.size(), queries.size()) << "trip at poll " << p;

    std::size_t cancelled = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::string context =
          "trip at poll " + std::to_string(p) + " query " + std::to_string(q);
      if (outcomes[q] == QueryOutcome::kOk) {
        expect_hits_identical(hits[q], golden[q], context);
      } else {
        EXPECT_EQ(outcomes[q], QueryOutcome::kCancelled) << context;
        ++cancelled;
      }
    }
    EXPECT_EQ(stats.cancelled, cancelled) << "trip at poll " << p;
    if (p <= total_polls) {
      // The p-th poll both trips the token and observes it: at least the
      // polling cell's query is cancelled.
      EXPECT_GE(cancelled, 1u) << "trip at poll " << p;
    } else {
      // One poll past the end: the wire never trips and the batch is whole.
      EXPECT_EQ(cancelled, 0u);
      EXPECT_EQ(stats.checkpoint_polls, total_polls)
          << "checkpoint placement must be deterministic";
    }
  }

  expect_reusable(db, queries, k, golden, "after granularity sweep");
}

TEST(QueryRobustness, ThrowingShardDegradesOnlyItsQuery) {
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kDocs = 90;
  const auto db = build_db(kShards, kDocs, 48, 10, 0xbadca11);
  const auto queries = make_queries(6, 48, 10, 0xabcd);
  // k == corpus size: every hit list is the full ranking, so the victim's
  // expected result is the golden ranking minus the failed shard's docs.
  const std::size_t k = kDocs;
  const auto golden = db.search_batch(queries, k);

  constexpr std::size_t kVictim = 2;
  constexpr std::size_t kBadShard = 1;
  std::vector<QueryOutcome> outcomes;
  QueryStats stats;
  SearchOptions options;
  options.outcomes = &outcomes;
  options.inject_cell_fault = [](std::size_t query, std::size_t shard) {
    if (query == kVictim && shard == kBadShard) {
      throw std::runtime_error("injected shard fault");
    }
  };
  const auto hits = db.search_batch(queries, k, SimilarityMetric::kCosine,
                                    ScanPolicy::kIndexed, PruningMode::kExact,
                                    &stats, options);

  ASSERT_EQ(outcomes.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (q == kVictim) continue;
    EXPECT_EQ(outcomes[q], QueryOutcome::kOk) << "query " << q;
    expect_hits_identical(hits[q], golden[q],
                          "bystander query " + std::to_string(q));
  }
  EXPECT_EQ(outcomes[kVictim], QueryOutcome::kShardFailed);
  EXPECT_EQ(stats.shard_failed, 1u);
  EXPECT_EQ(stats.partial_results, 1u);

  // The victim keeps exactly the surviving shards' contribution: the golden
  // full ranking with the failed shard's documents (round-robin: global id
  // g lives in shard g % N) removed, order untouched.
  std::vector<SearchHit> expected;
  for (const auto& hit : golden[kVictim]) {
    if (hit.id % kShards != kBadShard) expected.push_back(hit);
  }
  expect_hits_identical(hits[kVictim], expected, "victim partial result");

  expect_reusable(db, queries, k, golden, "after shard fault");
}

TEST(QueryRobustness, ShardFailureRethrowsWithoutOutcomeSink) {
  const auto db = build_db(2, 60, 48, 10, 0x7777);
  const auto queries = make_queries(4, 48, 10, 0x8888);
  const std::size_t k = 5;
  const auto golden = db.search_batch(queries, k);

  SearchOptions options;  // no outcome sink => pre-taxonomy contract
  options.inject_cell_fault = [](std::size_t query, std::size_t) {
    if (query == 1) throw std::runtime_error("injected shard fault");
  };
  EXPECT_THROW(db.search_batch(queries, k, SimilarityMetric::kCosine,
                               ScanPolicy::kIndexed, PruningMode::kExact,
                               nullptr, options),
               std::runtime_error);

  expect_reusable(db, queries, k, golden, "after rethrow");
}

TEST(QueryRobustness, InflightBudgetRejectsWholeOversizedBatch) {
  auto db = build_db(2, 120, 48, 10, 0xad1111);
  const auto queries = make_queries(5, 48, 10, 0x2222);
  const std::size_t k = 6;
  const auto golden = db.search_batch(queries, k);

  db.set_admission({.max_inflight_queries = 2, .max_query_cost_docs = 0.0});

  // A batch wider than the budget can never be admitted: reject whole.
  for (const auto policy : {ScanPolicy::kIndexed, ScanPolicy::kBruteForce}) {
    std::vector<QueryOutcome> outcomes;
    QueryStats stats;
    SearchOptions options;
    options.outcomes = &outcomes;
    const auto hits = db.search_batch(queries, k, SimilarityMetric::kCosine,
                                      policy, PruningMode::kExact, &stats,
                                      options);
    ASSERT_EQ(outcomes.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(outcomes[q], QueryOutcome::kRejected) << "query " << q;
      EXPECT_TRUE(hits[q].empty()) << "query " << q;
    }
    EXPECT_EQ(stats.rejected, queries.size());
    EXPECT_EQ(db.inflight_queries(), 0u) << "rejection must not leak budget";
  }

  // A batch within the budget runs normally and releases its slots.
  const std::vector<vsm::SparseVector> small(queries.begin(),
                                             queries.begin() + 2);
  std::vector<QueryOutcome> outcomes;
  SearchOptions options;
  options.outcomes = &outcomes;
  const auto admitted = db.search_batch(small, k, SimilarityMetric::kCosine,
                                        ScanPolicy::kIndexed,
                                        PruningMode::kExact, nullptr, options);
  for (std::size_t q = 0; q < small.size(); ++q) {
    EXPECT_EQ(outcomes[q], QueryOutcome::kOk);
    expect_hits_identical(admitted[q], golden[q],
                          "admitted query " + std::to_string(q));
  }
  EXPECT_EQ(db.inflight_queries(), 0u);

  db.set_admission({});
  expect_reusable(db, queries, k, golden, "after admission off");
}

TEST(QueryRobustness, CostCapRejectsExpensiveQueriesIndividually) {
  auto db = build_db(3, 200, 64, 12, 0xc057);
  const std::size_t k = 8;

  // A one-term needle and a dense haystack query: the cost model separates
  // them by the posting mass their terms touch.
  util::Rng rng(0x3333);
  const auto cheap = random_sparse(rng, 64, 1);
  const auto dense = random_sparse(rng, 64, 40);
  const double cheap_cost = exec::QueryEngine::estimated_query_cost(
      *db.index(), cheap, k, index::Metric::kCosine, PruningMode::kExact);
  const double dense_cost = exec::QueryEngine::estimated_query_cost(
      *db.index(), dense, k, index::Metric::kCosine, PruningMode::kExact);
  ASSERT_LT(cheap_cost, dense_cost);

  const std::vector<vsm::SparseVector> queries = {cheap, dense};
  const auto golden = db.search_batch(queries, k);

  db.set_admission({.max_inflight_queries = 0,
                    .max_query_cost_docs = (cheap_cost + dense_cost) / 2.0});
  std::vector<QueryOutcome> outcomes;
  QueryStats stats;
  SearchOptions options;
  options.outcomes = &outcomes;
  const auto hits = db.search_batch(queries, k, SimilarityMetric::kCosine,
                                    ScanPolicy::kIndexed, PruningMode::kExact,
                                    &stats, options);
  EXPECT_EQ(outcomes[0], QueryOutcome::kOk);
  expect_hits_identical(hits[0], golden[0], "cheap query rides along");
  EXPECT_EQ(outcomes[1], QueryOutcome::kRejected);
  EXPECT_TRUE(hits[1].empty());
  EXPECT_EQ(stats.rejected, 1u);

  db.set_admission({});
  expect_reusable(db, queries, k, golden, "after cost cap off");
}

// TSan target: concurrent run_batch callers over one shared database, one
// caller repeatedly cancelling mid-batch. The undisturbed callers must stay
// bit-identical to the solo reference throughout, and the database must
// serve the exact golden batch after all threads join.
TEST(QueryRobustness, ConcurrentCancellationLeavesOtherCallersBitIdentical) {
  const auto db = build_db(4, 400, 64, 12, 0x715a11);
  const auto queries = make_queries(12, 64, 12, 0x4444);
  const std::size_t k = 9;
  const auto golden = db.search_batch(queries, k);

  constexpr int kCleanThreads = 3;
  constexpr int kIters = 6;
  std::atomic<bool> mismatch{false};
  std::atomic<bool> bad_outcome{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kCleanThreads; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < kIters; ++iter) {
        const auto hits = db.search_batch(queries, k);
        if (hits.size() != golden.size()) {
          mismatch.store(true);
          return;
        }
        for (std::size_t q = 0; q < golden.size(); ++q) {
          if (!hits_identical(hits[q], golden[q])) mismatch.store(true);
        }
      }
    });
  }
  // The cancelling caller: a fresh token per iteration, tripped at a
  // different checkpoint each time.
  threads.emplace_back([&] {
    for (int iter = 0; iter < kIters * 2; ++iter) {
      CancelToken token;
      token.cancel_after_polls(1 + iter * 3);
      std::vector<QueryOutcome> outcomes;
      SearchOptions options;
      options.deadline = Deadline::of_token(token);
      options.outcomes = &outcomes;
      const auto hits = db.search_batch(queries, k, SimilarityMetric::kCosine,
                                        ScanPolicy::kIndexed,
                                        PruningMode::kExact, nullptr, options);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        if (outcomes[q] == QueryOutcome::kOk) {
          if (!hits_identical(hits[q], golden[q])) mismatch.store(true);
        } else if (outcomes[q] != QueryOutcome::kCancelled) {
          bad_outcome.store(true);
        }
      }
    }
  });
  for (auto& thread : threads) thread.join();

  EXPECT_FALSE(mismatch.load())
      << "a concurrent caller diverged from the solo reference";
  EXPECT_FALSE(bad_outcome.load())
      << "a cancelled batch reported an outcome outside {ok, cancelled}";
  expect_reusable(db, queries, k, golden, "after concurrent cancellation");
}

// Scalar search() carries the same options contract as the batch paths.
TEST(QueryRobustness, ScalarSearchReportsOutcomes) {
  auto db = build_db(2, 150, 48, 10, 0x5ca1a);
  util::Rng rng(0x6666);
  const auto query = random_sparse(rng, 48, 10);
  const std::size_t k = 5;
  const auto golden = db.search(query, k);

  CancelToken token;
  token.cancel();
  std::vector<QueryOutcome> outcomes;
  SearchOptions options;
  options.deadline = Deadline::of_token(token);
  options.outcomes = &outcomes;
  const auto cancelled = db.search(query, k, SimilarityMetric::kCosine,
                                   ScanPolicy::kIndexed, PruningMode::kExact,
                                   nullptr, options);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes.front(), QueryOutcome::kCancelled);
  EXPECT_TRUE(cancelled.empty());

  db.set_admission({.max_inflight_queries = 0, .max_query_cost_docs = 1e-9});
  std::vector<QueryOutcome> reject_outcomes;
  SearchOptions reject;
  reject.outcomes = &reject_outcomes;
  const auto rejected = db.search(query, k, SimilarityMetric::kCosine,
                                  ScanPolicy::kIndexed, PruningMode::kExact,
                                  nullptr, reject);
  ASSERT_EQ(reject_outcomes.size(), 1u);
  EXPECT_EQ(reject_outcomes.front(), QueryOutcome::kRejected);
  EXPECT_TRUE(rejected.empty());

  db.set_admission({});
  const auto after = db.search(query, k);
  expect_hits_identical(after, golden, "scalar reuse");
}

}  // namespace
}  // namespace fmeter::core
