// Golden-equivalence suite for the inverted index: for every metric and
// corpus shape, the indexed top-k must equal the brute-force scan top-k —
// same ids, same labels, same ordering, and equal scores.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "fmeter/database.hpp"
#include "index/inverted_index.hpp"
#include "util/rng.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::core {
namespace {

vsm::SparseVector random_sparse(util::Rng& rng, std::uint32_t dimension,
                                std::size_t max_nnz,
                                bool allow_negative = false) {
  std::vector<vsm::SparseVector::Entry> entries;
  const std::size_t nnz = rng.below(max_nnz + 1);  // may be 0 => empty vector
  for (std::size_t i = 0; i < nnz; ++i) {
    const auto term = static_cast<vsm::SparseVector::Index>(
        rng.below(dimension));
    double value = rng.uniform(0.05, 1.0);
    if (allow_negative && rng.bernoulli(0.3)) value = -value;
    entries.emplace_back(term, value);
  }
  return vsm::SparseVector::from_entries(std::move(entries));
}

SignatureDatabase random_db(util::Rng& rng, std::size_t n,
                            std::uint32_t dimension, std::size_t max_nnz,
                            bool allow_negative = false) {
  SignatureDatabase db;
  for (std::size_t i = 0; i < n; ++i) {
    db.add(random_sparse(rng, dimension, max_nnz, allow_negative),
           "label-" + std::to_string(i % 7));
  }
  return db;
}

void expect_hits_identical(const std::vector<SearchHit>& indexed,
                           const std::vector<SearchHit>& scanned,
                           const std::string& context) {
  ASSERT_EQ(indexed.size(), scanned.size()) << context;
  for (std::size_t rank = 0; rank < indexed.size(); ++rank) {
    EXPECT_EQ(indexed[rank].id, scanned[rank].id)
        << context << " rank " << rank;
    EXPECT_EQ(indexed[rank].label, scanned[rank].label)
        << context << " rank " << rank;
    EXPECT_EQ(indexed[rank].score, scanned[rank].score)
        << context << " rank " << rank;
  }
}

void expect_golden_equivalence(const SignatureDatabase& db,
                               const vsm::SparseVector& query, std::size_t k,
                               const std::string& context) {
  for (const auto metric :
       {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
    const auto indexed = db.search(query, k, metric, ScanPolicy::kIndexed);
    const auto scanned = db.search(query, k, metric, ScanPolicy::kBruteForce);
    expect_hits_identical(
        indexed, scanned,
        context + (metric == SimilarityMetric::kCosine ? " cosine" : " l2"));
  }
}

TEST(InvertedIndex, AddBatchTracksStats) {
  index::InvertedIndex idx;
  EXPECT_TRUE(idx.empty());
  idx = idx.appended(std::vector<vsm::SparseVector>{
      vsm::SparseVector::from_entries({{0, 1.0}, {4, 2.0}}),
      vsm::SparseVector::from_entries({{4, 1.0}}),
      vsm::SparseVector()});  // empty doc is still a doc
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.num_terms(), 2u);     // terms 0 and 4
  EXPECT_EQ(idx.num_postings(), 3u);  // 2 + 1 + 0
  EXPECT_DOUBLE_EQ(idx.norm(1), 1.0);
  EXPECT_DOUBLE_EQ(idx.norm(2), 0.0);
  EXPECT_DOUBLE_EQ(idx.max_weight(4), 2.0);
  EXPECT_DOUBLE_EQ(idx.min_weight(4), 1.0);

  // A second batch continues the id space; norms stay addressed by public
  // id through the rebuilt permutation.
  idx = idx.appended(std::vector<vsm::SparseVector>{
      vsm::SparseVector::from_entries({{9, -3.0}})});
  EXPECT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx.num_terms(), 3u);
  EXPECT_EQ(idx.num_postings(), 4u);
  EXPECT_DOUBLE_EQ(idx.norm(0), std::sqrt(5.0));
  EXPECT_DOUBLE_EQ(idx.norm(3), 3.0);
  EXPECT_DOUBLE_EQ(idx.min_weight(9), -3.0);
  EXPECT_DOUBLE_EQ(idx.max_weight(9), -3.0);

  // A non-finite weight anywhere rejects the whole batch, index unchanged.
  EXPECT_THROW(idx.appended(std::vector<vsm::SparseVector>{
                   vsm::SparseVector::from_entries({{1, 1.0}}),
                   vsm::SparseVector::from_entries(
                       {{2, std::numeric_limits<double>::infinity()}})}),
               std::invalid_argument);
  EXPECT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx.num_postings(), 4u);
}

TEST(InvertedIndex, AppendedRejectsTermIdsThatDoNotStrictlyIncrease) {
  // A raw view skips SparseVector's ordering rule, so appended() enforces
  // it: a repeated term would put one document twice in a posting span.
  const index::InvertedIndex idx = index::InvertedIndex().appended(
      std::vector<vsm::SparseVector>{
          vsm::SparseVector::from_entries({{1, 1.0}, {4, 2.0}})});
  const std::vector<std::uint32_t> ok_terms = {0, 3};
  const std::vector<std::uint32_t> duplicate_terms = {2, 2};
  const std::vector<std::uint32_t> descending_terms = {5, 3};
  const std::vector<double> weights = {1.0, 0.5};
  for (const auto* terms : {&duplicate_terms, &descending_terms}) {
    const std::vector<vsm::SparseView> batch = {{ok_terms, weights},
                                                {*terms, weights}};
    EXPECT_THROW(idx.appended(batch), std::invalid_argument);
  }
  // The index is a value: a rejected batch leaves it as it was.
  EXPECT_TRUE(idx == index::InvertedIndex().appended(
                         std::vector<vsm::SparseVector>{
                             vsm::SparseVector::from_entries(
                                 {{1, 1.0}, {4, 2.0}})}));
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx.num_postings(), 2u);
}

TEST(InvertedIndex, TopKOnEmptyIndexIsEmpty) {
  const index::InvertedIndex idx;
  EXPECT_TRUE(idx.top_k(vsm::SparseVector::from_entries({{0, 1.0}}), 5).empty());
}

TEST(InvertedIndex, RandomizedCorporaMatchBruteForce) {
  util::Rng rng(0xf33d);
  for (int trial = 0; trial < 20; ++trial) {
    const auto db = random_db(rng, 40 + rng.below(60), 64, 12);
    for (int q = 0; q < 10; ++q) {
      const auto query = random_sparse(rng, 64, 12);
      const std::size_t k = 1 + rng.below(12);
      expect_golden_equivalence(db, query, k,
                                "trial " + std::to_string(trial) + " query " +
                                    std::to_string(q));
    }
  }
}

TEST(InvertedIndex, NegativeWeightsMatchBruteForce) {
  // tf-idf weights are non-negative, but the index must not assume it.
  util::Rng rng(0xbead);
  const auto db = random_db(rng, 60, 32, 10, /*allow_negative=*/true);
  for (int q = 0; q < 20; ++q) {
    const auto query = random_sparse(rng, 32, 10, /*allow_negative=*/true);
    expect_golden_equivalence(db, query, 8, "negative query " +
                                                std::to_string(q));
  }
}

TEST(InvertedIndex, EmptyQueryVectorReturnsNoHitsInBothPaths) {
  util::Rng rng(0xcafe);
  const auto db = random_db(rng, 30, 16, 6);
  // The all-zero/empty query is defined to return no hits — a zero
  // signature carries no evidence to rank by — and both policies (plus the
  // golden-equivalence harness) must agree on that.
  for (const auto metric :
       {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
    for (const auto policy : {ScanPolicy::kIndexed, ScanPolicy::kBruteForce}) {
      EXPECT_TRUE(db.search(vsm::SparseVector(), 10, metric, policy).empty());
    }
  }
  expect_golden_equivalence(db, vsm::SparseVector(), 10, "empty query");
}

TEST(InvertedIndex, EmptyStoredVectorsMatchBruteForce) {
  SignatureDatabase db;
  db.add(vsm::SparseVector(), "empty-0");
  db.add(vsm::SparseVector::from_entries({{1, 1.0}}), "one");
  db.add(vsm::SparseVector(), "empty-2");
  db.add(vsm::SparseVector::from_entries({{1, 0.5}, {2, 0.5}}), "two");
  const auto query = vsm::SparseVector::from_entries({{1, 1.0}});
  expect_golden_equivalence(db, query, 4, "empty stored");
  // Cosine against an empty vector is 0, so both empties rank after the
  // matches, ordered by ascending id.
  const auto hits = db.search(query, 4);
  EXPECT_EQ(hits[2].id, 0u);
  EXPECT_EQ(hits[3].id, 2u);
}

TEST(InvertedIndex, DuplicateScoresTieBreakByAscendingId) {
  SignatureDatabase db;
  // Five exact duplicates: every score ties, so ranking must be id order.
  const auto v = vsm::SparseVector::from_entries({{3, 1.0}}).l2_normalized();
  for (int i = 0; i < 5; ++i) db.add(v, "dup");
  const auto query = vsm::SparseVector::from_entries({{3, 2.0}});
  for (const auto metric :
       {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
    for (const auto policy : {ScanPolicy::kIndexed, ScanPolicy::kBruteForce}) {
      const auto hits = db.search(query, 3, metric, policy);
      ASSERT_EQ(hits.size(), 3u);
      EXPECT_EQ(hits[0].id, 0u);
      EXPECT_EQ(hits[1].id, 1u);
      EXPECT_EQ(hits[2].id, 2u);
    }
  }
  expect_golden_equivalence(db, query, 5, "duplicates");
}

TEST(InvertedIndex, ExactMatchEuclideanScoreIsNegativeZeroInBothPaths) {
  // The scan negates the distance's +0.0, producing -0.0; the index's clamp
  // must match it bit-for-bit, sign included.
  SignatureDatabase db;
  const auto v = vsm::SparseVector::from_entries({{2, 0.6}, {9, 0.8}});
  db.add(v, "self");
  for (const auto policy : {ScanPolicy::kIndexed, ScanPolicy::kBruteForce}) {
    const auto hits = db.search(v, 1, SimilarityMetric::kEuclidean, policy);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].score, 0.0);
    EXPECT_TRUE(std::signbit(hits[0].score));
  }
}

TEST(InvertedIndex, KLargerThanSizeClamps) {
  util::Rng rng(0x5eed);
  const auto db = random_db(rng, 7, 16, 5);
  // Non-empty by construction: the clamp behavior under test must not
  // collapse into the empty-query "no hits" rule.
  const auto query = vsm::SparseVector::from_entries({{2, 0.7}, {9, 0.4}});
  for (const auto policy : {ScanPolicy::kIndexed, ScanPolicy::kBruteForce}) {
    EXPECT_EQ(db.search(query, 100, SimilarityMetric::kCosine, policy).size(),
              7u);
  }
  expect_golden_equivalence(db, query, 100, "k > size");
}

TEST(InvertedIndex, KZeroReturnsNothing) {
  util::Rng rng(1);
  const auto db = random_db(rng, 5, 8, 4);
  const auto query = random_sparse(rng, 8, 4);
  for (const auto policy : {ScanPolicy::kIndexed, ScanPolicy::kBruteForce}) {
    EXPECT_TRUE(db.search(query, 0, SimilarityMetric::kCosine, policy).empty());
  }
}

TEST(InvertedIndex, ClassifyBySyndromeAgreesAcrossPolicies) {
  util::Rng rng(0xabcd);
  const auto db = random_db(rng, 80, 48, 10);
  for (int q = 0; q < 30; ++q) {
    const auto query = random_sparse(rng, 48, 10);
    for (const auto metric :
         {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
      EXPECT_EQ(db.classify_by_syndrome(query, metric, ScanPolicy::kIndexed),
                db.classify_by_syndrome(query, metric,
                                        ScanPolicy::kBruteForce))
          << "query " << q;
    }
  }
}

TEST(InvertedIndex, QueryWithTermsBeyondIndexedSpace) {
  SignatureDatabase db;
  db.add(vsm::SparseVector::from_entries({{0, 1.0}}), "low");
  // Query mentions term 1000, which no stored signature has.
  const auto query =
      vsm::SparseVector::from_entries({{0, 0.5}, {1000, 1.0}});
  expect_golden_equivalence(db, query, 1, "out-of-space term");
}

TEST(InvertedIndex, IncrementalAddsStayEquivalent) {
  util::Rng rng(0x1d00);
  SignatureDatabase db;
  for (int i = 0; i < 50; ++i) {
    db.add(random_sparse(rng, 24, 8), "label-" + std::to_string(i % 3));
    const auto query = random_sparse(rng, 24, 8);
    expect_golden_equivalence(db, query, 5,
                              "after add " + std::to_string(i));
  }
}

}  // namespace
}  // namespace fmeter::core
