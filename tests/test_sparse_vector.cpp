#include "vsm/sparse_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace fmeter::vsm {
namespace {

SparseVector make(std::vector<SparseVector::Entry> entries) {
  return SparseVector::from_entries(std::move(entries));
}

TEST(SparseVector, FromEntriesSortsAndDeduplicates) {
  const auto v = make({{5, 1.0}, {2, 2.0}, {5, 3.0}});
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_DOUBLE_EQ(v.at(2), 2.0);
  EXPECT_DOUBLE_EQ(v.at(5), 4.0);
}

TEST(SparseVector, FromEntriesDropsZeros) {
  const auto v = make({{1, 0.0}, {2, 5.0}, {3, 2.0}, {3, -2.0}});
  EXPECT_EQ(v.nnz(), 1u);
  EXPECT_DOUBLE_EQ(v.at(2), 5.0);
}

TEST(SparseVector, AtAbsentIndexIsZero) {
  const auto v = make({{10, 1.0}});
  EXPECT_EQ(v.at(9), 0.0);
  EXPECT_EQ(v.at(11), 0.0);
}

TEST(SparseVector, FromDenseRoundTrip) {
  const std::vector<double> dense = {0.0, 1.5, 0.0, -2.0, 0.0};
  const auto v = SparseVector::from_dense(dense);
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_EQ(v.to_dense(5), dense);
}

TEST(SparseVector, DimensionBound) {
  EXPECT_EQ(SparseVector().dimension_bound(), 0u);
  EXPECT_EQ(make({{7, 1.0}}).dimension_bound(), 8u);
}

TEST(SparseVector, ToDenseTooSmallThrows) {
  const auto v = make({{7, 1.0}});
  EXPECT_THROW(v.to_dense(7), std::invalid_argument);
}

TEST(SparseVector, DotProductMergeJoin) {
  const auto a = make({{0, 1.0}, {2, 2.0}, {5, 3.0}});
  const auto b = make({{2, 4.0}, {5, -1.0}, {9, 10.0}});
  EXPECT_DOUBLE_EQ(a.dot(b), 2.0 * 4.0 + 3.0 * -1.0);
  EXPECT_DOUBLE_EQ(a.dot(b), b.dot(a));
}

TEST(SparseVector, DotWithEmptyIsZero) {
  const auto a = make({{1, 2.0}});
  EXPECT_EQ(a.dot(SparseVector()), 0.0);
}

TEST(SparseVector, Norms) {
  const auto v = make({{0, 3.0}, {1, -4.0}});
  EXPECT_DOUBLE_EQ(v.norm_l1(), 7.0);
  EXPECT_DOUBLE_EQ(v.norm_l2(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm_lp(2.0), 5.0);
  EXPECT_NEAR(v.norm_lp(1.0), 7.0, 1e-12);
}

TEST(SparseVector, NormLpBelowOneThrows) {
  const auto v = make({{0, 1.0}});
  EXPECT_THROW(v.norm_lp(0.5), std::invalid_argument);
}

TEST(SparseVector, ScaledAndNormalized) {
  const auto v = make({{0, 3.0}, {1, 4.0}});
  const auto s = v.scaled(2.0);
  EXPECT_DOUBLE_EQ(s.at(0), 6.0);
  const auto n = v.l2_normalized();
  EXPECT_NEAR(n.norm_l2(), 1.0, 1e-12);
  EXPECT_NEAR(n.at(0), 0.6, 1e-12);
}

TEST(SparseVector, NormalizeZeroVectorIsNoop) {
  const SparseVector zero;
  EXPECT_EQ(zero.l2_normalized(), zero);
}

TEST(SparseVector, ScaleByZeroGivesEmpty) {
  const auto v = make({{3, 2.0}});
  EXPECT_TRUE(v.scaled(0.0).empty());
}

TEST(SparseVector, PlusMinus) {
  const auto a = make({{0, 1.0}, {2, 2.0}});
  const auto b = make({{2, 3.0}, {4, 4.0}});
  const auto sum = a.plus(b);
  EXPECT_DOUBLE_EQ(sum.at(0), 1.0);
  EXPECT_DOUBLE_EQ(sum.at(2), 5.0);
  EXPECT_DOUBLE_EQ(sum.at(4), 4.0);
  const auto diff = a.minus(a);
  EXPECT_TRUE(diff.empty());
}

TEST(SparseVector, AddToAccumulatesWeighted) {
  const auto v = make({{1, 2.0}, {3, 1.0}});
  std::vector<double> dense(4, 1.0);
  v.add_to(dense, 0.5);
  EXPECT_DOUBLE_EQ(dense[1], 2.0);
  EXPECT_DOUBLE_EQ(dense[3], 1.5);
  EXPECT_DOUBLE_EQ(dense[0], 1.0);
}

TEST(SparseVector, EuclideanDistanceKnown) {
  const auto a = make({{0, 1.0}});
  const auto b = make({{1, 1.0}});
  EXPECT_NEAR(euclidean_distance(a, b), std::sqrt(2.0), 1e-12);
  EXPECT_EQ(euclidean_distance(a, a), 0.0);
}

TEST(SparseVector, MinkowskiMatchesEuclideanAtP2) {
  util::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<SparseVector::Entry> ea;
    std::vector<SparseVector::Entry> eb;
    for (int i = 0; i < 30; ++i) {
      if (rng.bernoulli(0.5)) ea.emplace_back(i, rng.uniform(-2.0, 2.0));
      if (rng.bernoulli(0.5)) eb.emplace_back(i, rng.uniform(-2.0, 2.0));
    }
    const auto a = make(std::move(ea));
    const auto b = make(std::move(eb));
    EXPECT_NEAR(minkowski_distance(a, b, 2.0), euclidean_distance(a, b), 1e-9);
  }
}

TEST(SparseVector, MinkowskiP1IsManhattan) {
  const auto a = make({{0, 1.0}, {1, 2.0}});
  const auto b = make({{0, 4.0}, {2, 1.0}});
  EXPECT_NEAR(minkowski_distance(a, b, 1.0), 3.0 + 2.0 + 1.0, 1e-12);
}

TEST(SparseVector, CosineIdenticalDirection) {
  const auto a = make({{0, 1.0}, {1, 2.0}});
  EXPECT_NEAR(cosine_similarity(a, a.scaled(5.0)), 1.0, 1e-12);
}

TEST(SparseVector, CosineOrthogonal) {
  const auto a = make({{0, 1.0}});
  const auto b = make({{1, 1.0}});
  EXPECT_EQ(cosine_similarity(a, b), 0.0);
}

TEST(SparseVector, CosineOpposite) {
  const auto a = make({{0, 1.0}});
  EXPECT_NEAR(cosine_similarity(a, a.scaled(-1.0)), -1.0, 1e-12);
}

TEST(SparseVector, CosineWithZeroVectorIsZero) {
  const auto a = make({{0, 1.0}});
  EXPECT_EQ(cosine_similarity(a, SparseVector()), 0.0);
}

TEST(SparseVector, PlusEqualsSummingTheConcatenatedEntries) {
  // plus is a merge join; summing the concatenation through from_entries
  // is its definition. Random runs over a small index range collide
  // often, and exact cancellations must drop like from_entries drops
  // them, so the two agree to the bit.
  util::Rng rng(0x9105);
  for (int round = 0; round < 500; ++round) {
    std::vector<SparseVector::Entry> a_entries;
    std::vector<SparseVector::Entry> b_entries;
    for (SparseVector::Index i = 0; i < 24; ++i) {
      if (rng.bernoulli(0.5)) a_entries.emplace_back(i, rng.uniform(-2.0, 2.0));
      if (rng.bernoulli(0.5)) {
        // Every fifth shared index cancels exactly.
        const bool shared = !a_entries.empty() && a_entries.back().first == i;
        const double value = shared && rng.bernoulli(0.2)
                                 ? -a_entries.back().second
                                 : rng.uniform(-2.0, 2.0);
        b_entries.emplace_back(i, value);
      }
    }
    const SparseVector a = make(a_entries);
    const SparseVector b = make(b_entries);
    std::vector<SparseVector::Entry> all = a_entries;
    all.insert(all.end(), b_entries.begin(), b_entries.end());
    const SparseVector want = make(std::move(all));
    const SparseVector got = a.plus(b);
    ASSERT_TRUE(std::ranges::equal(got.indices(), want.indices()))
        << "round " << round;
    for (std::size_t k = 0; k < want.nnz(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.values()[k]),
                std::bit_cast<std::uint64_t>(want.values()[k]))
          << "round " << round << " entry " << k;
    }
  }
}

// --- property-style sweeps ---------------------------------------------------

class SparseVectorProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  SparseVector random_vector(util::Rng& rng, int dim = 50) {
    std::vector<SparseVector::Entry> entries;
    for (int i = 0; i < dim; ++i) {
      if (rng.bernoulli(0.4)) {
        entries.emplace_back(static_cast<SparseVector::Index>(i),
                             rng.uniform(-3.0, 3.0));
      }
    }
    return SparseVector::from_entries(std::move(entries));
  }
};

TEST_P(SparseVectorProperties, CosineScaleInvariance) {
  util::Rng rng(GetParam());
  const auto a = random_vector(rng);
  const auto b = random_vector(rng);
  const double alpha = rng.uniform(0.1, 10.0);
  const double beta = rng.uniform(0.1, 10.0);
  EXPECT_NEAR(cosine_similarity(a.scaled(alpha), b.scaled(beta)),
              cosine_similarity(a, b), 1e-9);
}

TEST_P(SparseVectorProperties, TriangleInequality) {
  util::Rng rng(GetParam() ^ 0xabcdULL);
  const auto a = random_vector(rng);
  const auto b = random_vector(rng);
  const auto c = random_vector(rng);
  EXPECT_LE(euclidean_distance(a, c),
            euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-9);
}

TEST_P(SparseVectorProperties, CauchySchwarz) {
  util::Rng rng(GetParam() ^ 0x1234ULL);
  const auto a = random_vector(rng);
  const auto b = random_vector(rng);
  EXPECT_LE(std::abs(a.dot(b)), a.norm_l2() * b.norm_l2() + 1e-9);
}

TEST_P(SparseVectorProperties, DistanceSymmetry) {
  util::Rng rng(GetParam() ^ 0x9999ULL);
  const auto a = random_vector(rng);
  const auto b = random_vector(rng);
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), euclidean_distance(b, a));
}

TEST_P(SparseVectorProperties, DenseSparseDotAgreement) {
  util::Rng rng(GetParam() ^ 0x7777ULL);
  const auto a = random_vector(rng);
  const auto b = random_vector(rng);
  const auto da = a.to_dense(64);
  const auto db = b.to_dense(64);
  double expected = 0.0;
  for (int i = 0; i < 64; ++i) expected += da[i] * db[i];
  EXPECT_NEAR(a.dot(b), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseVectorProperties,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(SparseVector, FromSortedMatchesFromEntries) {
  const auto trusted = SparseVector::from_sorted({1, 5, 9}, {0.5, -2.0, 1.25});
  const auto general =
      SparseVector::from_entries({{5, -2.0}, {1, 0.5}, {9, 1.25}});
  EXPECT_TRUE(trusted == general);
  EXPECT_TRUE(SparseVector::from_sorted({}, {}) == SparseVector());
}

TEST(SparseVector, FromSortedRejectsInvariantViolations) {
  EXPECT_THROW(SparseVector::from_sorted({1, 2}, {1.0}),
               std::invalid_argument);  // misaligned arrays
  EXPECT_THROW(SparseVector::from_sorted({2, 1}, {1.0, 1.0}),
               std::invalid_argument);  // out of order
  EXPECT_THROW(SparseVector::from_sorted({1, 1}, {1.0, 1.0}),
               std::invalid_argument);  // duplicate index
  EXPECT_THROW(SparseVector::from_sorted({1, 2}, {1.0, 0.0}),
               std::invalid_argument);  // stored zero
}

}  // namespace
}  // namespace fmeter::vsm
