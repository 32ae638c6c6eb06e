// ShardedIndex: round-robin id mapping invariants, balanced shard fill,
// distinct-term and posting aggregation, memory accounting, and batch
// validation.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "exec/sharded_index.hpp"
#include "util/rng.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::exec {
namespace {

vsm::SparseVector random_sparse(util::Rng& rng, std::uint32_t dimension,
                                std::size_t max_nnz) {
  std::vector<vsm::SparseVector::Entry> entries;
  const std::size_t nnz = rng.below(max_nnz + 1);
  for (std::size_t i = 0; i < nnz; ++i) {
    entries.emplace_back(
        static_cast<vsm::SparseVector::Index>(rng.below(dimension)),
        rng.uniform(0.05, 1.0));
  }
  return vsm::SparseVector::from_entries(std::move(entries));
}

TEST(ShardedIndex, GlobalLocalMappingRoundTrips) {
  for (const std::size_t shards : {1u, 2u, 3u, 5u, 8u}) {
    const ShardedIndex index(shards);
    for (ShardedIndex::DocId global = 0; global < 100; ++global) {
      const std::size_t shard = index.shard_of(global);
      const auto local = index.local_of(global);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(index.global_of(shard, local), global)
          << shards << " shards, global " << global;
    }
  }
}

TEST(ShardedIndex, AppendedAssignsSequentialGlobalIdsAndBalancesShards) {
  util::Rng rng(0x51a2);
  ShardedIndex index(3);
  // Batches of uneven sizes: each one continues the round-robin where the
  // last left off, so global g always lives in shard g % 3 at local g / 3.
  std::vector<vsm::SparseVector> docs;
  for (int i = 0; i < 20; ++i) docs.push_back(random_sparse(rng, 32, 6));
  const std::span<const vsm::SparseVector> all(docs);
  index = index.appended(all.subspan(0, 7));
  index = index.appended(all.subspan(7, 1));
  index = index.appended(all.subspan(8));
  EXPECT_EQ(index.size(), 20u);
  for (ShardedIndex::DocId global = 0; global < 20; ++global) {
    const auto& shard = index.shard(index.shard_of(global));
    EXPECT_EQ(shard.norm(index.local_of(global)), docs[global].norm_l2())
        << "global " << global;
  }
  // Round-robin keeps shard sizes within one document of each other.
  std::size_t smallest = index.shard(0).size();
  std::size_t largest = smallest;
  std::size_t total = 0;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    const std::size_t docs = index.shard(s).size();
    smallest = std::min(smallest, docs);
    largest = std::max(largest, docs);
    total += docs;
  }
  EXPECT_EQ(total, 20u);
  EXPECT_LE(largest - smallest, 1u);
}

TEST(ShardedIndex, ZeroShardRequestClampsToOne) {
  ShardedIndex index(0);
  EXPECT_EQ(index.num_shards(), 1u);
  const std::vector<vsm::SparseVector> docs{
      vsm::SparseVector::from_entries({{0, 1.0}})};
  index = index.appended(std::span<const vsm::SparseVector>(docs));
  EXPECT_EQ(index.size(), 1u);
}

TEST(ShardedIndex, NumTermsCountsDistinctTermsAcrossShards) {
  ShardedIndex index(2);
  // Term 7 lands in both shards; it must count once globally even though
  // each shard reports it separately.
  const std::vector<vsm::SparseVector> docs{
      vsm::SparseVector::from_entries({{7, 1.0}, {3, 0.5}}),  // shard 0
      vsm::SparseVector::from_entries({{7, 2.0}}),            // shard 1
      vsm::SparseVector::from_entries({{11, 1.0}})};          // shard 0
  index = index.appended(std::span<const vsm::SparseVector>(docs));
  EXPECT_EQ(index.num_terms(), 3u);  // terms 3, 7, 11
  EXPECT_EQ(index.num_postings(), 4u);
  std::size_t per_shard_term_sum = 0;
  for (const auto& stats : index.shard_stats()) {
    per_shard_term_sum += stats.terms;
  }
  EXPECT_EQ(per_shard_term_sum, 4u);  // 7,3 in shard 0 + 7 in shard 1 + 11
}

TEST(ShardedIndex, ShardStatsSumToAggregates) {
  util::Rng rng(0x57a7);
  ShardedIndex index(4);
  std::vector<vsm::SparseVector> corpus;
  for (int i = 0; i < 40; ++i) corpus.push_back(random_sparse(rng, 64, 10));
  index = index.appended(std::span<const vsm::SparseVector>(corpus));

  const auto stats = index.shard_stats();
  ASSERT_EQ(stats.size(), 4u);
  std::size_t docs = 0;
  std::size_t postings = 0;
  std::size_t memory = 0;
  for (const auto& shard : stats) {
    docs += shard.docs;
    postings += shard.postings;
    memory += shard.memory_bytes;
  }
  EXPECT_EQ(docs, index.size());
  EXPECT_EQ(postings, index.num_postings());
  // Aggregate = the sum of the shard footprints.
  EXPECT_EQ(index.memory_bytes(), memory);
}

TEST(ShardedIndex, MemoryBytesTracksContent) {
  ShardedIndex index(2);
  EXPECT_EQ(index.num_postings(), 0u);
  const std::size_t before = index.memory_bytes();
  util::Rng rng(0x3e3);
  std::vector<vsm::SparseVector> corpus;
  for (int i = 0; i < 30; ++i) corpus.push_back(random_sparse(rng, 48, 8));
  index = index.appended(std::span<const vsm::SparseVector>(corpus));
  // Postings dominate the footprint: at least one (doc, weight) pair per
  // posting must be accounted for.
  EXPECT_GE(index.memory_bytes(),
            before + index.num_postings() *
                         (sizeof(std::uint32_t) + sizeof(double)));
}

TEST(ShardedIndex, RejectedBatchLeavesIndexUnchangedAndUsable) {
  // A non-finite weight in a later shard's slice must reject the whole
  // batch before any shard builds its part: with 2 shards and
  // [ok, ok, NaN], shard 0's slice alone is clean. The index appended to
  // is untouched and keeps taking batches.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<vsm::SparseVector> good{
      vsm::SparseVector::from_entries({{0, 1.0}}),
      vsm::SparseVector::from_entries({{1, 1.0}}),
      vsm::SparseVector::from_entries({{2, 1.0}})};
  const std::vector<vsm::SparseVector> bad{
      vsm::SparseVector::from_entries({{0, 1.0}}),
      vsm::SparseVector::from_entries({{1, 1.0}}),
      vsm::SparseVector::from_entries({{2, nan}})};
  const ShardedIndex index =
      ShardedIndex(2).appended(std::span<const vsm::SparseVector>(good));
  const ShardedIndex before = index;
  EXPECT_THROW((void)index.appended(std::span<const vsm::SparseVector>(bad)),
               std::invalid_argument);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.num_terms(), 3u);
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    EXPECT_TRUE(index.shard(s) == before.shard(s)) << "shard " << s;
  }

  const ShardedIndex grown =
      index.appended(std::span<const vsm::SparseVector>(good));
  EXPECT_EQ(grown.size(), 6u);
  EXPECT_EQ(grown.shard(0).size(), 3u);
  EXPECT_EQ(grown.shard(1).size(), 3u);
  EXPECT_EQ(grown.num_terms(), 3u);
  EXPECT_EQ(grown.num_postings(), 6u);
}

}  // namespace
}  // namespace fmeter::exec
