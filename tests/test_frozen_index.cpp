// Property suite for the posting arena and parallel bulk ingest.
//
// The build contract: how documents are split into appended() calls
// changes nothing but build cost — the exact path stays *bit-identical*
// across any interleaving of builds and queries, the pruned path keeps its
// same-set/same-order/1e-9 contract, parallel per-shard builds on a
// TaskPool produce byte-for-byte the same index as an inline build, and a
// database's lazy indexing of scalar adds answers exactly like a bulk
// build. Everything here is seeded-RNG and wall-clock free; the
// parallel-build tests run under the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "exec/query_engine.hpp"
#include "exec/sharded_index.hpp"
#include "exec/task_pool.hpp"
#include "fmeter/database.hpp"
#include "index/arena_allocator.hpp"
#include "index/inverted_index.hpp"
#include "index/kernels.hpp"
#include "snapshot_files.hpp"
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

/// Bit-identical hits: same docs, same order, scores equal to the last bit.
void expect_hits_identical(const std::vector<index::IndexHit>& got,
                           const std::vector<index::IndexHit>& want,
                           const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].doc, want[r].doc) << context << " rank " << r;
    EXPECT_EQ(got[r].score, want[r].score) << context << " rank " << r;
  }
}

void expect_hits_close(const std::vector<index::IndexHit>& got,
                       const std::vector<index::IndexHit>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].doc, want[r].doc) << context << " rank " << r;
    EXPECT_NEAR(got[r].score, want[r].score, kScoreTolerance)
        << context << " rank " << r;
  }
}

TEST(FrozenIndex, BatchSplitNeverMovesExactResults) {
  util::Rng rng(0xf4023);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 40 + rng.below(80);
    std::vector<vsm::SparseVector> docs;
    for (std::size_t i = 0; i < n; ++i) {
      docs.push_back(random_sparse(rng, 48, 10, /*allow_negative=*/true));
    }
    index::InvertedIndex whole;
    whole = whole.appended(docs);
    // The same documents in random-sized batches.
    index::InvertedIndex split;
    const std::span<const vsm::SparseVector> all(docs);
    for (std::size_t at = 0; at < n;) {
      const std::size_t len = std::min(n - at, 1 + rng.below(30));
      split = split.appended(all.subspan(at, len));
      at += len;
    }
    ASSERT_EQ(split.size(), n);
    EXPECT_EQ(split.num_postings(), whole.num_postings());
    EXPECT_EQ(split.num_terms(), whole.num_terms());
    for (int q = 0; q < 6; ++q) {
      const auto query = random_sparse(rng, 48, 10, /*allow_negative=*/true);
      for (const auto metric :
           {index::Metric::kCosine, index::Metric::kEuclidean}) {
        for (const std::size_t k : {std::size_t{1}, std::size_t{7}, n}) {
          const auto want = whole.top_k(query, k, metric);
          const auto got = split.top_k(query, k, metric);
          expect_hits_identical(got, want,
                                "trial " + std::to_string(trial) + " k " +
                                    std::to_string(k));
          // The pruned path keeps the weaker contract vs the same golden
          // results.
          const auto pruned = split.top_k_pruned(query, k, metric);
          expect_hits_close(pruned, want,
                            "pruned trial " + std::to_string(trial) + " k " +
                                std::to_string(k));
        }
      }
    }
  }
}

TEST(FrozenIndex, BulkBuildMatchesScalarAddsAcrossShardCounts) {
  util::Rng rng(0xb01c);
  for (const std::size_t shards : kShardCounts) {
    std::vector<vsm::SparseVector> signatures;
    std::vector<std::string> labels;
    for (int i = 0; i < 90; ++i) {
      signatures.push_back(random_sparse(rng, 40, 9));
      labels.push_back("label-" + std::to_string(i % 6));
    }
    SignatureDatabase incremental(shards);
    for (std::size_t i = 0; i < signatures.size(); ++i) {
      incremental.add(signatures[i], labels[i]);
    }
    SignatureDatabase bulk(shards);
    const std::size_t first = bulk.add_batch(signatures, labels);
    EXPECT_EQ(first, 0u);
    ASSERT_EQ(bulk.size(), incremental.size());
    for (int q = 0; q < 8; ++q) {
      const auto query = random_sparse(rng, 40, 9);
      for (const auto metric :
           {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
        const auto golden =
            incremental.search(query, 8, metric, ScanPolicy::kBruteForce);
        const auto exact = bulk.search(query, 8, metric);
        ASSERT_EQ(exact.size(), golden.size());
        for (std::size_t r = 0; r < golden.size(); ++r) {
          EXPECT_EQ(exact[r].id, golden[r].id) << "shards " << shards;
          EXPECT_EQ(exact[r].label, golden[r].label) << "shards " << shards;
          EXPECT_EQ(exact[r].score, golden[r].score) << "shards " << shards;
        }
        const auto pruned = bulk.search(query, 8, metric, ScanPolicy::kIndexed,
                                        PruningMode::kMaxScore);
        ASSERT_EQ(pruned.size(), golden.size());
        for (std::size_t r = 0; r < golden.size(); ++r) {
          EXPECT_EQ(pruned[r].id, golden[r].id) << "shards " << shards;
          EXPECT_NEAR(pruned[r].score, golden[r].score, kScoreTolerance)
              << "shards " << shards;
        }
      }
    }
  }
}

TEST(FrozenIndex, ScalarAddsThenSearchMatchAddBatchBuildInEveryMode) {
  // N scalar add() calls index nothing; the first indexed search indexes
  // all N with one build. That build must be byte-for-byte the add_batch
  // build of the same documents, so every mode answers bit-identically.
  util::Rng rng(0x5ca1a);
  for (const std::size_t shards : kShardCounts) {
    std::vector<vsm::SparseVector> signatures;
    std::vector<std::string> labels;
    for (int i = 0; i < 150; ++i) {
      signatures.push_back(random_sparse(rng, 48, 10, /*allow_negative=*/true));
      labels.push_back("label-" + std::to_string(i % 5));
    }
    SignatureDatabase scalar(shards);
    for (std::size_t i = 0; i < signatures.size(); ++i) {
      scalar.add(signatures[i], labels[i]);
    }
    SignatureDatabase bulk(shards);
    bulk.add_batch(signatures, labels);
    const std::string context = std::to_string(shards) + " shards";
    for (int q = 0; q < 6; ++q) {
      const auto query = random_sparse(rng, 48, 10, /*allow_negative=*/true);
      for (const auto metric :
           {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
        for (const auto mode : {PruningMode::kExact, PruningMode::kMaxScore,
                                PruningMode::kAuto}) {
          const auto want =
              bulk.search(query, 9, metric, ScanPolicy::kIndexed, mode);
          const auto got =
              scalar.search(query, 9, metric, ScanPolicy::kIndexed, mode);
          ASSERT_EQ(got.size(), want.size()) << context;
          for (std::size_t r = 0; r < want.size(); ++r) {
            EXPECT_EQ(got[r].id, want[r].id) << context << " rank " << r;
            EXPECT_EQ(got[r].label, want[r].label) << context << " rank " << r;
            EXPECT_EQ(got[r].score, want[r].score) << context << " rank " << r;
          }
        }
      }
    }
    const auto scalar_stats = scalar.index()->shard_stats();
    const auto bulk_stats = bulk.index()->shard_stats();
    ASSERT_EQ(scalar_stats.size(), bulk_stats.size());
    for (std::size_t s = 0; s < bulk_stats.size(); ++s) {
      EXPECT_EQ(scalar_stats[s].docs, bulk_stats[s].docs) << context;
      EXPECT_EQ(scalar_stats[s].terms, bulk_stats[s].terms) << context;
      EXPECT_EQ(scalar_stats[s].postings, bulk_stats[s].postings) << context;
    }
  }
}

TEST(FrozenIndex, BoundsStayFreshAcrossAddBatchQueryInterleavings) {
  // Every build recomputes the per-term max/min bounds and the per-block
  // metadata. A freshness bug in either would make the pruned path
  // silently drop documents — so interleave builds of every size with
  // queries and re-check the pruned contract after each step.
  util::Rng rng(0x1ce9);
  index::InvertedIndex idx;
  index::TopKScratch scratch;
  const auto check = [&](const std::string& context) {
    for (int q = 0; q < 4; ++q) {
      const auto query = random_sparse(rng, 32, 8, /*allow_negative=*/true);
      for (const auto metric :
           {index::Metric::kCosine, index::Metric::kEuclidean}) {
        const auto exact = idx.top_k(query, 6, metric, &scratch);
        const auto pruned = idx.top_k_pruned(query, 6, metric, &scratch);
        expect_hits_close(pruned, exact, context);
      }
    }
  };
  for (int round = 0; round < 6; ++round) {
    std::vector<vsm::SparseVector> docs;
    const int batch = round % 2 == 0 ? 25 : 1;
    for (int i = 0; i < batch; ++i) {
      docs.push_back(random_sparse(rng, 32, 8, /*allow_negative=*/true));
    }
    idx = idx.appended(docs);
    check("round " + std::to_string(round));
  }
  idx = idx.appended(std::span<const vsm::SparseVector>());  // empty: a no-op
  check("after empty batch");
}

TEST(FrozenIndex, ParallelBulkBuildIsDeterministic) {
  // appended() fans per-shard builds onto the pool; the result must be
  // byte-for-byte the inline build on a one-worker pool (same shard
  // contents, same stats, bit-identical queries) on every run. This is the
  // configuration the TSan CI job exercises for the parallel ingest path.
  util::Rng rng(0xde7e3);
  std::vector<vsm::SparseVector> docs;
  for (int i = 0; i < 6000; ++i) docs.push_back(random_sparse(rng, 64, 10));

  exec::TaskPool one_worker(1);
  const auto sequential = exec::ShardedIndex(4).appended(
      std::span<const vsm::SparseVector>(docs), &one_worker);

  exec::TaskPool pool(3);
  for (int run = 0; run < 2; ++run) {
    const auto parallel = exec::ShardedIndex(4).appended(
        std::span<const vsm::SparseVector>(docs), &pool);
    ASSERT_EQ(parallel.size(), sequential.size()) << "run " << run;
    EXPECT_EQ(parallel.num_terms(), sequential.num_terms()) << "run " << run;
    EXPECT_EQ(parallel.num_postings(), sequential.num_postings())
        << "run " << run;
    const auto seq_stats = sequential.shard_stats();
    const auto par_stats = parallel.shard_stats();
    ASSERT_EQ(par_stats.size(), seq_stats.size());
    for (std::size_t s = 0; s < seq_stats.size(); ++s) {
      EXPECT_EQ(par_stats[s].docs, seq_stats[s].docs) << "shard " << s;
      EXPECT_EQ(par_stats[s].postings, seq_stats[s].postings) << "shard " << s;
      EXPECT_EQ(par_stats[s].terms, seq_stats[s].terms) << "shard " << s;
    }
    const exec::QueryEngine seq_engine(sequential, &pool);
    const exec::QueryEngine par_engine(parallel, &pool);
    for (int q = 0; q < 10; ++q) {
      const auto query = random_sparse(rng, 64, 10);
      for (const auto metric :
           {index::Metric::kCosine, index::Metric::kEuclidean}) {
        expect_hits_identical(par_engine.run(query, 5, metric),
                              seq_engine.run(query, 5, metric),
                              "run " + std::to_string(run) + " query " +
                                  std::to_string(q));
      }
    }
  }
}

TEST(FrozenIndex, IncrementalAddAfterBulkBatchKeepsContracts) {
  // Bulk-load history, then stream new incidents in one scalar add at a
  // time: each indexed search first indexes the adds since the last one.
  util::Rng rng(0x7a11);
  std::vector<vsm::SparseVector> docs;
  std::vector<std::string> labels;
  for (int i = 0; i < 60; ++i) {
    docs.push_back(random_sparse(rng, 36, 8));
    labels.push_back("bulk-" + std::to_string(i % 4));
  }
  SignatureDatabase db(2);
  db.add_batch(docs, labels);
  SignatureDatabase reference(2);
  for (std::size_t i = 0; i < docs.size(); ++i) reference.add(docs[i], labels[i]);
  for (int i = 0; i < 30; ++i) {
    const auto doc = random_sparse(rng, 36, 8);
    db.add(doc, "tail");
    reference.add(doc, "tail");
    if (i % 10 == 9) {
      const auto query = random_sparse(rng, 36, 8);
      for (const auto metric :
           {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
        const auto golden =
            reference.search(query, 7, metric, ScanPolicy::kBruteForce);
        const auto exact = db.search(query, 7, metric);
        const auto pruned = db.search(query, 7, metric, ScanPolicy::kIndexed,
                                      PruningMode::kMaxScore);
        ASSERT_EQ(exact.size(), golden.size());
        ASSERT_EQ(pruned.size(), golden.size());
        for (std::size_t r = 0; r < golden.size(); ++r) {
          EXPECT_EQ(exact[r].id, golden[r].id) << "after tail add " << i;
          EXPECT_EQ(exact[r].score, golden[r].score) << "after tail add " << i;
          EXPECT_EQ(pruned[r].id, golden[r].id) << "after tail add " << i;
          EXPECT_NEAR(pruned[r].score, golden[r].score, kScoreTolerance)
              << "after tail add " << i;
        }
      }
    }
  }
}

TEST(FrozenIndex, MemoryBreakdownComponentsSum) {
  util::Rng rng(0x3e3);
  index::InvertedIndex idx;
  EXPECT_EQ(idx.memory_breakdown().total(), idx.memory_bytes());
  std::vector<vsm::SparseVector> docs;
  for (int i = 0; i < 200; ++i) docs.push_back(random_sparse(rng, 48, 10));
  idx = idx.appended(docs);
  const auto mem = idx.memory_breakdown();
  EXPECT_EQ(mem.total(), idx.memory_bytes());
  EXPECT_GT(mem.blocks, 0u);
  EXPECT_GT(mem.offsets, 0u);
  EXPECT_GT(mem.postings, 0u);
  EXPECT_GT(mem.forward, 0u);

  // Sharded aggregation: per-shard breakdowns sum to the global one; the
  // sharded layer holds no arrays of its own.
  exec::ShardedIndex sharded(3);
  std::vector<vsm::SparseVector> corpus;
  for (int i = 0; i < 150; ++i) corpus.push_back(random_sparse(rng, 48, 10));
  sharded = sharded.appended(std::span<const vsm::SparseVector>(corpus));
  const auto global = sharded.memory_breakdown();
  EXPECT_EQ(global.total(), sharded.memory_bytes());
  index::MemoryBreakdown summed;
  for (const auto& stats : sharded.shard_stats()) {
    EXPECT_EQ(stats.memory.total(), stats.memory_bytes);
    summed += stats.memory;
  }
  EXPECT_EQ(global.postings, summed.postings);
  EXPECT_EQ(global.blocks, summed.blocks);
  EXPECT_EQ(global.forward, summed.forward);
  EXPECT_EQ(global.offsets, summed.offsets);
}

TEST(FrozenIndex, AutoCosineCutoffIs60000Docs) {
  using index::InvertedIndex;
  using index::PruningMode;
  constexpr auto kCosine = index::Metric::kCosine;
  EXPECT_EQ(InvertedIndex::resolve_auto(32768, 10, kCosine),
            PruningMode::kExact);
  EXPECT_EQ(InvertedIndex::resolve_auto(59999, 10, kCosine),
            PruningMode::kExact);
  EXPECT_EQ(InvertedIndex::resolve_auto(60000, 10, kCosine),
            PruningMode::kMaxScore);
  // The k rule still holds at the cutoff: 60000 / 16 = 3750.
  EXPECT_EQ(InvertedIndex::resolve_auto(60000, 3750, kCosine),
            PruningMode::kMaxScore);
  EXPECT_EQ(InvertedIndex::resolve_auto(60000, 3751, kCosine),
            PruningMode::kExact);
}

TEST(FrozenIndex, AutoEuclideanCutoffIs20000Docs) {
  using index::InvertedIndex;
  using index::PruningMode;
  constexpr auto kEuclidean = index::Metric::kEuclidean;
  EXPECT_EQ(InvertedIndex::resolve_auto(19999, 10, kEuclidean),
            PruningMode::kExact);
  EXPECT_EQ(InvertedIndex::resolve_auto(20000, 10, kEuclidean),
            PruningMode::kMaxScore);
  EXPECT_EQ(InvertedIndex::resolve_auto(32768, 10, kEuclidean),
            PruningMode::kMaxScore);
  // The k rule still holds at the cutoff: 20000 / 16 = 1250.
  EXPECT_EQ(InvertedIndex::resolve_auto(20000, 1250, kEuclidean),
            PruningMode::kMaxScore);
  EXPECT_EQ(InvertedIndex::resolve_auto(20000, 1251, kEuclidean),
            PruningMode::kExact);
}

TEST(FrozenIndex, AutoModeResolvesByShardSizeAndMatchesGolden) {
  using index::InvertedIndex;
  using index::PruningMode;
  // The measured crossovers (see resolve_auto): the exact kernel beats
  // pruning below 60000 docs for cosine and below 20000 for Euclidean.
  const auto resolve = [](std::size_t docs, std::size_t k, index::Metric m) {
    return InvertedIndex::resolve_auto(docs, k, m);
  };
  for (const auto metric : {index::Metric::kCosine, index::Metric::kEuclidean}) {
    EXPECT_EQ(resolve(1000, 10, metric), PruningMode::kExact);
    EXPECT_EQ(resolve(10000, 10, metric), PruningMode::kExact);
    EXPECT_EQ(resolve(100000, 10, metric), PruningMode::kMaxScore);
    // Near-full retrieval gives the bounds nothing to discard.
    EXPECT_EQ(resolve(100000, 8000, metric), PruningMode::kExact);
  }

  util::Rng rng(0xa070);
  // Small database: kAuto must take the exact path — bit-identical hits.
  SignatureDatabase small(2);
  for (int i = 0; i < 120; ++i) {
    small.add(random_sparse(rng, 32, 8), "label-" + std::to_string(i % 3));
  }
  for (int q = 0; q < 6; ++q) {
    const auto query = random_sparse(rng, 32, 8);
    for (const auto metric :
         {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
      const auto golden = small.search(query, 5, metric, ScanPolicy::kBruteForce);
      const auto autod = small.search(query, 5, metric, ScanPolicy::kIndexed,
                                      PruningMode::kAuto);
      ASSERT_EQ(autod.size(), golden.size());
      for (std::size_t r = 0; r < golden.size(); ++r) {
        EXPECT_EQ(autod[r].id, golden[r].id);
        EXPECT_EQ(autod[r].score, golden[r].score);  // exact ⇒ bit-identical
      }
    }
  }

  // A 5k single shard sits below the crossover: kAuto must take the exact
  // path, which the bit-identical comparison pins down, and prune nothing.
  // Clustered classes on permuted term slices, the corpus shape pruning
  // works on (a uniform random corpus takes the give-up branch by design).
  std::vector<std::vector<std::uint32_t>> perm(4,
                                               std::vector<std::uint32_t>(128));
  for (std::size_t c = 0; c < perm.size(); ++c) {
    for (std::uint32_t i = 0; i < 128; ++i) perm[c][i] = i;
    if (c > 0) {
      for (std::uint32_t i = 128; i > 1; --i) {
        std::swap(perm[c][i - 1], perm[c][rng.below(i)]);
      }
    }
  }
  std::vector<vsm::SparseVector> docs;
  for (int i = 0; i < 5000; ++i) {
    std::vector<vsm::SparseVector::Entry> entries;
    for (int t = 0; t < 16; ++t) {
      const auto rank = static_cast<std::size_t>(
          rng.uniform() * rng.uniform() * 128.0);
      entries.emplace_back(
          perm[static_cast<std::size_t>(i) % perm.size()]
              [std::min<std::size_t>(rank, 127)],
          std::exp(rng.normal(0.0, 2.0)));
    }
    docs.push_back(
        vsm::SparseVector::from_entries(std::move(entries)).l2_normalized());
  }
  exec::ShardedIndex sharded(1);
  sharded = sharded.appended(std::span<const vsm::SparseVector>(docs));
  const exec::QueryEngine engine(sharded);
  for (int q = 0; q < 5; ++q) {
    const auto& query = docs[rng.below(docs.size())];
    const auto exact = engine.run(query, 10, index::Metric::kCosine);
    exec::QueryStats stats;
    const auto autod = engine.run(query, 10, index::Metric::kCosine,
                                  PruningMode::kAuto, &stats);
    expect_hits_identical(autod, exact, "auto query " + std::to_string(q));
    EXPECT_EQ(stats.docs_pruned, 0u)
        << "a 5k shard sits below the crossover";
  }
}

TEST(FrozenIndex, BlockSkippingReducesPostingsVisited) {
  // The workload block skipping exists for: a tight cluster of mutually
  // similar signatures (one recurring behavior) buried in a large archive
  // of unrelated ones, queried with k spanning the cluster. The survivors
  // are exactly the cluster, the doc reordering makes them contiguous in
  // internal id space, and finishing them off the forward store is dearer
  // than walking the remaining lists — so the tail phase walks the lists
  // block-by-block and skips every block that holds only archive noise.
  // The pruned path must return the same hits as the exact one while
  // touching fewer postings and actually skipping blocks.
  util::Rng rng(0xb10c);
  constexpr std::size_t kClusterDocs = 1200;
  constexpr std::size_t kNoiseDocs = 30000;
  constexpr std::uint32_t kClusterTerms = 50;  // terms 0..49 are the cluster's
  constexpr std::uint32_t kDim = 950;
  std::vector<vsm::SparseVector> docs;
  for (std::size_t d = 0; d < kClusterDocs; ++d) {
    std::vector<vsm::SparseVector::Entry> entries;
    for (std::uint32_t t = 0; t < kClusterTerms; ++t) {
      entries.emplace_back(t, 1.0 + 0.01 * rng.uniform());
    }
    docs.push_back(
        vsm::SparseVector::from_entries(std::move(entries)).l2_normalized());
  }
  for (std::size_t d = 0; d < kNoiseDocs; ++d) {
    std::vector<vsm::SparseVector::Entry> entries;
    // One cluster term each — the cluster's posting lists are mostly noise
    // postings, which is what gives the skip loop whole blocks to drop.
    entries.emplace_back(static_cast<std::uint32_t>(d % kClusterTerms), 0.2);
    for (int i = 0; i < 50; ++i) {
      entries.emplace_back(
          kClusterTerms + static_cast<std::uint32_t>(
                              rng.below(kDim - kClusterTerms)),
          0.5 + rng.uniform());
    }
    docs.push_back(
        vsm::SparseVector::from_entries(std::move(entries)).l2_normalized());
  }
  index::InvertedIndex idx;
  idx = idx.appended(docs);

  index::TopKScratch scratch;
  index::PruneStats exact_stats, pruned_stats;
  std::vector<vsm::SparseVector::Entry> q_entries;
  for (std::uint32_t t = 0; t < kClusterTerms; ++t) q_entries.emplace_back(t, 1.0);
  const auto query =
      vsm::SparseVector::from_entries(std::move(q_entries)).l2_normalized();
  for (const auto metric :
       {index::Metric::kCosine, index::Metric::kEuclidean}) {
    for (const std::size_t k : {std::size_t{10}, std::size_t{1000}}) {
      const auto want = idx.top_k(query, k, metric, &scratch,
                                  index::InvertedIndex::kNoSeed, &exact_stats);
      const auto got = idx.top_k_pruned(query, k, metric, &scratch,
                                        index::InvertedIndex::kNoSeed,
                                        &pruned_stats);
      expect_hits_close(got, want, "k " + std::to_string(k));
    }
  }
  EXPECT_GT(pruned_stats.blocks_skipped, 0u)
      << "pruned: scored " << pruned_stats.docs_scored << " pruned "
      << pruned_stats.docs_pruned << " visited "
      << pruned_stats.postings_visited << " | exact visited "
      << exact_stats.postings_visited;
  EXPECT_LT(pruned_stats.postings_visited, exact_stats.postings_visited);
  EXPECT_EQ(pruned_stats.docs_scored + pruned_stats.docs_pruned,
            exact_stats.docs_scored + exact_stats.docs_pruned);
}

TEST(FrozenIndex, DegenerateStatesStayDefined) {
  index::InvertedIndex idx;
  idx = idx.appended(std::span<const vsm::SparseVector>());  // empty: no-op
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.top_k(vsm::SparseVector::from_entries({{1, 1.0}}), 3).size(),
            0u);
  EXPECT_EQ(
      idx.top_k_pruned(vsm::SparseVector::from_entries({{1, 1.0}}), 3).size(),
      0u);
  idx = idx.appended(std::vector<vsm::SparseVector>{
      vsm::SparseVector::from_entries({{2, 0.5}})});
  const auto query = vsm::SparseVector::from_entries({{2, 1.0}});
  EXPECT_EQ(idx.top_k(query, 0).size(), 0u);          // k == 0
  EXPECT_EQ(idx.top_k(vsm::SparseVector(), 3).size(), 0u);  // empty query
  ASSERT_EQ(idx.top_k(query, 3).size(), 1u);
  EXPECT_EQ(idx.top_k_pruned(query, 3).size(), 1u);

  // Empty documents build too (no postings, still ranked by the scan rule).
  index::InvertedIndex with_empty;
  with_empty = with_empty.appended(std::vector<vsm::SparseVector>{
      vsm::SparseVector(), vsm::SparseVector::from_entries({{0, 1.0}})});
  const auto hits = with_empty.top_k(vsm::SparseVector::from_entries({{0, 1.0}}),
                                     2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc, 1u);
  EXPECT_EQ(hits[1].doc, 0u);

  // An index of only empty documents has no term space at all.
  index::InvertedIndex all_empty;
  all_empty = all_empty.appended(std::vector<vsm::SparseVector>(3));
  for (const auto metric :
       {index::Metric::kCosine, index::Metric::kEuclidean}) {
    expect_hits_identical(all_empty.top_k_pruned(query, 2, metric),
                          all_empty.top_k(query, 2, metric), "all empty");
  }
}

// ---------------------------------------------------------------------------
// appended(): the merge build equals a bulk build (the scatter), exactly
// ---------------------------------------------------------------------------

/// Documents owned as raw arrays, so weights the SparseVector invariant
/// drops (+0.0 and -0.0) reach the index through views.
struct RawCorpus {
  std::vector<std::vector<std::uint32_t>> terms;
  std::vector<std::vector<double>> weights;

  std::vector<vsm::SparseView> views() const {
    std::vector<vsm::SparseView> out;
    for (std::size_t d = 0; d < terms.size(); ++d) {
      out.push_back({terms[d], weights[d]});
    }
    return out;
  }
};

/// Every hazard of the merge in one corpus: a term range that grows with
/// the id (later batches bring terms the old index never saw), empty
/// documents, duplicates, negative and signed-zero weights, and few
/// dominant terms, so reorder-key ties straddle every split. Terms 1 and 2
/// only ever carry {±0, 0.5} and {±0, -0.5}: their min and max bounds are
/// a zero whose sign only the public-order fold gets right.
RawCorpus merge_hazard_corpus(util::Rng& rng, std::size_t n) {
  static constexpr double kWeights[] = {1.0, 0.5, -0.5, -1.0, 0.0, -0.0};
  RawCorpus corpus;
  for (std::size_t d = 0; d < n; ++d) {
    std::vector<std::uint32_t> terms;
    std::vector<double> weights;
    if (d > 0 && rng.bernoulli(0.15)) {
      const std::size_t copy = rng.below(d);
      terms = corpus.terms[copy];
      weights = corpus.weights[copy];
    } else if (!rng.bernoulli(0.1)) {
      const std::uint32_t dimension = 6 + static_cast<std::uint32_t>(d / 3);
      const std::size_t nnz = 1 + rng.below(5);
      for (std::size_t i = 0; i < nnz; ++i) {
        terms.push_back(static_cast<std::uint32_t>(rng.below(dimension)));
      }
      if (rng.bernoulli(0.5)) terms.push_back(1 + rng.below(2));
      std::sort(terms.begin(), terms.end());
      terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
      for (const std::uint32_t term : terms) {
        double weight = kWeights[rng.below(std::size(kWeights))];
        if (term == 1 || term == 2) {
          const double signed_zero = rng.bernoulli(0.5) ? 0.0 : -0.0;
          const double half = term == 1 ? 0.5 : -0.5;
          weight = rng.bernoulli(0.6) ? signed_zero : half;
        }
        weights.push_back(weight);
      }
      // Most documents are dominated by their lowest term: few distinct
      // reorder keys, so key ties straddle every split.
      if (!terms.empty() && rng.bernoulli(0.6)) {
        weights[0] = terms[0] == 1 || terms[0] == 2 ? weights[0] : 2.0;
      }
    }
    corpus.terms.push_back(std::move(terms));
    corpus.weights.push_back(std::move(weights));
  }
  return corpus;
}

void expect_same_memory(const index::MemoryBreakdown& got,
                        const index::MemoryBreakdown& want,
                        const std::string& context) {
  EXPECT_EQ(got.postings, want.postings) << context;
  EXPECT_EQ(got.offsets, want.offsets) << context;
  EXPECT_EQ(got.blocks, want.blocks) << context;
  EXPECT_EQ(got.forward, want.forward) << context;
}

/// `got` is the index `want` is: every member equal, the bounds equal to
/// the bit (operator== compares doubles by value, and +0.0 == -0.0), and
/// the same footprint, capacities included.
void expect_same_index(const index::InvertedIndex& got,
                       const index::InvertedIndex& want,
                       std::uint32_t term_bound, const std::string& context) {
  EXPECT_TRUE(got == want) << context;
  for (std::uint32_t t = 0; t < term_bound; ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_weight(t)),
              std::bit_cast<std::uint64_t>(want.max_weight(t)))
        << context << " max bound of term " << t;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.min_weight(t)),
              std::bit_cast<std::uint64_t>(want.min_weight(t)))
        << context << " min bound of term " << t;
  }
  expect_same_memory(got.memory_breakdown(), want.memory_breakdown(), context);
}

TEST(FrozenIndex, AppendedEqualsBulkBuildAtEverySplit) {
  util::Rng rng(0xa99e);
  for (const std::size_t n : {1u, 2u, 37u, 300u}) {
    const RawCorpus corpus = merge_hazard_corpus(rng, n);
    const auto views = corpus.views();
    const std::span<const vsm::SparseView> docs(views);
    index::InvertedIndex bulk;
    bulk = bulk.appended(docs);
    const std::uint32_t term_bound = 8 + static_cast<std::uint32_t>(n / 3);
    for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                    1 + rng.below(n), n - 1, n}) {
      index::InvertedIndex head;
      head = head.appended(docs.first(split));
      const std::string context =
          "n " + std::to_string(n) + " split " + std::to_string(split);
      expect_same_index(head.appended(docs.subspan(split)), bulk, term_bound,
                        context);
      // The old index is untouched by appended().
      index::InvertedIndex head_again;
      head_again = head_again.appended(docs.first(split));
      EXPECT_TRUE(head == head_again) << context;
    }
  }
}

TEST(FrozenIndex, AppendChainsEqualBulkBuild) {
  util::Rng rng(0xc4a1);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 40 + rng.below(260);
    const RawCorpus corpus = merge_hazard_corpus(rng, n);
    const auto views = corpus.views();
    const std::span<const vsm::SparseView> docs(views);
    const std::uint32_t term_bound = 8 + static_cast<std::uint32_t>(n / 3);
    index::InvertedIndex chain;
    std::size_t at = 0;
    int link = 0;
    while (at < n) {
      const std::size_t len = std::min(n - at, rng.below(n / 4 + 2));
      if (link % 2 == 0) {
        chain = chain.appended(docs.subspan(at, len));
      } else {
        chain = chain.appended(docs.subspan(at, len));
      }
      at += len;
      index::InvertedIndex prefix;
      prefix = prefix.appended(docs.first(at));
      expect_same_index(chain, prefix, term_bound,
                        "trial " + std::to_string(trial) + " link " +
                            std::to_string(link++));
    }
  }
}

using fmeter::testing::saved_bytes;

/// `got` holds the database `want` is: same snapshot bytes, same shards,
/// same footprint, and bit-identical hits in both kernels.
void expect_same_database(const LabeledIndex& got,
                          const SignatureDatabase& want,
                          std::span<const vsm::SparseVector> queries,
                          const std::string& context) {
  EXPECT_EQ(saved_bytes(got), saved_bytes(want)) << context;
  ASSERT_EQ(got.index.num_shards(), want.num_shards()) << context;
  for (std::size_t s = 0; s < got.index.num_shards(); ++s) {
    EXPECT_TRUE(got.index.shard(s) == want.index()->shard(s))
        << context << " shard " << s;
  }
  expect_same_memory(got.index.memory_breakdown(),
                     want.index()->memory_breakdown(), context);
  const exec::QueryEngine engine(got.index);
  for (const auto metric :
       {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
    for (const auto mode :
         {index::PruningMode::kExact, index::PruningMode::kMaxScore}) {
      const auto got_hits =
          engine.run_batch(queries, 10, to_index_metric(metric), mode);
      const auto want_hits = want.search_batch(queries, 10, metric,
                                               ScanPolicy::kIndexed, mode);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        ASSERT_EQ(got_hits[q].size(), want_hits[q].size()) << context;
        for (std::size_t r = 0; r < want_hits[q].size(); ++r) {
          EXPECT_EQ(got_hits[q][r].doc, want_hits[q][r].id) << context;
          EXPECT_EQ(got.labels[got_hits[q][r].doc], want_hits[q][r].label)
              << context;
          EXPECT_EQ(got_hits[q][r].score, want_hits[q][r].score) << context;
        }
      }
    }
  }
}

TEST(FrozenIndex, ShardedAndLabeledIndexAppendedMatchBulkBuild) {
  util::Rng rng(0x5a9d);
  const std::size_t n = 400;
  std::vector<vsm::SparseVector> corpus;
  std::vector<std::string> labels;
  for (std::size_t d = 0; d < n; ++d) {
    // Duplicates and empty documents ride along (nnz may be 0).
    corpus.push_back(d > 0 && rng.bernoulli(0.1)
                         ? corpus[rng.below(d)]
                         : random_sparse(rng, 10 + static_cast<std::uint32_t>(
                                                       d / 4),
                                         10, /*allow_negative=*/true));
    labels.push_back("l" + std::to_string(d % 7));
  }
  std::vector<vsm::SparseVector> queries;
  for (int q = 0; q < 6; ++q) queries.push_back(random_sparse(rng, 110, 10));
  const std::vector<vsm::SparseView> views(corpus.begin(), corpus.end());
  const std::span<const vsm::SparseView> docs(views);
  exec::TaskPool pool(2);

  for (const std::size_t shards : {1u, 3u, 4u}) {
    SignatureDatabase bulk(shards);
    bulk.add_batch(corpus, labels);
    const LabeledIndex empty{exec::ShardedIndex(shards), {}};
    for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                    std::size_t{157}, n - 1, n}) {
      const LabeledIndex head = empty.appended(
          docs.first(split), {labels.begin(), labels.begin() + split});
      const LabeledIndex got = head.appended(
          docs.subspan(split), {labels.begin() + split, labels.end()});
      EXPECT_EQ(head.index.size(), split);
      EXPECT_EQ(head.labels.size(), split);
      expect_same_database(got, bulk, queries,
                           std::to_string(shards) + " shards, split " +
                               std::to_string(split));
    }

    // Chains of appends on the pool, index layer alone.
    exec::ShardedIndex chain(shards);
    std::size_t at = 0;
    for (int link = 0; at < n; ++link) {
      const std::size_t len = std::min(n - at, rng.below(n / 3));
      if (link % 2 == 0) {
        chain = chain.appended(docs.subspan(at, len), &pool);
      } else {
        chain = chain.appended(docs.subspan(at, len), &pool);
      }
      at += len;
    }
    const std::string context = std::to_string(shards) + " shards, chain";
    EXPECT_EQ(saved_bytes(chain), saved_bytes(*bulk.index())) << context;
    EXPECT_EQ(chain.num_terms(), bulk.index()->num_terms()) << context;
    expect_same_memory(chain.memory_breakdown(),
                       bulk.index()->memory_breakdown(), context);
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_TRUE(chain.shard(s) == bulk.index()->shard(s)) << context;
    }
  }
}

// ---------------------------------------------------------------------------
// Exact-path kernels (index/kernels.hpp): the AVX-512F loops against the
// scalar ones, bit for bit.
// ---------------------------------------------------------------------------

/// Equal raw bits (so +0.0 and -0.0 differ); reports the first mismatch.
void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  std::size_t mismatches = 0;
  std::size_t first = got.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      if (mismatches++ == 0) first = i;
    }
  }
  EXPECT_EQ(mismatches, 0u)
      << context << ": first at " << first << ", got "
      << (first < got.size() ? got[first] : 0.0) << " want "
      << (first < want.size() ? want[first] : 0.0);
}

/// A value chosen to stress rounding: either sign over a wide exponent
/// range, subnormals, tiny values whose products go subnormal, and signed
/// zeros.
double awkward_value(util::Rng& rng) {
  const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
  switch (rng.below(6)) {
    case 0:
      return sign * 0.0;
    case 1:
      return sign * std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.below(1u << 20));
    case 2:
      return sign * rng.uniform(0.5, 1.0) * 1e-160;
    default:
      return sign * std::ldexp(rng.uniform(0.5, 1.0),
                               static_cast<int>(rng.below(60)) - 30);
  }
}

/// `len` distinct ascending ids below `docs`, holding docs - 1 once
/// len >= 1 and 0 once len >= 2: one term's arena span.
std::vector<std::uint32_t> span_ids(util::Rng& rng, std::size_t docs,
                                    std::size_t len) {
  std::vector<std::uint32_t> inner(docs - 2);
  for (std::size_t d = 0; d < inner.size(); ++d) {
    inner[d] = static_cast<std::uint32_t>(d + 1);
  }
  rng.shuffle(std::span<std::uint32_t>(inner));
  std::vector<std::uint32_t> ids;
  if (len >= 1) ids.push_back(static_cast<std::uint32_t>(docs - 1));
  if (len >= 2) ids.push_back(0);
  ids.insert(ids.end(), inner.begin(),
             inner.begin() + static_cast<std::ptrdiff_t>(len - ids.size()));
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(ExactKernels, Avx512AccumulateMatchesScalarBitwise) {
  if (!index::kernels::avx512_supported()) {
    GTEST_SKIP() << "host has no AVX-512F: the scalar accumulate is the "
                    "only path";
  }
  util::Rng rng(0x5e1d);
  constexpr std::size_t kDocs = 1003;  // not a multiple of 8
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 17; ++len) lengths.push_back(len);
  for (const std::size_t groups : {3u, 40u, 124u}) {
    for (std::size_t r = 0; r < 8; ++r) lengths.push_back(8 * groups + r);
  }
  for (const std::size_t len : lengths) {
    const std::vector<std::uint32_t> ids = span_ids(rng, kDocs, len);
    std::vector<double> weights(len);
    for (double& w : weights) w = awkward_value(rng);
    std::vector<double> start(kDocs);
    for (double& a : start) a = awkward_value(rng);
    for (const double q : {0.75, -1.5, -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           awkward_value(rng)}) {
      const std::string context =
          "span " + std::to_string(len) + ", q " + std::to_string(q);
      std::vector<double> want = start;
      index::kernels::accumulate_scalar(want.data(), ids.data(),
                                        weights.data(), len, q);
      std::vector<double> got = start;
      index::kernels::accumulate_avx512(got.data(), ids.data(), weights.data(),
                                        len, q);
      expect_bitwise_equal(got, want, context);
      // A deadline's checkpoints hand the kernel a span in stride-sized
      // chunks; strides that are not a multiple of 8 start chunks
      // mid-group.
      for (const std::size_t stride : {5u, 13u}) {
        std::vector<double> chunked = start;
        for (std::size_t p = 0; p < len; p += stride) {
          index::kernels::accumulate_avx512(chunked.data(), ids.data() + p,
                                            weights.data() + p,
                                            std::min(stride, len - p), q);
        }
        expect_bitwise_equal(chunked, want,
                             context + ", stride " + std::to_string(stride));
      }
    }
  }
}

TEST(ExactKernels, Avx512PretestScanMatchesScalar) {
  if (!index::kernels::avx512_supported()) {
    GTEST_SKIP() << "host has no AVX-512F: the scalar pre-test is the only "
                    "path";
  }
  util::Rng rng(0x9e7e);
  constexpr std::size_t kDocs = 203;  // not a multiple of 8
  for (int trial = 0; trial < 24; ++trial) {
    const double factor =
        trial % 4 == 0 ? 0.0 : std::abs(awkward_value(rng)) + 0.25 * (trial % 2);
    std::vector<double> norms(kDocs);
    std::vector<double> acc(kDocs);
    for (std::size_t d = 0; d < kDocs; ++d) {
      norms[d] = rng.bernoulli(0.05) ? 0.0 : std::abs(awkward_value(rng));
      // Mostly below the bar, some exactly on it (a tie survives), a few
      // above; signed zeros, subnormals and (trial 5) a NaN, which the
      // scalar `<` keeps.
      const double bar = factor * norms[d];
      switch (rng.below(8)) {
        case 0: acc[d] = bar; break;
        case 1: acc[d] = bar + std::abs(awkward_value(rng)); break;
        case 2: acc[d] = awkward_value(rng); break;
        default: acc[d] = bar - std::abs(bar) * 0.5 - 1e-300; break;
      }
    }
    if (trial == 5) acc[kDocs / 2] = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t from = 0; from <= kDocs; ++from) {
      for (std::size_t stop = from; stop <= kDocs;
           stop += stop < from + 17 ? 1 : 37) {
        EXPECT_EQ(index::kernels::pretest_scan_avx512(acc.data(), norms.data(),
                                                      from, stop, factor),
                  index::kernels::pretest_scan_scalar(acc.data(), norms.data(),
                                                      from, stop, factor))
            << "trial " << trial << " [" << from << ", " << stop << ")";
      }
    }
  }
}

TEST(ExactKernels, ActiveDeadlineKeepsExactHitsBitIdentical) {
  // Long spans (> one checkpoint interval) split into chunks at arbitrary
  // arena offsets; hits must not move, whichever kernel this host runs.
  util::Rng rng(0xdead);
  std::vector<vsm::SparseVector> docs;
  for (int i = 0; i < 9001; ++i) docs.push_back(random_sparse(rng, 6, 9, true));
  const index::InvertedIndex idx = index::InvertedIndex().appended(docs);
  const index::Deadline deadline =
      index::Deadline::after(std::chrono::hours(1));
  for (int q = 0; q < 6; ++q) {
    const auto query = random_sparse(rng, 6, 9, true);
    for (const auto metric : {index::Metric::kCosine, index::Metric::kEuclidean}) {
      for (const std::size_t k : {std::size_t{10}, docs.size()}) {
        index::PruneStats stats;
        const auto armed =
            idx.top_k(query, k, metric, nullptr, index::InvertedIndex::kNoSeed,
                      &stats, &deadline);
        expect_hits_identical(armed, idx.top_k(query, k, metric),
                              "query " + std::to_string(q));
        if (!query.empty()) {
          EXPECT_GT(stats.checkpoint_polls, 1u);
        }
      }
    }
  }
}

TEST(ArenaAllocator, HugeStreamsStartOnHugePageBoundaries) {
  using Stream = std::vector<double, index::ArenaAllocator<double>>;
  const std::size_t huge = index::kHugePageBytes / sizeof(double);
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % index::kHugePageBytes == 0;
  };
  // The three ways a build fills a stream: resize (scatter), reserve then
  // append (merge), and a copy (appended() of no documents).
  Stream scattered;
  scattered.resize(huge + 3, 1.5);
  EXPECT_TRUE(aligned(scattered.data()));
  Stream merged;
  merged.reserve(3 * huge + 1);
  merged.insert(merged.end(), scattered.begin(), scattered.end());
  EXPECT_TRUE(aligned(merged.data()));
  EXPECT_EQ(merged.capacity(), 3 * huge + 1);  // no rounding up
  const Stream copied = scattered;
  EXPECT_TRUE(aligned(copied.data()));
  EXPECT_TRUE(copied == scattered);
  EXPECT_EQ(copied.back(), 1.5);
  // Exactly one huge page qualifies; below it a stream is an ordinary
  // heap block.
  Stream exact(huge);
  EXPECT_TRUE(aligned(exact.data()));
  Stream small(huge - 1, 2.0);
  EXPECT_EQ(small.front(), 2.0);
}

TEST(ArenaAllocator, HugeArenaBuildsMatchAndReportTheSameMemory) {
  // Enough postings that the weight stream passes one huge page.
  util::Rng rng(0xa11c);
  std::vector<vsm::SparseVector> docs;
  std::size_t postings = 0;
  while (postings * sizeof(double) < index::kHugePageBytes + 4096) {
    docs.push_back(random_sparse(rng, 400, 120));
    postings += docs.back().nnz();
  }
  const index::InvertedIndex bulk = index::InvertedIndex().appended(docs);
  const std::span<const vsm::SparseVector> all(docs);
  const std::size_t split = docs.size() * 9 / 10;
  const index::InvertedIndex folded =
      index::InvertedIndex().appended(all.first(split)).appended(
          all.subspan(split));
  EXPECT_TRUE(folded == bulk);
  EXPECT_TRUE(bulk.appended(std::span<const vsm::SparseVector>()) == bulk);
  // The streams report their exact size, as std::allocator's did.
  const auto mem = bulk.memory_breakdown();
  EXPECT_EQ(mem.postings,
            bulk.num_postings() *
                (sizeof(index::InvertedIndex::DocId) + sizeof(double)));
  expect_same_memory(folded.memory_breakdown(), mem, "folded");
}

}  // namespace
}  // namespace fmeter::core
