#include "fmeter/database.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "index/arena_allocator.hpp"
#include "io/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snapshot_files.hpp"
#include "util/rng.hpp"

namespace fmeter::core {
namespace {

vsm::SparseVector vec(std::vector<vsm::SparseVector::Entry> entries) {
  return vsm::SparseVector::from_entries(std::move(entries)).l2_normalized();
}

SignatureDatabase three_class_db() {
  SignatureDatabase db;
  // Class "a" lives on axis 0, "b" on axis 1, "c" on axis 2, with jitter.
  db.add(vec({{0, 1.0}, {1, 0.05}}), "a");
  db.add(vec({{0, 1.0}, {2, 0.04}}), "a");
  db.add(vec({{1, 1.0}, {0, 0.06}}), "b");
  db.add(vec({{1, 1.0}, {2, 0.05}}), "b");
  db.add(vec({{2, 1.0}, {0, 0.03}}), "c");
  db.add(vec({{2, 1.0}, {1, 0.02}}), "c");
  return db;
}

TEST(SignatureDatabase, AddAndAccess) {
  SignatureDatabase db;
  const auto id = db.add(vec({{0, 1.0}}), "label");
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.label(0), "label");
  EXPECT_FALSE(db.empty());
}

TEST(SignatureDatabase, DistinctLabelsFirstSeenOrder) {
  const auto db = three_class_db();
  const auto labels = db.distinct_labels();
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], "a");
  EXPECT_EQ(labels[1], "b");
  EXPECT_EQ(labels[2], "c");
}

TEST(SignatureDatabase, SearchReturnsNearestFirst) {
  const auto db = three_class_db();
  const auto hits = db.search(vec({{1, 1.0}}), 3);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].label, "b");
  EXPECT_EQ(hits[1].label, "b");
  EXPECT_GE(hits[0].score, hits[1].score);
  EXPECT_GE(hits[1].score, hits[2].score);
}

TEST(SignatureDatabase, SearchKLargerThanDbClamps) {
  const auto db = three_class_db();
  EXPECT_EQ(db.search(vec({{0, 1.0}}), 100).size(), db.size());
}

TEST(SignatureDatabase, EuclideanSearchAgrees) {
  const auto db = three_class_db();
  const auto hits =
      db.search(vec({{2, 1.0}}), 2, SimilarityMetric::kEuclidean);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].label, "c");
  EXPECT_LE(hits[0].score, 0.0);  // negative distance convention
}

TEST(SignatureDatabase, SyndromesArePerLabelCentroids) {
  const auto db = three_class_db();
  const auto syndromes = db.syndromes();
  ASSERT_EQ(syndromes.size(), 3u);
  for (const auto& syndrome : syndromes) {
    EXPECT_EQ(syndrome.support, 2u);
    EXPECT_FALSE(syndrome.centroid.empty());
  }
  // Centroid of "a" must point mostly along axis 0.
  EXPECT_GT(syndromes[0].centroid.at(0), 0.9);
}

TEST(SignatureDatabase, SyndromeCentroidsMatchAFoldPerLabelToTheBit) {
  // The centroids come from one pass over the documents. They must equal,
  // bit for bit, the fold the definition gives: per label in first-seen
  // order, its documents in id order summed through from_entries over the
  // concatenated entries, then scaled by 1/support.
  util::Rng rng(0x5d7);
  SignatureDatabase db(2);
  std::vector<vsm::SparseVector> docs;
  std::vector<std::string> labels;
  for (int i = 0; i < 300; ++i) {
    std::vector<vsm::SparseVector::Entry> entries;
    for (std::uint32_t t = 0; t < 40; ++t) {
      if (rng.bernoulli(0.3)) entries.emplace_back(t, rng.uniform(-1.0, 1.0));
    }
    docs.push_back(vsm::SparseVector::from_entries(std::move(entries)));
    labels.push_back("label-" + std::to_string(rng.below(7)));
  }
  db.add_batch(docs, labels);
  const auto syndromes = db.syndromes();
  const auto distinct = db.distinct_labels();
  ASSERT_EQ(syndromes.size(), distinct.size());
  for (std::size_t s = 0; s < distinct.size(); ++s) {
    vsm::SparseVector sum;
    std::size_t support = 0;
    for (std::size_t id = 0; id < docs.size(); ++id) {
      if (labels[id] != distinct[s]) continue;
      std::vector<vsm::SparseVector::Entry> entries;
      for (std::size_t k = 0; k < sum.nnz(); ++k) {
        entries.emplace_back(sum.indices()[k], sum.values()[k]);
      }
      for (std::size_t k = 0; k < docs[id].nnz(); ++k) {
        entries.emplace_back(docs[id].indices()[k], docs[id].values()[k]);
      }
      sum = vsm::SparseVector::from_entries(std::move(entries));
      ++support;
    }
    const vsm::SparseVector want =
        sum.scaled(1.0 / static_cast<double>(support));
    EXPECT_EQ(syndromes[s].label, distinct[s]);
    EXPECT_EQ(syndromes[s].support, support);
    const vsm::SparseVector& got = syndromes[s].centroid;
    ASSERT_EQ(got.nnz(), want.nnz()) << distinct[s];
    for (std::size_t k = 0; k < want.nnz(); ++k) {
      EXPECT_EQ(got.indices()[k], want.indices()[k]) << distinct[s];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values()[k]),
                std::bit_cast<std::uint64_t>(want.values()[k]))
          << distinct[s] << " entry " << k;
    }
  }
}

TEST(SignatureDatabase, ClassifyBySyndrome) {
  const auto db = three_class_db();
  EXPECT_EQ(db.classify_by_syndrome(vec({{0, 1.0}, {1, 0.1}})), "a");
  EXPECT_EQ(db.classify_by_syndrome(vec({{1, 1.0}})), "b");
  EXPECT_EQ(db.classify_by_syndrome(vec({{2, 1.0}}),
                                    SimilarityMetric::kEuclidean),
            "c");
}

TEST(SignatureDatabase, ClassifyOnEmptyDbIsEmpty) {
  SignatureDatabase db;
  EXPECT_EQ(db.classify_by_syndrome(vec({{0, 1.0}})), "");
}

TEST(SignatureDatabase, MetaClusterGroupsSimilarClasses) {
  SignatureDatabase db;
  // Two "file I/O-ish" classes on overlapping axes, one networking class.
  db.add(vec({{0, 1.0}, {1, 0.8}}), "dbench");
  db.add(vec({{0, 0.9}, {1, 1.0}}), "kcompile-link");
  db.add(vec({{5, 1.0}, {6, 0.7}}), "netperf");
  const auto assignments = db.meta_cluster(2, 1);
  ASSERT_EQ(assignments.size(), 3u);
  EXPECT_EQ(assignments[0], assignments[1]);  // the two I/O classes merge
  EXPECT_NE(assignments[0], assignments[2]);  // networking stands apart
}

TEST(SignatureDatabase, BruteForcePolicyMatchesIndexedDefault) {
  const auto db = three_class_db();
  const auto query = vec({{1, 1.0}, {0, 0.2}});
  for (const auto metric :
       {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
    const auto indexed = db.search(query, 4, metric);  // default policy
    const auto scanned =
        db.search(query, 4, metric, ScanPolicy::kBruteForce);
    ASSERT_EQ(indexed.size(), scanned.size());
    for (std::size_t i = 0; i < indexed.size(); ++i) {
      EXPECT_EQ(indexed[i].id, scanned[i].id);
      EXPECT_EQ(indexed[i].label, scanned[i].label);
      EXPECT_EQ(indexed[i].score, scanned[i].score);
    }
  }
}

TEST(SignatureDatabase, IndexTracksAdds) {
  SignatureDatabase db;
  EXPECT_EQ(db.index()->size(), 0u);
  db.add(vec({{0, 1.0}, {3, 0.5}}), "x");
  db.add(vec({{3, 1.0}}), "y");
  EXPECT_EQ(db.index()->size(), 2u);
  EXPECT_EQ(db.index()->num_terms(), 2u);
  EXPECT_EQ(db.index()->num_postings(), 3u);
}

TEST(SignatureDatabase, SyndromeCacheInvalidatedByAdd) {
  auto db = three_class_db();
  EXPECT_EQ(db.syndromes().size(), 3u);
  db.add(vec({{5, 1.0}}), "d");
  const auto syndromes = db.syndromes();
  ASSERT_EQ(syndromes.size(), 4u);
  EXPECT_EQ(syndromes[3].label, "d");
  EXPECT_EQ(db.classify_by_syndrome(vec({{5, 1.0}})), "d");
}

TEST(SignatureDatabase, MetaClusterTooFewSyndromesThrows) {
  SignatureDatabase db;
  db.add(vec({{0, 1.0}}), "only");
  EXPECT_THROW(db.meta_cluster(2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// add_batch failure atomicity (the tightened contract: *validation*
// failures — mismatched sizes, malformed signatures — happen before any
// mutation, so the database stays unchanged and fully usable).
// ---------------------------------------------------------------------------

/// Asserts the database still holds exactly the three-class contents and
/// answers queries identically to a freshly built copy.
void expect_three_class_db_intact(SignatureDatabase& db,
                                  const std::string& context) {
  const SignatureDatabase reference = three_class_db();
  ASSERT_EQ(db.size(), reference.size()) << context;
  for (std::size_t id = 0; id < reference.size(); ++id) {
    EXPECT_EQ(db.label(id), reference.label(id)) << context;
    EXPECT_TRUE(db.signature(id) == reference.signature(id)) << context;
  }
  const auto query = vec({{0, 1.0}, {1, 0.2}});
  const auto got = db.search(query, 3);
  const auto want = reference.search(query, 3);
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].id, want[r].id) << context;
    EXPECT_EQ(got[r].score, want[r].score) << context;
  }
  // Still accepts new work after the failure.
  db.add(vec({{7, 1.0}}), "after");
  EXPECT_EQ(db.size(), reference.size() + 1) << context;
  EXPECT_EQ(db.search(vec({{7, 1.0}}), 1)[0].label, "after") << context;
}

TEST(SignatureDatabase, AddBatchSizeMismatchLeavesDatabaseUntouched) {
  auto db = three_class_db();
  EXPECT_THROW(db.add_batch({vec({{0, 1.0}}), vec({{1, 1.0}})}, {"x"}),
               std::invalid_argument);
  expect_three_class_db_intact(db, "size mismatch");
}

TEST(SignatureDatabase, AddBatchMalformedSignatureMidBatchLeavesDatabaseUntouched) {
  // A NaN/Inf weight mid-batch would poison the norms and per-term bounds
  // every search relies on; the batch is rejected up front instead, naming
  // the offender, with nothing mutated — including the entries *before*
  // the malformed one.
  const auto nan_doc = vsm::SparseVector::from_entries(
      {{3, std::numeric_limits<double>::quiet_NaN()}});
  const auto inf_doc = vsm::SparseVector::from_entries(
      {{4, std::numeric_limits<double>::infinity()}});
  for (const auto& bad : {nan_doc, inf_doc}) {
    auto db = three_class_db();
    std::vector<vsm::SparseVector> batch = {vec({{0, 1.0}}), bad,
                                            vec({{1, 1.0}})};
    std::vector<std::string> labels = {"ok", "bad", "ok"};
    try {
      db.add_batch(std::move(batch), std::move(labels));
      FAIL() << "malformed batch accepted";
    } catch (const std::invalid_argument& error) {
      // The diagnostic names the offending batch position.
      EXPECT_NE(std::string(error.what()).find("signature 1"),
                std::string::npos)
          << error.what();
    }
    expect_three_class_db_intact(db, "malformed signature");
  }
}

TEST(SignatureDatabase, ScalarAddRejectsNonFiniteWeightsLikeAddBatch) {
  // add() and add_batch() enforce the same invariant: otherwise a database
  // built by scalar adds could save() a snapshot its own load() refuses.
  auto db = three_class_db();
  EXPECT_THROW(db.add(vsm::SparseVector::from_entries(
                          {{3, std::numeric_limits<double>::quiet_NaN()}}),
                      "bad"),
               std::invalid_argument);
  EXPECT_THROW(db.add(vsm::SparseVector::from_entries(
                          {{3, std::numeric_limits<double>::infinity()}}),
                      "bad"),
               std::invalid_argument);
  expect_three_class_db_intact(db, "scalar add of non-finite weight");
}

TEST(SignatureDatabase, AddBatchValidBatchAfterRejectedOneWorks) {
  auto db = three_class_db();
  EXPECT_THROW(db.add_batch({vsm::SparseVector::from_entries(
                                {{2, std::numeric_limits<double>::quiet_NaN()}})},
                            {"bad"}),
               std::invalid_argument);
  const std::size_t first =
      db.add_batch({vec({{8, 1.0}}), vec({{9, 1.0}})}, {"d", "e"});
  EXPECT_EQ(first, 6u);
  EXPECT_EQ(db.size(), 8u);
  EXPECT_EQ(db.search(vec({{9, 1.0}}), 1)[0].label, "e");
}

/// Completed kIngest spans: one per index build (add_batch or catch-up).
std::uint64_t index_builds() {
  obs::StageTracer::global();  // registers the stage counters
  return obs::MetricsRegistry::global()
      .counter("fmeter_stage_ingest_spans_total")
      .value();
}

vsm::SparseVector random_doc(util::Rng& rng) {
  std::vector<vsm::SparseVector::Entry> entries;
  const std::size_t nnz = 1 + rng.below(8);
  for (std::size_t i = 0; i < nnz; ++i) {
    entries.emplace_back(static_cast<vsm::SparseVector::Index>(rng.below(48)),
                         rng.uniform(0.05, 1.0));
  }
  return vec(std::move(entries));
}

TEST(SignatureDatabase, ScalarAddsAndBruteForceScansBuildNoIndex) {
  // add() only appends to the store and a brute-force scan reads only the
  // store, so neither may pay for an index build; the first indexed read
  // builds once for every pending add, and later reads find it current.
  util::Rng rng(0x1a2);
  SignatureDatabase db(2);
  const auto query = random_doc(rng);
  const std::uint64_t before = index_builds();
  for (int i = 0; i < 200; ++i) db.add(random_doc(rng), "l" + std::to_string(i % 3));
  const auto scanned =
      db.search(query, 5, SimilarityMetric::kCosine, ScanPolicy::kBruteForce);
  EXPECT_EQ(db.classify_by_syndrome(query, SimilarityMetric::kCosine,
                                    ScanPolicy::kBruteForce),
            db.classify_by_syndrome(query));
  EXPECT_EQ(index_builds(), before) << "scalar adds or scans built the index";

  const auto indexed = db.search(query, 5);
  EXPECT_EQ(index_builds(), before + 1);
  ASSERT_EQ(indexed.size(), scanned.size());
  for (std::size_t r = 0; r < scanned.size(); ++r) {
    EXPECT_EQ(indexed[r].id, scanned[r].id);
    EXPECT_EQ(indexed[r].score, scanned[r].score);
  }
  (void)db.search(query, 5);
  db.publish_gauges();
  EXPECT_EQ(db.index()->size(), 200u);
  EXPECT_EQ(index_builds(), before + 1) << "a current index was rebuilt";

  // add_batch indexes the scalar adds before it in the same build.
  db.add(random_doc(rng), "tail");
  db.add_batch({random_doc(rng), random_doc(rng)}, {"x", "y"});
  EXPECT_EQ(index_builds(), before + 2);
  EXPECT_EQ(db.index()->size(), 203u);
}

void expect_same_hits(const std::vector<SearchHit>& got,
                      const std::vector<SearchHit>& want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].id, want[r].id) << context << " rank " << r;
    EXPECT_EQ(got[r].label, want[r].label) << context << " rank " << r;
    EXPECT_EQ(got[r].score, want[r].score) << context << " rank " << r;
  }
}

TEST(SignatureDatabase, IndexedPlusPendingDocumentsReadLikeABulkBuild) {
  // add_batch indexes the first documents; the scalar adds after it stay
  // pending. Readers that need no index see both sides of that boundary
  // exactly as a bulk-built database does, and none of them builds.
  constexpr std::size_t kIndexed = 40;
  constexpr std::size_t kPending = 25;
  util::Rng rng(0x5ad);
  std::vector<vsm::SparseVector> docs;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < kIndexed + kPending; ++i) {
    docs.push_back(random_doc(rng));
    labels.push_back("l" + std::to_string(i % 3));
  }
  SignatureDatabase reference(3);
  reference.add_batch(docs, labels);
  SignatureDatabase mixed(3);
  mixed.add_batch({docs.begin(), docs.begin() + kIndexed},
                  {labels.begin(), labels.begin() + kIndexed});
  for (std::size_t i = kIndexed; i < docs.size(); ++i) {
    mixed.add(docs[i], labels[i]);
  }
  const std::uint64_t builds = index_builds();

  for (std::size_t id = 0; id < docs.size(); ++id) {
    EXPECT_TRUE(mixed.signature(id) == docs[id]) << "id " << id;
  }
  EXPECT_THROW((void)mixed.signature(docs.size()), std::out_of_range);

  std::vector<vsm::SparseVector> queries;
  for (std::size_t q = 0; q < 6; ++q) queries.push_back(docs[q * 11]);
  queries.push_back(random_doc(rng));
  for (const auto metric :
       {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      expect_same_hits(
          mixed.search(queries[q], 10, metric, ScanPolicy::kBruteForce),
          reference.search(queries[q], 10, metric, ScanPolicy::kBruteForce),
          "scan query " + std::to_string(q));
    }
  }

  const auto got = mixed.syndromes();
  const auto want = reference.syndromes();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(got[i].support, want[i].support);
    EXPECT_TRUE(got[i].centroid == want[i].centroid) << want[i].label;
  }

  const SignatureDatabase copy = mixed;
  EXPECT_EQ(index_builds(), builds) << "a read of the mixed state built";
  ASSERT_EQ(copy.size(), docs.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::string context = "copy query " + std::to_string(q);
    expect_same_hits(
        copy.search(queries[q], 10, SimilarityMetric::kCosine,
                    ScanPolicy::kBruteForce),
        reference.search(queries[q], 10, SimilarityMetric::kCosine,
                         ScanPolicy::kBruteForce),
        context);
    expect_same_hits(copy.search(queries[q], 10),
                     reference.search(queries[q], 10), context);
  }
  EXPECT_EQ(copy.classify_by_syndrome(queries[0]),
            reference.classify_by_syndrome(queries[0]));
}

TEST(SignatureDatabase, CopySharesItsIndex) {
  SignatureDatabase db = three_class_db();
  (void)db.index();  // index the scalar adds, so the copy has none pending
  const SignatureDatabase copy = db;
  const auto shared = copy.index();
  EXPECT_EQ(shared, db.index());
  // Ingest into the original swaps its index and leaves the copy's alone.
  db.add_batch({vec({{3, 1.0}})}, {"d"});
  EXPECT_NE(db.index(), shared);
  EXPECT_EQ(copy.index(), shared);
  EXPECT_EQ(shared->size(), 6u);
  EXPECT_EQ(db.index()->size(), 7u);
}

using fmeter::testing::saved_bytes;

TEST(SignatureDatabase, PinnedIndexIsUnchangedByLaterIngest) {
  // index() pins the current index. Ingest swaps a new one in and leaves
  // the pinned one as it was: same size, shard stats and snapshot bytes,
  // and an engine over it answers bit-identically to before the add.
  util::Rng rng(0x9e1);
  std::vector<vsm::SparseVector> docs;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < 120; ++i) {
    docs.push_back(random_doc(rng));
    labels.push_back("l" + std::to_string(i % 3));
  }
  SignatureDatabase db(3);
  db.add_batch({docs.begin(), docs.begin() + 80},
               {labels.begin(), labels.begin() + 80});
  const auto pinned = db.index();
  const auto stats = pinned->shard_stats();
  const std::string bytes = saved_bytes(*pinned);
  const std::vector<vsm::SparseVector> queries = {docs[3], docs[100],
                                                  random_doc(rng)};
  const exec::QueryEngine engine(*pinned);
  const auto exact = engine.run_batch(queries, 10, index::Metric::kCosine,
                                      PruningMode::kExact);
  const auto pruned = engine.run_batch(queries, 10, index::Metric::kCosine,
                                       PruningMode::kMaxScore);

  db.add_batch({docs.begin() + 80, docs.end()},
               {labels.begin() + 80, labels.end()});
  db.add(random_doc(rng), "pending");
  (void)db.search(queries[0], 5);  // indexes the scalar add
  EXPECT_NE(db.index(), pinned);
  EXPECT_EQ(db.index()->size(), 121u);

  EXPECT_EQ(pinned->size(), 80u);
  const auto stats_after = pinned->shard_stats();
  ASSERT_EQ(stats_after.size(), stats.size());
  for (std::size_t s = 0; s < stats.size(); ++s) {
    EXPECT_EQ(stats_after[s].docs, stats[s].docs) << "shard " << s;
    EXPECT_EQ(stats_after[s].terms, stats[s].terms) << "shard " << s;
    EXPECT_EQ(stats_after[s].postings, stats[s].postings) << "shard " << s;
    EXPECT_EQ(stats_after[s].memory_bytes, stats[s].memory_bytes)
        << "shard " << s;
  }
  EXPECT_EQ(saved_bytes(*pinned), bytes);
  for (const auto mode : {PruningMode::kExact, PruningMode::kMaxScore}) {
    const auto& want = mode == PruningMode::kExact ? exact : pruned;
    const auto got =
        engine.run_batch(queries, 10, index::Metric::kCosine, mode);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t q = 0; q < want.size(); ++q) {
      ASSERT_EQ(got[q].size(), want[q].size()) << "query " << q;
      for (std::size_t r = 0; r < want[q].size(); ++r) {
        EXPECT_EQ(got[q][r].doc, want[q][r].doc) << "query " << q;
        EXPECT_EQ(got[q][r].score, want[q][r].score) << "query " << q;
      }
    }
  }
}

TEST(SignatureDatabase, ScalarAddsRaceIndexedSearchesSaveAndGauges) {
  // Writers append without indexing; every index reader below indexes the
  // pending adds by swapping in a new index under the store lock, which
  // replaces the forward store that signature() and the brute-force scan
  // read views of. Under TSan/ASan this pins the catch-up hand-off, the
  // lifetime of those views and of the returned labels, and every result
  // must be a consistent prefix of the database.
  constexpr int kDocs = 300;
  util::Rng rng(0x7ace);
  std::vector<vsm::SparseVector> docs;
  for (int i = 0; i < kDocs; ++i) docs.push_back(random_doc(rng));
  SignatureDatabase db(3);

  std::thread writer([&] {
    for (int i = 0; i < kDocs; ++i) db.add(docs[i], "l" + std::to_string(i % 4));
  });
  std::thread searcher([&] {
    for (int q = 0; q < 60; ++q) {
      const auto hits = db.search(docs[q % kDocs], 5);
      EXPECT_LE(hits.size(), 5u);
      for (const auto& hit : hits) {
        EXPECT_LT(hit.id, static_cast<std::size_t>(kDocs));
        EXPECT_EQ(hit.label, "l" + std::to_string(hit.id % 4));
      }
    }
  });
  std::thread saver([&] {
    for (int i = 0; i < 10; ++i) {
      const SignatureDatabase loaded =
          fmeter::testing::load_bytes(saved_bytes(db));
      ASSERT_LE(loaded.size(), static_cast<std::size_t>(kDocs));
      for (std::size_t id = 0; id < loaded.size(); ++id) {
        ASSERT_TRUE(loaded.signature(id) == docs[id]) << "id " << id;
      }
    }
  });
  std::thread scraper([&] {
    for (int i = 0; i < 60; ++i) {
      db.publish_gauges();
      EXPECT_LE(db.index()->size(), static_cast<std::size_t>(kDocs));
    }
  });
  std::thread document_reader([&] {
    for (int i = 0; i < 60; ++i) {
      const std::size_t size = db.size();
      for (std::size_t id = i % 7; id < size; id += 7) {
        ASSERT_TRUE(db.signature(id) == docs[id]) << "id " << id;
        EXPECT_EQ(db.label(id), "l" + std::to_string(id % 4)) << "id " << id;
      }
      const auto hits = db.search(docs[i % kDocs], 5,
                                  SimilarityMetric::kCosine,
                                  ScanPolicy::kBruteForce);
      EXPECT_LE(hits.size(), 5u);
      for (const auto& hit : hits) {
        EXPECT_LT(hit.id, static_cast<std::size_t>(kDocs));
        EXPECT_EQ(hit.label, "l" + std::to_string(hit.id % 4));
      }
    }
  });
  writer.join();
  searcher.join();
  saver.join();
  scraper.join();
  document_reader.join();

  EXPECT_EQ(db.size(), static_cast<std::size_t>(kDocs));
  const auto hits = db.search(docs[7], 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].score, db.search(docs[7], 1, SimilarityMetric::kCosine,
                                     ScanPolicy::kBruteForce)[0].score);
  EXPECT_EQ(db.index()->size(), static_cast<std::size_t>(kDocs));
}

/// This process's resident set now, in bytes.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(SignatureDatabase, RepeatedRestoresDoNotRatchetMemory) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators keep freed memory resident";
#endif
  // Every shard's term-id and weight streams pass 2 MiB, as at archive
  // scale. Dropping the restored database must hand their memory back, or
  // each restart of the same archive in one process would hold one more
  // copy of it (malloc's per-thread arenas keep blocks freed from another
  // thread resident). Both formats: a v3 archive's streams are views into
  // the file mapping, which must go with the database; a v1 archive
  // builds them on the pool.
  constexpr std::size_t kShards = 4;
  constexpr int kDocs = 24000;
  const std::string path = ::testing::TempDir() + "fmeter_restore_ratchet.fms";
  io::Env& env = io::Env::posix();
  std::size_t index_bytes = 0;
  {
    util::Rng rng(0x7a7c);
    std::vector<vsm::SparseVector> docs;
    std::vector<std::string> labels;
    for (int d = 0; d < kDocs; ++d) {
      std::vector<vsm::SparseVector::Entry> entries;
      for (std::uint32_t t = 0; t < 100; ++t) {
        entries.emplace_back(t * 40 + static_cast<std::uint32_t>(rng.below(40)),
                             rng.uniform(0.05, 1.0));
      }
      docs.push_back(vsm::SparseVector::from_entries(std::move(entries)));
      labels.push_back("l" + std::to_string(d % 5));
    }
    SignatureDatabase source(kShards);
    source.add_batch(std::move(docs), std::move(labels));
    ASSERT_GE(source.index()->shard(kShards - 1).num_postings() *
                  sizeof(std::uint32_t),
              index::kHugePageBytes);
    source.save(env, path);
    index_bytes = source.index()->memory_bytes();
  }
  const std::string v1_path = path + ".v1";
  env.new_writable_file(v1_path)->append(
      fmeter::testing::downgrade_snapshot_to_v1(env.read_file(path)));

  for (const std::string& archive : {path, v1_path}) {
    std::size_t loaded[2] = {0, 0};
    std::size_t dropped[2] = {0, 0};
    for (int round = 0; round < 2; ++round) {
      {
        SignatureDatabase restored;
        restored.load(env, archive);
        ASSERT_EQ(restored.size(), static_cast<std::size_t>(kDocs));
        loaded[round] = resident_bytes();
      }
      dropped[round] = resident_bytes();
    }
    const std::size_t slack = index_bytes / 10;
    EXPECT_LE(loaded[1], loaded[0] + slack)
        << archive << " restored: " << loaded[0] << " then " << loaded[1]
        << " bytes";
    EXPECT_LE(dropped[1], dropped[0] + slack)
        << archive << " after drop: " << dropped[0] << " then " << dropped[1]
        << " bytes";
    // The restored index itself is gone once dropped.
    EXPECT_LE(dropped[1] + index_bytes / 2, loaded[1]) << archive;
  }
  env.remove_file(path);
  env.remove_file(v1_path);
}

}  // namespace
}  // namespace fmeter::core
