// Snapshot persistence battery: round-trip bit-identity, corruption
// rejection, durability.
//
// The contract under test (index/snapshot.hpp): a saved archive restores
// without re-indexing into a database byte-for-byte equal to a fresh bulk
// build of the same documents — searches in every mode (kExact/kMaxScore/
// kAuto), at any shard count, however the source was built (scalar adds,
// bulk batches, or both), return bit-identical results — and every
// corrupted input (truncated files,
// flipped bytes in each region, wrong version, foreign endianness,
// zero-length files, and arena sections that checksum but break an index
// invariant) fails with a diagnostic SnapshotError that leaves the load
// target untouched and usable (strong guarantee). Version-1 files (forward
// store only) still load through the build path and version-2 files (whose
// sections may sit misaligned) through the adopt path; the committed ones
// under tests/data are both. A restored index reads the file mapping, so
// it keeps answering after the file is unlinked, and the mapping goes with
// the last index that shares it. The parallel-load test runs under the
// TSan CI job (per-shard build fan-out).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/query_engine.hpp"
#include "exec/sharded_index.hpp"
#include "exec/task_pool.hpp"
#include "fmeter/database.hpp"
#include "fmeter/live_database.hpp"
#include "index/inverted_index.hpp"
#include "index/snapshot.hpp"
#include "io/env.hpp"
#include "io/journal.hpp"
#include "snapshot_files.hpp"
#include "util/rng.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::core {
namespace {

namespace snap = index::snapshot;

constexpr std::size_t kShardCounts[] = {1, 2, 5};
/// Sections a version-2 or 3 writer emits per shard.
constexpr std::size_t kSectionsPerShard = 7;

vsm::SparseVector random_sparse(util::Rng& rng, std::uint32_t dimension,
                                std::size_t max_nnz,
                                bool allow_negative = false) {
  std::vector<vsm::SparseVector::Entry> entries;
  const std::size_t nnz = rng.below(max_nnz + 1);
  for (std::size_t i = 0; i < nnz; ++i) {
    const auto term =
        static_cast<vsm::SparseVector::Index>(rng.below(dimension));
    double value = rng.uniform(0.05, 1.0);
    if (allow_negative && rng.bernoulli(0.3)) value = -value;
    entries.emplace_back(term, value);
  }
  return vsm::SparseVector::from_entries(std::move(entries));
}

/// A labeled corpus with duplicate labels and some duplicate documents —
/// the shapes an operator archive actually has.
struct TestCorpus {
  std::vector<vsm::SparseVector> signatures;
  std::vector<std::string> labels;
};

TestCorpus make_corpus(std::uint64_t seed, std::size_t docs,
                       std::uint32_t dimension = 96, std::size_t max_nnz = 12) {
  util::Rng rng(seed);
  TestCorpus corpus;
  for (std::size_t i = 0; i < docs; ++i) {
    if (i > 2 && rng.bernoulli(0.1)) {
      corpus.signatures.push_back(corpus.signatures[i - 2]);  // duplicate doc
    } else {
      corpus.signatures.push_back(
          random_sparse(rng, dimension, max_nnz, /*allow_negative=*/true));
    }
    corpus.labels.push_back("class-" + std::to_string(i % 3));
  }
  return corpus;
}

SignatureDatabase build_bulk(const TestCorpus& corpus, std::size_t shards) {
  SignatureDatabase db(shards);
  db.add_batch(corpus.signatures, corpus.labels);
  return db;
}

using fmeter::testing::load_bytes;
using fmeter::testing::put_snapshot;
using fmeter::testing::read_bytes;
using fmeter::testing::saved_bytes;

/// Bit-identical hits: same ids, same labels, scores equal to the last bit.
void expect_hits_identical(const std::vector<SearchHit>& got,
                           const std::vector<SearchHit>& want,
                           const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].id, want[r].id) << context << " rank " << r;
    EXPECT_EQ(got[r].label, want[r].label) << context << " rank " << r;
    EXPECT_EQ(got[r].score, want[r].score) << context << " rank " << r;
  }
}

/// Full-state equality plus bit-identical searches in every execution mode.
void expect_databases_equivalent(const SignatureDatabase& loaded,
                                 const SignatureDatabase& reference,
                                 std::uint64_t query_seed,
                                 const std::string& context) {
  ASSERT_EQ(loaded.size(), reference.size()) << context;
  ASSERT_EQ(loaded.num_shards(), reference.num_shards()) << context;
  EXPECT_EQ(loaded.index()->num_terms(), reference.index()->num_terms())
      << context;
  EXPECT_EQ(loaded.index()->num_postings(), reference.index()->num_postings())
      << context;
  for (std::size_t id = 0; id < reference.size(); ++id) {
    ASSERT_EQ(loaded.label(id), reference.label(id)) << context << " id " << id;
    ASSERT_TRUE(loaded.signature(id) == reference.signature(id))
        << context << " id " << id;
  }
  util::Rng rng(query_seed);
  for (int q = 0; q < 6; ++q) {
    const auto query = random_sparse(rng, 96, 12, /*allow_negative=*/true);
    for (const auto metric :
         {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
      for (const auto mode : {PruningMode::kExact, PruningMode::kMaxScore,
                              PruningMode::kAuto}) {
        const std::size_t k = 1 + static_cast<std::size_t>(q);
        expect_hits_identical(
            loaded.search(query, k, metric, ScanPolicy::kIndexed, mode),
            reference.search(query, k, metric, ScanPolicy::kIndexed, mode),
            context + " query " + std::to_string(q));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(IndexSnapshot, RoundTripBitIdenticalAcrossShardCountsAndModes) {
  const TestCorpus corpus = make_corpus(0x5a41, 120);
  for (const std::size_t shards : kShardCounts) {
    const SignatureDatabase original = build_bulk(corpus, shards);
    const std::string bytes = saved_bytes(original);
    const SignatureDatabase loaded = load_bytes(bytes);
    expect_databases_equivalent(loaded, original, 0x9e1 + shards,
                                std::to_string(shards) + " shards");
    // And against the brute-force golden reference, closing the loop all
    // the way to the scan.
    util::Rng rng(0x77);
    const auto query = random_sparse(rng, 96, 12, true);
    expect_hits_identical(
        loaded.search(query, 5, SimilarityMetric::kCosine,
                      ScanPolicy::kIndexed, PruningMode::kExact),
        loaded.search(query, 5, SimilarityMetric::kCosine,
                      ScanPolicy::kBruteForce),
        "vs scan, " + std::to_string(shards) + " shards");
  }
}

TEST(IndexSnapshot, SavedBytesIndependentOfHowTheSourceWasBuilt) {
  // The forward image is written in public id order, so scalar-added,
  // bulk-built and bulk-plus-scalar sources of the same documents emit
  // byte-for-byte the same snapshot — and all of them restore to the same
  // bulk-build-equal database.
  const TestCorpus corpus = make_corpus(0xf0e, 90);
  const std::size_t cut = 60;  // bulk prefix of the mixed source
  for (const std::size_t shards : kShardCounts) {
    SignatureDatabase scalar(shards);
    SignatureDatabase mixed(shards);
    for (std::size_t i = 0; i < corpus.signatures.size(); ++i) {
      scalar.add(corpus.signatures[i], corpus.labels[i]);
    }
    mixed.add_batch({corpus.signatures.begin(), corpus.signatures.begin() + cut},
                    {corpus.labels.begin(), corpus.labels.begin() + cut});
    util::Rng rng(0x5ca1);
    (void)mixed.search(random_sparse(rng, 96, 12), 3);  // indexes the prefix
    for (std::size_t i = cut; i < corpus.signatures.size(); ++i) {
      mixed.add(corpus.signatures[i], corpus.labels[i]);
    }
    const SignatureDatabase reference = build_bulk(corpus, shards);

    const std::string bytes = saved_bytes(reference);
    EXPECT_EQ(saved_bytes(scalar), bytes)
        << shards << " shards: scalar vs bulk bytes";
    EXPECT_EQ(saved_bytes(mixed), bytes)
        << shards << " shards: bulk+scalar vs bulk bytes";
    expect_databases_equivalent(load_bytes(bytes), reference,
                                0xabc + shards,
                                std::to_string(shards) + " shards, any build");
  }
}

TEST(IndexSnapshot, SaveRightAfterScalarAddsRoundTripsEveryDocument) {
  // Scalar adds leave the index behind the store; save() must bring it up
  // to date first, or the file would miss the unindexed tail of the store.
  const TestCorpus corpus = make_corpus(0x5a5e, 40);
  for (const std::size_t shards : kShardCounts) {
    SignatureDatabase db(shards);
    db.add_batch({corpus.signatures.begin(), corpus.signatures.begin() + 10},
                 {corpus.labels.begin(), corpus.labels.begin() + 10});
    for (std::size_t i = 10; i < corpus.signatures.size(); ++i) {
      db.add(corpus.signatures[i], corpus.labels[i]);
    }
    const SignatureDatabase loaded = load_bytes(saved_bytes(db));
    ASSERT_EQ(loaded.size(), corpus.signatures.size()) << shards << " shards";
    for (std::size_t id = 0; id < corpus.signatures.size(); ++id) {
      EXPECT_EQ(loaded.label(id), corpus.labels[id]) << "id " << id;
      EXPECT_TRUE(loaded.signature(id) == corpus.signatures[id]) << "id " << id;
    }
    expect_databases_equivalent(loaded, build_bulk(corpus, shards),
                                0x7e57 + shards,
                                std::to_string(shards) + " shards");
  }
}

TEST(IndexSnapshot, DegenerateCorporaRoundTrip) {
  // Empty database.
  for (const std::size_t shards : kShardCounts) {
    SignatureDatabase empty(shards);
    const SignatureDatabase loaded = load_bytes(saved_bytes(empty));
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_EQ(loaded.num_shards(), shards);
    util::Rng rng(1);
    EXPECT_TRUE(loaded
                    .search(random_sparse(rng, 16, 4), 3,
                            SimilarityMetric::kCosine)
                    .empty());
  }

  // One document; empty label; label with spaces/newlines (the binary
  // format has no separator restrictions, unlike the text corpus format).
  SignatureDatabase one(2);
  util::Rng rng(0xd0c);
  one.add(random_sparse(rng, 32, 6), "label with spaces\nand a newline");
  const SignatureDatabase loaded_one = load_bytes(saved_bytes(one));
  ASSERT_EQ(loaded_one.size(), 1u);
  EXPECT_EQ(loaded_one.label(0), "label with spaces\nand a newline");
  EXPECT_TRUE(loaded_one.signature(0) == one.signature(0));

  // Every label identical, every document identical (maximal duplication).
  TestCorpus dup;
  const auto doc = random_sparse(rng, 32, 6);
  for (int i = 0; i < 20; ++i) {
    dup.signatures.push_back(doc);
    dup.labels.push_back("same");
  }
  for (const std::size_t shards : kShardCounts) {
    const SignatureDatabase reference = build_bulk(dup, shards);
    expect_databases_equivalent(load_bytes(saved_bytes(reference)),
                                reference, 0x11 + shards,
                                "duplicates, " + std::to_string(shards));
  }

  // A document that is the empty vector (zero signature) survives too.
  TestCorpus with_empty = make_corpus(0xe0, 10);
  with_empty.signatures[4] = vsm::SparseVector();
  const SignatureDatabase reference = build_bulk(with_empty, 2);
  expect_databases_equivalent(load_bytes(saved_bytes(reference)),
                              reference, 0x2222, "empty doc");
}

TEST(IndexSnapshot, ShardedIndexRoundTripWithoutLabels) {
  // The exec-layer API: an index-only snapshot (no labels section).
  util::Rng rng(0x1d8);
  for (const std::size_t shards : kShardCounts) {
    exec::ShardedIndex original(shards);
    std::vector<vsm::SparseVector> docs;
    for (int i = 0; i < 150; ++i) {
      docs.push_back(random_sparse(rng, 64, 10, /*allow_negative=*/true));
    }
    original = original.appended(std::span<const vsm::SparseVector>(docs));

    snap::Reader reader = read_bytes(saved_bytes(original));
    const exec::ShardedIndex loaded = exec::ShardedIndex::load(reader);

    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.num_shards(), original.num_shards());
    EXPECT_EQ(loaded.num_terms(), original.num_terms());
    EXPECT_EQ(loaded.num_postings(), original.num_postings());

    const exec::QueryEngine original_engine(original);
    const exec::QueryEngine loaded_engine(loaded);
    for (int q = 0; q < 5; ++q) {
      const auto query = random_sparse(rng, 64, 10, true);
      for (const auto metric :
           {index::Metric::kCosine, index::Metric::kEuclidean}) {
        const auto want = original_engine.run(query, 7, metric);
        const auto got = loaded_engine.run(query, 7, metric);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t r = 0; r < want.size(); ++r) {
          EXPECT_EQ(got[r].doc, want[r].doc) << "rank " << r;
          EXPECT_EQ(got[r].score, want[r].score) << "rank " << r;
        }
      }
    }
  }
}

TEST(IndexSnapshot, InvertedIndexSectionsRoundTrip) {
  // The index-layer primitive the higher layers are built from.
  util::Rng rng(0x90);
  index::InvertedIndex original;
  std::vector<vsm::SparseVector> docs;
  for (int i = 0; i < 80; ++i) {
    docs.push_back(random_sparse(rng, 48, 8, /*allow_negative=*/true));
  }
  original = original.appended(docs);
  docs.clear();
  for (int i = 0; i < 10; ++i) {  // built in two batches
    docs.push_back(random_sparse(rng, 48, 8, true));
  }
  original = original.appended(docs);

  snap::Writer writer(1, original.size(), original.num_terms());
  original.save(writer, 0);
  io::InMemoryEnv env;
  env.create_dir("d");
  writer.finish(env, "d/snap");

  snap::Reader reader(env, "d/snap");
  const index::InvertedIndex loaded = index::InvertedIndex::load(reader, 0);

  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.num_terms(), original.num_terms());
  EXPECT_EQ(loaded.num_postings(), original.num_postings());
  for (int q = 0; q < 8; ++q) {
    const auto query = random_sparse(rng, 48, 8, true);
    const auto want = original.top_k(query, 5);
    const auto got = loaded.top_k(query, 5);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].doc, want[r].doc);
      EXPECT_EQ(got[r].score, want[r].score);
    }
  }
}

TEST(IndexSnapshot, ParallelLoadMatchesInlineLoadDeterministically) {
  // 6000 docs clears the parallel-build cutoff, so ShardedIndex::load fans
  // per-shard builds onto the pool — the configuration the TSan CI job
  // exercises. Loaded twice in parallel and once inline, all three must be
  // identical.
  util::Rng rng(0x6000);
  std::vector<vsm::SparseVector> docs;
  for (int i = 0; i < 6000; ++i) docs.push_back(random_sparse(rng, 64, 10));

  exec::ShardedIndex original(4);
  original = original.appended(std::span<const vsm::SparseVector>(docs));
  const std::string bytes = saved_bytes(original);

  snap::Reader inline_reader = read_bytes(bytes);
  const exec::ShardedIndex inline_loaded =
      exec::ShardedIndex::load(inline_reader);

  exec::TaskPool pool(3);
  for (int run = 0; run < 2; ++run) {
    snap::Reader reader = read_bytes(bytes);
    const exec::ShardedIndex parallel = exec::ShardedIndex::load(reader, &pool);
    ASSERT_EQ(parallel.size(), inline_loaded.size()) << "run " << run;
    EXPECT_EQ(parallel.num_terms(), inline_loaded.num_terms()) << "run " << run;
    EXPECT_EQ(parallel.num_postings(), inline_loaded.num_postings())
        << "run " << run;
    const auto want_stats = inline_loaded.shard_stats();
    const auto got_stats = parallel.shard_stats();
    ASSERT_EQ(got_stats.size(), want_stats.size());
    for (std::size_t s = 0; s < want_stats.size(); ++s) {
      EXPECT_EQ(got_stats[s].docs, want_stats[s].docs) << "shard " << s;
      EXPECT_EQ(got_stats[s].postings, want_stats[s].postings) << "shard " << s;
      EXPECT_EQ(got_stats[s].terms, want_stats[s].terms) << "shard " << s;
    }
    const exec::QueryEngine want_engine(inline_loaded, &pool);
    const exec::QueryEngine got_engine(parallel, &pool);
    for (int q = 0; q < 6; ++q) {
      const auto query = random_sparse(rng, 64, 10);
      for (const auto mode :
           {index::PruningMode::kExact, index::PruningMode::kMaxScore}) {
        const auto want =
            want_engine.run(query, 5, index::Metric::kCosine, mode);
        const auto got = got_engine.run(query, 5, index::Metric::kCosine, mode);
        ASSERT_EQ(got.size(), want.size()) << "run " << run << " q " << q;
        for (std::size_t r = 0; r < want.size(); ++r) {
          EXPECT_EQ(got[r].doc, want[r].doc) << "rank " << r;
          EXPECT_EQ(got[r].score, want[r].score) << "rank " << r;
        }
      }
    }
  }
}

TEST(IndexSnapshot, ParallelEnvRestoreEqualsAFreshBuildAndAnInlineRead) {
  // 6000 docs on 4 shards: the restore reads the sections on the pool,
  // then builds the shards on it. Through a file on disk and an in-memory
  // one, by the database (shared pool) and by the exec layer (a pool of
  // its own), each restored shard equals the fresh build's and that of a
  // restore whose sections were read inline, one after another.
  const TestCorpus corpus = make_corpus(0x9a11, 6000);
  const SignatureDatabase fresh = build_bulk(corpus, 4);
  const std::string bytes = saved_bytes(fresh);
  snap::Reader inline_reader = read_bytes(bytes);
  const exec::ShardedIndex inline_read =
      exec::ShardedIndex::load(inline_reader);

  io::InMemoryEnv memory;
  const std::string memory_path = put_snapshot(memory, bytes);
  io::Env& posix = io::Env::posix();
  const std::string posix_path = ::testing::TempDir() + "fmeter_restore.fms";
  fresh.save(posix, posix_path);
  EXPECT_EQ(posix.read_file(posix_path), bytes);

  exec::TaskPool pool(3);
  const std::pair<io::Env*, std::string> sources[] = {{&memory, memory_path},
                                                      {&posix, posix_path}};
  for (const auto& [env, path] : sources) {
    SignatureDatabase loaded(1);
    loaded.load(*env, path);
    snap::Reader reader = exec::ShardedIndex::read_snapshot(*env, path, &pool);
    const exec::ShardedIndex index = exec::ShardedIndex::load(reader, &pool);
    ASSERT_EQ(loaded.num_shards(), 4u) << path;
    ASSERT_EQ(index.num_shards(), 4u) << path;
    for (std::size_t s = 0; s < 4; ++s) {
      const index::InvertedIndex& want = fresh.index()->shard(s);
      EXPECT_TRUE(loaded.index()->shard(s) == want) << path << " shard " << s;
      EXPECT_TRUE(inline_read.shard(s) == want) << "shard " << s;
      EXPECT_TRUE(index.shard(s) == want) << path << " shard " << s;
    }
    expect_databases_equivalent(loaded, fresh, 0x9a12, path);
  }
  posix.remove_file(posix_path);
}

/// Every shard of `got` equals `want`'s, operator== (every array of the
/// index), and so do the sharded aggregates.
void expect_indexes_equal(const exec::ShardedIndex& got,
                          const exec::ShardedIndex& want,
                          const std::string& context) {
  ASSERT_EQ(got.num_shards(), want.num_shards()) << context;
  EXPECT_EQ(got.size(), want.size()) << context;
  EXPECT_EQ(got.num_terms(), want.num_terms()) << context;
  EXPECT_EQ(got.memory_bytes(), want.memory_bytes()) << context;
  for (std::size_t s = 0; s < want.num_shards(); ++s) {
    EXPECT_TRUE(got.shard(s) == want.shard(s)) << context << " shard " << s;
  }
}

TEST(IndexSnapshot, EveryVersionRoundTripsToABulkBuildAtEveryShardCount) {
  // A v3 restore adopts the saved arena where the mapping holds it and
  // builds nothing; what it adopts and what it derives must equal a bulk
  // build, for shard counts that split 200 documents evenly and unevenly,
  // and for 8 shards over 5 documents, where three shards are empty. The
  // same file rewritten as v2 (sections back to back, some misaligned and
  // copied) and as v1 (forward store only, the arena built) restores to
  // the same index, and a save of any of them writes the v3 file again.
  const TestCorpus corpus = make_corpus(0x5a1, 200);
  const TestCorpus tiny = make_corpus(0x71, 5);
  const std::pair<const TestCorpus*, std::size_t> cases[] = {
      {&corpus, 1}, {&corpus, 2}, {&corpus, 3},
      {&corpus, 4}, {&corpus, 8}, {&tiny, 8}};
  for (const auto& [source, shards] : cases) {
    const SignatureDatabase bulk = build_bulk(*source, shards);
    const std::string v3 = saved_bytes(bulk);
    const std::pair<std::uint32_t, std::string> files[] = {
        {3, v3},
        {2, fmeter::testing::downgrade_snapshot_to_v2(v3)},
        {1, fmeter::testing::downgrade_snapshot_to_v1(v3)}};
    for (const auto& [version, bytes] : files) {
      const std::string context =
          std::to_string(source->signatures.size()) + " docs, " +
          std::to_string(shards) + " shards, v" + std::to_string(version);
      snap::Reader reader = read_bytes(bytes);
      EXPECT_EQ(reader.version(), version) << context;
      expect_indexes_equal(exec::ShardedIndex::load(reader), *bulk.index(),
                           context);

      const SignatureDatabase loaded = load_bytes(bytes);
      expect_indexes_equal(*loaded.index(), *bulk.index(), context + " (db)");
      expect_databases_equivalent(loaded, bulk, 0x2a + shards, context);
      EXPECT_EQ(saved_bytes(loaded), v3) << context;
    }
  }
}

TEST(IndexSnapshot, CommittedLegacyFilesLoadAsTheBulkBuild) {
  // tests/data holds the files the version-1 and version-2 writers made of
  // make_corpus(0x5a1, 200) on 2 shards. Each is the current file of that
  // build rewritten in its version, byte for byte — which is what lets the
  // other tests make legacy files by rewriting current ones — verifies
  // clean, and restores into the index a bulk build makes. Some sections
  // of the v2 file start 4 bytes off an 8-byte boundary (behind a u32
  // section of odd length), so its restore copies them.
  const SignatureDatabase bulk = build_bulk(make_corpus(0x5a1, 200), 2);
  const std::string v3 = saved_bytes(bulk);
  io::Env& posix = io::Env::posix();
  const std::pair<std::uint32_t, std::string> files[] = {
      {1, fmeter::testing::downgrade_snapshot_to_v1(v3)},
      {2, fmeter::testing::downgrade_snapshot_to_v2(v3)}};
  for (const auto& [version, rewritten] : files) {
    const std::string name =
        "snapshot_v" + std::to_string(version) + "_200docs_2shards.fms";
    const std::string path = std::string(FMETER_TEST_DATA_DIR) + "/" + name;
    const std::string committed = posix.read_file(path);
    EXPECT_EQ(committed, rewritten) << name;

    const snap::VerifyResult result = snap::verify(posix, path);
    EXPECT_TRUE(result.ok) << name << ": " << result.error;
    EXPECT_EQ(result.version, version) << name;
    EXPECT_EQ(result.doc_count, 200u) << name;
    EXPECT_EQ(result.sections.size(),
              2 * (version == 1 ? 3 : kSectionsPerShard) + 1)
        << name;
    EXPECT_EQ(result.total_bytes, committed.size()) << name;

    snap::Reader reader(posix, path);
    EXPECT_EQ(reader.version(), version) << name;
    EXPECT_EQ(reader.has_section(snap::SectionKind::kArenaIds, 0),
              version == 2)
        << name;
    expect_indexes_equal(exec::ShardedIndex::load(reader), *bulk.index(),
                         name);
    SignatureDatabase loaded;
    loaded.load(posix, path);
    expect_indexes_equal(*loaded.index(), *bulk.index(), name + " db");
    expect_databases_equivalent(loaded, bulk, 0x5a2, name);
    EXPECT_EQ(saved_bytes(loaded), v3) << name;
  }
  std::size_t misaligned = 0;
  for (const auto& section : fmeter::testing::snapshot_sections(
           fmeter::testing::downgrade_snapshot_to_v2(v3))) {
    const auto kind = static_cast<snap::SectionKind>(section.kind);
    const bool eight_byte = kind == snap::SectionKind::kForwardOffsets ||
                            kind == snap::SectionKind::kWeights ||
                            kind == snap::SectionKind::kArenaOffsets ||
                            kind == snap::SectionKind::kArenaWeights;
    misaligned += eight_byte && section.begin % 8 != 0;
  }
  EXPECT_GT(misaligned, 0u);

  // Every shard count, through the pooled Env path as well.
  const TestCorpus corpus = make_corpus(0x1f1, 6000);
  exec::TaskPool pool(3);
  for (const std::size_t shards : {1, 2, 3, 4, 8}) {
    const SignatureDatabase source = build_bulk(corpus, shards);
    const std::string current = saved_bytes(source);
    for (const std::string& legacy :
         {fmeter::testing::downgrade_snapshot_to_v1(current),
          fmeter::testing::downgrade_snapshot_to_v2(current)}) {
      io::InMemoryEnv env;
      const std::string path = put_snapshot(env, legacy);
      snap::Reader pooled = exec::ShardedIndex::read_snapshot(env, path, &pool);
      const std::string context = "v" + std::to_string(pooled.version()) +
                                  ", " + std::to_string(shards) + " shards";
      expect_indexes_equal(exec::ShardedIndex::load(pooled, &pool),
                           *source.index(), context);
    }
  }
}

TEST(IndexSnapshot, LoadedIndexAnswersAfterItsFileIsUnlinked) {
  // A restore maps the file and the index reads its arrays through the
  // mapping. Unlinking the file — what LiveDatabase does to a superseded
  // snapshot — leaves the loaded index answering exactly as before.
  const SignatureDatabase source = build_bulk(make_corpus(0x0f1e, 6000), 4);
  io::Env& posix = io::Env::posix();
  const std::string path = ::testing::TempDir() + "fmeter_unlinked.fms";
  source.save(posix, path);
  SignatureDatabase loaded;
  loaded.load(posix, path);
  posix.remove_file(path);
  ASSERT_FALSE(posix.file_exists(path));
  expect_indexes_equal(*loaded.index(), *source.index(), "after unlink");
  expect_databases_equivalent(loaded, source, 0x0f1f, "after unlink");
}

/// An InMemoryEnv that remembers the last view map_file handed out.
class MapRecordingEnv : public io::InMemoryEnv {
 public:
  std::shared_ptr<const io::MappedFile> map_file(
      const std::string& path) const override {
    std::shared_ptr<const io::MappedFile> mapped = InMemoryEnv::map_file(path);
    last_ = mapped;
    return mapped;
  }
  bool mapping_alive() const { return !last_.expired(); }

 private:
  mutable std::weak_ptr<const io::MappedFile> last_;
};

TEST(IndexSnapshot, MappingIsReleasedWithTheLastIndexThatSharesIt) {
  // The Reader, the restored index, its copies and its shards all share
  // one mapping; it lives exactly as long as the last of them.
  const SignatureDatabase source = build_bulk(make_corpus(0x3a9, 300), 2);
  MapRecordingEnv env;
  const std::string path = put_snapshot(env, saved_bytes(source));
  std::optional<exec::ShardedIndex> loaded;
  {
    snap::Reader reader(env, path);
    loaded.emplace(exec::ShardedIndex::load(reader));
  }
  EXPECT_TRUE(env.mapping_alive()) << "the index holds it, not the reader";
  std::optional<exec::ShardedIndex> copy = loaded;
  std::optional<index::InvertedIndex> shard = loaded->shard(1);
  loaded.reset();
  EXPECT_TRUE(env.mapping_alive());
  copy.reset();
  EXPECT_TRUE(env.mapping_alive());
  EXPECT_TRUE(*shard == source.index()->shard(1));
  shard.reset();
  EXPECT_FALSE(env.mapping_alive());
}

// ---------------------------------------------------------------------------
// Corruption and durability
// ---------------------------------------------------------------------------

/// Fixture state for the adversarial cases: a valid snapshot and a target
/// database with pre-existing contents that every failed load must leave
/// untouched.
class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = make_corpus(0xbad, 60);
    source_ = build_bulk(corpus_, 2);
    bytes_ = saved_bytes(source_);

    target_ = SignatureDatabase(3);
    util::Rng rng(0x7a6);
    for (int i = 0; i < 10; ++i) {
      target_.add(random_sparse(rng, 40, 6), "pre-existing");
    }
    util::Rng qrng(0x31);
    probe_ = random_sparse(qrng, 40, 6);
    before_ = target_.search(probe_, 5, SimilarityMetric::kCosine);
  }

  /// Asserts that loading `bytes` fails with a SnapshotError whose message
  /// is a real diagnostic — the same message from an in-memory file and
  /// from a file on disk mapped by PosixEnv — and that the target database
  /// is untouched and still fully usable afterwards. Returns the message.
  std::string expect_clean_failure(const std::string& bytes,
                                   const std::string& context) {
    io::InMemoryEnv env;
    const std::string path = put_snapshot(env, bytes);
    const auto load_error = [this, &context](io::Env& from,
                                             const std::string& file,
                                             const std::string& leg) {
      try {
        target_.load(from, file);
        ADD_FAILURE() << context << ": load of corrupt snapshot succeeded ("
                      << leg << ")";
      } catch (const snap::SnapshotError& error) {
        return std::string(error.what());
      } catch (const std::exception& error) {
        ADD_FAILURE() << context << ": wrong exception type: " << error.what()
                      << " (" << leg << ")";
      }
      return std::string();
    };
    const std::string error = load_error(env, path, "in memory");
    EXPECT_GT(error.size(), 10u) << context << ": diagnostic too short";
    io::Env& posix = io::Env::posix();
    const std::string posix_path = ::testing::TempDir() + "fmeter_corrupt.fms";
    posix.new_writable_file(posix_path)->append(bytes);
    EXPECT_EQ(load_error(posix, posix_path, "posix"), error)
        << context << " (posix)";
    posix.remove_file(posix_path);
    expect_target_untouched(context);
    return error;
  }

  /// The strong guarantee after a failed load: contents, labels and query
  /// results unchanged, and the database still accepts new work.
  void expect_target_untouched(const std::string& context) {
    ASSERT_EQ(target_.size(), 10u) << context;
    for (std::size_t id = 0; id < target_.size(); ++id) {
      ASSERT_EQ(target_.label(id), "pre-existing") << context;
    }
    expect_hits_identical(target_.search(probe_, 5, SimilarityMetric::kCosine),
                          before_, context);
    util::Rng rng(0x99);
    target_.add(random_sparse(rng, 40, 6), "post-failure");
    ASSERT_EQ(target_.size(), 11u) << context;
    // Rebuild the 10-doc state (same seed, same docs) so `before_` stays
    // the reference for the next corrupt input.
    target_ = SignatureDatabase(3);
    util::Rng rebuild(0x7a6);
    for (int i = 0; i < 10; ++i) {
      target_.add(random_sparse(rebuild, 40, 6), "pre-existing");
    }
  }

  /// A byte-level corruption: expect_clean_failure, and verify() reports
  /// the file as not ok with the message the load threw. Returns verify's
  /// report.
  snap::VerifyResult expect_damage_found(const std::string& bytes,
                                         const std::string& context) {
    const std::string error = expect_clean_failure(bytes, context);
    io::InMemoryEnv env;
    const snap::VerifyResult result = snap::verify(env, put_snapshot(env, bytes));
    EXPECT_FALSE(result.ok) << context << " (verify)";
    EXPECT_EQ(result.error, error) << context << " (verify)";
    EXPECT_EQ(result.total_bytes, bytes.size()) << context << " (verify)";
    return result;
  }

  /// Header layout constant mirrored from snapshot.hpp's documentation.
  static constexpr std::size_t kPrefixBytes = 40;

  /// Payload byte ranges of the directory entries, computed from the file
  /// itself (kind/shard are returned for targeting specific sections).
  std::vector<fmeter::testing::SnapshotSection> section_spans() const {
    return fmeter::testing::snapshot_sections(bytes_);
  }

  TestCorpus corpus_;
  SignatureDatabase source_{1};
  SignatureDatabase target_{1};
  std::string bytes_;
  vsm::SparseVector probe_;
  std::vector<SearchHit> before_;
};

TEST_F(SnapshotCorruption, ZeroLengthAndTinyFiles) {
  expect_damage_found("", "zero-length file");
  expect_damage_found("FM", "two-byte file");
  expect_damage_found(std::string(39, '\0'), "short header of zeroes");
}

TEST_F(SnapshotCorruption, TruncationAtEveryRegion) {
  const std::vector<std::size_t> cuts = {
      8,                         // mid-magic... after magic, mid-version
      kPrefixBytes - 1,          // one byte short of the prefix
      kPrefixBytes + 5,          // mid-directory
      bytes_.size() / 2,         // mid-payload
      bytes_.size() - 1,         // one byte short
  };
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes_.size());
    const snap::VerifyResult result = expect_damage_found(
        bytes_.substr(0, cut), "truncated at byte " + std::to_string(cut));
    EXPECT_NE(result.error.find("truncated"), std::string::npos)
        << result.error;
  }
}

TEST_F(SnapshotCorruption, WrongVersionAndForeignEndianness) {
  // Version bumped past the newest: rejected as unsupported *before* any
  // checksum math, so future formats get a version message, not "corrupt".
  std::string versioned = bytes_;
  const std::uint32_t next = snap::kFormatVersion + 1;
  std::memcpy(versioned.data() + 8, &next, sizeof(next));
  const std::string version_error =
      expect_damage_found(versioned, "wrong version").error;
  EXPECT_NE(version_error.find("version"), std::string::npos)
      << version_error;

  // Byte-swapped endianness tag: the message names the real problem.
  std::string swapped = bytes_;
  std::swap(swapped[12], swapped[15]);
  std::swap(swapped[13], swapped[14]);
  const std::string endian_error =
      expect_damage_found(swapped, "foreign endianness").error;
  EXPECT_NE(endian_error.find("endian"), std::string::npos) << endian_error;
}

TEST_F(SnapshotCorruption, FlippedByteInHeaderAndDirectory) {
  // Every field of the fixed prefix and of the first directory entry: a
  // single flipped bit must be caught (magic/version/endian checks or the
  // header checksum that also covers the directory).
  for (const std::size_t at : {std::size_t{0}, std::size_t{9},
                               std::size_t{13}, std::size_t{16},
                               std::size_t{21}, std::size_t{26},
                               std::size_t{33}, kPrefixBytes + 1,
                               kPrefixBytes + 9, kPrefixBytes + 17}) {
    std::string corrupt = bytes_;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x20);
    expect_damage_found(corrupt, "flipped byte at " + std::to_string(at));
  }
}

TEST_F(SnapshotCorruption, FlippedByteInEverySection) {
  // One flip in the middle (and at both edges) of every section payload —
  // the forward store and the arena sections of each shard, and the labels
  // blob. The per-section checksums must catch each one, and verify must
  // flag exactly that section while still listing every section: it is a
  // whole-file report, not a first-error bail-out.
  const auto spans = section_spans();
  ASSERT_EQ(spans.size(), 2 * kSectionsPerShard + 1)
      << "2 shards x 7 sections + labels";
  bool saw_labels = false;
  for (const auto& span : spans) {
    if (span.kind == static_cast<std::uint32_t>(snap::SectionKind::kLabels)) {
      saw_labels = true;
    }
    if (span.length == 0) continue;
    for (const std::size_t offset :
         {std::size_t{0}, span.length / 2, span.length - 1}) {
      std::string corrupt = bytes_;
      corrupt[span.begin + offset] =
          static_cast<char>(corrupt[span.begin + offset] ^ 0x01);
      const std::string context = "flip in section kind " +
                                  std::to_string(span.kind) + "/" +
                                  std::to_string(span.shard) + " offset " +
                                  std::to_string(offset);
      const snap::VerifyResult result = expect_damage_found(corrupt, context);
      ASSERT_EQ(result.sections.size(), spans.size()) << context;
      std::size_t flagged = 0;
      for (const auto& section : result.sections) {
        if (section.checksum_ok) continue;
        ++flagged;
        EXPECT_EQ(static_cast<std::uint32_t>(section.kind), span.kind)
            << context;
        EXPECT_EQ(section.shard, span.shard) << context;
      }
      EXPECT_EQ(flagged, 1u) << context;
    }
  }
  EXPECT_TRUE(saw_labels);
}

TEST_F(SnapshotCorruption, FlippedPaddingByteFailsLoadAndVerifyAlike) {
  // Version 3 fills the gap before each section with zero bytes. A flip at
  // either end of every gap fails the load and verify with one message,
  // naming the section behind the gap, while every section still
  // checksums.
  const auto spans = section_spans();
  std::size_t at = kPrefixBytes +
                   spans.size() * fmeter::testing::kSnapshotEntryBytes +
                   sizeof(std::uint64_t);
  std::size_t gaps = 0;
  for (const auto& span : spans) {
    if (span.begin > at) {
      ++gaps;
      const std::string name =
          std::string(snap::section_kind_name(
              static_cast<snap::SectionKind>(span.kind))) +
          "/" + std::to_string(span.shard);
      for (const std::size_t pad : {at, span.begin - 1}) {
        std::string corrupt = bytes_;
        corrupt[pad] = static_cast<char>(corrupt[pad] ^ 0x40);
        const std::string context = "flip at byte " + std::to_string(pad) +
                                    " of the padding before " + name;
        const snap::VerifyResult result = expect_damage_found(corrupt, context);
        EXPECT_EQ(result.error,
                  "snapshot: nonzero padding before section " + name)
            << context;
        ASSERT_EQ(result.sections.size(), spans.size()) << context;
        for (const auto& section : result.sections) {
          EXPECT_TRUE(section.checksum_ok) << context;
        }
      }
    }
    at = span.begin + span.length;
  }
  EXPECT_GE(gaps, 2 * kSectionsPerShard);
}

TEST_F(SnapshotCorruption, ImplausibleHeaderCountsRejectedBeforeAllocation) {
  // Bit-rotted shard/section counts sit *before* any checksum can vouch
  // for them, so the reader must bound them sanity-first — a corrupt count
  // has to surface as a SnapshotError diagnostic, never as a
  // std::bad_alloc from sizing the directory off garbage.
  for (const std::size_t field_at : {std::size_t{16}, std::size_t{20}}) {
    std::string corrupt = bytes_;
    const std::uint32_t huge = 0x40000000u;
    std::memcpy(corrupt.data() + field_at, &huge, sizeof(huge));
    expect_damage_found(corrupt, "huge count at byte " +
                                     std::to_string(field_at));
  }
  // A section count at the cap for the largest shard count passes both
  // caps, yet its directory alone (~11 MB) cannot fit in a 100-byte file:
  // the file size rejects it before the count sizes the directory. The
  // header checksum would sit past the end of the file, so nothing vouches
  // for the count; only the size check stands between it and the resize.
  std::string forged = bytes_.substr(0, 100);
  const std::uint32_t max_shards = 1u << 16;
  const std::uint32_t at_cap = 7 * max_shards + 16;
  std::memcpy(forged.data() + 16, &max_shards, sizeof(max_shards));
  std::memcpy(forged.data() + 20, &at_cap, sizeof(at_cap));
  EXPECT_EQ(expect_damage_found(forged, "section count at the cap").error,
            "snapshot: truncated file (section directory of 458768 entries "
            "does not fit in the file)");
}

TEST_F(SnapshotCorruption, TrailingGarbageRejected) {
  for (const std::string& longer : {bytes_ + "x", bytes_ + std::string(1024, '\7')}) {
    const snap::VerifyResult result = expect_damage_found(
        longer, std::to_string(longer.size() - bytes_.size()) +
                    " trailing bytes");
    // Every section is whole and intact; only the tail is wrong.
    ASSERT_EQ(result.sections.size(), 2 * kSectionsPerShard + 1);
    for (const auto& section : result.sections) {
      EXPECT_TRUE(section.checksum_ok);
    }
  }
}

TEST_F(SnapshotCorruption, IndexOnlySnapshotRejectedByDatabaseLoad) {
  // A ShardedIndex snapshot has no labels section; SignatureDatabase::load
  // must say so instead of inventing labels.
  expect_clean_failure(saved_bytes(*source_.index()),
                       "index-only snapshot into a database");
}

TEST_F(SnapshotCorruption, SuccessfulLoadReplacesTargetEntirely) {
  // The durability flip side: on *success* the old contents are gone and
  // the loaded archive answers exactly like the source.
  io::InMemoryEnv env;
  const std::string path = put_snapshot(env, bytes_);
  target_.load(env, path);
  expect_databases_equivalent(target_, source_, 0xfeed, "post-load");
}

/// Rewrites directory entry `entry`'s byte length and re-seals the header
/// checksum, so only the length check itself can reject the file.
std::string forge_section_length(std::string bytes, std::uint32_t entry,
                                 std::uint64_t length) {
  std::memcpy(bytes.data() + fmeter::testing::kSnapshotPrefixBytes +
                  entry * fmeter::testing::kSnapshotEntryBytes + 8,
              &length, sizeof(length));
  fmeter::testing::reseal_snapshot_header(bytes);
  return bytes;
}

TEST_F(SnapshotCorruption, ForgedSectionLengthsFailBeforeAllocating) {
  // A header whose checksum is valid but whose directory declares more
  // payload than the file holds must fail as a SnapshotError before the
  // length sizes an allocation — an exabyte request would otherwise
  // surface as std::bad_alloc. Re-sealing an unchanged header must
  // reproduce the writer's bytes, or the forgeries below prove nothing.
  std::uint64_t original = 0;
  std::memcpy(&original, bytes_.data() + kPrefixBytes + 8, sizeof(original));
  ASSERT_EQ(forge_section_length(bytes_, 0, original), bytes_);
  for (const std::uint64_t length :
       {std::uint64_t{1} << 60, std::uint64_t{1} << 40,
        static_cast<std::uint64_t>(bytes_.size()) * 8}) {
    const std::string error =
        expect_damage_found(forge_section_length(bytes_, 0, length),
                            "offsets length forged to " +
                                std::to_string(length))
            .error;
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
  // A length that is not a whole number of u64 offsets is rejected by its
  // element size, before anything is read.
  const std::string ragged_error =
      expect_damage_found(forge_section_length(bytes_, 0, 12),
                          "offsets length of 12 bytes")
          .error;
  EXPECT_NE(ragged_error.find("whole number of elements"), std::string::npos)
      << ragged_error;
}

TEST_F(SnapshotCorruption, ParallelRestoreOfAShardedArchiveRejectsDamage) {
  // A 4-shard archive large enough that both restore phases fan out onto
  // the pool. Each damaged copy fails the same way in memory and through
  // the posix path, verify gives the same diagnosis, and the target is
  // left untouched.
  source_ = build_bulk(make_corpus(0x4ad, 6000), 4);
  bytes_ = saved_bytes(source_);
  const auto spans = section_spans();
  ASSERT_EQ(spans.size(), 4 * kSectionsPerShard + 1)
      << "4 shards x 7 sections + labels";
  std::uint32_t last_weights = 0;
  std::uint32_t labels = 0;
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    const auto kind = static_cast<snap::SectionKind>(spans[i].kind);
    if (kind == snap::SectionKind::kWeights && spans[i].shard == 3) {
      last_weights = i;
    }
    if (kind == snap::SectionKind::kLabels) labels = i;
  }
  ASSERT_EQ(spans[last_weights].shard, 3u);
  ASSERT_GT(spans[last_weights].length, 0u);
  ASSERT_GT(spans[labels].length, 0u);

  const auto flipped = [this](const fmeter::testing::SnapshotSection& span) {
    std::string corrupt = bytes_;
    const std::size_t at = span.begin + span.length / 2;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
    return corrupt;
  };
  const std::uint64_t length = spans[last_weights].length;
  expect_damage_found(flipped(spans[last_weights]),
                      "flip in the last shard's weights");
  expect_damage_found(flipped(spans[labels]), "flip in the labels");
  expect_damage_found(bytes_.substr(0, bytes_.size() - 9), "truncated");
  expect_damage_found(bytes_ + std::string(16, '\0'), "trailing bytes");
  expect_damage_found(forge_section_length(bytes_, last_weights, length + 8),
                      "last weights length forged up");
  expect_damage_found(forge_section_length(bytes_, last_weights, length - 8),
                      "last weights length forged down");

  // The undamaged file restores to the source.
  io::InMemoryEnv env;
  target_.load(env, put_snapshot(env, bytes_));
  expect_databases_equivalent(target_, source_, 0x4ae, "undamaged");
}

/// `bytes` with section (kind, shard)'s payload, read as an array of T,
/// changed by `mutate`, and its checksum and the header checksum
/// recomputed: a forgery only the restore's validation can reject.
template <typename T>
std::string forge_section(std::string bytes, snap::SectionKind kind,
                          std::uint32_t shard,
                          const std::function<void(std::vector<T>&)>& mutate) {
  for (const auto& section : fmeter::testing::snapshot_sections(bytes)) {
    if (section.kind == static_cast<std::uint32_t>(kind) &&
        section.shard == shard) {
      std::vector<T> values(section.length / sizeof(T));
      std::memcpy(values.data(), bytes.data() + section.begin, section.length);
      mutate(values);
      std::memcpy(bytes.data() + section.begin, values.data(), section.length);
      const std::uint64_t checksum = snap::fnv1a(std::as_bytes(
          std::span<const char>(bytes.data() + section.begin, section.length)));
      std::memcpy(bytes.data() + section.entry_at + 16, &checksum,
                  sizeof(checksum));
      fmeter::testing::reseal_snapshot_header(bytes);
      return bytes;
    }
  }
  ADD_FAILURE() << "no section " << static_cast<int>(kind) << "/" << shard;
  return bytes;
}

TEST_F(SnapshotCorruption, ResealedArenaForgeriesFailValidation) {
  // Arena sections whose checksums were recomputed after the change pass
  // the read; the restore's validation pass must reject each of them
  // before the index can answer a query. Shard 1 of the fixture holds 30
  // documents.
  using Kind = snap::SectionKind;
  const std::size_t docs = source_.index()->shard(1).size();
  ASSERT_EQ(docs, 30u);
  // The unchanged payload re-seals to the writer's bytes, or the forgeries
  // below prove nothing.
  ASSERT_EQ(forge_section<std::uint32_t>(bytes_, Kind::kArenaIds, 1,
                                         [](std::vector<std::uint32_t>&) {}),
            bytes_);
  const auto ids =
      [&](const std::function<void(std::vector<std::uint32_t>&)>& mutate) {
        return forge_section<std::uint32_t>(bytes_, Kind::kArenaIds, 1,
                                            mutate);
      };
  // The last posting is the largest id of the last term's span, so raising
  // it to the shard's document count keeps the span increasing.
  expect_clean_failure(
      ids([&](auto& v) { v.back() = static_cast<std::uint32_t>(docs); }),
      "arena id equal to the shard's document count");
  expect_clean_failure(ids([](auto& v) { v.back() = ~std::uint32_t{0}; }),
                       "arena id far out of range");
  // A span whose second id repeats the first (term 0's span, which holds
  // more than one posting here).
  expect_clean_failure(ids([](auto& v) { v[1] = v[0]; }),
                       "arena span not strictly increasing");
  expect_clean_failure(
      forge_section<double>(bytes_, Kind::kArenaWeights, 1,
                            [](auto& v) {
                              v[2] = std::numeric_limits<double>::quiet_NaN();
                            }),
      "non-finite arena weight");
  const auto offsets =
      [&](const std::function<void(std::vector<std::uint64_t>&)>& mutate) {
        return forge_section<std::uint64_t>(bytes_, Kind::kArenaOffsets, 1,
                                            mutate);
      };
  expect_clean_failure(offsets([](auto& v) { --v.back(); }),
                       "arena offsets end short of the posting count");
  expect_clean_failure(offsets([](auto& v) { ++v.back(); }),
                       "arena offsets end past the posting count");
  expect_clean_failure(offsets([](auto& v) { ++v[1]; }),
                       "arena offsets move a posting between terms");
  expect_clean_failure(offsets([](auto& v) { v.front() = 1; }),
                       "arena offsets start past 0");
  const auto public_of =
      [&](const std::function<void(std::vector<std::uint32_t>&)>& mutate) {
        return forge_section<std::uint32_t>(bytes_, Kind::kPublicOf, 1,
                                            mutate);
      };
  expect_clean_failure(public_of([](auto& v) { v[1] = v[0]; }),
                       "public-of names a document twice");
  expect_clean_failure(
      public_of([&](auto& v) { v[0] = static_cast<std::uint32_t>(docs); }),
      "public-of names a document past the shard");
  expect_clean_failure(
      public_of([](auto& v) { std::swap(v.front(), v.back()); }),
      "public-of permutes out of build order");

  // A version-2 header over version-1 sections: the arena is missing.
  std::string no_arena = fmeter::testing::downgrade_snapshot_to_v1(bytes_);
  const std::uint32_t two = 2;
  std::memcpy(no_arena.data() + 8, &two, sizeof(two));
  fmeter::testing::reseal_snapshot_header(no_arena);
  expect_clean_failure(no_arena, "version 2 without arena sections");

  // The header's distinct-term count is cross-checked against the terms
  // the shards' offset tables hold.
  std::string terms = bytes_;
  std::uint64_t count = 0;
  std::memcpy(&count, terms.data() + 32, sizeof(count));
  ++count;
  std::memcpy(terms.data() + 32, &count, sizeof(count));
  fmeter::testing::reseal_snapshot_header(terms);
  expect_clean_failure(terms, "header term count off by one");
}

TEST_F(SnapshotCorruption, EnvLoadMapsIoErrorsToSnapshotError) {
  // A missing file is an IoError underneath; callers see one error type,
  // and verify reports the same message.
  io::InMemoryEnv env;
  std::string error;
  try {
    target_.load(env, "absent/snap");
    FAIL() << "load of a missing file succeeded";
  } catch (const snap::SnapshotError& e) {
    error = e.what();
  }
  ASSERT_EQ(target_.size(), 10u);
  const snap::VerifyResult result = snap::verify(env, "absent/snap");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, error);
}

TEST_F(SnapshotCorruption, VerifyAcceptsCleanArchivesAndReportsLayout) {
  io::InMemoryEnv env;
  const snap::VerifyResult result = snap::verify(env, put_snapshot(env, bytes_));
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.error.empty());
  EXPECT_EQ(result.shard_count, 2u);
  EXPECT_EQ(result.doc_count, 60u);
  EXPECT_EQ(result.total_bytes, bytes_.size());
  EXPECT_EQ(result.version, snap::kFormatVersion);
  ASSERT_EQ(result.sections.size(), 2 * kSectionsPerShard + 1)
      << "2 shards x 7 + labels";
  for (const auto& section : result.sections) {
    EXPECT_TRUE(section.checksum_ok)
        << "kind " << static_cast<int>(section.kind) << " shard "
        << section.shard;
  }
  // Every non-empty payload starts on a 64-byte file offset.
  for (const auto& span : section_spans()) {
    if (span.length > 0) {
      EXPECT_EQ(span.begin % snap::kSectionAlign, 0u);
    }
  }
}

TEST(IndexSnapshot, EnvSaveIsAtomicAtEveryFaultPoint) {
  // SignatureDatabase::save(env, path) either commits the whole archive or
  // leaves the previous one untouched — no fault point may expose a torn
  // or half-replaced file.
  const TestCorpus old_corpus = make_corpus(0x11, 8);
  const SignatureDatabase old_db = build_bulk(old_corpus, 1);
  const std::string old_bytes = saved_bytes(old_db);
  const TestCorpus new_corpus = make_corpus(0x5a, 30);
  const SignatureDatabase new_db = build_bulk(new_corpus, 2);

  io::FaultInjectingEnv counter;
  counter.create_dir("d");
  old_db.save(counter, "d/archive");
  counter.sync_dir("d");
  counter.reset_ops();
  new_db.save(counter, "d/archive");
  const std::uint64_t total_ops = counter.ops_seen();
  ASSERT_GE(total_ops, 5u);  // create, write(s), fsync, rename, fsync-dir

  for (std::uint64_t n = 0; n < total_ops; ++n) {
    io::FaultInjectingEnv env;
    env.create_dir("d");
    old_db.save(env, "d/archive");
    env.sync_dir("d");
    env.reset_ops();
    env.fail_at_op(n);
    EXPECT_THROW(new_db.save(env, "d/archive"), snap::SnapshotError)
        << "op " << n;
    env.disarm();
    env.crash(io::InMemoryEnv::CrashMode::kDropUnsynced);
    EXPECT_EQ(env.read_file("d/archive"), old_bytes) << "op " << n;
  }

  // And the fault-free commit round-trips through Env load.
  io::InMemoryEnv env;
  env.create_dir("d");
  new_db.save(env, "d/archive");
  SignatureDatabase loaded;
  loaded.load(env, "d/archive");
  expect_databases_equivalent(loaded, new_db, 0xabba, "env round trip");
}

TEST(DurableArchive, JournalTornTailNeverDiscardsTheSnapshot) {
  // The satellite contract: whatever shape the journal's tail is torn
  // into, reopening recovers to the last good record and the checkpointed
  // snapshot is never thrown away.
  namespace jrn = io::journal;
  util::Rng rng(0x5eed);
  std::vector<std::vector<vsm::SparseVector>> sigs(4);
  std::vector<std::vector<std::string>> labels(4);
  for (int b = 0; b < 4; ++b) {
    for (int d = 0; d < 2; ++d) {
      sigs[b].push_back(random_sparse(rng, 48, 8));
      labels[b].push_back("b" + std::to_string(b) + "d" + std::to_string(d));
    }
  }
  // Batches 0,1 live in the re-frozen snapshot; 2,3 in the journal.
  const LiveOptions options = {.num_shards = 2, .background_refreeze = false};
  const auto build = [&](io::Env& env) {
    LiveDatabase db(env, "arch", options);
    db.add_batch(sigs[0], labels[0]);
    db.add_batch(sigs[1], labels[1]);
    ASSERT_TRUE(db.refreeze_now());
    db.add_batch(sigs[2], labels[2]);
    db.add_batch(sigs[3], labels[3]);
  };
  const std::string jpath = "arch/" + journal_name(1);

  io::InMemoryEnv pristine;
  build(pristine);
  const std::string good = pristine.read_file(jpath);
  std::vector<std::size_t> record_sizes;
  jrn::replay(
      pristine, jpath,
      [&](std::span<const std::byte> p) { record_sizes.push_back(p.size()); },
      false);
  ASSERT_EQ(record_sizes.size(), 2u);
  const std::size_t first_end =
      jrn::kHeaderBytes + jrn::kRecordHeaderBytes + record_sizes[0];

  const auto flip = [](std::string bytes, std::size_t at) {
    bytes[at] = static_cast<char>(bytes[at] ^ 0x10);
    return bytes;
  };
  struct Shape {
    std::string name;
    std::string bytes;
    std::size_t replayed;  ///< journal records that must survive
  };
  const std::vector<Shape> shapes = {
      {"cut inside length prefix", good.substr(0, first_end + 2), 1},
      {"flip in record header", flip(good, first_end + 1), 1},
      {"flip in record payload",
       flip(good, first_end + jrn::kRecordHeaderBytes + 3), 1},
      {"trailing garbage after valid tail", good + "zz", 2},
  };
  for (const Shape& shape : shapes) {
    io::InMemoryEnv env;
    build(env);
    auto file = env.new_writable_file(jpath, /*truncate=*/true);
    file->append(std::string_view(shape.bytes));
    file->sync();
    file->close();

    LiveDatabase reopened(env, "arch", options);
    EXPECT_TRUE(reopened.recovery().snapshot_loaded) << shape.name;
    EXPECT_TRUE(reopened.recovery().journal_truncated) << shape.name;
    EXPECT_EQ(reopened.recovery().journal_records_replayed, shape.replayed)
        << shape.name;
    const auto pinned = reopened.snapshot();
    EXPECT_EQ(pinned.base_docs(), 4u) << shape.name;
    ASSERT_EQ(pinned.size(), (2 + shape.replayed) * 2) << shape.name;
    std::size_t id = 0;
    for (std::size_t b = 0; b < 2 + shape.replayed; ++b) {
      for (std::size_t d = 0; d < 2; ++d, ++id) {
        EXPECT_EQ(pinned.label(id), labels[b][d]) << shape.name;
      }
    }
    // Repair left a journal that accepts new batches and re-freezes.
    reopened.add_batch(sigs[3], labels[3]);
    EXPECT_TRUE(reopened.refreeze_now()) << shape.name;
    LiveDatabase again(env, "arch", options);
    EXPECT_EQ(again.size(), (2 + shape.replayed + 1) * 2) << shape.name;
  }
}

TEST(IndexSnapshot, LoadedShardEqualsAFreshBuildIncludingMemory) {
  // A load adopts the file's sections as the forward store. Built in
  // several batches or loaded, a shard holds the same bytes in the same
  // allocation sizes: adopted storage carries no slack.
  util::Rng rng(0x3e3);
  std::vector<vsm::SparseVector> docs;
  for (int i = 0; i < 300; ++i) {
    docs.push_back(random_sparse(rng, 64, 10, /*allow_negative=*/true));
  }
  index::InvertedIndex fresh;
  const std::span<const vsm::SparseVector> all(docs);
  fresh = fresh.appended(all.first(100));
  fresh = fresh.appended(all.subspan(100, 50));
  fresh = fresh.appended(all.subspan(150));
  index::InvertedIndex bulk;
  bulk = bulk.appended(all);

  snap::Writer writer(1, fresh.size(), fresh.num_terms());
  fresh.save(writer, 0);
  io::InMemoryEnv env;
  env.create_dir("d");
  writer.finish(env, "d/snap");
  snap::Reader reader(env, "d/snap");
  const index::InvertedIndex loaded = index::InvertedIndex::load(reader, 0);
  EXPECT_FALSE(reader.has_section(snap::SectionKind::kTermIds, 0));

  for (const index::InvertedIndex* built : {&fresh, &bulk}) {
    ASSERT_EQ(loaded.size(), built->size());
    EXPECT_EQ(loaded.num_terms(), built->num_terms());
    EXPECT_EQ(loaded.num_postings(), built->num_postings());
    const index::MemoryBreakdown want = built->memory_breakdown();
    const index::MemoryBreakdown got = loaded.memory_breakdown();
    EXPECT_EQ(got.postings, want.postings);
    EXPECT_EQ(got.offsets, want.offsets);
    EXPECT_EQ(got.blocks, want.blocks);
    EXPECT_EQ(got.forward, want.forward);
    for (std::size_t d = 0; d < built->size(); ++d) {
      const auto id = static_cast<index::InvertedIndex::DocId>(d);
      ASSERT_TRUE(vsm::SparseVector(loaded.document(id)) ==
                  vsm::SparseVector(built->document(id)))
          << "doc " << d;
      ASSERT_EQ(loaded.norm(id), built->norm(id)) << "doc " << d;
    }
  }
  for (int q = 0; q < 8; ++q) {
    const auto query = random_sparse(rng, 64, 10, true);
    const auto want = bulk.top_k_pruned(query, 5);
    const auto got = loaded.top_k_pruned(query, 5);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].doc, want[r].doc);
      EXPECT_EQ(got[r].score, want[r].score);
    }
  }
}

TEST(IndexSnapshot, SavingALoadedDatabaseReproducesTheFile) {
  // save hands the writer the adopted forward stores as they are, so a
  // load-save cycle is byte-for-byte.
  const TestCorpus corpus = make_corpus(0x5a7e, 200);
  for (const std::size_t shards : kShardCounts) {
    const std::string original = saved_bytes(build_bulk(corpus, shards));
    EXPECT_EQ(saved_bytes(load_bytes(original)), original)
        << shards << " shards";
  }
}

TEST(IndexSnapshot, ShardedIndexLoadAcceptsDatabaseSnapshots) {
  // The exec layer ignores the labels section — an operator can point the
  // index loader at a full database snapshot.
  const TestCorpus corpus = make_corpus(0xcc, 50);
  const SignatureDatabase db = build_bulk(corpus, 2);
  snap::Reader reader = read_bytes(saved_bytes(db));
  const exec::ShardedIndex loaded = exec::ShardedIndex::load(reader);
  EXPECT_EQ(loaded.size(), db.size());
  EXPECT_EQ(loaded.num_terms(), db.index()->num_terms());
  EXPECT_EQ(loaded.num_postings(), db.index()->num_postings());
}

}  // namespace
}  // namespace fmeter::core
