// LiveDatabase battery (fmeter/live_database.hpp) — the live-archive
// contract under test:
//
//   * streaming ingest answers bit-identically to a fresh bulk build of
//     the same documents, before and after any number of re-freezes;
//   * a pinned Snapshot stays valid and answers from its own epoch no
//     matter how much ingest / re-freezing happens after the pin;
//   * a re-freeze folds the tail into the base, bumps the manifest epoch,
//     and keeps segments sealed after its capture (the survivor path),
//     splitting one whose merge straddles the capture;
//   * the tail is a segment ladder: at most floor(log2(tail)) + 1
//     segments over contiguous id ranges, each doc rewritten at most
//     log2 times, and segment probe outcomes and injected faults reach
//     the caller;
//   * reopening a directory replays snapshot + journal back to the same
//     archive, in the same ladder shape.
//
// The concurrency tests at the bottom run under the TSan CI job and are
// the regression tests for the stats-scrape-vs-ingest race and the
// freeze-during-query race (ISSUE 10 satellites): stats(), shard_stats(),
// memory_bytes() and publish_gauges() must be safe against concurrent
// add_batch/freeze, and queries must be safe against concurrent re-freeze.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/task_pool.hpp"
#include "fmeter/database.hpp"
#include "fmeter/live_database.hpp"
#include "io/env.hpp"
#include "io/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snapshot_files.hpp"
#include "util/rng.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::core {
namespace {

using io::InMemoryEnv;

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

struct Batch {
  std::vector<vsm::SparseVector> signatures;
  std::vector<std::string> labels;
};

std::vector<Batch> make_batches(std::size_t count, std::size_t docs_each,
                                std::uint64_t seed = 0x11fe) {
  util::Rng rng(seed);
  std::vector<Batch> batches(count);
  for (std::size_t b = 0; b < count; ++b) {
    for (std::size_t d = 0; d < docs_each; ++d) {
      batches[b].signatures.push_back(random_sparse(rng, 64, 10));
      batches[b].labels.push_back("batch-" + std::to_string(b) + "-doc-" +
                                  std::to_string(d));
    }
  }
  return batches;
}

/// Batches of the given sizes, in order.
std::vector<Batch> make_sized_batches(const std::vector<std::size_t>& sizes,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Batch> batches(sizes.size());
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    for (std::size_t d = 0; d < sizes[b]; ++d) {
      batches[b].signatures.push_back(random_sparse(rng, 64, 10));
      batches[b].labels.push_back("sized-" + std::to_string(b) + "-doc-" +
                                  std::to_string(d));
    }
  }
  return batches;
}

SignatureDatabase build_reference(const std::vector<Batch>& batches,
                                  std::size_t prefix, std::size_t shards) {
  SignatureDatabase db(shards);
  for (std::size_t b = 0; b < prefix; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }
  return db;
}

/// Bit-identical results between a pinned live snapshot and a fresh bulk
/// build of the documents it should hold — across both pruning modes and
/// both metrics, since the segment-merge path must preserve every mode's
/// guarantee, not just the default's.
void expect_live_equivalent(const LiveDatabase::Snapshot& got,
                            const SignatureDatabase& want,
                            const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t id = 0; id < want.size(); ++id) {
    ASSERT_EQ(got.label(id), want.label(id)) << context << " id " << id;
    ASSERT_TRUE(got.signature(id) == want.signature(id))
        << context << " id " << id;
  }
  util::Rng rng(0x9e17);
  for (int q = 0; q < 4; ++q) {
    const auto query = random_sparse(rng, 64, 10);
    for (const auto metric :
         {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
      for (const auto mode : {index::PruningMode::kExact,
                              index::PruningMode::kMaxScore}) {
        const auto got_hits = got.search(query, 5, metric, mode);
        const auto want_hits = want.search(query, 5, metric,
                                           ScanPolicy::kIndexed, mode);
        ASSERT_EQ(got_hits.size(), want_hits.size())
            << context << " q " << q;
        for (std::size_t r = 0; r < want_hits.size(); ++r) {
          EXPECT_EQ(got_hits[r].id, want_hits[r].id)
              << context << " q " << q << " rank " << r;
          EXPECT_EQ(got_hits[r].label, want_hits[r].label)
              << context << " q " << q << " rank " << r;
          EXPECT_NEAR(got_hits[r].score, want_hits[r].score, 1e-9)
              << context << " q " << q << " rank " << r;
        }
      }
    }
  }
}

/// The ladder's search contract against a bulk build of the same docs:
/// bit-identical hits under kExact, within 1e-9 under the pruned modes.
void expect_same_hits(const LiveDatabase::Snapshot& got,
                      const SignatureDatabase& want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  util::Rng rng(0x1add);
  for (int q = 0; q < 6; ++q) {
    const auto query = random_sparse(rng, 64, 10);
    for (const auto metric :
         {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
      for (const auto mode :
           {index::PruningMode::kExact, index::PruningMode::kMaxScore,
            index::PruningMode::kAuto}) {
        const auto got_hits = got.search(query, 10, metric, mode);
        const auto want_hits = want.search(query, 10, metric,
                                           ScanPolicy::kIndexed, mode);
        ASSERT_EQ(got_hits.size(), want_hits.size()) << context << " q " << q;
        for (std::size_t r = 0; r < want_hits.size(); ++r) {
          EXPECT_EQ(got_hits[r].id, want_hits[r].id)
              << context << " q " << q << " rank " << r;
          if (mode == index::PruningMode::kExact) {
            EXPECT_EQ(got_hits[r].score, want_hits[r].score)
                << context << " q " << q << " rank " << r;
          } else {
            EXPECT_NEAR(got_hits[r].score, want_hits[r].score, 1e-9)
                << context << " q " << q << " rank " << r;
          }
        }
      }
    }
  }
}

/// The ladder's shape invariants: at most floor(log2(tail)) + 1 segments,
/// and id ranges that tile the tail contiguously from the base's end.
void expect_ladder_shape(const LiveStats& stats, const std::string& context) {
  EXPECT_LE(stats.segments, static_cast<std::size_t>(
                                std::bit_width(stats.tail_docs)))
      << context << ": " << stats.tail_docs << " tail docs";
  std::size_t next_id = stats.base_docs;
  for (const LiveSegmentStats& segment : stats.tail_segments) {
    EXPECT_EQ(segment.first_id, next_id) << context;
    EXPECT_GT(segment.docs, 0u) << context;
    next_id += segment.docs;
  }
  EXPECT_EQ(next_id, stats.total_docs) << context;
}

using fmeter::testing::saved_bytes;

/// Every frozen part of a pinned epoch — the base at its shard count, each
/// segment at one shard — equals a bulk build of exactly its documents:
/// the ladder merges and the fold extend posting arenas in place of a
/// rebuild, and must land on the same bytes. A part's snapshot is also
/// byte for byte SignatureDatabase::save of the same documents, so both
/// front-ends write one format.
void expect_parts_are_bulk_builds(const LiveDatabase::Snapshot& snapshot,
                                  const std::string& context) {
  const auto expect_bulk_built = [&context](const LabeledIndex& part,
                                            const std::string& name) {
    const std::size_t shards = part.index.num_shards();
    std::vector<vsm::SparseVector> signatures;
    for (std::size_t id = 0; id < part.index.size(); ++id) {
      signatures.emplace_back(
          part.index.document(static_cast<exec::ShardedIndex::DocId>(id)));
    }
    ASSERT_EQ(part.labels.size(), signatures.size()) << context << " " << name;
    SignatureDatabase bulk(shards);
    bulk.add_batch(std::move(signatures), part.labels);
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_TRUE(part.index.shard(s) == bulk.index()->shard(s))
          << context << " " << name << " shard " << s;
    }
    EXPECT_EQ(saved_bytes(part), saved_bytes(bulk)) << context << " " << name;
  };
  expect_bulk_built(snapshot.base(), "base");
  for (std::size_t i = 0; i < snapshot.num_segments(); ++i) {
    expect_bulk_built(snapshot.segment(i), "segment " + std::to_string(i));
  }
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

LiveOptions foreground_options(std::size_t shards = 2) {
  LiveOptions options;
  options.num_shards = shards;
  options.background_refreeze = false;  // tests fold explicitly
  return options;
}

// ---------------------------------------------------------------------------
// Functional: ingest, fold, pin, reopen
// ---------------------------------------------------------------------------

TEST(LiveDatabase, StreamingIngestMatchesBulkBuild) {
  InMemoryEnv env;
  const auto batches = make_batches(6, 8);
  LiveDatabase db(env, "live", foreground_options());
  EXPECT_TRUE(db.recovery().created);
  EXPECT_EQ(db.size(), 0u);

  std::size_t expected_first = 0;
  for (const Batch& b : batches) {
    EXPECT_EQ(db.add_batch(b.signatures, b.labels), expected_first);
    expected_first += b.signatures.size();
    expect_parts_are_bulk_builds(db.snapshot(),
                                 "after " + std::to_string(expected_first));
  }

  const auto stats = db.stats();
  EXPECT_EQ(stats.total_docs, 48u);
  EXPECT_EQ(stats.base_docs, 0u);
  EXPECT_EQ(stats.tail_docs, 48u);
  // 6 batches of 8 = 48 = 0b110 batches: a 32-doc and a 16-doc segment.
  EXPECT_EQ(stats.segments, 2u);
  EXPECT_EQ(stats.manifest_epoch, 0u);
  EXPECT_GT(stats.memory_bytes, 0u);

  expect_live_equivalent(db.snapshot(), build_reference(batches, 6, 2),
                         "pure-tail archive");
}

TEST(LiveDatabase, RefreezeFoldsTailAndPreservesResults) {
  InMemoryEnv env;
  const auto batches = make_batches(6, 8);
  LiveDatabase db(env, "live", foreground_options());
  for (std::size_t b = 0; b < 4; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
    expect_parts_are_bulk_builds(db.snapshot(),
                                 "batch " + std::to_string(b));
  }

  ASSERT_TRUE(db.refreeze_now());
  expect_parts_are_bulk_builds(db.snapshot(), "first fold");
  EXPECT_EQ(db.refreezes(), 1u);
  EXPECT_EQ(db.manifest_epoch(), 1u);
  auto stats = db.stats();
  EXPECT_EQ(stats.base_docs, 32u);
  EXPECT_EQ(stats.tail_docs, 0u);
  EXPECT_EQ(stats.segments, 0u);
  EXPECT_EQ(stats.base_shards.size(), 2u);
  expect_live_equivalent(db.snapshot(), build_reference(batches, 4, 2),
                         "post-fold");

  // Nothing to fold → false, no epoch bump.
  EXPECT_FALSE(db.refreeze_now());
  EXPECT_EQ(db.manifest_epoch(), 1u);

  // Mixed base + tail keeps answering bit-identically.
  for (std::size_t b = 4; b < 6; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
    expect_parts_are_bulk_builds(db.snapshot(),
                                 "batch " + std::to_string(b));
  }
  stats = db.stats();
  EXPECT_EQ(stats.base_docs, 32u);
  EXPECT_EQ(stats.tail_docs, 16u);
  expect_live_equivalent(db.snapshot(), build_reference(batches, 6, 2),
                         "base+tail archive");

  ASSERT_TRUE(db.refreeze_now());
  expect_parts_are_bulk_builds(db.snapshot(), "second fold");
  EXPECT_EQ(db.manifest_epoch(), 2u);
  expect_live_equivalent(db.snapshot(), build_reference(batches, 6, 2),
                         "second fold");
}

TEST(LiveDatabase, SealsAndFoldsAreStampedAsIngestSpans) {
  // Every segment seal and every fold is one index build, stamped as one
  // obs::Stage::kIngest span, whether it scatters or merges.
  obs::StageTracer::global();  // registers the stage counters
  InMemoryEnv env;
  const auto batches = make_batches(4, 8);
  LiveDatabase db(env, "live", foreground_options());
  const auto ingest_spans = [] {
    return counter_value("fmeter_stage_ingest_spans_total");
  };
  const std::uint64_t before = ingest_spans();
  db.add_batch(batches[0].signatures, batches[0].labels);  // scatter
  EXPECT_EQ(ingest_spans(), before + 1);
  db.add_batch(batches[1].signatures, batches[1].labels);  // ladder merge
  EXPECT_EQ(ingest_spans(), before + 2);
  ASSERT_EQ(db.snapshot().num_segments(), 1u);
  ASSERT_TRUE(db.refreeze_now());  // fold onto an empty base
  EXPECT_EQ(ingest_spans(), before + 3);
  db.add_batch(batches[2].signatures, batches[2].labels);
  ASSERT_TRUE(db.refreeze_now());  // fold merging into the base
  EXPECT_EQ(ingest_spans(), before + 5);
}

TEST(LiveDatabase, PinnedSnapshotSurvivesIngestAndRefreeze) {
  InMemoryEnv env;
  const auto batches = make_batches(6, 8);
  LiveDatabase db(env, "live", foreground_options());
  for (std::size_t b = 0; b < 3; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }

  const auto pinned = db.snapshot();
  const std::uint64_t pinned_sequence = pinned.sequence();

  for (std::size_t b = 3; b < 6; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }
  ASSERT_TRUE(db.refreeze_now());
  db.add_batch(batches[0].signatures, batches[0].labels);

  // The pin still answers from its own epoch, untouched.
  EXPECT_EQ(pinned.sequence(), pinned_sequence);
  EXPECT_EQ(pinned.size(), 24u);
  EXPECT_EQ(pinned.manifest_epoch(), 0u);
  expect_live_equivalent(pinned, build_reference(batches, 3, 2),
                         "pinned epoch");

  // A fresh pin sees everything.
  EXPECT_EQ(db.snapshot().size(), 56u);
}

TEST(LiveDatabase, ReopenReplaysSnapshotAndJournal) {
  InMemoryEnv env;
  const auto batches = make_batches(5, 6);
  {
    LiveDatabase db(env, "live", foreground_options());
    for (std::size_t b = 0; b < 3; ++b) {
      db.add_batch(batches[b].signatures, batches[b].labels);
    }
    ASSERT_TRUE(db.refreeze_now());
    for (std::size_t b = 3; b < 5; ++b) {
      db.add_batch(batches[b].signatures, batches[b].labels);
    }
  }

  LiveDatabase reopened(env, "live", foreground_options());
  EXPECT_FALSE(reopened.recovery().created);
  EXPECT_TRUE(reopened.recovery().snapshot_loaded);
  EXPECT_EQ(reopened.recovery().epoch, 1u);
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 2u);
  const auto stats = reopened.stats();
  EXPECT_EQ(stats.base_docs, 18u);   // the folded snapshot
  EXPECT_EQ(stats.tail_docs, 12u);   // replayed journal records
  // 2 equal records = 0b10 records: replayed as one 12-doc segment.
  EXPECT_EQ(stats.segments, 1u);
  expect_live_equivalent(reopened.snapshot(), build_reference(batches, 5, 2),
                         "reopened archive");

  // The reopened archive still ingests and folds.
  reopened.add_batch(batches[0].signatures, batches[0].labels);
  ASSERT_TRUE(reopened.refreeze_now());
  EXPECT_EQ(reopened.manifest_epoch(), 2u);
  EXPECT_EQ(reopened.size(), 36u);
}

TEST(LiveDatabase, BackgroundRefreezeTriggersOnTailGrowth) {
  InMemoryEnv env;
  const auto batches = make_batches(8, 16);
  exec::TaskPool pool(2);
  LiveOptions options;
  options.num_shards = 2;
  options.refreeze_min_docs = 32;   // trip quickly
  options.refreeze_fraction = 0.25;
  options.pool = &pool;
  LiveDatabase db(env, "live", options);

  for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
  db.wait_for_refreeze();

  EXPECT_GE(db.refreezes(), 1u);
  EXPECT_GE(db.manifest_epoch(), 1u);
  const auto stats = db.stats();
  EXPECT_EQ(stats.total_docs, 128u);
  EXPECT_GT(stats.base_docs, 0u);
  expect_live_equivalent(db.snapshot(), build_reference(batches, 8, 2),
                         "after background folds");
}

TEST(LiveDatabase, SegmentsSealedDuringRefreezeSurviveTheSwap) {
  // The survivor path: a batch sealed between the fold's capture and its
  // commit must stay in the tail of the new epoch AND keep its durable
  // journal copy (it is re-journaled into the new epoch's journal).
  //
  // The 16 pre-fold docs arrive as 12 + 4, so the captured ladder is
  // [12, 4] and the mid-fold 8-doc batch absorbs both: one 24-doc segment
  // straddling the capture, which the commit must split.
  InMemoryEnv env;
  const auto batches = make_sized_batches({12, 4, 8}, 0x11fe);
  auto options = foreground_options();
  LiveDatabase* handle = nullptr;
  options.after_refreeze_capture = [&] {
    handle->add_batch(batches[2].signatures, batches[2].labels);
    const auto mid_fold = handle->stats();
    ASSERT_EQ(mid_fold.tail_segments.size(), 1u);
    EXPECT_EQ(mid_fold.tail_segments[0].docs, 24u);
    EXPECT_EQ(mid_fold.tail_segments[0].batches, 3u);
  };
  LiveDatabase db(env, "live", options);
  handle = &db;

  db.add_batch(batches[0].signatures, batches[0].labels);
  db.add_batch(batches[1].signatures, batches[1].labels);
  ASSERT_EQ(db.stats().segments, 2u);
  ASSERT_TRUE(db.refreeze_now());  // seals batch 2 mid-fold

  const auto stats = db.stats();
  EXPECT_EQ(stats.base_docs, 16u);  // batches 0+1 folded
  EXPECT_EQ(stats.tail_docs, 8u);   // batch 2 survived as tail
  EXPECT_EQ(stats.segments, 1u);
  ASSERT_EQ(stats.tail_segments.size(), 1u);
  EXPECT_EQ(stats.tail_segments[0].first_id, 16u);
  EXPECT_EQ(stats.tail_segments[0].batches, 1u);  // split off the merge
  expect_live_equivalent(db.snapshot(), build_reference(batches, 3, 2),
                         "survivor epoch");

  // Its re-journaled copy must replay on reopen.
  LiveDatabase reopened(env, "live", foreground_options());
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 1u);
  expect_live_equivalent(reopened.snapshot(), build_reference(batches, 3, 2),
                         "survivor reopen");
}

/// Every record payload of a journal file, in order (read-only replay).
std::vector<std::vector<std::byte>> journal_records(io::Env& env,
                                                    const std::string& path) {
  std::vector<std::vector<std::byte>> records;
  io::journal::replay(
      env, path,
      [&records](std::span<const std::byte> payload) {
        records.emplace_back(payload.begin(), payload.end());
      },
      /*repair=*/false);
  return records;
}

// A segment holds no journal record in RAM: a fold re-encodes the records
// of the batches sealed after its capture from their segments' forward
// stores and labels. The fresh journal must carry exactly the records the
// old one held for them, byte for byte — the batch split off a segment
// whose merge straddles the capture included.
TEST(LiveDatabase, FoldRejournalsSurvivorsByteForByte) {
  InMemoryEnv env;
  // Captured ladder [12, 4]. Mid-fold, 2 + 3 docs merge with the captured
  // 4 (a segment straddling the capture, split into a two-batch survivor)
  // and 2 more docs seal alone (a wholly post-capture segment).
  const auto batches = make_sized_batches({12, 4, 2, 3, 2}, 0x5eed);
  auto options = foreground_options();
  LiveDatabase* handle = nullptr;
  std::vector<std::vector<std::byte>> original;
  options.after_refreeze_capture = [&] {
    for (std::size_t b = 2; b < batches.size(); ++b) {
      handle->add_batch(batches[b].signatures, batches[b].labels);
    }
    const auto mid_fold = handle->stats();
    ASSERT_EQ(mid_fold.tail_segments.size(), 3u);
    EXPECT_EQ(mid_fold.tail_segments[1].docs, 9u);
    EXPECT_EQ(mid_fold.tail_segments[1].batches, 3u);
    EXPECT_EQ(mid_fold.tail_segments[2].batches, 1u);
    original = journal_records(env, "live/" + journal_name(0));
  };
  LiveDatabase db(env, "live", options);
  handle = &db;
  db.add_batch(batches[0].signatures, batches[0].labels);
  db.add_batch(batches[1].signatures, batches[1].labels);
  ASSERT_TRUE(db.refreeze_now());

  ASSERT_EQ(original.size(), batches.size());
  const auto fresh = journal_records(env, "live/" + journal_name(1));
  ASSERT_EQ(fresh.size(), batches.size() - 2);
  for (std::size_t r = 0; r < fresh.size(); ++r) {
    EXPECT_EQ(fresh[r], original[r + 2]) << "record " << r;
    EXPECT_EQ(fresh[r], encode_batch(batches[r + 2].signatures,
                                     batches[r + 2].labels))
        << "record " << r;
  }
  const auto stats = db.stats();
  EXPECT_EQ(stats.base_docs, 16u);
  EXPECT_EQ(stats.tail_docs, 7u);
  EXPECT_EQ(stats.journal_bytes, env.file_size("live/" + journal_name(1)));
}

// fmeter_live_journal_bytes follows the current journal's length through
// appends, a fold's rotation and a reopen, read from the published epoch.
TEST(LiveDatabase, JournalBytesGaugeTracksTheCurrentJournal) {
  InMemoryEnv env;
  const auto batches = make_sized_batches({5, 3}, 0xb17e5);
  const std::string wal0 = "live/" + journal_name(0);
  {
    LiveDatabase db(env, "live", foreground_options());
    EXPECT_EQ(db.stats().journal_bytes, io::journal::kHeaderBytes);
    db.add_batch(batches[0].signatures, batches[0].labels);
    db.add_batch(batches[1].signatures, batches[1].labels);
    std::uint64_t expected = io::journal::kHeaderBytes;
    for (const Batch& batch : batches) {
      expected += io::journal::kRecordHeaderBytes +
                  encode_batch(batch.signatures, batch.labels).size();
    }
    EXPECT_EQ(db.stats().journal_bytes, expected);
    EXPECT_EQ(env.file_size(wal0), expected);
    db.publish_gauges();
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .gauge("fmeter_live_journal_bytes")
                  .value(),
              static_cast<double>(expected));
  }
  {
    LiveDatabase reopened(env, "live", foreground_options());
    EXPECT_EQ(reopened.stats().journal_bytes, env.file_size(wal0));
    ASSERT_TRUE(reopened.refreeze_now());
    EXPECT_EQ(reopened.stats().journal_bytes, io::journal::kHeaderBytes);
  }
  auto unjournaled = foreground_options();
  unjournaled.durability = Durability::kRefreezeOnly;
  LiveDatabase db(env, "plain", unjournaled);
  db.add_batch(batches[0].signatures, batches[0].labels);
  EXPECT_EQ(db.stats().journal_bytes, 0u);
}

// The ladder bounds fan-out: after every seal the tail holds at most
// floor(log2(tail)) + 1 segments over contiguous id ranges, for one-doc
// batches and for a run of mixed sizes, and searches stay bit-identical to
// a bulk build. The write-amplification counter proves each doc is
// rewritten at most ceil(log2(n)) times.
TEST(LiveDatabase, SegmentLadderBoundsFanOut) {
  InMemoryEnv env;
  auto batches = make_batches(1000, 1, 0x1add);
  auto options = foreground_options();
  options.refreeze_min_docs = 1 << 20;  // no run reaches the fold's size
  LiveDatabase db(env, "live", options);

  const std::uint64_t merges_before =
      counter_value("fmeter_live_seal_merges_total");
  const std::uint64_t merge_docs_before =
      counter_value("fmeter_live_seal_merge_docs_total");
  for (std::size_t b = 0; b < batches.size(); ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
    expect_ladder_shape(db.stats(), "one-doc batch " + std::to_string(b));
  }
  // 1000 = 0b1111101000: six segments of 512, 256, 128, 64, 32 and 8.
  EXPECT_EQ(db.stats().segments, 6u);
  const auto merges = counter_value("fmeter_live_seal_merges_total") -
                      merges_before;
  const auto merge_docs =
      counter_value("fmeter_live_seal_merge_docs_total") - merge_docs_before;
  EXPECT_EQ(merges, 500u);  // every even-numbered seal carries
  EXPECT_LE(merge_docs, 1000u * std::bit_width(999u));  // ceil(log2(1000))
  expect_same_hits(db.snapshot(), build_reference(batches, 1000, 2),
                   "one-doc ladder");

  std::vector<std::size_t> sizes;
  util::Rng rng(0x5123);
  for (int b = 0; b < 120; ++b) sizes.push_back(1 + rng.below(40));
  // Start with a shrinking run of sizes: a rule that only compares the
  // newest segment with the run so far would keep one segment per batch
  // of it.
  std::sort(sizes.begin(), sizes.begin() + 30, std::greater<>());
  const auto mixed = make_sized_batches(sizes, 0x5124);
  for (std::size_t b = 0; b < mixed.size(); ++b) {
    db.add_batch(mixed[b].signatures, mixed[b].labels);
    expect_ladder_shape(db.stats(), "mixed batch " + std::to_string(b));
  }
  batches.insert(batches.end(), mixed.begin(), mixed.end());
  const auto reference = build_reference(batches, batches.size(), 2);
  expect_same_hits(db.snapshot(), reference, "mixed ladder");
  expect_live_equivalent(db.snapshot(), reference, "mixed ladder");
}

// The ladder builds no run of refreeze_min_docs or more: merging that
// much is the fold's work. Equal batches of half the floor never merge;
// one-doc batches climb the ladder only below it.
TEST(LiveDatabase, LadderLeavesFoldSizedRunsToTheFold) {
  InMemoryEnv env;
  auto options = foreground_options();
  options.refreeze_min_docs = 16;
  LiveDatabase db(env, "live", options);
  const auto halves = make_batches(5, 8, 0xf01d);
  for (const Batch& b : halves) db.add_batch(b.signatures, b.labels);
  EXPECT_EQ(db.stats().segments, 5u);

  const auto ones = make_batches(40, 1, 0xf01e);
  for (const Batch& b : ones) db.add_batch(b.signatures, b.labels);
  const auto stats = db.stats();
  for (std::size_t s = 5; s < stats.tail_segments.size(); ++s) {
    EXPECT_LT(stats.tail_segments[s].docs, 16u) << s;
  }
  EXPECT_LT(stats.segments, 5u + 40u / 2);
  std::vector<Batch> all = halves;
  all.insert(all.end(), ones.begin(), ones.end());
  expect_live_equivalent(db.snapshot(), build_reference(all, all.size(), 2),
                         "capped ladder");
}

// open() replays the journal into the ladder the writer published: the
// segment count and every segment's range survive close + reopen.
TEST(LiveDatabase, LadderShapeSurvivesReopen) {
  InMemoryEnv env;
  const auto batches =
      make_sized_batches({5, 3, 9, 1, 1, 2, 7, 4, 4, 6, 1, 8, 1, 1}, 0x5e9);
  std::vector<LiveSegmentStats> before;
  {
    LiveDatabase db(env, "live", foreground_options());
    for (std::size_t b = 0; b < 4; ++b) {
      db.add_batch(batches[b].signatures, batches[b].labels);
    }
    ASSERT_TRUE(db.refreeze_now());
    for (std::size_t b = 4; b < batches.size(); ++b) {
      db.add_batch(batches[b].signatures, batches[b].labels);
    }
    before = db.stats().tail_segments;
    ASSERT_GT(before.size(), 1u);
  }

  LiveDatabase reopened(env, "live", foreground_options());
  EXPECT_EQ(reopened.recovery().journal_records_replayed, batches.size() - 4);
  const auto after = reopened.stats();
  ASSERT_EQ(after.segments, before.size());
  for (std::size_t s = 0; s < before.size(); ++s) {
    EXPECT_EQ(after.tail_segments[s].first_id, before[s].first_id) << s;
    EXPECT_EQ(after.tail_segments[s].docs, before[s].docs) << s;
    EXPECT_EQ(after.tail_segments[s].batches, before[s].batches) << s;
  }
  expect_live_equivalent(reopened.snapshot(),
                         build_reference(batches, batches.size(), 2),
                         "reopened ladder");
}

// Segment probes report their outcomes: on a tail-only archive an expired
// deadline stops every segment probe, and the caller's outcome says so
// instead of kOk. A live search is one engine batch, so each query counts
// once in the dispatch and outcome tallies however many segments it
// probed.
TEST(LiveDatabase, SegmentProbeOutcomesReachTheCaller) {
  InMemoryEnv env;
  const auto batches = make_sized_batches({8, 4}, 0xdead);
  LiveDatabase db(env, "live", foreground_options());
  for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
  ASSERT_EQ(db.stats().base_docs, 0u);
  ASSERT_EQ(db.stats().segments, 2u);

  const std::vector<vsm::SparseVector> queries = {batches[0].signatures[0],
                                                  batches[1].signatures[0]};
  std::vector<QueryOutcome> outcomes;
  SearchOptions options;
  options.outcomes = &outcomes;
  options.deadline =
      Deadline::at(Deadline::Clock::now() - std::chrono::seconds(1));
  const auto db_searches = counter_value("fmeter_db_searches_total");
  const auto engine_batches = counter_value("fmeter_query_batches_total");
  QueryStats stats;
  for (const auto mode :
       {index::PruningMode::kExact, index::PruningMode::kAuto}) {
    QueryStats batch_stats;
    const auto hits = db.search_batch(queries, 5, SimilarityMetric::kCosine,
                                      mode, &batch_stats, options);
    EXPECT_EQ(batch_stats.dispatch_inline + batch_stats.dispatch_pooled,
              queries.size());
    stats += batch_stats;
    ASSERT_EQ(outcomes.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(outcomes[q], QueryOutcome::kDeadlineExceeded) << q;
      EXPECT_TRUE(hits[q].empty()) << q;
    }
  }
  EXPECT_EQ(stats.deadline_exceeded, 4u);  // 2 modes x 2 queries
  EXPECT_EQ(counter_value("fmeter_query_batches_total") - engine_batches, 2u);
  EXPECT_EQ(counter_value("fmeter_db_searches_total"), db_searches);

  // Without a deadline the same batch is whole and ok.
  options.deadline = {};
  const auto hits = db.search_batch(queries, 5, SimilarityMetric::kCosine,
                                    index::PruningMode::kAuto, nullptr,
                                    options);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(outcomes[q], QueryOutcome::kOk) << q;
    EXPECT_EQ(hits[q].size(), 5u) << q;
  }
}

// The cell fault injector reaches segment probes: it sees the base's
// shards first, then one shard per segment, oldest first. Faulting the
// older segment's shard fails every query with a flagged partial that
// holds exactly the other parts' hits.
TEST(LiveDatabase, FaultedSegmentShardDegradesToThePartialOfTheRest) {
  InMemoryEnv env;
  const auto batches = make_sized_batches({20, 12, 8, 4}, 0xfa17);
  LiveDatabase db(env, "live", foreground_options(2));
  for (std::size_t b = 0; b < 2; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }
  ASSERT_TRUE(db.refreeze_now());
  for (std::size_t b = 2; b < 4; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }
  const auto live = db.stats();
  ASSERT_EQ(live.base_docs, 32u);
  ASSERT_EQ(live.segments, 2u);
  const std::size_t faulted_begin = live.tail_segments[0].first_id;
  const std::size_t faulted_end = faulted_begin + live.tail_segments[0].docs;

  const std::vector<vsm::SparseVector> queries = {batches[0].signatures[0],
                                                  batches[2].signatures[1],
                                                  batches[3].signatures[2]};
  constexpr std::size_t k = 10;
  const auto reference = build_reference(batches, batches.size(), 2);
  std::vector<QueryOutcome> outcomes;
  SearchOptions options;
  options.outcomes = &outcomes;
  options.inject_cell_fault = [](std::size_t, std::size_t shard) {
    if (shard == 2) throw std::runtime_error("injected segment fault");
  };
  QueryStats stats;
  const auto hits = db.search_batch(queries, k, SimilarityMetric::kCosine,
                                    index::PruningMode::kExact, &stats,
                                    options);
  EXPECT_EQ(stats.shard_failed, queries.size());
  EXPECT_EQ(stats.partial_results, queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(outcomes[q], QueryOutcome::kShardFailed) << q;
    // The bulk build's ranking with the faulted segment's ids left out.
    std::vector<SearchHit> want;
    for (const SearchHit& hit :
         reference.search(queries[q], reference.size(),
                          SimilarityMetric::kCosine)) {
      if (hit.id >= faulted_begin && hit.id < faulted_end) continue;
      if (want.size() < k) want.push_back(hit);
    }
    ASSERT_EQ(hits[q].size(), want.size()) << q;
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(hits[q][r].id, want[r].id) << q << " rank " << r;
      EXPECT_EQ(hits[q][r].label, want[r].label) << q << " rank " << r;
      EXPECT_EQ(hits[q][r].score, want[r].score) << q << " rank " << r;
    }
  }
}

TEST(LiveDatabase, MalformedBatchLeavesArchiveUnchanged) {
  InMemoryEnv env;
  const auto batches = make_batches(2, 4);
  LiveDatabase db(env, "live", foreground_options());
  db.add_batch(batches[0].signatures, batches[0].labels);

  std::vector<vsm::SparseVector> signatures = batches[1].signatures;
  std::vector<std::string> labels = batches[1].labels;
  labels.pop_back();  // size mismatch
  EXPECT_THROW(db.add_batch(std::move(signatures), std::move(labels)),
               std::invalid_argument);

  EXPECT_EQ(db.size(), 4u);
  EXPECT_EQ(db.add_batch({}, {}), 4u);  // empty batch: no-op, returns next id
  expect_live_equivalent(db.snapshot(), build_reference(batches, 1, 2),
                         "after rejected batch");
}

TEST(LiveDatabase, SearchEdgeCases) {
  InMemoryEnv env;
  const auto batches = make_batches(2, 6);
  LiveDatabase db(env, "live", foreground_options());
  EXPECT_TRUE(db.search(batches[0].signatures[0], 5).empty());  // empty db

  db.add_batch(batches[0].signatures, batches[0].labels);
  db.add_batch(batches[1].signatures, batches[1].labels);
  EXPECT_TRUE(db.search(batches[0].signatures[0], 0).empty());  // k == 0
  EXPECT_TRUE(db.search(vsm::SparseVector{}, 5).empty());       // empty query

  // k larger than the archive returns everything, ranked.
  const auto hits = db.search(batches[0].signatures[0], 100);
  EXPECT_EQ(hits.size(), 12u);
  for (std::size_t r = 1; r < hits.size(); ++r) {
    EXPECT_TRUE(hits[r - 1].score > hits[r].score ||
                (hits[r - 1].score == hits[r].score &&
                 hits[r - 1].id < hits[r].id))
        << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Concurrency (runs under the TSan CI job)
// ---------------------------------------------------------------------------

// Regression: ShardedIndex::shard_stats()/memory_bytes()/stats() used to
// read shard internals racily against concurrent add_batch. A scrape
// thread hammering every stats surface during parallel ingest must be
// TSan-clean and never observe torn state.
TEST(LiveDatabase, StatsScrapeDuringParallelIngestIsSafe) {
  const auto batches = make_batches(32, 8, 0xabba);
  SignatureDatabase db(4);

  std::thread ingester([&] {
    for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
  });
  std::thread scraper([&] {
    for (int i = 0; i < 200; ++i) {
      const auto shard_stats = db.index()->shard_stats();
      std::size_t docs = 0;
      for (const auto& s : shard_stats) docs += s.docs;
      EXPECT_LE(docs, 256u);
      (void)db.index()->memory_bytes();
      (void)db.index()->memory_breakdown();
      (void)db.index()->num_postings();
      db.publish_gauges();
    }
  });
  ingester.join();
  scraper.join();
  EXPECT_EQ(db.size(), 256u);
}

// The live archive's full concurrent surface: ingest, snapshot queries,
// explicit re-freezes, and stats scrapes all at once, then a reopen that
// must see every batch (ingest is synchronous and journaled).
TEST(LiveDatabase, ConcurrentIngestQueryRefreezeScrape) {
  InMemoryEnv env;
  const auto batches = make_batches(24, 8, 0xcafe);
  exec::TaskPool pool(2);
  LiveOptions options;
  options.num_shards = 2;
  options.refreeze_min_docs = 24;
  options.refreeze_fraction = 0.125;
  options.pool = &pool;
  {
    LiveDatabase db(env, "live", options);

    std::thread ingester([&] {
      for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
    });
    std::thread querier([&] {
      util::Rng rng(0xbead);
      for (int q = 0; q < 100; ++q) {
        const auto snapshot = db.snapshot();
        const auto query = random_sparse(rng, 64, 10);
        const auto hits = snapshot.search(query, 5);
        EXPECT_LE(hits.size(), 5u);
        for (const auto& hit : hits) EXPECT_LT(hit.id, snapshot.size());
      }
    });
    std::thread folder([&] {
      for (int i = 0; i < 4; ++i) db.refreeze_now();
    });
    std::thread scraper([&] {
      for (int i = 0; i < 100; ++i) {
        const auto stats = db.stats();
        EXPECT_EQ(stats.base_docs + stats.tail_docs, stats.total_docs);
        EXPECT_LE(stats.total_docs, 192u);
        db.publish_gauges();
      }
    });
    ingester.join();
    querier.join();
    folder.join();
    scraper.join();

    EXPECT_EQ(db.size(), 192u);
    expect_live_equivalent(db.snapshot(), build_reference(batches, 24, 2),
                           "post-concurrency");
  }

  LiveDatabase reopened(env, "live", options);
  EXPECT_EQ(reopened.size(), 192u);
  expect_live_equivalent(reopened.snapshot(),
                         build_reference(batches, 24, 2),
                         "post-concurrency reopen");
}

// Two writers race their optimistic merges against each other and against
// background re-freezes, so a planned merge regularly finds its victims no
// longer trailing and falls back to an unmerged append. No acknowledged
// doc may be lost or moved, and the final archive must answer
// bit-identically to a bulk build in acknowledged-id order.
TEST(LiveDatabase, ConcurrentWritersLadderFallbackKeepsEveryDoc) {
  InMemoryEnv env;
  const auto batches = make_batches(240, 1, 0x7a7a);
  exec::TaskPool pool(2);
  LiveOptions options;
  options.num_shards = 2;
  options.refreeze_min_docs = 32;
  options.refreeze_fraction = 0.5;
  options.pool = &pool;
  std::vector<std::size_t> first_ids(batches.size());
  // The expected archive: the batches in acknowledged-id order.
  std::vector<Batch> acknowledged;
  const auto acknowledge = [&] {
    std::vector<std::size_t> order(batches.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return first_ids[a] < first_ids[b];
    });
    for (std::size_t i = 0; i < order.size(); ++i) {
      ASSERT_EQ(first_ids[order[i]], i);
      acknowledged.push_back(batches[order[i]]);
    }
  };
  {
    LiveDatabase db(env, "live", options);
    const auto writer = [&](std::size_t parity) {
      for (std::size_t b = parity; b < batches.size(); b += 2) {
        first_ids[b] = db.add_batch(batches[b].signatures, batches[b].labels);
      }
    };
    std::thread even(writer, 0);
    std::thread odd(writer, 1);
    std::thread reader([&] {
      util::Rng rng(0xfeed);
      for (int q = 0; q < 100; ++q) {
        const auto snapshot = db.snapshot();
        const auto hits = snapshot.search(random_sparse(rng, 64, 10), 5);
        EXPECT_LE(hits.size(), 5u);
        for (const auto& hit : hits) {
          ASSERT_LT(hit.id, snapshot.size());
          EXPECT_EQ(snapshot.label(hit.id), hit.label);
        }
      }
    });
    even.join();
    odd.join();
    reader.join();
    db.wait_for_refreeze();
    EXPECT_GE(db.refreezes(), 1u);
    acknowledge();
    ASSERT_EQ(acknowledged.size(), batches.size());
    expect_same_hits(db.snapshot(),
                     build_reference(acknowledged, acknowledged.size(), 2),
                     "post-race");
  }

  LiveDatabase reopened(env, "live", options);
  expect_live_equivalent(reopened.snapshot(),
                         build_reference(acknowledged, acknowledged.size(), 2),
                         "post-race reopen");
  expect_same_hits(reopened.snapshot(),
                   build_reference(acknowledged, acknowledged.size(), 2),
                   "post-race reopen");
}

}  // namespace
}  // namespace fmeter::core
