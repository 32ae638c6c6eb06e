// Durability battery for archive directories (fmeter/archive_format.hpp)
// opened through LiveDatabase, the one front-end that writes them. The
// contract under test:
//
//   * a batch whose commit point passed (add_batch returning under
//     kEachBatch, sync() under kAsync, refreeze_now() in every mode)
//     survives ANY later crash;
//   * a batch interrupted mid-append vanishes atomically;
//   * the directory is always openable after a crash;
//   * the recovered archive answers bit-identically to a fresh bulk build
//     of exactly the recovered batches.
//
// The crash matrices enforce this by killing a FaultInjectingEnv at EVERY
// mutating operation of a full lifecycle (open, batches, re-freezes raced
// by a mid-fold seal, more batches) with torn writes enabled, under both
// crash models and both journaled Durability modes, then reopening and
// checking the contract. The journal record codec is pinned byte for byte
// and its decoder's rejections are tested directly. The concurrent
// add_batch/sync/refreeze test runs under the TSan CI job, and the whole
// file — the decoders fed torn bytes included — under the UBSan job.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "fmeter/archive_format.hpp"
#include "fmeter/live_database.hpp"
#include "io/env.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::core {
namespace {

using io::FaultInjectingEnv;
using io::InMemoryEnv;
using io::IoError;

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

/// Deterministic batches; labels encode (batch, doc) so the recovered
/// prefix is identifiable from the labels alone.
std::vector<Batch> make_batches(std::size_t count, std::size_t docs_each,
                                std::uint64_t seed = 0xd17a) {
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

SignatureDatabase build_reference(const std::vector<Batch>& batches,
                                  std::size_t prefix, std::size_t shards) {
  SignatureDatabase db(shards);
  for (std::size_t b = 0; b < prefix; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }
  return db;
}

/// Two shards, explicit re-freezes only: the tests decide when the
/// archive checkpoints.
LiveOptions archive_options(Durability durability = Durability::kEachBatch) {
  return {.num_shards = 2, .durability = durability,
          .background_refreeze = false};
}

/// Bit-identical search results between the recovered archive and a fresh
/// bulk build of the same batches — the "recovery loses nothing and
/// invents nothing" check.
void expect_equivalent(const LiveDatabase::Snapshot& got,
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
    const auto got_hits = got.search(query, 5);
    const auto want_hits = want.search(query, 5);
    ASSERT_EQ(got_hits.size(), want_hits.size()) << context << " q " << q;
    for (std::size_t r = 0; r < want_hits.size(); ++r) {
      EXPECT_EQ(got_hits[r].id, want_hits[r].id) << context << " rank " << r;
      EXPECT_EQ(got_hits[r].score, want_hits[r].score)
          << context << " rank " << r;
    }
  }
}

/// How many whole batches the recovered archive holds; fails the test if
/// its contents are not an exact batch-prefix of `batches`.
std::size_t recovered_prefix(const LiveDatabase::Snapshot& got,
                             const std::vector<Batch>& batches,
                             const std::string& context) {
  const std::size_t docs_each = batches.front().labels.size();
  EXPECT_EQ(got.size() % docs_each, 0u)
      << context << ": a torn batch was half-applied";
  const std::size_t prefix = got.size() / docs_each;
  EXPECT_LE(prefix, batches.size()) << context;
  std::size_t id = 0;
  for (std::size_t b = 0; b < prefix; ++b) {
    for (std::size_t d = 0; d < docs_each; ++d, ++id) {
      EXPECT_EQ(got.label(id), batches[b].labels[d]) << context;
    }
  }
  return prefix;
}

// ---------------------------------------------------------------------------
// Journal record codec
// ---------------------------------------------------------------------------

std::vector<std::byte> bytes_of(std::initializer_list<unsigned> values) {
  std::vector<std::byte> out;
  for (const unsigned v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

/// Doc 0: label "ab", terms {1: 0.5, 7: -2.0}; doc 1: empty label, no terms.
std::vector<std::byte> golden_record() {
  return bytes_of({
      0x02, 0, 0, 0, 0, 0, 0, 0,                         // u64 doc count
      0x02, 0, 0, 0, 'a', 'b',                           // label "ab"
      0x02, 0, 0, 0,                                     // u32 nnz
      0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f,       // term 1, 0.5
      0x07, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x00, 0xc0,       // term 7, -2.0
      0x00, 0, 0, 0,                                     // label ""
      0x00, 0, 0, 0,                                     // u32 nnz
  });
}

/// Offset of doc 0's first term id inside golden_record().
constexpr std::size_t kGoldenFirstTerm = 8 + 4 + 2 + 4;

TEST(ArchiveFormat, EncodeBatchMatchesGoldenBytes) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "golden bytes are little-endian";
  }
  const std::vector<vsm::SparseVector> signatures = {
      vsm::SparseVector::from_sorted({1, 7}, {0.5, -2.0}),
      vsm::SparseVector{}};
  const std::vector<std::string> labels = {"ab", ""};
  const std::vector<std::byte> record = encode_batch(signatures, labels);
  EXPECT_EQ(record, golden_record());

  std::vector<vsm::SparseVector> decoded;
  std::vector<std::string> decoded_labels;
  decode_batch(record, decoded, decoded_labels);
  EXPECT_EQ(decoded_labels, labels);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_TRUE(decoded[0] == signatures[0]);
  EXPECT_TRUE(decoded[1] == signatures[1]);
}

TEST(ArchiveFormat, DecodeBatchRejectsEveryTruncation) {
  std::vector<std::byte> record = golden_record();
  std::vector<vsm::SparseVector> signatures;
  std::vector<std::string> labels;
  for (std::size_t cut = 0; cut < record.size(); ++cut) {
    EXPECT_THROW(
        decode_batch(std::span(record).first(cut), signatures, labels),
        DurabilityError)
        << "cut at " << cut;
  }
  // A forged term count far past the payload is a truncation too, and
  // must not size an allocation by the forged count.
  for (std::size_t i = 0; i < 4; ++i) {
    record[kGoldenFirstTerm - 4 + i] = std::byte{0xff};
  }
  EXPECT_THROW(decode_batch(record, signatures, labels), DurabilityError);
}

TEST(ArchiveFormat, DecodeBatchRejectsTrailingBytes) {
  std::vector<std::byte> record = golden_record();
  record.push_back(std::byte{0});
  std::vector<vsm::SparseVector> signatures;
  std::vector<std::string> labels;
  EXPECT_THROW(decode_batch(record, signatures, labels), DurabilityError);
}

TEST(ArchiveFormat, DecodeBatchRejectsUnsortedIndices) {
  std::vector<std::byte> record = golden_record();
  record[kGoldenFirstTerm] = std::byte{9};  // terms {9, 7}
  std::vector<vsm::SparseVector> signatures;
  std::vector<std::string> labels;
  EXPECT_THROW(decode_batch(record, signatures, labels), DurabilityError);
  record[kGoldenFirstTerm] = std::byte{7};  // terms {7, 7}
  EXPECT_THROW(decode_batch(record, signatures, labels), DurabilityError);
}

// ---------------------------------------------------------------------------
// Plain lifecycle
// ---------------------------------------------------------------------------

TEST(LiveDurability, FreshOpenIngestReopenReplays) {
  InMemoryEnv env;
  const auto batches = make_batches(3, 4);
  {
    LiveDatabase db(env, "arch", archive_options());
    EXPECT_TRUE(db.recovery().created);
    EXPECT_EQ(db.manifest_epoch(), 0u);
    for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
    EXPECT_EQ(db.size(), 12u);
  }
  LiveDatabase reopened(env, "arch", archive_options());
  EXPECT_FALSE(reopened.recovery().created);
  EXPECT_FALSE(reopened.recovery().snapshot_loaded);  // no re-freeze yet
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 3u);
  EXPECT_FALSE(reopened.recovery().journal_truncated);
  expect_equivalent(reopened.snapshot(), build_reference(batches, 3, 1),
                    "journal-only reopen");
}

TEST(LiveDurability, RefreezeRotatesAndReopensFromSnapshot) {
  InMemoryEnv env;
  const auto batches = make_batches(4, 3);
  {
    LiveDatabase db(env, "arch", archive_options());
    db.add_batch(batches[0].signatures, batches[0].labels);
    db.add_batch(batches[1].signatures, batches[1].labels);
    ASSERT_TRUE(db.refreeze_now());
    EXPECT_EQ(db.manifest_epoch(), 1u);
    db.add_batch(batches[2].signatures, batches[2].labels);
    db.add_batch(batches[3].signatures, batches[3].labels);
  }
  // The directory holds exactly the manifest + current pair.
  EXPECT_EQ(env.list_dir("arch"),
            (std::vector<std::string>{"MANIFEST", "journal-000001.wal",
                                      "snapshot-000001"}));

  LiveDatabase reopened(env, "arch", archive_options());
  EXPECT_TRUE(reopened.recovery().snapshot_loaded);
  EXPECT_EQ(reopened.recovery().epoch, 1u);
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 2u);
  expect_equivalent(reopened.snapshot(), build_reference(batches, 4, 2),
                    "snapshot+journal reopen");

  // A second re-freeze directly after reopen folds the journal in.
  ASSERT_TRUE(reopened.refreeze_now());
  EXPECT_EQ(reopened.manifest_epoch(), 2u);
  LiveDatabase again(env, "arch", archive_options());
  EXPECT_EQ(again.recovery().journal_records_replayed, 0u);
  expect_equivalent(again.snapshot(), build_reference(batches, 4, 2),
                    "post-second-refreeze");
}

TEST(LiveDurability, SyncIsTheCommitPointUnderAsync) {
  InMemoryEnv env;
  const auto batches = make_batches(3, 2);
  const LiveOptions options = archive_options(Durability::kAsync);
  LiveDatabase db(env, "arch", options);
  db.add_batch(batches[0].signatures, batches[0].labels);
  db.sync();  // commit point for batch 0
  db.add_batch(batches[1].signatures, batches[1].labels);
  env.crash(InMemoryEnv::CrashMode::kDropUnsynced);

  LiveDatabase reopened(env, "arch", options);
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 1u);
  expect_equivalent(reopened.snapshot(), build_reference(batches, 1, 1),
                    "async: only the synced batch survives");
}

TEST(LiveDurability, UnjournaledModeDependsEntirelyOnRefreeze) {
  InMemoryEnv env;
  const auto batches = make_batches(2, 3);
  const LiveOptions off = archive_options(Durability::kRefreezeOnly);
  LiveDatabase db(env, "arch", off);
  db.add_batch(batches[0].signatures, batches[0].labels);
  ASSERT_TRUE(db.refreeze_now());
  db.add_batch(batches[1].signatures, batches[1].labels);  // RAM only
  env.crash(InMemoryEnv::CrashMode::kDropUnsynced);

  LiveDatabase reopened(env, "arch", off);
  EXPECT_TRUE(reopened.recovery().snapshot_loaded);
  expect_equivalent(reopened.snapshot(), build_reference(batches, 1, 1),
                    "journal off: re-frozen batch only");
}

TEST(LiveDurability, InvalidBatchRejectedBeforeJournalAndRam) {
  InMemoryEnv env;
  LiveDatabase db(env, "arch", archive_options());
  const auto batches = make_batches(1, 2);
  db.add_batch(batches[0].signatures, batches[0].labels);
  const std::uint64_t journal_size = env.file_size("arch/journal-000000.wal");

  std::vector<vsm::SparseVector> bad = {vsm::SparseVector::from_entries(
      {{0, std::numeric_limits<double>::quiet_NaN()}})};
  EXPECT_THROW(db.add_batch(bad, {"poison"}), std::invalid_argument);
  EXPECT_THROW(db.add_batch(batches[0].signatures, {}),
               std::invalid_argument);

  // Neither the journal nor the published archive moved.
  EXPECT_EQ(env.file_size("arch/journal-000000.wal"), journal_size);
  EXPECT_EQ(db.size(), 2u);
  LiveDatabase reopened(env, "arch", archive_options());
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 1u);
}

TEST(LiveDurability, SweepsCrashLeftovers) {
  InMemoryEnv env;
  {
    LiveDatabase db(env, "arch", archive_options());
    const auto batches = make_batches(1, 2);
    db.add_batch(batches[0].signatures, batches[0].labels);
  }
  // Plant debris a torn re-freeze could leave: a temp file and a
  // next-epoch pair the manifest never adopted.
  env.new_writable_file("arch/snapshot-000001.tmp", true)->sync();
  env.new_writable_file("arch/snapshot-000001", true)->sync();
  env.new_writable_file("arch/journal-000001.wal", true)->sync();
  env.sync_dir("arch");

  LiveDatabase reopened(env, "arch", archive_options());
  EXPECT_EQ(reopened.recovery().removed_files.size(), 3u);
  EXPECT_EQ(env.list_dir("arch"),
            (std::vector<std::string>{"MANIFEST", "journal-000000.wal"}));
  EXPECT_EQ(reopened.size(), 2u);
}

TEST(LiveDurability, CorruptManifestRefusedLoudly) {
  InMemoryEnv env;
  {
    LiveDatabase db(env, "arch", archive_options());
  }
  std::string raw = env.read_file("arch/MANIFEST");
  raw[raw.size() / 2] = static_cast<char>(raw[raw.size() / 2] ^ 0x01);
  auto file = env.new_writable_file("arch/MANIFEST", /*truncate=*/true);
  file->append(std::string_view(raw));
  file->sync();
  // Silently starting a fresh archive over live data would be the one
  // unforgivable recovery behavior.
  EXPECT_THROW(LiveDatabase(env, "arch", archive_options()), DurabilityError);
}

// ---------------------------------------------------------------------------
// The crash matrices
// ---------------------------------------------------------------------------

/// The lifecycle whose every fault point the matrix kills: open fresh,
/// two batches and a sync(), a re-freeze whose capture is raced by a batch
/// sealed mid-fold (the survivor re-journal path), one more batch, and a
/// second re-freeze. `committed` is raised at each commit point as it
/// returns — add_batch under kEachBatch, sync() and refreeze_now() under
/// both modes — so the caller knows the durability floor even when a
/// fault unwinds the lifecycle.
void run_lifecycle(io::Env& env, const std::vector<Batch>& batches,
                   Durability durability, std::size_t& committed) {
  LiveOptions options = archive_options(durability);
  std::size_t acknowledged = 0;
  const auto commit = [&] { committed = acknowledged; };
  const auto acknowledge = [&] {
    ++acknowledged;
    if (durability == Durability::kEachBatch) commit();
  };
  LiveDatabase* handle = nullptr;
  bool sealed_mid_fold = false;
  options.after_refreeze_capture = [&] {
    if (sealed_mid_fold) return;
    sealed_mid_fold = true;
    handle->add_batch(batches[2].signatures, batches[2].labels);
    acknowledge();
  };
  LiveDatabase db(env, "live", options);
  handle = &db;
  for (std::size_t b = 0; b < 2; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
    acknowledge();
  }
  db.sync();
  commit();
  // Folds 0+1 and re-journals the mid-fold batch 2 into the fresh journal,
  // which the commit syncs: all three are durable once it returns.
  if (db.refreeze_now()) commit();
  db.add_batch(batches[3].signatures, batches[3].labels);
  acknowledge();
  if (db.refreeze_now()) commit();  // folds 2+3
}

void run_crash_matrix(Durability durability) {
  const auto batches = make_batches(4, 3);

  FaultInjectingEnv counter;
  std::size_t clean_committed = 0;
  run_lifecycle(counter, batches, durability, clean_committed);
  ASSERT_EQ(clean_committed, 4u);
  const std::uint64_t total_ops = counter.ops_seen();
  ASSERT_GT(total_ops, 20u) << "lifecycle too small to be a real matrix";

  std::size_t faulted_runs = 0;
  std::size_t tolerated_runs = 0;
  for (std::uint64_t n = 0; n < total_ops; ++n) {
    for (const auto mode : {InMemoryEnv::CrashMode::kDropUnsynced,
                            InMemoryEnv::CrashMode::kPersistEverything}) {
      const std::string context = "op " + std::to_string(n) +
                                  (mode == InMemoryEnv::CrashMode::kDropUnsynced
                                       ? " drop-unsynced"
                                       : " persist-everything");
      FaultInjectingEnv env;
      env.set_tear(FaultInjectingEnv::TearMode::kHalf);
      env.fail_at_op(n);
      std::size_t committed = 0;
      try {
        run_lifecycle(env, batches, durability, committed);
        // A fault in the post-commit retirement section (deleting the old
        // epoch's files) is deliberately tolerated: the swap has already
        // committed, so ingest must not fail over a leftover file the
        // next open sweeps anyway. Every other fault point must throw.
        ++tolerated_runs;
        EXPECT_EQ(committed, 4u) << context << ": swallowed pre-commit fault";
      } catch (const IoError&) {
        ++faulted_runs;
      } catch (const index::snapshot::SnapshotError&) {
        ++faulted_runs;  // re-freeze wraps snapshot-write IoErrors
      } catch (const DurabilityError&) {
        ++faulted_runs;  // poisoned commit: manifest swap died ambiguously
      }
      env.disarm();
      env.crash(mode);

      // ALWAYS openable: recovery lands on whatever epoch the manifest
      // names — the old one or the new one, never a torn mix.
      LiveDatabase recovered(env, "live", archive_options(durability));
      EXPECT_LE(recovered.recovery().epoch, 2u) << context;

      // Committed batches survive, contents are a whole-batch prefix, and
      // the recovered archive is bit-identical to a fresh bulk build.
      const std::size_t prefix =
          recovered_prefix(recovered.snapshot(), batches, context);
      EXPECT_GE(prefix, committed) << context << ": committed batch lost";
      expect_equivalent(recovered.snapshot(),
                        build_reference(batches, prefix, 2), context);

      // And the recovered archive still ingests + re-freezes.
      recovered.add_batch(batches[0].signatures, batches[0].labels);
      recovered.refreeze_now();
      EXPECT_EQ(recovered.size(), (prefix + 1) * 3) << context;
    }
  }
  EXPECT_EQ(faulted_runs + tolerated_runs, 2 * total_ops);
  EXPECT_GT(faulted_runs, tolerated_runs)
      << "most fault points must be pre-commit";
}

TEST(LiveDurability, CrashMatrixEveryFaultPointUnderEachBatch) {
  run_crash_matrix(Durability::kEachBatch);
}

TEST(LiveDurability, CrashMatrixEveryFaultPointUnderAsync) {
  run_crash_matrix(Durability::kAsync);
}

/// An InMemoryEnv that logs every mutating operation as (op, path).
class OpLogEnv final : public InMemoryEnv {
 public:
  std::size_t ops() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return log_.size();
  }
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    log_.clear();
  }
  /// fsyncs of journal files (*.wal) logged since the last clear().
  std::uint64_t journal_fsyncs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t count = 0;
    for (const auto& [op, path] : log_) {
      count += op == "fsync" && path.ends_with(".wal") ? 1 : 0;
    }
    return count;
  }

 protected:
  void before_mutation(const char* op, const std::string& path,
                       std::span<const std::byte>, Inode*) override {
    log_.emplace_back(op, path);  // the env's mutex is held
  }

 private:
  std::vector<std::pair<std::string, std::string>> log_;
};

std::uint64_t journal_syncs_counted() {
  return obs::MetricsRegistry::global()
      .counter("fmeter_journal_syncs_total")
      .value();
}

/// One fold under kEachBatch, from its capture, with `survivors` batches
/// sealed mid-fold for it to re-journal.
struct FoldOps {
  std::size_t ops = 0;              ///< mutating Env operations
  std::uint64_t syncs = 0;          ///< fmeter_journal_syncs_total rise
  std::uint64_t journal_fsyncs = 0;  ///< raw journal fsyncs in the Env
};

FoldOps fold_ops(std::size_t survivors) {
  const auto batches = make_batches(1 + survivors, 2);
  OpLogEnv env;
  LiveOptions options = archive_options(Durability::kEachBatch);
  LiveDatabase* handle = nullptr;
  std::uint64_t syncs_before = 0;
  options.after_refreeze_capture = [&] {
    for (std::size_t b = 1; b <= survivors; ++b) {
      handle->add_batch(batches[b].signatures, batches[b].labels);
    }
    env.clear();
    syncs_before = journal_syncs_counted();
  };
  LiveDatabase db(env, "arch", options);
  handle = &db;
  db.add_batch(batches[0].signatures, batches[0].labels);
  EXPECT_TRUE(db.refreeze_now());
  return {env.ops(), journal_syncs_counted() - syncs_before,
          env.journal_fsyncs()};
}

TEST(LiveDurability, FoldSyncsItsFreshJournalOnceUnderEachBatch) {
  // Each survivor record costs the fold one append and no fsync: the fresh
  // journal is fsynced once, by Writer::sync right before the manifest
  // swap commits it.
  const FoldOps one = fold_ops(1);
  EXPECT_EQ(one.syncs, 1u);
  EXPECT_EQ(one.journal_fsyncs, 1u);
  for (const std::size_t survivors : {3u, 6u}) {
    const FoldOps more = fold_ops(survivors);
    EXPECT_EQ(more.ops, one.ops + survivors - 1) << survivors;
    EXPECT_EQ(more.syncs, 1u) << survivors;
    EXPECT_EQ(more.journal_fsyncs, 1u) << survivors;
  }

  // Every journal fsync is a counted Writer::sync: a fresh open (which
  // commits the new journal's header), two batches and one fold.
  const auto batches = make_batches(2, 2);
  OpLogEnv env;
  const std::uint64_t before = journal_syncs_counted();
  {
    LiveDatabase db(env, "arch", archive_options(Durability::kEachBatch));
    for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
    EXPECT_TRUE(db.refreeze_now());
  }
  EXPECT_EQ(env.journal_fsyncs(), 4u);
  EXPECT_EQ(journal_syncs_counted() - before, env.journal_fsyncs());
}

TEST(LiveDurability, RecoveryItselfSurvivesCrashes) {
  // Crash-during-recovery: prepare a directory whose journal has a torn
  // tail, then kill the reopen at every fault point. Whatever happens, the
  // directory must stay openable and the committed batches intact.
  const auto batches = make_batches(3, 3);
  const auto prepare = [&](FaultInjectingEnv& env) {
    {
      LiveDatabase db(env, "arch", archive_options());
      db.add_batch(batches[0].signatures, batches[0].labels);
      db.add_batch(batches[1].signatures, batches[1].labels);
    }
    // Torn tail: append half a record's worth of garbage to the journal.
    auto file = env.new_writable_file("arch/journal-000000.wal",
                                      /*truncate=*/false);
    file->append(std::string_view("\x40\x00\x00", 3));  // cut length prefix
    file->sync();
    env.reset_ops();
  };

  FaultInjectingEnv counter;
  prepare(counter);
  { LiveDatabase probe(counter, "arch", archive_options()); }
  const std::uint64_t recovery_ops = counter.ops_seen();
  ASSERT_GT(recovery_ops, 0u);

  for (std::uint64_t n = 0; n < recovery_ops; ++n) {
    const std::string context = "recovery op " + std::to_string(n);
    FaultInjectingEnv env;
    prepare(env);
    env.fail_at_op(n);
    try {
      LiveDatabase db(env, "arch", archive_options());
    } catch (const IoError&) {
    }
    env.disarm();
    env.crash(InMemoryEnv::CrashMode::kDropUnsynced);

    LiveDatabase recovered(env, "arch", archive_options());
    EXPECT_EQ(recovered.recovery().journal_records_replayed, 2u) << context;
    expect_equivalent(recovered.snapshot(), build_reference(batches, 2, 2),
                      context);
  }
}

// ---------------------------------------------------------------------------
// Concurrency (runs under the TSan CI job)
// ---------------------------------------------------------------------------

TEST(LiveDurability, ConcurrentAddBatchSyncAndRefreeze) {
  InMemoryEnv env;
  const auto batches = make_batches(24, 2, 0xc0);
  LiveDatabase db(env, "arch", archive_options());

  std::thread ingester([&] {
    for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
  });
  std::thread refreezer([&] {
    for (int i = 0; i < 6; ++i) db.refreeze_now();
  });
  std::thread syncer([&] {
    for (int i = 0; i < 10; ++i) db.sync();
  });
  ingester.join();
  refreezer.join();
  syncer.join();

  EXPECT_EQ(db.size(), 48u);
  db.refreeze_now();  // fold everything in, then reopen must see all of it
  LiveDatabase reopened(env, "arch", archive_options());
  EXPECT_EQ(reopened.size(), 48u);
  expect_equivalent(reopened.snapshot(), build_reference(batches, 24, 2),
                    "post-concurrency reopen");
}

}  // namespace
}  // namespace fmeter::core
