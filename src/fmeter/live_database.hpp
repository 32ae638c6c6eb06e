// Live signature archive: epoch/RCU-style streaming ingest over the
// durable directory format of fmeter/archive_format.hpp. It is the one
// front-end that opens, journals into and checkpoints an archive
// directory; refreeze_now() is its checkpoint.
//
// The paper's whole point is *continuous* monitoring, but SignatureDatabase
// ingest is batch-oriented: every index build copies and extends the
// posting arena of each shard it touches, O(archive) per batch, under
// the store's writer lock, which new queries wait on to pin the index.
// LiveDatabase keeps ingest builds O(tail) and off every lock, so ingest
// and query run concurrently without either blocking the other for longer
// than a pointer swap:
//
//   * Readers pin an immutable *published epoch* — a frozen base plus a
//     short list of frozen tail segments, each a
//     shared_ptr<const LabeledIndex> (fmeter/database.hpp: an index and
//     its labels, no lock, no mutable state) — and serve every query from
//     that pinned state (cf. LevelDB's version-set swap and Lucene's
//     near-real-time segment refresh). Nothing a reader can see is ever
//     mutated; a pinned snapshot stays valid for as long as the caller
//     holds it, across any number of ingests and re-freezes.
//   * The tail segments form a size-tiered *ladder*: each holds more
//     documents than all newer segments together. add_batch() absorbs
//     the trailing segments that would break that and seals them plus
//     the batch as one frozen single-shard segment — with equal batches
//     exactly the binary-counter merge of LevelDB and Lucene. The seal
//     extends the oldest (largest) victim: LabeledIndex::appended copies
//     its forward store and merges the other victims' documents and the
//     batch into its posting arena, reading them in place from their
//     immutable forward stores. No merged run reaches
//     refreeze_min_docs (a run that large is the fold's job), so below
//     that the tail holds at most floor(log2(tail_docs)) + 1 segments and
//     each document is merged at most log2(tail_docs) times. The merge is
//     planned and built *outside* the writer lock from a pinned epoch;
//     the lock covers only the journal append and the publish, which
//     installs the merged run if its victims are still the trailing
//     segments and otherwise appends the batch unmerged.
//   * A background TaskPool job *re-freezes* the archive when the tail
//     grows past a fraction of the base: the next base is the pinned
//     capture's base appended with every tail segment's documents (views
//     of their forward stores, no signature copied), merged into the
//     base's posting arenas shard by shard — byte-for-byte a bulk build of
//     the same documents, at the cost of copying the base plus a merge,
//     not a rebuild. Concurrent ingest keeps sealing meanwhile. The fold
//     writes the new base as a snapshot and commits the swap through the
//     directory's MANIFEST — snapshot file + fresh journal carrying every
//     batch sealed after the capture (each record re-encoded from its
//     segment's forward store, which is the batch's only in-RAM copy),
//     then the atomic manifest swap as the one commit point. A segment
//     whose merge straddles the capture is split: its post-capture
//     documents are sealed into one survivor segment by the same builder.
//     A crash at any instant recovers to either the old epoch's files or
//     the new ones, never a torn mix (enforced by the crash-matrix test).
//
// Durability contract (enforced by the crash matrix in
// tests/test_durability.cpp, run once per Durability value):
//   * under kEachBatch (the default), a batch is durable when add_batch()
//     returns: one journal write and one fsync per batch;
//   * under kAsync, a crash loses at most the batches published since the
//     last sync()/re-freeze returned;
//   * under kRefreezeOnly there is no journal, and durability comes solely
//     from re-freezes;
//   * a batch interrupted mid-append vanishes atomically, and the
//     directory is always openable after a crash;
//   * recovery replays the manifest's snapshot + journal and always yields
//     a database whose search results are bit-identical to a fresh bulk
//     build of exactly the recovered documents.
//
// Search: one exec::QueryEngine batch whose parts are the base (ids from 0)
// and every segment (ids from its first id), merged once by the shared
// ordering (score desc, id asc). Scores are pure functions of (query,
// document), so the hits equal a monolithic index's over the same
// documents: bit-identical under kExact, within 1e-9 when pruned.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/task_pool.hpp"
#include "fmeter/archive_format.hpp"
#include "fmeter/database.hpp"
#include "io/env.hpp"
#include "io/journal.hpp"

namespace fmeter::core {

/// When an acknowledged batch becomes durable.
enum class Durability {
  /// No journal: ingest mutates only RAM and a batch is durable once a
  /// re-freeze commits it. The bench's no-durability baseline.
  kRefreezeOnly,
  /// Journal append without fsync: a batch is durable once a later
  /// sync() or re-freeze returns.
  kAsync,
  /// Journal append and fsync before add_batch returns.
  kEachBatch,
};

struct LiveOptions {
  /// Shard count of the *base* (0 = default_num_shards()).
  /// Opening an existing directory adopts the snapshot's shard count.
  std::size_t num_shards = 0;
  Durability durability = Durability::kEachBatch;
  /// Re-freeze triggers when tail docs exceed both this fraction of the
  /// base and refreeze_min_docs. The ladder already bounds the segment
  /// count, so the two knobs trade fold CPU (each fold copies the whole
  /// base and merges the tail into it) against base size; the floor keeps small archives from folding
  /// constantly and also caps the size of a run the ladder merges.
  double refreeze_fraction = 0.125;
  std::size_t refreeze_min_docs = 4096;
  /// Schedule re-freezes automatically on the pool after qualifying
  /// ingests. Off = fold only on explicit refreeze_now() calls (tests,
  /// crash matrix).
  bool background_refreeze = true;
  /// Pool for background re-freezes and the segment builds of journal
  /// replay (TaskPool::shared() when null).
  exec::TaskPool* pool = nullptr;
  /// Deterministic test seam, in the spirit of RunOptions::inject_cell_fault:
  /// when set, invoked by a re-freeze right after it pins its capture and
  /// before it builds — the one place the crash matrix and the
  /// survivor-segment tests need to seal a batch "concurrently" without
  /// nondeterministic threads. Runs on the folding thread with no locks
  /// held, so it may call add_batch. Null in production.
  std::function<void()> after_refreeze_capture{};
};

/// One tail segment of a pinned epoch, in id order.
struct LiveSegmentStats {
  std::size_t first_id = 0;
  std::size_t docs = 0;
  std::size_t batches = 0;  ///< journal records sealed into it
};

/// Point-in-time shape of the live archive, read entirely from one pinned
/// epoch — safe concurrent with ingest and re-freeze by construction.
struct LiveStats {
  std::uint64_t published_sequence = 0;  ///< bumps on every publish
  std::uint64_t manifest_epoch = 0;      ///< durable epoch (re-freeze commits)
  std::uint64_t refreezes = 0;           ///< folds committed this lifetime
  std::size_t total_docs = 0;
  std::size_t base_docs = 0;             ///< docs in the frozen sharded base
  std::size_t tail_docs = 0;             ///< docs in sealed tail segments
  std::size_t segments = 0;
  std::size_t memory_bytes = 0;          ///< base + segment index footprint
  /// Length of the current journal (header and framing included; 0 under
  /// kRefreezeOnly): the tail's durable footprint since the last commit.
  std::uint64_t journal_bytes = 0;
  std::vector<exec::ShardStats> base_shards;
  std::vector<LiveSegmentStats> tail_segments;  ///< the ladder, oldest first
};

class LiveDatabase {
  struct LiveEpoch;

 public:
  /// A pinned, immutable view of one published epoch. Copyable, cheap to
  /// acquire (one mutex-guarded shared_ptr copy), valid for as long as the
  /// caller holds it regardless of concurrent ingest or re-freeze. All
  /// search paths mirror SignatureDatabase's contract (bit-identical hits
  /// in every mode, ascending-id tie-break, k == 0 / empty query → no
  /// hits).
  class Snapshot {
   public:
    std::size_t size() const noexcept;
    bool empty() const noexcept { return size() == 0; }

    std::string label(std::size_t id) const;
    vsm::SparseVector signature(std::size_t id) const;

    /// Top-k over every document in this epoch: one engine batch over the
    /// base and the segments, with SignatureDatabase::search's hits over
    /// the same documents. `options` acts as on any engine run (a failing
    /// segment shard degrades its queries to flagged partials). A live
    /// query counts once in QueryStats and fmeter_query_*, never in
    /// fmeter_db_*.
    std::vector<SearchHit> search(const vsm::SparseVector& query,
                                  std::size_t k,
                                  SimilarityMetric metric =
                                      SimilarityMetric::kCosine,
                                  PruningMode mode = PruningMode::kAuto,
                                  QueryStats* stats = nullptr,
                                  const SearchOptions& options = {}) const;

    std::vector<std::vector<SearchHit>> search_batch(
        std::span<const vsm::SparseVector> queries, std::size_t k,
        SimilarityMetric metric = SimilarityMetric::kCosine,
        PruningMode mode = PruningMode::kAuto, QueryStats* stats = nullptr,
        const SearchOptions& options = {}) const;

    std::uint64_t sequence() const noexcept;
    std::uint64_t manifest_epoch() const noexcept;
    std::size_t base_docs() const noexcept;
    std::size_t tail_docs() const noexcept;
    std::size_t num_segments() const noexcept;

    /// The frozen parts themselves, for introspection: the sharded base
    /// (ids [0, base_docs())) and tail segment `i` (oldest first, <
    /// num_segments()), each with its own ids from 0. Valid while this
    /// snapshot lives.
    const LabeledIndex& base() const noexcept;
    const LabeledIndex& segment(std::size_t i) const;

   private:
    friend class LiveDatabase;
    explicit Snapshot(std::shared_ptr<const LiveEpoch> epoch)
        : epoch_(std::move(epoch)) {}
    /// The part (base or tail segment) holding `id`, and `id` within it;
    /// std::out_of_range past size().
    std::pair<const LabeledIndex*, std::size_t> locate(std::size_t id) const;
    std::shared_ptr<const LiveEpoch> epoch_;
  };

  /// Opens `dir` (creating it if absent): loads the manifest's snapshot as
  /// the base epoch, replays the journal straight into the ladder a
  /// writer sealing the same records one by one would publish (one build
  /// per segment, the segments built in parallel on the pool; a torn tail
  /// is truncated), sweeps unreferenced files, and opens the journal for
  /// appending. Everything goes through `env` so the crash-matrix test can
  /// drive the lifecycle on FaultInjectingEnv.
  LiveDatabase(io::Env& env, std::string dir, LiveOptions options = {});
  ~LiveDatabase();

  LiveDatabase(const LiveDatabase&) = delete;
  LiveDatabase& operator=(const LiveDatabase&) = delete;

  /// Streaming ingest: validate → seal the batch, merged with the trailing
  /// segments the ladder absorbs, into a frozen segment (outside the
  /// writer lock — concurrent ingests build concurrently) → journal
  /// append (+ sync under kEachBatch) → publish the new epoch. Returns
  /// the id of the first inserted signature. Thread-safe against
  /// concurrent add_batch/sync/refreeze/readers. May schedule a background
  /// re-freeze; throws std::invalid_argument on malformed input with the
  /// archive unchanged (strong guarantee).
  std::size_t add_batch(std::vector<vsm::SparseVector> signatures,
                        std::vector<std::string> labels);

  /// Explicit journal fsync — the commit point under kAsync.
  void sync();

  /// Pins the currently published epoch.
  Snapshot snapshot() const;

  /// Convenience: search on a freshly pinned snapshot.
  std::vector<SearchHit> search(const vsm::SparseVector& query, std::size_t k,
                                SimilarityMetric metric =
                                    SimilarityMetric::kCosine,
                                PruningMode mode = PruningMode::kAuto,
                                QueryStats* stats = nullptr,
                                const SearchOptions& options = {}) const;
  std::vector<std::vector<SearchHit>> search_batch(
      std::span<const vsm::SparseVector> queries, std::size_t k,
      SimilarityMetric metric = SimilarityMetric::kCosine,
      PruningMode mode = PruningMode::kAuto, QueryStats* stats = nullptr,
      const SearchOptions& options = {}) const;

  /// Synchronous re-freeze — the archive's checkpoint: folds the pinned
  /// epoch's segments into a fresh sharded base, writes it as the next
  /// epoch's snapshot and commits the swap durably. Once it returns true,
  /// every batch published before the call is durable under every
  /// Durability. Returns false when there was nothing to
  /// fold or another re-freeze was already in flight (the call then waits
  /// for it). Throws on I/O failure — the published epoch is unchanged and
  /// the directory recovers to old-or-new on reopen.
  bool refreeze_now();

  /// Blocks until any scheduled background re-freeze has finished.
  void wait_for_refreeze();

  std::size_t size() const noexcept { return snapshot().size(); }
  LiveStats stats() const;
  /// Publishes epoch/tail/segment gauges into the global registry — reads
  /// only a pinned epoch, so it is always safe to call from a scrape
  /// thread.
  void publish_gauges() const;

  const RecoveryInfo& recovery() const noexcept { return recovery_; }
  const std::string& dir() const noexcept { return dir_; }
  std::uint64_t manifest_epoch() const;
  std::uint64_t refreezes() const noexcept {
    return refreezes_.load(std::memory_order_relaxed);
  }

 private:
  /// One immutable tail segment: a run of consecutive batches as a frozen
  /// single-shard part. Its forward store and labels are the only in-RAM
  /// copy of its documents: a re-freeze re-encodes the journal records of
  /// the batches it keeps from them, batch by batch.
  struct LiveSegment {
    std::size_t first_id = 0;
    std::shared_ptr<const LabeledIndex> part;
    /// Doc count of each add_batch() sealed into it, in id order; they sum
    /// to the part's size.
    std::vector<std::size_t> batch_docs;
  };

  struct LiveEpoch {
    std::uint64_t sequence = 0;
    std::uint64_t manifest_epoch = 0;
    std::shared_ptr<const LabeledIndex> base;
    std::size_t base_docs = 0;
    std::vector<std::shared_ptr<const LiveSegment>> segments;  ///< the ladder
    std::size_t total_docs = 0;
    std::uint64_t journal_bytes = 0;  ///< the journal's length at publish
  };

  void open();
  /// The ladder builds no run of this many docs or more: a run that large
  /// is the fold's to merge (merging it on seal would repeat the fold's
  /// work for a probe saving that is small next to scoring that many docs).
  std::size_t max_run() const noexcept { return options_.refreeze_min_docs; }
  bool journaled() const noexcept {
    return options_.durability != Durability::kRefreezeOnly;
  }
  exec::TaskPool& pool() const {
    return options_.pool != nullptr ? *options_.pool : exec::TaskPool::shared();
  }
  std::shared_ptr<const LiveEpoch> acquire() const;
  void publish(std::shared_ptr<const LiveEpoch> epoch);
  void maybe_schedule_refreeze();
  /// The fold itself; single-flight (guarded by refreeze_inflight_).
  bool do_refreeze();
  /// Throws DurabilityError when a previous commit attempt died between
  /// the manifest swap and the in-memory state swap (disk and RAM may
  /// disagree about which journal is current — appending further batches
  /// could silently lose them; reopen the directory instead).
  void check_not_poisoned() const;

  io::Env& env_;
  std::string dir_;
  LiveOptions options_;

  /// Guards only the published-epoch pointer; held for a pointer copy.
  mutable std::mutex publish_mutex_;
  std::shared_ptr<const LiveEpoch> published_;

  /// Serializes add_batch / sync / the re-freeze commit section.
  std::mutex writer_mutex_;
  std::unique_ptr<io::journal::Writer> journal_;
  std::uint64_t manifest_epoch_ = 0;
  bool commit_poisoned_ = false;

  std::atomic<bool> refreeze_inflight_{false};
  std::mutex refreeze_mutex_;  ///< guards refreeze_future_
  std::future<void> refreeze_future_;
  std::atomic<std::uint64_t> refreezes_{0};

  RecoveryInfo recovery_;
};

}  // namespace fmeter::core
