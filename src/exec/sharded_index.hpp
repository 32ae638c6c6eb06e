// Document-partitioned inverted index: N independent single-shard
// index::InvertedIndex instances behind one global doc-id space.
//
// Documents are assigned round-robin by global id (global g lives in shard
// g % N at local id g / N), so shard sizes stay balanced within one document
// and the global↔local mapping is pure arithmetic — no lookup tables. Every
// document's postings live entirely inside its shard, which is what makes
// shard-parallel query execution (exec::QueryEngine) bit-identical to the
// single-shard index: each shard's accumulation order and scoring are
// unchanged, and within a shard ascending local id is ascending global id,
// so the per-shard top-k lists merge into exactly the global ranking.
//
// A ShardedIndex is an immutable value once built: appended() returns a
// new index holding this one's documents followed by a batch. The batch is
// partitioned round-robin by global id, then each shard it reaches
// appends its slice to its old documents (index::InvertedIndex::appended,
// a merge into the old posting arena) as one span of a
// TaskPool::run_spans batch. Shards are disjoint, and each shard receives
// its documents in ascending global order regardless of scheduling — so
// the built index is deterministic, byte-for-byte a bulk build of the same
// documents however they were batched, and the only cross-thread hand-off
// is the batch's completion. The distinct-term count is then read off the
// built shards' offset tables on the calling thread, as a load reads it.
// A bulk build is ShardedIndex(n).appended(docs).
//
// Concurrency contract: nothing here locks. Every const member may run on
// any number of threads at once, because nothing mutates a built index;
// the only mutators are assignment and destruction, which the owner
// serializes. Owners that publish a changing archive swap whole indexes
// behind a pointer (SignatureDatabase holds a
// shared_ptr<const ShardedIndex>; fmeter::core::LiveDatabase pins
// immutable epochs), so a reader that pinned one keeps it intact.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "exec/task_pool.hpp"
#include "index/inverted_index.hpp"
#include "index/snapshot.hpp"
#include "io/env.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::exec {

using index::IndexHit;
using index::MemoryBreakdown;
using index::Metric;

/// Per-shard statistics snapshot (for fmeter_inspect and monitoring).
struct ShardStats {
  std::size_t docs = 0;
  std::size_t terms = 0;
  std::size_t postings = 0;
  std::size_t memory_bytes = 0;
  MemoryBreakdown memory;  ///< memory_bytes split by component
};

class ShardedIndex {
 public:
  using DocId = index::InvertedIndex::DocId;

  explicit ShardedIndex(std::size_t num_shards = 1);

  /// A new index holding this one's documents followed by `docs` (global
  /// ids continuing densely from size()): every shard the batch reaches
  /// appends its round-robin slice (index::InvertedIndex::appended), the
  /// others are copied. The result equals a bulk build of the same
  /// documents at the same shard count, byte for byte. The per-shard
  /// builds fan out onto `pool` (TaskPool::shared() when null); they run
  /// on the calling thread when the batch is small, the pool has no
  /// parallelism to offer, or the caller already is a pool worker
  /// (TaskPool::run_spans runs such a batch solo). This index is
  /// untouched, so a rejected batch or a failed build (an allocation giving
  /// out) changes nothing. A document with a non-finite weight rejects the
  /// whole batch with std::invalid_argument.
  ShardedIndex appended(std::span<const vsm::SparseView> docs,
                        TaskPool* pool = nullptr) const;
  ShardedIndex appended(std::span<const vsm::SparseVector> docs,
                        TaskPool* pool = nullptr) const;

  /// Appends every shard's sections to `writer` (the caller owns the
  /// writer so it can add layers of its own — SignatureDatabase adds a
  /// labels section — before finish(env, path)). An index-only snapshot is
  /// a Writer(num_shards(), size(), num_terms()), this call and finish().
  /// The emitted bytes depend only on the documents. The writer borrows
  /// each shard's arrays, so the index must not change until finish()
  /// returns.
  void save(index::snapshot::Writer& writer) const;

  /// Restores an index from snapshot sections without touching the corpus:
  /// each shard takes its sections out of `reader` on the calling thread
  /// (InvertedIndex::Restore: a v2 or v3 shard adopts its arena and has its
  /// derived arrays sized there, a v1 shard builds its arena); the shards fan
  /// out onto `pool` exactly like appended() — TaskPool::shared() when
  /// null, inline when the pool has no parallelism to offer or the archive
  /// is small — and the distinct terms are counted from the shards' arena
  /// offset tables on the calling thread, in O(terms × shards), as
  /// appended() counts them. The
  /// loaded index is byte-for-byte the index appended() would build from
  /// the same documents. Throws
  /// index::snapshot::SnapshotError on corruption, truncation, version or
  /// endianness mismatch, or when the sections disagree with the header's
  /// shard/doc/term counts; nothing partial escapes (the result is built
  /// locally and returned by value only on success).
  static ShardedIndex load(index::snapshot::Reader& reader,
                           TaskPool* pool = nullptr);

  /// Maps the snapshot at `path` through `env` and verifies it on `pool`
  /// (TaskPool::shared() when null): every section is checksummed over the
  /// mapping by one participant, the caller among them, and the first
  /// failure in directory order throws SnapshotError once all have
  /// finished. The restore's first phase; load() is the second.
  static index::snapshot::Reader read_snapshot(const io::Env& env,
                                               const std::string& path,
                                               TaskPool* pool = nullptr);

  std::size_t num_shards() const noexcept { return shards_.size(); }
  const index::InvertedIndex& shard(std::size_t s) const {
    return shards_.at(s);
  }

  /// Document `global` (< size()) as a view of its shard's forward-store
  /// run, valid for as long as this index lives.
  vsm::SparseView document(DocId global) const noexcept {
    return shards_[shard_of(global)].document(local_of(global));
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size() == 0; }

  /// Distinct terms with at least one posting in *any* shard (a term that
  /// appears in several shards counts once, unlike summing per-shard stats).
  std::size_t num_terms() const noexcept { return nonempty_terms_; }
  /// Total postings across all shards (== sum of nnz over documents).
  std::size_t num_postings() const;
  /// Aggregate heap footprint: the sum of every shard's accounting.
  std::size_t memory_bytes() const;
  /// The same footprint split into postings / offsets / block-metadata /
  /// forward components, summed over shards.
  MemoryBreakdown memory_breakdown() const;

  std::vector<ShardStats> shard_stats() const;

  /// Round-robin global↔local id mapping.
  std::size_t shard_of(DocId global) const noexcept {
    return global % shards_.size();
  }
  DocId local_of(DocId global) const noexcept {
    return global / static_cast<DocId>(shards_.size());
  }
  DocId global_of(std::size_t shard, DocId local) const noexcept {
    return local * static_cast<DocId>(shards_.size()) +
           static_cast<DocId>(shard);
  }

 private:
  std::vector<index::InvertedIndex> shards_;
  std::size_t nonempty_terms_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fmeter::exec
