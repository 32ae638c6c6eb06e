#include "exec/sharded_index.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace fmeter::exec {
namespace {

/// Below this many documents a bulk build is microseconds of work and the
/// pool dispatch would dominate it — build inline instead. Results are
/// identical either way.
constexpr std::size_t kMinDocsForParallelBuild = 4096;

/// Runs `build(s)` once per shard. Small builds run inline before any pool
/// is touched, so they never materialize the shared pool; the rest go
/// through run_spans, which runs solo on a one-thread pool or a worker
/// caller, lets the caller participate, and rethrows the first failure.
void build_shards(std::size_t shards, std::size_t docs, TaskPool* pool,
                  const std::function<void(std::size_t)>& build) {
  if (shards == 1 || docs < kMinDocsForParallelBuild) {
    for (std::size_t s = 0; s < shards; ++s) build(s);
    return;
  }
  TaskPool& workers = pool != nullptr ? *pool : TaskPool::shared();
  workers.run_spans(shards, [&build](std::size_t s, std::size_t) { build(s); });
}

}  // namespace

ShardedIndex::ShardedIndex(std::size_t num_shards)
    : shards_(num_shards == 0 ? 1 : num_shards) {}

ShardedIndex::ShardedIndex(const ShardedIndex& other) {
  const std::shared_lock<std::shared_mutex> source(other.mutex_);
  shards_ = other.shards_;
  term_seen_ = other.term_seen_;
  nonempty_terms_.store(other.nonempty_terms_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  size_.store(other.size_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
}

// Moves are setup-time: the source must have no concurrent users (it is
// about to be gutted regardless), so no lock is taken.
ShardedIndex::ShardedIndex(ShardedIndex&& other) noexcept
    : shards_(std::move(other.shards_)),
      term_seen_(std::move(other.term_seen_)),
      nonempty_terms_(
          other.nonempty_terms_.load(std::memory_order_relaxed)),
      size_(other.size_.load(std::memory_order_relaxed)) {}

ShardedIndex& ShardedIndex::operator=(const ShardedIndex& other) {
  ShardedIndex copy(other);
  return *this = std::move(copy);
}

ShardedIndex& ShardedIndex::operator=(ShardedIndex&& other) noexcept {
  if (this != &other) {
    const std::unique_lock<std::shared_mutex> lock(mutex_);
    shards_ = std::move(other.shards_);
    term_seen_ = std::move(other.term_seen_);
    nonempty_terms_.store(
        other.nonempty_terms_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    size_.store(other.size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }
  return *this;
}

void ShardedIndex::add_batch(std::span<const vsm::SparseVector> docs,
                             TaskPool* pool) {
  const std::vector<vsm::SparseView> views(docs.begin(), docs.end());
  add_batch(std::span<const vsm::SparseView>(views), pool);
}

void ShardedIndex::add_batch(std::span<const vsm::SparseView> docs,
                             TaskPool* pool) {
  // The writer lock is held across the whole build, so two concurrent
  // add_batch calls serialize and neither loses its batch. Every shard is
  // built aside; only the noexcept swaps below touch this index.
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  std::size_t nonempty = 0;
  std::vector<bool> seen = terms_seen_with(docs, nonempty);
  std::vector<index::InvertedIndex> built = build_appended(docs, pool);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (first_slot(s) < docs.size()) shards_[s] = std::move(built[s]);
  }
  term_seen_ = std::move(seen);
  nonempty_terms_ = nonempty;
  size_ += docs.size();
}

ShardedIndex ShardedIndex::appended(std::span<const vsm::SparseView> docs,
                                    TaskPool* pool) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  ShardedIndex out(shards_.size());
  std::size_t nonempty = 0;
  out.term_seen_ = terms_seen_with(docs, nonempty);
  out.shards_ = build_appended(docs, pool);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (first_slot(s) >= docs.size()) out.shards_[s] = shards_[s];
  }
  out.nonempty_terms_ = nonempty;
  out.size_ = size() + docs.size();
  return out;
}

std::size_t ShardedIndex::first_slot(std::size_t shard) const noexcept {
  // Batch index i becomes global id size() + i, so shard s receives the
  // ascending run i ≡ (s - size()) mod N.
  const std::size_t shards = shards_.size();
  return (shard + shards - size() % shards) % shards;
}

std::vector<index::InvertedIndex> ShardedIndex::build_appended(
    std::span<const vsm::SparseView> docs, TaskPool* pool) const {
  // Validate the whole batch before the fan-out: a shard's own check only
  // sees its slice, so this is the one place that rejects a batch whole.
  for (const vsm::SparseView& doc : docs) {
    for (const double value : doc.values) {
      if (!std::isfinite(value)) {
        throw std::invalid_argument(
            "ShardedIndex::add_batch: document carries a non-finite weight");
      }
    }
  }
  const std::size_t shards = shards_.size();
  std::vector<index::InvertedIndex> built(shards);
  const auto build_shard = [this, docs, shards, &built](std::size_t s) {
    if (first_slot(s) >= docs.size()) return;
    std::vector<vsm::SparseView> slice;
    slice.reserve(docs.size() / shards + 1);
    for (std::size_t i = first_slot(s); i < docs.size(); i += shards) {
      slice.push_back(docs[i]);
    }
    built[s] = shards_[s].appended(slice);
  };
  build_shards(shards, docs.size(), pool, build_shard);
  return built;
}

std::vector<bool> ShardedIndex::terms_seen_with(
    std::span<const vsm::SparseView> docs, std::size_t& nonempty) const {
  // Sized once, exactly, so the bitmap's capacity — part of
  // memory_breakdown() — depends only on the documents, not on how they
  // were batched.
  std::size_t terms = term_seen_.size();
  for (const vsm::SparseView& doc : docs) {
    if (!doc.indices.empty()) {
      terms = std::max(terms, static_cast<std::size_t>(doc.indices.back()) + 1);
    }
  }
  std::vector<bool> seen(terms, false);
  std::copy(term_seen_.begin(), term_seen_.end(), seen.begin());
  nonempty = num_terms();
  for (const vsm::SparseView& doc : docs) {
    for (const auto term : doc.indices) {
      if (!seen[term]) {
        seen[term] = true;
        ++nonempty;
      }
    }
  }
  return seen;
}

void ShardedIndex::save_locked(index::snapshot::Writer& writer) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].save(writer, static_cast<std::uint32_t>(s));
  }
}

void ShardedIndex::save(index::snapshot::Writer& writer) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  save_locked(writer);
}

void ShardedIndex::save(std::ostream& out) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  index::snapshot::Writer writer(static_cast<std::uint32_t>(shards_.size()),
                                 size(), num_terms());
  save_locked(writer);
  writer.finish(out);
}

ShardedIndex ShardedIndex::load(index::snapshot::Reader& reader,
                                TaskPool* pool) {
  using index::snapshot::SnapshotError;
  const std::size_t shards = reader.shard_count();
  if (shards == 0) {
    throw SnapshotError("snapshot: shard count must be at least 1");
  }
  ShardedIndex out(shards);
  const std::uint64_t docs = reader.doc_count();

  // Per-shard restore (adopt the sections, build the arena), fanned out
  // exactly like add_batch. Shards take disjoint sections, so the only
  // cross-thread hand-off is the batch's completion.
  const auto load_shard = [&reader, &out, shards, docs](std::size_t s) {
    out.shards_[s] =
        index::InvertedIndex::load(reader, static_cast<std::uint32_t>(s));
    // Round-robin invariant: shard s holds ceil((docs - s) / shards) docs.
    const std::uint64_t expected = docs / shards + (s < docs % shards ? 1 : 0);
    if (out.shards_[s].size() != expected) {
      throw SnapshotError("snapshot: shard " + std::to_string(s) + " holds " +
                          std::to_string(out.shards_[s].size()) +
                          " docs, header implies " + std::to_string(expected));
    }
  };
  build_shards(shards, docs, pool, load_shard);

  // Term-occupancy bitmap from the adopted forward stores, sized like a
  // build's (see terms_seen_with).
  std::size_t terms = 0;
  for (const auto& shard : out.shards_) {
    terms = std::max(terms, shard.term_range());
  }
  out.term_seen_ = std::vector<bool>(terms, false);
  for (const auto& shard : out.shards_) {
    shard.for_each_document([&out](index::InvertedIndex::DocId,
                                   vsm::SparseView doc) {
      for (const auto term : doc.indices) {
        if (!out.term_seen_[term]) {
          out.term_seen_[term] = true;
          ++out.nonempty_terms_;
        }
      }
    });
  }
  out.size_ = docs;
  if (out.nonempty_terms_ != reader.term_count()) {
    throw SnapshotError("snapshot: rebuilt " +
                        std::to_string(out.nonempty_terms_) +
                        " distinct terms, header declares " +
                        std::to_string(reader.term_count()));
  }
  return out;
}

ShardedIndex ShardedIndex::load(std::istream& in, TaskPool* pool) {
  index::snapshot::Reader reader(in);
  return load(reader, pool);
}

std::size_t ShardedIndex::num_postings() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard.num_postings();
  return total;
}

std::size_t ShardedIndex::memory_bytes() const {
  return memory_breakdown().total();
}

MemoryBreakdown ShardedIndex::memory_breakdown() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  MemoryBreakdown total;
  total.offsets += term_seen_.capacity() / 8;
  for (const auto& shard : shards_) total += shard.memory_breakdown();
  return total;
}

std::vector<ShardStats> ShardedIndex::shard_stats() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats entry;
    entry.docs = shard.size();
    entry.terms = shard.num_terms();
    entry.postings = shard.num_postings();
    entry.memory = shard.memory_breakdown();
    entry.memory_bytes = entry.memory.total();
    stats.push_back(entry);
  }
  return stats;
}

}  // namespace fmeter::exec
