#include "exec/sharded_index.hpp"

#include <algorithm>
#include <functional>
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
  workers.run_spans(shards, build);
}

/// Distinct terms with a posting in any of `shards`, from their arena
/// offset tables in O(terms × shards).
std::size_t count_terms(std::span<const index::InvertedIndex> shards) {
  std::size_t terms = 0;
  for (const auto& shard : shards) {
    terms = std::max(terms, shard.term_range());
  }
  std::size_t nonempty = 0;
  for (std::size_t t = 0; t < terms; ++t) {
    const auto term = static_cast<index::InvertedIndex::TermId>(t);
    for (const auto& shard : shards) {
      if (shard.postings_of(term) > 0) {
        ++nonempty;
        break;
      }
    }
  }
  return nonempty;
}

}  // namespace

ShardedIndex::ShardedIndex(std::size_t num_shards)
    : shards_(num_shards == 0 ? 1 : num_shards) {}

ShardedIndex ShardedIndex::appended(std::span<const vsm::SparseVector> docs,
                                    TaskPool* pool) const {
  const std::vector<vsm::SparseView> views(docs.begin(), docs.end());
  return appended(std::span<const vsm::SparseView>(views), pool);
}

ShardedIndex ShardedIndex::appended(std::span<const vsm::SparseView> docs,
                                    TaskPool* pool) const {
  const std::size_t shards = shards_.size();
  ShardedIndex out(shards);
  out.size_ = size_ + docs.size();

  // Batch index i becomes global id size() + i, so shard s receives the
  // ascending run i ≡ (s - size()) mod N; a shard the batch misses appends
  // nothing, which copies it. A non-finite weight throws from the build of
  // the shard it lands in, which rejects the whole batch.
  const auto build_shard = [this, docs, shards, &out](std::size_t s) {
    std::vector<vsm::SparseView> slice;
    slice.reserve(docs.size() / shards + 1);
    for (std::size_t i = (s + shards - size_ % shards) % shards;
         i < docs.size(); i += shards) {
      slice.push_back(docs[i]);
    }
    out.shards_[s] = shards_[s].appended(slice);
  };
  build_shards(shards, docs.size(), pool, build_shard);
  out.nonempty_terms_ = count_terms(out.shards_);
  return out;
}

void ShardedIndex::save(index::snapshot::Writer& writer) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].save(writer, static_cast<std::uint32_t>(s));
  }
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

  // Per-shard restore (adopt the sections; validate and complete a v2 or
  // v3 arena, merge a v1 forward store onto the empty index), fanned out
  // exactly like appended(). Each shard's sections are taken here, on the
  // calling thread, and a v2 or v3 shard's derived arrays sized, so the
  // workers only fill them. The only cross-thread hand-off is the batch's
  // completion.
  std::vector<index::InvertedIndex::Restore> restores;
  restores.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    restores.emplace_back(reader, static_cast<std::uint32_t>(s));
  }
  const auto load_shard = [&restores, &out, shards, docs](std::size_t s) {
    out.shards_[s] = restores[s].finish();
    // Round-robin invariant: shard s holds ceil((docs - s) / shards) docs.
    const std::uint64_t expected = docs / shards + (s < docs % shards ? 1 : 0);
    if (out.shards_[s].size() != expected) {
      throw SnapshotError("snapshot: shard " + std::to_string(s) + " holds " +
                          std::to_string(out.shards_[s].size()) +
                          " docs, header implies " + std::to_string(expected));
    }
  };
  build_shards(shards, docs, pool, load_shard);
  out.nonempty_terms_ = count_terms(out.shards_);
  out.size_ = docs;
  if (out.nonempty_terms_ != reader.term_count()) {
    throw SnapshotError("snapshot: shards hold " +
                        std::to_string(out.nonempty_terms_) +
                        " distinct terms, header declares " +
                        std::to_string(reader.term_count()));
  }
  return out;
}

index::snapshot::Reader ShardedIndex::read_snapshot(const io::Env& env,
                                                    const std::string& path,
                                                    TaskPool* pool) {
  TaskPool& workers = pool != nullptr ? *pool : TaskPool::shared();
  return index::snapshot::Reader(
      env, path,
      [&workers](std::size_t n, const std::function<void(std::size_t)>& task) {
        workers.run_spans(n, task);
      });
}

std::size_t ShardedIndex::num_postings() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard.num_postings();
  return total;
}

std::size_t ShardedIndex::memory_bytes() const {
  return memory_breakdown().total();
}

MemoryBreakdown ShardedIndex::memory_breakdown() const {
  MemoryBreakdown total;
  for (const auto& shard : shards_) total += shard.memory_breakdown();
  return total;
}

std::vector<ShardStats> ShardedIndex::shard_stats() const {
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
