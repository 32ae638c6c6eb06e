// Shard-parallel, batch-aware query execution over the shards of one or
// more *parts*: ShardedIndexes side by side in one id space (IndexPart,
// ids must not overlap). Every shard of every non-empty part is a column
// of the grid below, so a part boundary is just a shard boundary to the
// cost model, the floors and the merge. LiveDatabase's search runs so.
//
// The engine flattens a batch of queries into one (shard × query-span)
// work grid and executes it by batch reservation on the TaskPool: every
// participant — the calling thread plus any idle workers — claims spans
// off a single atomic counter (TaskPool::run_spans) until the grid is
// exhausted. No per-query task, no per-cell closure, no future fan-in;
// one completion latch ends the batch. Per-shard bounded top-k lists land
// in disjoint slots of a reused partial-results arena and merge into the
// global ranking by the one shared ordering (index::ranks_better), which
// keeps every execution mode — scalar, batched, any shard count ≥ 1,
// inline or pooled — bit-identical to the single-shard index and to the
// brute-force scan: same ids, same scores, same ascending-id tie-break.
//
// Whether a batch fans out at all is a cost-model decision, not a flat
// document cutoff: the model weighs total scoring work against the fixed
// cost of waking workers plus per-span reservation overhead, and fans out
// only when the projected parallel time wins. Each shard is priced at the
// kernel it will actually run — kAuto and kMaxScore resolve per shard via
// index::InvertedIndex::resolve_auto, exactly as the cells do — so a shard
// below the pruning crossover costs its full document count, and only a
// shard that really prunes gets the pruned discount. The fixed cost of a
// fan-out is calibrated in the same document units (~2k documents, see
// query_engine.cpp). Small work inlines on the caller, where the grid runs
// shard-major (every query against shard 0, then shard 1, …) so a shard's
// term metadata stays hot across the whole batch. The chosen branch is
// visible per batch in QueryStats and cumulatively in the
// fmeter_query_dispatch_inline_total / _pooled_total counters.
//
// Cross-shard threshold seeding applies to *both* modes and is the one
// piece of per-query shared state: a relaxed atomic score floor holding
// the worst score of the best full top-k observed so far across shards.
// kMaxScore seeds each shard's pruning threshold from it; kExact uses it
// to drop shard-local also-rans scoring strictly below it before they
// touch the heap (provably below the global k-th best — see the seed
// contract on InvertedIndex::top_k; merged results are unchanged). The
// exact kernel does not depend on the floor to be cheap: once its own
// heap holds k hits it raises its divide-free pre-test to the heap's
// worst score, so shards that start together — every shard of a pooled
// batch — skip most divides and heap offers without waiting on each
// other. The floor is a monotonic hint — a stale read only costs pruning
// opportunity, never correctness — so relaxed loads and a CAS-max
// suffice; the hot path takes no lock.
//
// The engine itself is a stateless view: callers build one per search, as
// every database front-end does. All scratch lives with threads, in one
// thread_local arena each: a span scores in the scratch of the thread that
// claimed it (pool worker or caller), and the calling thread's arena also
// holds the batch's floor array, partial-results grid and per-span stats
// slots. So the steady state allocates nothing on the dispatch side however
// many engines come and go. Buffer growth events are counted process-wide
// in dispatch_allocations() so tests can pin the steady state to zero.
// (Hit lists are fresh per query: each shard's, and the merged ones handed
// back to the caller.)
//
// Degenerate inputs are handled before any dispatch: k == 0 and
// empty/all-zero queries return empty hit lists without touching the pool
// or any shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "exec/sharded_index.hpp"
#include "exec/task_pool.hpp"
#include "index/cancel.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::exec {

using index::CancelToken;
using index::Deadline;
using index::outcome_name;
using index::PruneStats;
using index::PruningMode;
using index::QueryOutcome;

/// Per-call (or accumulated) execution counters: the index layer's pruning
/// counters plus the scheduler's own observability — which dispatch branch
/// each query took, how much of the work grid was reserved, and how many
/// pool workers joined in — plus the robustness outcome tallies (how many
/// queries were cut short, degraded or refused).
struct QueryStats : index::PruneStats {
  std::uint64_t dispatch_inline = 0;  ///< queries executed on the caller
  std::uint64_t dispatch_pooled = 0;  ///< queries fanned out over the pool
  std::uint64_t spans_reserved = 0;   ///< grid spans claimed via fetch_add
  std::uint64_t tasks_executed = 0;   ///< pool workers that joined the grid
  std::uint64_t deadline_exceeded = 0;  ///< queries stopped by their deadline
  std::uint64_t cancelled = 0;          ///< queries stopped by a CancelToken
  std::uint64_t shard_failed = 0;     ///< queries degraded by a throwing shard
  std::uint64_t rejected = 0;  ///< queries refused by admission control
  /// Non-kOk queries that still returned hits from at least one completed
  /// shard — the flagged-partial-result count (kRejected never counts: a
  /// rejected query ran nowhere).
  std::uint64_t partial_results = 0;

  QueryStats& operator+=(const QueryStats& other) noexcept {
    index::PruneStats::operator+=(other);
    dispatch_inline += other.dispatch_inline;
    dispatch_pooled += other.dispatch_pooled;
    spans_reserved += other.spans_reserved;
    tasks_executed += other.tasks_executed;
    deadline_exceeded += other.deadline_exceeded;
    cancelled += other.cancelled;
    shard_failed += other.shard_failed;
    rejected += other.rejected;
    partial_results += other.partial_results;
    return *this;
  }
};

/// Per-batch execution controls for run()/run_batch(). Default-constructed
/// it changes nothing: no deadline is polled, no outcome vector is filled,
/// and the batch behaves exactly as before this struct existed.
struct RunOptions {
  /// Budget for the whole batch (all queries share it — the batch is one
  /// work grid). Inactive by default. Attach a CancelToken via
  /// Deadline::with_token()/of_token() to cancel mid-batch from another
  /// thread; expiry or cancellation stops the grid cooperatively and every
  /// unfinished query degrades to a flagged partial result.
  Deadline deadline{};
  /// When non-null, resized to the batch size and filled with one
  /// QueryOutcome per query (input-aligned). Ineligible (empty) queries
  /// report kOk with their defined empty result. When null, shard
  /// failures rethrow after the batch completes (the pre-taxonomy
  /// contract); deadline/cancel outcomes are still visible in QueryStats.
  std::vector<QueryOutcome>* outcomes = nullptr;
  /// Deterministic fault injection for the robustness test matrix, in the
  /// spirit of io::FaultInjectingEnv: when set, called at the top of every
  /// (query, shard) cell with the *input* query index and the shard; any
  /// exception it throws is handled exactly like that shard throwing —
  /// per-cell isolation, kShardFailed, flagged partial. Shards count over
  /// the non-empty parts in order (LiveDatabase: the base's, then one per
  /// segment, oldest first). Null in production.
  std::function<void(std::size_t query, std::size_t shard)>
      inject_cell_fault{};
};

/// Part document global_of(s, l) is run document first_id + global_of(s, l).
struct IndexPart {
  const ShardedIndex* index = nullptr;
  std::size_t first_id = 0;
};

class QueryEngine {
 public:
  /// Binds the engine to an index and a pool. With `pool == nullptr` the
  /// process-wide TaskPool::shared() is used — resolved lazily at the first
  /// dispatch that actually needs workers, so inline-only workloads (small
  /// indexes, single-shard scalar lookups) never spawn a thread. The engine
  /// is a view — it owns neither; both must outlive it. Building one costs
  /// a list of the shards and nothing else.
  explicit QueryEngine(const ShardedIndex& index, TaskPool* pool = nullptr);
  /// Binds the engine to several parts; empty ones contribute no shards.
  /// The parts' indexes must outlive the engine, the span need not.
  explicit QueryEngine(std::span<const IndexPart> parts,
                       TaskPool* pool = nullptr);
  /// The bound pool; materializes TaskPool::shared() if none was given.
  TaskPool& pool() const { return pool_ ? *pool_ : TaskPool::shared(); }

  /// Top-k for one query — exactly run_batch() on a batch of one.
  /// `stats`, when given, accumulates prune and scheduler counters over
  /// every shard the query touched.
  std::vector<IndexHit> run(const vsm::SparseVector& query, std::size_t k,
                            Metric metric = Metric::kCosine,
                            PruningMode mode = PruningMode::kExact,
                            QueryStats* stats = nullptr,
                            const RunOptions& options = {}) const;

  /// Executes every query and returns one hit list per query, aligned with
  /// the input. The batch becomes one (shard × query-span) grid; the cost
  /// model picks inline or pooled batch-reservation execution.
  ///
  /// Failure model (see RunOptions): each (query, shard) cell is isolated.
  /// A throwing shard degrades its query to a flagged partial (remaining
  /// shards still merge); an expired deadline or tripped CancelToken stops
  /// the whole grid cooperatively — completed cells keep their hits,
  /// unfinished queries report kDeadlineExceeded/kCancelled. The engine
  /// and every thread's scratch remain fully usable after any of these.
  std::vector<std::vector<IndexHit>> run_batch(
      std::span<const vsm::SparseVector> queries, std::size_t k,
      Metric metric = Metric::kCosine,
      PruningMode mode = PruningMode::kExact, QueryStats* stats = nullptr,
      const RunOptions& options = {}) const;

  /// Same, over non-owning pointers — for callers whose queries are not
  /// contiguous (e.g. embedded in larger structs), sparing a deep copy.
  /// Pointers must be non-null.
  std::vector<std::vector<IndexHit>> run_batch(
      std::span<const vsm::SparseVector* const> queries, std::size_t k,
      Metric metric = Metric::kCosine,
      PruningMode mode = PruningMode::kExact, QueryStats* stats = nullptr,
      const RunOptions& options = {}) const;

  /// Estimated execution cost of one query, in the dispatch cost model's
  /// scored-document units: the per-cell scoring estimate times the shard
  /// count plus the posting entries this particular query's terms touch
  /// (the term that makes an adversarially dense query expensive). This is
  /// the same model the inline-vs-pooled decision uses, exposed so
  /// SignatureDatabase's admission control can cap per-query cost with the
  /// numbers the scheduler already trusts.
  static double estimated_query_cost(const ShardedIndex& index,
                                     const vsm::SparseVector& query,
                                     std::size_t k, Metric metric,
                                     PruningMode mode);

  /// Process-wide dispatch-side buffer growth events (floor array,
  /// partial-results grid, span stats slots, eligible list) over every
  /// engine and calling thread. Flat across repeated same-shape batches
  /// from one thread, fresh engines included — the zero-steady-state-
  /// allocation property the tests assert.
  static std::uint64_t dispatch_allocations() noexcept;

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

 private:
  /// One grid column: a part's shard; its local id l is run id offset+l·stride.
  struct Shard {
    const index::InvertedIndex* index;
    ShardedIndex::DocId offset;
    ShardedIndex::DocId stride;
  };

  std::vector<Shard> shards_;  ///< every shard of every non-empty part
  TaskPool* pool_;
};

}  // namespace fmeter::exec
