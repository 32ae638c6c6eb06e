#include "exec/query_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fmeter::exec {
namespace {

// --- Dispatch cost model -------------------------------------------------
//
// All quantities are in "scored document" units: one unit ≈ the cost of
// scoring one stored document against one query in the exact pass. The
// model is deliberately coarse — it only has to separate "microseconds of
// work, dispatch would dominate" from "milliseconds of work, workers pay
// for themselves", not predict runtimes. It must, however, price the
// kernel that will run: every shard is resolved with the same rule the
// cells use (resolve_mode), so the dispatch gate and admission control
// (estimated_query_cost) both see the work that actually happens.

/// Fixed price of fanning out: listing the batch, waking workers, and the
/// completion latch. On a 4-vCPU Xeon VM a pooled batch of near-zero work
/// costs 20-25 µs more than running it inline, and the exact pass scores
/// ~100 documents per µs (a 10k-document shard in ~100 µs), so the
/// overhead is ~2k documents. At 8192 the gate kept a 10k-document archive
/// split into 2-8 shards inline for a single query, although pooling it
/// measured 1.1-1.9x faster than one shard (1.1x with two cores). On an
/// AVX-512F host the exact pass scores ~120-160 documents per µs at 25k
/// (scalar: ~85-130 in the same runs), which would put the overhead near
/// 3k documents; the pooled overhead itself has not been re-measured, so
/// the price stays.
constexpr double kDispatchOverheadDocs = 2048.0;

/// Marginal price per grid span: the reservation fetch_add plus the cache
/// misses of a participant switching to a new (shard, query-block) cell.
constexpr double kSpanOverheadDocs = 64.0;

/// Resolves the effective scoring path for one shard. kAuto picks per
/// shard from the measured size crossover, and the engine treats kMaxScore
/// the same way: below the crossover the bound bookkeeping is a guaranteed
/// loss, and by the pruning contract the exact kernel returns the same
/// documents in the same order (bit-identical, even), so routing small
/// shards to it changes nothing but the speed. Forced pruning stays
/// available at the index layer (InvertedIndex::top_k_pruned directly).
PruningMode resolve_mode(const index::InvertedIndex& shard, std::size_t k,
                         Metric metric, PruningMode mode) {
  if (mode == PruningMode::kExact) return mode;
  return index::InvertedIndex::resolve_auto(shard.size(), k, metric);
}

/// Estimated scoring work for one query on one shard, priced at the kernel
/// resolve_mode() will actually run on it. The exact pass touches every
/// document in the shard. The pruned pass bounds its probes by the
/// threshold: its cost scales with k (bootstrap + candidate verification)
/// plus a small fraction of the shard it still streams through. A query's
/// estimate is the sum over every shard it runs on.
double estimated_shard_docs(const index::InvertedIndex& shard, std::size_t k,
                            Metric metric, PruningMode mode) {
  const auto docs = static_cast<double>(shard.size());
  return resolve_mode(shard, k, metric, mode) == PruningMode::kExact
             ? docs
             : std::min(docs, 32.0 * static_cast<double>(k) + docs / 8.0);
}

/// Scores one query against one shard, mapping hits to the run's ids.
/// `floor` points at the query's cross-shard score floor — a known lower
/// bound on the query's global k-th best score (kNoSeed until some shard
/// produced a full k). Concurrent participants touch it through
/// std::atomic_ref with relaxed order: it is a monotonic performance hint,
/// not a synchronization point — a stale read prunes less, never wrong.
/// kMaxScore seeds the shard's pruning threshold from it; kExact passes it
/// as the heap seed so shard-local also-rans below the global floor skip
/// the heap (results unchanged — see InvertedIndex::top_k). Afterwards a
/// full top-k raises the floor to its k-th score: the global k-th best can
/// only rank at or above any shard's k-th best.
std::vector<IndexHit> shard_hits(const index::InvertedIndex& shard,
                                 ShardedIndex::DocId offset,
                                 ShardedIndex::DocId stride,
                                 const vsm::SparseVector& query, std::size_t k,
                                 Metric metric, PruningMode mode,
                                 index::TopKScratch& scratch, double* floor,
                                 PruneStats* stats,
                                 const index::Deadline* deadline) {
  const obs::StageSpan probe_span(obs::Stage::kShardProbe);
  std::vector<IndexHit> hits;
  mode = resolve_mode(shard, k, metric, mode);
  const double seed =
      floor != nullptr
          ? std::atomic_ref<double>(*floor).load(std::memory_order_relaxed)
          : index::InvertedIndex::kNoSeed;
  if (mode == PruningMode::kMaxScore) {
    hits = shard.top_k_pruned(query, k, metric, &scratch, seed, stats,
                              deadline);
  } else {
    hits = shard.top_k(query, k, metric, &scratch, seed, stats, deadline);
  }
  // A full top-k's k-th score is a valid floor for every other shard
  // whichever path produced it — under kAuto, exact shards feed the
  // pruning shards' thresholds for free.
  if (floor != nullptr && hits.size() == k) {
    std::atomic_ref<double> ref(*floor);
    double current = ref.load(std::memory_order_relaxed);
    const double kth = hits.back().score;
    while (kth > current &&
           !ref.compare_exchange_weak(current, kth, std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
    }
  }
  for (auto& hit : hits) hit.doc = offset + hit.doc * stride;
  return hits;
}

/// Merges one query's per-shard top-k lists (a contiguous slice of the
/// partial grid) into the global top-k, consuming the inputs. Each list is
/// already ordered by (score desc, global id asc) and doc ids are globally
/// unique, so one sort over ≤ shards·k hits reproduces exactly the ranking
/// a single-shard index would emit. Pruned shards may contribute fewer
/// than k hits; everything they dropped is provably below the global k-th
/// best, so the merged prefix is unchanged.
std::vector<IndexHit> merge_shard_hits(std::span<std::vector<IndexHit>> lists,
                                       std::size_t k) {
  if (lists.size() == 1) {
    return std::move(lists.front());  // already global order, already ≤ k
  }
  std::vector<IndexHit> merged;
  std::size_t total = 0;
  for (const auto& list : lists) total += list.size();
  merged.reserve(total);
  for (auto& list : lists) {
    merged.insert(merged.end(), list.begin(), list.end());
    list.clear();  // keep the grid slot's capacity for the next batch
  }
  std::sort(merged.begin(), merged.end(), index::ranks_better);
  if (merged.size() > k) merged.resize(k);
  return merged;
}

/// Per-thread engine state, reused across batches and engines so the
/// steady state allocates nothing (growth is counted in
/// dispatch_growth). `scratch` scores every span this thread runs, whoever
/// dispatched it: a pool worker runs one span at a time, so its scratch is
/// never contended. The rest is the dispatch state of the batches this
/// thread calls run_batch for; one instance per thread keeps concurrent
/// callers — and a pool worker re-entering the engine from inside a task —
/// fully independent.
struct ThreadArena {
  index::TopKScratch scratch;
  std::vector<std::size_t> eligible;           ///< query indices to execute
  std::vector<double> floors;                  ///< per-eligible score floor
  std::vector<std::vector<IndexHit>> partial;  ///< (query × shard) hit grid
  std::vector<QueryStats> span_stats;          ///< disjoint per-span counters
  std::vector<std::uint8_t> cell_state;        ///< per-cell completion fate

  /// Sizes `v` for this batch, counting capacity growth into `grown`.
  template <typename T>
  void fit(std::vector<T>& v, std::size_t n, std::uint64_t& grown) {
    if (v.capacity() < n) ++grown;
    v.resize(n);
  }
};

thread_local ThreadArena tls_arena;

/// QueryEngine::dispatch_allocations(): growth of any thread's dispatch
/// buffers, added once per batch.
std::atomic<std::uint64_t> dispatch_growth{0};

// Fate of one (query, shard) grid cell. Participants write only the cells
// they claimed (adjacent bytes are distinct memory locations — no data
// race), and the caller reads them after the batch latch.
constexpr std::uint8_t kCellPending = 0;  ///< never ran: grid stopped first
constexpr std::uint8_t kCellDone = 1;     ///< hits landed in the partial grid
constexpr std::uint8_t kCellFailed = 2;   ///< shard threw; cell isolated
constexpr std::uint8_t kCellSkipped = 3;  ///< abandoned at a checkpoint

// --- Registry wiring -----------------------------------------------------
//
// The engine always collects a per-batch QueryStats (whether or not the
// caller asked for one) and folds it into these process-wide metrics after
// every batch. Handles are resolved once; the per-batch cost is a handful
// of relaxed fetch_adds — scrape-side merging pays the rest.

struct EngineMetrics {
  obs::Counter* batches;
  obs::Counter* queries;
  obs::Counter* dispatch_inline;
  obs::Counter* dispatch_pooled;
  obs::Counter* spans_reserved;
  obs::Counter* docs_scored;
  obs::Counter* docs_pruned;
  obs::Counter* postings_visited;
  obs::Counter* blocks_skipped;
  obs::Counter* deadline_exceeded;
  obs::Counter* cancelled;
  obs::Counter* shard_failed;
  obs::Counter* partial_results;
  obs::Counter* checkpoint_polls;
  obs::Histogram* batch_ns;
  obs::Histogram* query_ns;
  obs::Histogram* deadline_hit_ns;
};

const EngineMetrics& engine_metrics() {
  static const EngineMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    EngineMetrics m;
    m.batches = &r.counter("fmeter_query_batches_total",
                           "run_batch calls that reached a shard");
    m.queries = &r.counter("fmeter_query_queries_total",
                           "Eligible (non-empty) queries executed");
    m.dispatch_inline = &r.counter(
        "fmeter_query_dispatch_inline_total",
        "Queries the cost model kept on the calling thread");
    m.dispatch_pooled = &r.counter(
        "fmeter_query_dispatch_pooled_total",
        "Queries fanned out over the task pool");
    m.spans_reserved = &r.counter("fmeter_query_spans_reserved_total",
                                  "Grid spans claimed via batch reservation");
    m.docs_scored = &r.counter("fmeter_query_docs_scored_total",
                               "Documents fully scored across all shards");
    m.docs_pruned = &r.counter("fmeter_query_docs_pruned_total",
                               "Documents skipped by threshold pruning");
    m.postings_visited = &r.counter("fmeter_query_postings_visited_total",
                                    "Posting entries touched");
    m.blocks_skipped = &r.counter("fmeter_query_blocks_skipped_total",
                                  "Block-max posting blocks skipped whole");
    m.deadline_exceeded =
        &r.counter("fmeter_query_deadline_exceeded_total",
                   "Queries stopped cooperatively by an expired deadline");
    m.cancelled = &r.counter("fmeter_query_cancelled_total",
                             "Queries stopped by a tripped CancelToken");
    m.shard_failed =
        &r.counter("fmeter_query_shard_failed_total",
                    "Queries degraded because a shard threw mid-batch");
    m.partial_results = &r.counter(
        "fmeter_query_partial_results_total",
        "Cut-short queries that still returned hits from completed shards");
    m.checkpoint_polls =
        &r.counter("fmeter_query_checkpoint_polls_total",
                   "Cooperative deadline checkpoints polled inside kernels");
    m.batch_ns = &r.histogram("fmeter_query_batch_ns",
                              "Wall time of one run_batch call");
    m.query_ns = &r.histogram(
        "fmeter_query_per_query_ns",
        "Batch wall time amortized per eligible query (one record per batch)");
    m.deadline_hit_ns = &r.histogram(
        "fmeter_query_deadline_hit_ns",
        "Wall time of run_batch calls that hit their deadline — how late the "
        "cooperative stop actually fired relative to the budget");
    return m;
  }();
  return metrics;
}

void publish_batch(const QueryStats& stats, std::uint64_t batch_ns,
                   std::size_t n_queries) {
  const EngineMetrics& m = engine_metrics();
  m.batches->inc();
  m.queries->inc(n_queries);
  m.dispatch_inline->inc(stats.dispatch_inline);
  m.dispatch_pooled->inc(stats.dispatch_pooled);
  m.spans_reserved->inc(stats.spans_reserved);
  m.docs_scored->inc(stats.docs_scored);
  m.docs_pruned->inc(stats.docs_pruned);
  m.postings_visited->inc(stats.postings_visited);
  m.blocks_skipped->inc(stats.blocks_skipped);
  m.deadline_exceeded->inc(stats.deadline_exceeded);
  m.cancelled->inc(stats.cancelled);
  m.shard_failed->inc(stats.shard_failed);
  m.partial_results->inc(stats.partial_results);
  m.checkpoint_polls->inc(stats.checkpoint_polls);
  m.batch_ns->record(batch_ns);
  if (n_queries > 0) m.query_ns->record(batch_ns / n_queries);
  if (stats.deadline_exceeded > 0) m.deadline_hit_ns->record(batch_ns);
}

}  // namespace

QueryEngine::QueryEngine(const ShardedIndex& index, TaskPool* pool)
    : QueryEngine(std::array{IndexPart{&index, 0}}, pool) {}

QueryEngine::QueryEngine(std::span<const IndexPart> parts, TaskPool* pool)
    : pool_(pool) {
  for (const IndexPart& part : parts) {
    if (part.index->empty()) continue;
    const auto n = static_cast<ShardedIndex::DocId>(part.index->num_shards());
    const auto first = static_cast<ShardedIndex::DocId>(part.first_id);
    for (ShardedIndex::DocId s = 0; s < n; ++s) {
      shards_.push_back({&part.index->shard(s), first + s, n});
    }
  }
}

std::uint64_t QueryEngine::dispatch_allocations() noexcept {
  return dispatch_growth.load(std::memory_order_relaxed);
}

std::vector<IndexHit> QueryEngine::run(const vsm::SparseVector& query,
                                       std::size_t k, Metric metric,
                                       PruningMode mode, QueryStats* stats,
                                       const RunOptions& options) const {
  auto results = run_batch({&query, 1}, k, metric, mode, stats, options);
  return std::move(results.front());
}

std::vector<std::vector<IndexHit>> QueryEngine::run_batch(
    std::span<const vsm::SparseVector> queries, std::size_t k, Metric metric,
    PruningMode mode, QueryStats* stats, const RunOptions& options) const {
  std::vector<const vsm::SparseVector*> pointers;
  pointers.reserve(queries.size());
  for (const auto& query : queries) pointers.push_back(&query);
  return run_batch(std::span<const vsm::SparseVector* const>(pointers), k,
                   metric, mode, stats, options);
}

double QueryEngine::estimated_query_cost(const ShardedIndex& index,
                                         const vsm::SparseVector& query,
                                         std::size_t k, Metric metric,
                                         PruningMode mode) {
  if (index.empty() || query.empty()) return 0.0;
  // The grid term the dispatch decision already uses, plus this query's own
  // posting footprint — the part a shape-blind estimate misses, and exactly
  // what makes an adversarially dense query expensive.
  double cost = 0.0;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    const index::InvertedIndex& shard = index.shard(s);
    cost += estimated_shard_docs(shard, k, metric, mode) +
            static_cast<double>(shard.num_postings_for(query));
  }
  return cost;
}

std::vector<std::vector<IndexHit>> QueryEngine::run_batch(
    std::span<const vsm::SparseVector* const> queries, std::size_t k,
    Metric metric, PruningMode mode, QueryStats* stats,
    const RunOptions& options) const {
  std::vector<std::vector<IndexHit>> results(queries.size());
  if (options.outcomes != nullptr) {
    options.outcomes->assign(queries.size(), QueryOutcome::kOk);
  }
  if (k == 0 || shards_.empty()) return results;

  const obs::Stopwatch batch_watch;
  // Collected whether or not the caller asked: the registry is always on.
  QueryStats batch_stats;

  ThreadArena& arena = tls_arena;
  std::uint64_t grown = 0;

  // k = 0 was handled above; empty/all-zero queries resolve to "no hits"
  // here, so only eligible queries reach a shard or the pool.
  if (arena.eligible.capacity() < queries.size()) ++grown;
  arena.eligible.clear();
  arena.eligible.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!queries[i]->empty()) arena.eligible.push_back(i);
  }
  const std::size_t n_eligible = arena.eligible.size();
  if (n_eligible == 0) {
    dispatch_growth.fetch_add(grown, std::memory_order_relaxed);
    return results;
  }

  const std::size_t shards = shards_.size();
  const std::size_t cells = n_eligible * shards;

  // One score floor per eligible query, shared across its shards (all
  // modes — kExact uses it as a heap seed, kMaxScore as a threshold seed).
  arena.fit(arena.floors, n_eligible, grown);
  std::fill(arena.floors.begin(), arena.floors.end(),
            index::InvertedIndex::kNoSeed);

  // partial[e * shards + s] = shard s's top-k for eligible query e.
  // Participants write disjoint slots, so the only synchronization is the
  // batch latch (the floors above are deliberately racy-by-design).
  arena.fit(arena.partial, cells, grown);
  // cell_state[e * shards + s] records each cell's fate; the deadline/stop
  // machinery and outcome resolution key off it. Same disjoint-slot rule.
  arena.fit(arena.cell_state, cells, grown);
  std::fill(arena.cell_state.begin(), arena.cell_state.end(), kCellPending);

  // Batch-wide robustness state. `stop` trips at most once per batch (an
  // expired deadline or a cancel) and parks the grid's reservation counter;
  // `interrupt_reason` remembers which of the two it was. Cells that throw
  // for any other reason are isolated per-cell: the first such exception is
  // latched here and, for callers that did not opt into the outcome
  // taxonomy, rethrown after the batch so the legacy contract holds.
  const index::Deadline* deadline =
      options.deadline.active() ? &options.deadline : nullptr;
  std::atomic<bool> stop{false};
  std::atomic<std::uint8_t> interrupt_reason{
      static_cast<std::uint8_t>(QueryOutcome::kOk)};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  // Executes one (shard s, eligible-query e) cell with full isolation:
  // success marks the cell done, a cooperative interrupt stops the whole
  // grid, any other exception degrades just this cell. The partial slot of
  // every non-done cell is cleared so stale hits from an earlier batch can
  // never leak into this merge.
  const auto run_cell = [&](std::size_t s, std::size_t e,
                            index::TopKScratch& scratch, PruneStats* st) {
    const std::size_t slot = e * shards + s;
    if (stop.load(std::memory_order_relaxed)) {
      arena.partial[slot].clear();
      arena.cell_state[slot] = kCellSkipped;
      return;
    }
    try {
      if (options.inject_cell_fault) {
        options.inject_cell_fault(arena.eligible[e], s);
      }
      const Shard& shard = shards_[s];
      arena.partial[slot] = shard_hits(
          *shard.index, shard.offset, shard.stride, *queries[arena.eligible[e]],
          k, metric, mode, scratch, &arena.floors[e], st, deadline);
      arena.cell_state[slot] = kCellDone;
    } catch (const index::QueryInterrupted& interrupted) {
      arena.partial[slot].clear();
      arena.cell_state[slot] = kCellSkipped;
      // First reason wins: concurrent cells hitting the same expiry (or a
      // near-simultaneous cancel) all describe one stop event.
      std::uint8_t expected = static_cast<std::uint8_t>(QueryOutcome::kOk);
      interrupt_reason.compare_exchange_strong(
          expected, static_cast<std::uint8_t>(interrupted.outcome()),
          std::memory_order_relaxed, std::memory_order_relaxed);
      stop.store(true, std::memory_order_relaxed);
    } catch (...) {
      arena.partial[slot].clear();
      arena.cell_state[slot] = kCellFailed;
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  // Walks the finished grid: clears the slots of cells that never
  // completed (pending cells still hold a prior batch's hits), assigns
  // each query its outcome, and tallies the robustness counters. Runs
  // after the batch latch, so every cell_state write is visible.
  const auto resolve_outcomes = [&] {
    const auto interrupted = static_cast<QueryOutcome>(
        interrupt_reason.load(std::memory_order_relaxed));
    for (std::size_t e = 0; e < n_eligible; ++e) {
      bool incomplete = false;
      bool failed = false;
      bool completed_any = false;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t slot = e * shards + s;
        switch (arena.cell_state[slot]) {
          case kCellDone:
            completed_any = true;
            break;
          case kCellFailed:
            failed = true;
            break;
          default:  // pending or skipped: the grid stopped before this cell
            incomplete = true;
            arena.partial[slot].clear();
            break;
        }
      }
      QueryOutcome outcome = QueryOutcome::kOk;
      if (incomplete) {
        // Pending/skipped cells only exist when the grid stopped, and the
        // grid only stops with a reason; kShardFailed is the defensive
        // fallback, never the expected path.
        outcome = interrupted != QueryOutcome::kOk ? interrupted
                                                   : QueryOutcome::kShardFailed;
      } else if (failed) {
        outcome = QueryOutcome::kShardFailed;
      }
      if (outcome == QueryOutcome::kOk) continue;
      switch (outcome) {
        case QueryOutcome::kDeadlineExceeded:
          ++batch_stats.deadline_exceeded;
          break;
        case QueryOutcome::kCancelled:
          ++batch_stats.cancelled;
          break;
        default:
          ++batch_stats.shard_failed;
          break;
      }
      if (completed_any) ++batch_stats.partial_results;
      if (options.outcomes != nullptr) {
        (*options.outcomes)[arena.eligible[e]] = outcome;
      }
    }
  };

  const auto merge_into_results = [&] {
    const obs::StageSpan merge_span(obs::Stage::kMerge);
    for (std::size_t e = 0; e < n_eligible; ++e) {
      results[arena.eligible[e]] = merge_shard_hits(
          std::span<std::vector<IndexHit>>(arena.partial)
              .subspan(e * shards, shards),
          k);
    }
  };

  const auto finish_batch = [&] {
    resolve_outcomes();
    merge_into_results();
    if (stats != nullptr) *stats += batch_stats;
    publish_batch(batch_stats, batch_watch.elapsed_ns(), n_eligible);
    if (first_error && options.outcomes == nullptr) {
      std::rethrow_exception(first_error);
    }
  };

  // Inline on the caller's thread when parallelism has nothing to win.
  // The grid runs shard-major — all queries against shard 0, then shard 1
  // — so each shard's term metadata stays hot across the batch. No
  // cross-cell software prefetch: the exact walk already issues its own
  // upfront prefetch pass over short posting spans, and measurements
  // showed an engine-side warm-ahead on top of it was pure instruction
  // overhead (batch-1 multi-shard lost ~20% to it). Per query, shards
  // still run in ascending order, so floor hand-off is deterministic.
  const auto run_inline = [&]() -> std::vector<std::vector<IndexHit>> {
    obs::StageTracer::global().record(obs::Stage::kDispatch,
                                      batch_watch.elapsed_ns());
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const std::size_t s = cell / n_eligible;
      const std::size_t e = cell % n_eligible;
      run_cell(s, e, arena.scratch, &batch_stats);
    }
    batch_stats.dispatch_inline += n_eligible;
    dispatch_growth.fetch_add(grown, std::memory_order_relaxed);
    finish_batch();
    return std::move(results);
  };

  // Cost model: fan out only when the projected parallel time beats the
  // caller doing everything itself. The work-independent quick gate comes
  // first so inline-only workloads never materialize the shared pool (a
  // pooled win needs total_work > overhead / (1 - 1/participants), i.e.
  // at least twice the dispatch overhead).
  double query_docs = 0.0;
  for (const Shard& shard : shards_) {
    query_docs += estimated_shard_docs(*shard.index, k, metric, mode);
  }
  const double total_work = query_docs * static_cast<double>(n_eligible);
  if (total_work <= 2.0 * kDispatchOverheadDocs) return run_inline();
  TaskPool& pool = this->pool();
  if (pool.size() <= 1 || pool.current_thread_is_worker()) {
    return run_inline();
  }

  // Carve the eligible queries into spans so the grid (shards × q_spans)
  // keeps every participant busy a few times over without spans so small
  // that reservation traffic dominates.
  const std::size_t participants = pool.size() + 1;
  const std::size_t q_spans = std::clamp<std::size_t>(
      (4 * participants + shards - 1) / shards, 1, n_eligible);
  const std::size_t spans = shards * q_spans;
  const std::size_t span_len = (n_eligible + q_spans - 1) / q_spans;

  const double pooled_cost =
      kDispatchOverheadDocs +
      total_work /
          static_cast<double>(std::min<std::size_t>(participants, spans)) +
      kSpanOverheadDocs * static_cast<double>(spans);
  if (pooled_cost >= total_work) return run_inline();

  // Sized unconditionally: the registry consumes per-span counters even
  // when the caller passed no stats sink.
  arena.fit(arena.span_stats, spans, grown);
  std::fill(arena.span_stats.begin(), arena.span_stats.end(), QueryStats{});

  // Span s·q_spans+b = shard s × query block b: consecutive span ids share
  // a shard, so a participant claiming contiguous spans off the counter
  // walks the grid shard-major, same as the inline path. Each span scores
  // in the scratch of the thread running it (tls_arena resolves per
  // thread), while `arena` stays the caller's.
  // run_cell never lets an exception escape, so TaskPool's first-wins
  // error latch can't trigger and abandon healthy cells — isolation and
  // the cooperative stop below are the only ways a cell goes unexecuted.
  const auto span_fn = [&](std::size_t span) {
    const std::size_t s = span / q_spans;
    const std::size_t begin = (span % q_spans) * span_len;
    const std::size_t end = std::min(begin + span_len, n_eligible);
    index::TopKScratch& scratch = tls_arena.scratch;
    PruneStats* span_stats = &arena.span_stats[span];
    for (std::size_t e = begin; e < end; ++e) {
      run_cell(s, e, scratch, span_stats);
    }
  };
  obs::StageTracer::global().record(obs::Stage::kDispatch,
                                    batch_watch.elapsed_ns());
  // By reference: the closure outgrows std::function's inline buffer, and
  // a copy would cost a heap allocation per pooled batch.
  const std::size_t joined = pool.run_spans(spans, std::ref(span_fn), &stop);

  for (const auto& span : arena.span_stats) batch_stats += span;
  batch_stats.dispatch_pooled += n_eligible;
  batch_stats.spans_reserved += spans;
  batch_stats.tasks_executed += joined;
  dispatch_growth.fetch_add(grown, std::memory_order_relaxed);
  finish_batch();
  return results;
}

}  // namespace fmeter::exec
