// Labeled signature database (paper §2.2).
//
// "We envision an environment in which an operator has access to a database
// of labeled low-level system signatures describing many instances of normal
// and abnormal behavior." The database stores tf-idf signatures with string
// labels, answers similarity queries (cosine or L2), maintains per-label
// syndrome centroids, classifies unknown signatures by nearest syndrome, and
// supports the paper's recursive meta-clustering of syndromes.
//
// Queries execute through the parallel query engine (exec::QueryEngine) over
// a sharded inverted index (exec::ShardedIndex) — the paper's "indexable
// like text documents" claim made concrete and spread across cores. Scalar
// lookups are batches of one; search_batch() amortizes per-worker
// accumulator state across many queries.
//
// Every signature is stored once: ids [0, index()->size()) only in the
// index's forward store, later ones in a list of scalar adds not indexed
// yet. The index is an immutable exec::ShardedIndex behind a shared_ptr.
// add() only appends to that list; add_batch() and every index reader
// (indexed search, the admission cost cap, save(), index(),
// publish_gauges()) first index it: one ShardedIndex::appended build whose
// result replaces the pointer. N scalar adds therefore cost one build, paid
// by the first indexed read, and brute-force scans never build at all.
// Queries run on a pinned index with no lock held, so a query never waits
// for a build and a build never changes what a running query reads.
// The original brute-force linear scan is retained as a per-query ScanPolicy
// fallback and as the golden reference the engine is tested against; all
// paths produce identical hits (ids, labels, ordering, and bit-identical
// scores) for every shard count.
//
// Degenerate queries are defined uniformly across paths: k == 0 or an
// all-zero/empty query returns no hits, and no shard is dispatched.
//
// LabeledIndex is the database's immutable half on its own: an index and
// its labels, built once, never locked. It is what a snapshot file holds
// (SignatureDatabase::save/load write and read through it) and what the
// live archive's base and ladder segments are (fmeter/live_database.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "exec/query_engine.hpp"
#include "exec/sharded_index.hpp"
#include "io/env.hpp"
#include "ml/kmeans.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::core {

enum class SimilarityMetric { kCosine, kEuclidean };

inline index::Metric to_index_metric(SimilarityMetric metric) noexcept {
  return metric == SimilarityMetric::kCosine ? index::Metric::kCosine
                                             : index::Metric::kEuclidean;
}

/// How a query is executed. kIndexed runs the sharded inverted index through
/// the query engine (default); kBruteForce runs the original linear scan
/// over every stored signature.
enum class ScanPolicy { kIndexed, kBruteForce };

/// How an indexed query scores documents. kExact (default) runs the dense
/// scoring pass whose hits are bit-identical to the brute-force scan —
/// every golden guarantee in the test suite rides on it. kMaxScore prunes
/// documents whose score upper bound cannot reach the running top-k
/// threshold (per-term max-weight bounds + per-doc partial-mass bounds +
/// per-block metadata, seeded across shards): the same documents in the
/// same order, scores equal within 1e-9. kAuto picks exact or pruned per
/// shard from the measured size crossover — the recommended default for
/// callers that do not care which engine runs.
/// Ignored under ScanPolicy::kBruteForce.
using index::PruningMode;

/// Aggregated observability counters for the indexed paths: the index
/// layer's pruning counters plus the engine's scheduler counters (inline
/// vs. pooled dispatch, grid spans reserved, workers joined) and the
/// robustness outcome tallies (deadline_exceeded, cancelled, rejected,
/// shard_failed, partial_results, checkpoint_polls).
using QueryStats = exec::QueryStats;

/// Robustness vocabulary, re-exported from the engine: the per-query
/// outcome taxonomy, the cooperative deadline/cancellation types, and the
/// per-call options (deadline + outcome sink) accepted by search paths.
using exec::CancelToken;
using exec::Deadline;
using exec::outcome_name;
using exec::QueryOutcome;
using SearchOptions = exec::RunOptions;

/// Admission control for the search front door — the knobs that keep an
/// overloaded or adversarial workload from taking the whole database down
/// with it. Both default to 0 = unlimited, which preserves the historical
/// behavior exactly.
struct AdmissionOptions {
  /// Upper bound on queries concurrently inside search()/search_batch().
  /// A batch is admitted whole or rejected whole (every query reports
  /// QueryOutcome::kRejected and gets an empty hit list — reject-on-
  /// overload, never queueing). A batch larger than the budget can never
  /// be admitted.
  std::size_t max_inflight_queries = 0;
  /// Per-query cost ceiling in the dispatch cost model's scored-document
  /// units (exec::QueryEngine::estimated_query_cost). Queries estimated
  /// above it are individually rejected before touching a shard; the rest
  /// of the batch executes normally.
  double max_query_cost_docs = 0.0;
};

struct SearchHit {
  std::size_t id = 0;      ///< database entry id
  std::string label;
  double score = 0.0;      ///< cosine similarity or negative L2 distance
};

struct Syndrome {
  std::string label;
  vsm::SparseVector centroid;   ///< mean signature of the label
  std::size_t support = 0;      ///< number of member signatures
};

/// The default shard count of a database or live archive base:
/// min(hardware threads, 8).
std::size_t default_num_shards() noexcept;

/// Labeled signatures as one immutable value: document id i is
/// index.document(i), labelled labels[i]. Never mutated once built, so it
/// is shared by shared_ptr<const LabeledIndex> and read with no lock.
struct LabeledIndex {
  exec::ShardedIndex index;
  std::vector<std::string> labels;

  /// A new value holding these documents followed by `docs` and `labels`,
  /// built by exec::ShardedIndex::appended at this index's shard count —
  /// equal to a bulk build of all of them, byte for byte. Copies the
  /// forward store and the labels; `docs` are read during the call only.
  /// The build is one obs::Stage::kIngest span. std::invalid_argument when
  /// the counts differ or a weight is not finite (nothing built).
  LabeledIndex appended(std::span<const vsm::SparseView> docs,
                        std::vector<std::string> labels) const;

  /// Writes the snapshot file (format: index/snapshot.hpp): every shard's
  /// sections plus the labels section, committed atomically through `env`.
  /// The bytes depend only on the documents, the labels and the shard
  /// count. Throws index::snapshot::SnapshotError on I/O failure.
  void save(io::Env& env, const std::string& path) const;

  /// Restores a snapshot file: the file is mapped and checksummed on the
  /// shared pool, the labels decoded and checked against the header, then
  /// the shards adopt their sections in place (ShardedIndex::load; one
  /// obs::Stage::kIngest span). The result holds the mapping: the file must
  /// not be truncated or rewritten in place meanwhile (unlinking is fine).
  /// Throws index::snapshot::SnapshotError on any corruption.
  static LabeledIndex load(io::Env& env, const std::string& path);
};

class SignatureDatabase {
 public:
  /// Shards the index across default_num_shards() partitions.
  SignatureDatabase() : SignatureDatabase(default_num_shards()) {}
  /// Explicit shard count (clamped to ≥ 1). Results are independent of the
  /// shard count — only query parallelism changes.
  explicit SignatureDatabase(std::size_t num_shards)
      : index_(std::make_shared<const exec::ShardedIndex>(num_shards)) {}

  // Copyable and movable despite the locks: each instance owns fresh
  // mutexes. A copy shares the source's index (immutable) and any built
  // syndrome cache, and copies the labels and pending adds under the
  // source's reader side — O(labels), not O(archive), and a consistent
  // point-in-time snapshot even mid-ingest. Moves require external
  // synchronization, like any moved-from object.
  //
  // Thread safety: ingest (add/add_batch) may run concurrently with
  // searches, classifies, accessors, stats scrapes and save(). Writers
  // hold the store lock's writer side while they append or swap in a new
  // index; readers pin the index and read labels under its reader side,
  // so queries see a consistent pre- or post-batch database, never a
  // half-appended one.
  SignatureDatabase(const SignatureDatabase& other);
  SignatureDatabase(SignatureDatabase&& other) noexcept;
  SignatureDatabase& operator=(SignatureDatabase other) noexcept;

  /// Inserts a signature; returns its id. Signatures are expected to be
  /// tf-idf weight vectors (typically L2-normalised). Validated like
  /// add_batch (std::invalid_argument on a non-finite weight, database
  /// unchanged), then appended to the pending list *without* indexing it —
  /// the next index reader indexes it (see the header comment).
  /// Invalidates the syndrome cache.
  std::size_t add(vsm::SparseVector signature, std::string label);

  /// Bulk load: appends every (signature, label) pair — same ids and same
  /// query results as add() in a loop — and indexes every not yet indexed
  /// signature with one build, fanned out onto the task pool
  /// (exec::ShardedIndex::appended). Returns the id of the first inserted
  /// signature.
  ///
  /// Strong guarantee: mismatched signature/label counts and malformed
  /// signatures (any non-finite weight, which would poison norms, per-term
  /// bounds and every score they back) throw std::invalid_argument naming
  /// the offending document before any mutation; a failure during the
  /// index build (an allocation giving out) throws before the new index is
  /// swapped in, and the batch is taken back out. The database stays
  /// unchanged and fully usable either way.
  std::size_t add_batch(std::vector<vsm::SparseVector> signatures,
                        std::vector<std::string> labels);

  /// add_batch's validation tier, callable on its own: throws
  /// std::invalid_argument for mismatched counts or any non-finite weight,
  /// touches nothing. LiveDatabase runs this *before* journaling a
  /// batch, so a record that reaches the journal is guaranteed to replay
  /// cleanly on recovery.
  static void validate_batch(const std::vector<vsm::SparseVector>& signatures,
                             const std::vector<std::string>& labels);

  std::size_t size() const {
    const std::shared_lock<std::shared_mutex> lock(store_mutex_);
    return labels_.size();
  }
  bool empty() const { return size() == 0; }

  /// Copies of signature and label `id`; std::out_of_range past size().
  vsm::SparseVector signature(std::size_t id) const;
  std::string label(std::size_t id) const {
    const std::shared_lock<std::shared_mutex> lock(store_mutex_);
    return labels_.at(id);
  }

  std::vector<std::string> distinct_labels() const;

  /// Top-k most similar stored signatures. Cosine hits carry the similarity
  /// in [−1, 1]; Euclidean hits carry -distance so that larger is better in
  /// both metrics. Equal-score hits order by ascending id under either
  /// policy, so indexed and scanned results compare bit-for-bit under the
  /// default PruningMode::kExact; PruningMode::kMaxScore returns the same
  /// hits in the same order with scores equal within 1e-9. k == 0 and the
  /// empty query return no hits. `stats`, when given, accumulates the
  /// docs-scored / docs-pruned / postings-visited counters of the indexed
  /// path (the scan leaves them untouched).
  /// `options` adds the robustness contract: options.deadline bounds the
  /// indexed path cooperatively (the brute-force scan, a debugging
  /// fallback, does not poll it) and options.outcomes receives one
  /// QueryOutcome per query. Admission control (set_admission) applies to
  /// every policy.
  std::vector<SearchHit> search(const vsm::SparseVector& query, std::size_t k,
                                SimilarityMetric metric =
                                    SimilarityMetric::kCosine,
                                ScanPolicy policy = ScanPolicy::kIndexed,
                                PruningMode mode = PruningMode::kExact,
                                QueryStats* stats = nullptr,
                                const SearchOptions& options = {}) const;

  /// Batched search: one hit list per query, aligned with the input —
  /// element i equals search(queries[i], ...) bit-for-bit, but the indexed
  /// path executes the whole batch through the query engine, amortizing
  /// per-worker accumulators across queries and running shards in parallel
  /// (under kMaxScore, later shards also inherit earlier shards' top-k
  /// threshold floor).
  std::vector<std::vector<SearchHit>> search_batch(
      std::span<const vsm::SparseVector> queries, std::size_t k,
      SimilarityMetric metric = SimilarityMetric::kCosine,
      ScanPolicy policy = ScanPolicy::kIndexed,
      PruningMode mode = PruningMode::kExact, QueryStats* stats = nullptr,
      const SearchOptions& options = {}) const;

  /// Same, over non-owning pointers — for query sets that are not stored
  /// contiguously (e.g. RetrievalQuery structs), sparing a deep copy.
  /// Pointers must be non-null.
  std::vector<std::vector<SearchHit>> search_batch(
      std::span<const vsm::SparseVector* const> queries, std::size_t k,
      SimilarityMetric metric = SimilarityMetric::kCosine,
      ScanPolicy policy = ScanPolicy::kIndexed,
      PruningMode mode = PruningMode::kExact, QueryStats* stats = nullptr,
      const SearchOptions& options = {}) const;

  /// Installs the admission-control budget for subsequent searches. Not
  /// synchronized against concurrent searches — configure at setup time,
  /// like the shard count. Admission state is per-instance: copies and
  /// moved-to databases inherit the knobs but start with zero in-flight.
  void set_admission(const AdmissionOptions& options) noexcept {
    admission_ = options;
  }
  const AdmissionOptions& admission() const noexcept { return admission_; }

  /// Queries currently inside search()/search_batch() — only tracked while
  /// max_inflight_queries is set (0 otherwise).
  std::size_t inflight_queries() const noexcept {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// Per-label centroid syndromes ("the centroid of a cluster of signatures
  /// can then be used as a syndrome", §2.2). Cached; recomputed only after
  /// new signatures arrive.
  std::vector<Syndrome> syndromes() const;

  /// Label of the syndrome closest to `query` (empty string on an empty
  /// database). The majority-vote alternative to a trained classifier.
  /// Served by the query engine over a small index of the syndrome
  /// centroids; ties resolve to the first-seen label, exactly like the scan.
  std::string classify_by_syndrome(const vsm::SparseVector& query,
                                   SimilarityMetric metric =
                                       SimilarityMetric::kCosine,
                                   ScanPolicy policy = ScanPolicy::kIndexed,
                                   PruningMode mode =
                                       PruningMode::kExact) const;

  /// Meta-clustering (paper §2.2/§6): clusters the per-label syndromes into
  /// `k` groups, revealing which whole classes of behavior are similar.
  /// Returns, per syndrome, its meta-cluster index, aligned with syndromes().
  std::vector<std::size_t> meta_cluster(std::size_t k,
                                        std::uint64_t seed = 0x5eedULL) const;

  /// Persists the whole database — every shard's forward store and
  /// posting arena plus the labels — as one versioned, checksummed binary
  /// snapshot (format: index/snapshot.hpp), committed *atomically* to
  /// `path` through an io::Env: write-temp → fsync → rename → fsync-dir,
  /// so a crash or I/O failure at any point leaves the previous file
  /// contents intact, never a torn snapshot. The forward store is the only
  /// copy of the signatures, in RAM and on disk. Writes exactly the bytes
  /// LabeledIndex::save writes for the same documents and labels. Throws
  /// index::snapshot::SnapshotError on I/O failure (carrying the errno
  /// text when the OS supplied one). The path-only form uses Env::posix().
  void save(const std::string& path) const;
  void save(io::Env& env, const std::string& path) const;

  /// Restores a database from the snapshot at `path` without re-indexing
  /// the corpus (LabeledIndex::load). The database holds the mapping until
  /// its index is dropped: the file must not be truncated or rewritten in
  /// place meanwhile (unlinking it is fine). The loaded database is
  /// byte-for-byte the database a fresh bulk build of the same documents
  /// would produce — searches in every mode (kExact/kMaxScore/kAuto), at
  /// the snapshot's shard count, return bit-identical results. Strong
  /// guarantee: any index::snapshot::SnapshotError leaves the current
  /// contents untouched and usable. The path-only form uses Env::posix().
  void load(const std::string& path);
  void load(io::Env& env, const std::string& path);

  /// The sharded index backing search() (introspection / stats), with
  /// every pending signature indexed first. The pointer pins it: later
  /// ingest swaps in a new index and leaves this one as it is.
  std::shared_ptr<const exec::ShardedIndex> index() const;
  std::size_t num_shards() const {
    const std::shared_lock<std::shared_mutex> lock(store_mutex_);
    return index_->num_shards();
  }

  /// Publishes the current index shape into the global metrics registry as
  /// gauges (fmeter_index_documents, _terms, _shards, _memory_bytes), after
  /// indexing every pending signature. Point-in-time, not a collector:
  /// databases are value types that move and copy freely, so nothing may
  /// hold a callback into one. Call before MetricsRegistry::scrape() for
  /// fresh values.
  void publish_gauges() const;

 private:
  struct SyndromeCache {
    std::vector<Syndrome> syndromes;
    exec::ShardedIndex centroid_index;  // single shard: a handful of docs
  };

  /// Builds (or returns) the cached syndromes + centroid index. The lazy
  /// build is mutex-guarded and the result is an immutable shared
  /// snapshot: callers keep their shared_ptr pinned while ingest
  /// invalidates the cache for the *next* classify, so a classify racing
  /// add_batch reads a complete (possibly one-batch-stale) cache, never a
  /// destroyed one.
  std::shared_ptr<const SyndromeCache> syndrome_cache() const;

  /// Indexes every pending signature (one ShardedIndex::appended build and
  /// pointer swap under the store writer lock), releases the pending list
  /// and returns the current index, pinned. Takes only the store's reader
  /// side when nothing is pending.
  std::shared_ptr<const exec::ShardedIndex> sync_index() const;
  /// sync_index()'s build and swap, for a caller holding store_mutex_'s
  /// writer side. Strong guarantee: on failure the index and the pending
  /// list are unchanged.
  void index_pending_locked() const;

  /// Signature `id` (< size()) as a view: the index's forward-store run
  /// when indexed, the pending entry otherwise. The caller holds either
  /// side of store_mutex_, which keeps the view valid.
  vsm::SparseView document_locked(std::size_t id) const;

  /// distinct_labels() body, for callers already holding store_mutex_
  /// (shared_mutex acquisition is not recursive).
  std::vector<std::string> distinct_labels_locked() const;

  std::vector<SearchHit> search_scan(const vsm::SparseVector& query,
                                     std::size_t k,
                                     SimilarityMetric metric) const;

  std::string classify_scan(const vsm::SparseVector& query,
                            SimilarityMetric metric,
                            const SyndromeCache& cache) const;

  /// Guards labels_, pending_ and the index_ pointer. Writers (add,
  /// add_batch, sync_index) hold it exclusively across the append or the
  /// build and swap; readers (index pins, label fill-in after a query,
  /// brute-force scans, the syndrome build, save, copies, accessors) hold
  /// the shared side, which keeps their forward-store views valid. Lock
  /// order where nesting occurs: syndrome_mutex_ → store_mutex_.
  mutable std::shared_mutex store_mutex_;
  std::vector<std::string> labels_;
  /// Ids [index_->size(), labels_.size()), not indexed yet. Mutable, like
  /// index_, because const readers move them into the index (sync_index),
  /// always under store_mutex_'s writer side.
  mutable std::vector<vsm::SparseVector> pending_;
  /// Never null outside a moved-from database. Replaced, never mutated, so
  /// a pinned copy stays valid and unchanged.
  mutable std::shared_ptr<const exec::ShardedIndex> index_;
  AdmissionOptions admission_{};
  /// Queries currently being served; bounded by the admission budget. Not
  /// copied/moved — a fresh instance starts with nothing in flight.
  mutable std::atomic<std::size_t> inflight_{0};
  mutable std::mutex syndrome_mutex_;
  mutable std::shared_ptr<const SyndromeCache> syndrome_cache_;
};

}  // namespace fmeter::core
