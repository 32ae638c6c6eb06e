#include "fmeter/database.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <thread>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fmeter::core {
namespace {

/// Database-level metric handles, resolved once. Search/classify latency is
/// recorded here at call granularity; the engine beneath adds per-stage
/// spans and per-batch counters of its own.
struct DbMetrics {
  obs::Counter* searches;
  obs::Counter* classifies;
  obs::Counter* docs_ingested;
  obs::Counter* rejected;
  obs::Histogram* search_ns;
  obs::Histogram* classify_ns;
};

const DbMetrics& db_metrics() {
  static const DbMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    DbMetrics m;
    m.searches = &r.counter("fmeter_db_searches_total",
                            "Queries answered by search/search_batch");
    m.classifies = &r.counter("fmeter_db_classifies_total",
                              "classify_by_syndrome calls");
    m.docs_ingested = &r.counter("fmeter_db_documents_ingested_total",
                                 "Signatures added via add/add_batch");
    m.rejected = &r.counter(
        "fmeter_db_queries_rejected_total",
        "Queries refused by admission control (overload or cost cap)");
    m.search_ns = &r.histogram("fmeter_db_search_batch_ns",
                               "Wall time of one search_batch call");
    m.classify_ns = &r.histogram("fmeter_db_classify_ns",
                                 "Wall time of one classify_by_syndrome call");
    return m;
  }();
  return metrics;
}

/// The labels section of a snapshot: u64 count, then { u32 length, bytes }
/// per label, in id order. Labels are the only state the index's forward
/// store does not already hold (the signature vectors are its exact
/// contents).
std::vector<std::byte> encode_labels(std::span<const std::string> labels) {
  std::size_t bytes = sizeof(std::uint64_t);
  for (const auto& label : labels) {
    bytes += sizeof(std::uint32_t) + label.size();
  }
  std::vector<std::byte> payload(bytes);
  std::size_t at = 0;
  const auto put = [&payload, &at](const void* data, std::size_t size) {
    std::memcpy(payload.data() + at, data, size);
    at += size;
  };
  const std::uint64_t count = labels.size();
  put(&count, sizeof(count));
  for (const auto& label : labels) {
    const auto length = static_cast<std::uint32_t>(label.size());
    put(&length, sizeof(length));
    put(label.data(), label.size());
  }
  return payload;
}

/// Writes `index` plus an encoded labels section as one snapshot file.
void write_snapshot(const exec::ShardedIndex& index,
                    std::span<const std::byte> labels, io::Env& env,
                    const std::string& path) {
  index::snapshot::Writer writer(
      static_cast<std::uint32_t>(index.num_shards()), index.size(),
      index.num_terms());
  index.save(writer);
  writer.add_section(index::snapshot::SectionKind::kLabels, 0, labels);
  writer.finish(env, path);
}

/// Decodes the labels section; its count must agree with the header.
std::vector<std::string> decode_labels(index::snapshot::Reader& reader) {
  using index::snapshot::SnapshotError;
  const auto label_bytes =
      reader.take_section<std::byte>(index::snapshot::SectionKind::kLabels,
                                     0);
  std::size_t at = 0;
  const auto take = [&label_bytes, &at](void* into, std::size_t size) {
    if (at + size > label_bytes.size()) {
      throw SnapshotError("snapshot: labels section ends mid-record");
    }
    std::memcpy(into, label_bytes.data() + at, size);
    at += size;
  };
  std::uint64_t count = 0;
  take(&count, sizeof(count));
  if (count != reader.doc_count()) {
    throw SnapshotError("snapshot: labels section holds " +
                        std::to_string(count) + " labels for " +
                        std::to_string(reader.doc_count()) + " documents");
  }
  std::vector<std::string> labels;
  labels.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t length = 0;
    take(&length, sizeof(length));
    std::string label(length, '\0');
    take(label.data(), length);
    labels.push_back(std::move(label));
  }
  if (at != label_bytes.size()) {
    throw SnapshotError("snapshot: labels section has trailing bytes");
  }
  return labels;
}

/// The validate_batch rule for one signature: a non-finite weight would
/// poison norms, per-term bounds and every score they back.
bool all_finite(const vsm::SparseVector& signature) noexcept {
  for (const double value : signature.values()) {
    if (!std::isfinite(value)) return false;
  }
  return true;
}

/// RAII in-flight reservation for one search_batch call: admit-or-reject
/// at construction (never queue), release on scope exit. With no limit
/// configured the counter is untouched — the unlimited path stays free.
class InflightGuard {
 public:
  InflightGuard(std::atomic<std::size_t>& inflight, std::size_t limit,
                std::size_t queries) noexcept
      : inflight_(inflight), queries_(queries) {
    if (limit == 0) return;
    // Optimistic reserve-then-check keeps admit atomic without a CAS loop:
    // a racing over-reservation is backed out before anyone is served on
    // its strength, so the budget holds (transient overshoot of the raw
    // counter only ever causes spurious rejection, never over-admission).
    const std::size_t before =
        inflight_.fetch_add(queries_, std::memory_order_acq_rel);
    if (before + queries_ > limit) {
      inflight_.fetch_sub(queries_, std::memory_order_acq_rel);
      admitted_ = false;
    } else {
      tracked_ = true;
    }
  }
  ~InflightGuard() {
    if (tracked_) inflight_.fetch_sub(queries_, std::memory_order_acq_rel);
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

  bool admitted() const noexcept { return admitted_; }

 private:
  std::atomic<std::size_t>& inflight_;
  std::size_t queries_;
  bool admitted_ = true;
  bool tracked_ = false;
};

}  // namespace

std::size_t default_num_shards() noexcept {
  // One shard per hardware thread pays off until shard bookkeeping starts
  // to rival per-shard work; 8 is plenty for the archive sizes we serve.
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 8);
}

LabeledIndex LabeledIndex::appended(std::span<const vsm::SparseView> docs,
                                    std::vector<std::string> labels) const {
  if (docs.size() != labels.size()) {
    throw std::invalid_argument("appended: signatures and labels must align");
  }
  LabeledIndex out;
  {
    const obs::StageSpan ingest_span(obs::Stage::kIngest);
    out.index = index.appended(docs);
  }
  out.labels.reserve(this->labels.size() + labels.size());
  out.labels.insert(out.labels.end(), this->labels.begin(),
                    this->labels.end());
  out.labels.insert(out.labels.end(), std::make_move_iterator(labels.begin()),
                    std::make_move_iterator(labels.end()));
  return out;
}

void LabeledIndex::save(io::Env& env, const std::string& path) const {
  write_snapshot(index, encode_labels(labels), env, path);
}

LabeledIndex LabeledIndex::load(io::Env& env, const std::string& path) {
  // Two phases on the shared pool: read and verify every section, then
  // build the shards from them. The labels come first: their count must
  // agree with the header before any heavy decoding starts.
  index::snapshot::Reader reader =
      exec::ShardedIndex::read_snapshot(env, path);
  LabeledIndex out;
  out.labels = decode_labels(reader);
  // One parallel build per shard straight from its sections — byte-for-
  // byte the index a bulk build of the same documents produces.
  const obs::StageSpan ingest_span(obs::Stage::kIngest);
  out.index = exec::ShardedIndex::load(reader);
  return out;
}

SignatureDatabase::SignatureDatabase(const SignatureDatabase& other)
    : admission_(other.admission_) {
  // inflight_ deliberately starts at 0: in-flight queries belong to the
  // instance serving them, not to the data. The index is immutable, so the
  // copy shares it.
  {
    const std::shared_lock<std::shared_mutex> store(other.store_mutex_);
    labels_ = other.labels_;
    pending_ = other.pending_;
    index_ = other.index_;
  }
  // Taken after the store lock is released, so the syndrome_mutex_ →
  // store_mutex_ lock order cannot invert. The cache is an immutable
  // snapshot; sharing the pointer is as good as a deep copy.
  const std::lock_guard<std::mutex> lock(other.syndrome_mutex_);
  syndrome_cache_ = other.syndrome_cache_;
}

SignatureDatabase::SignatureDatabase(SignatureDatabase&& other) noexcept
    : labels_(std::move(other.labels_)),
      pending_(std::move(other.pending_)),
      index_(std::move(other.index_)),
      admission_(other.admission_),
      syndrome_cache_(std::move(other.syndrome_cache_)) {}

SignatureDatabase& SignatureDatabase::operator=(
    SignatureDatabase other) noexcept {
  labels_ = std::move(other.labels_);
  pending_ = std::move(other.pending_);
  index_ = std::move(other.index_);
  admission_ = other.admission_;
  syndrome_cache_ = std::move(other.syndrome_cache_);
  return *this;
}

std::size_t SignatureDatabase::add(vsm::SparseVector signature,
                                   std::string label) {
  if (!all_finite(signature)) {
    throw std::invalid_argument(
        "add: signature carries a non-finite weight; rejected before any "
        "mutation");
  }
  std::size_t id = 0;
  {
    // Transactional: the two containers must stay aligned even if an
    // allocation throws mid-add, or every later entry would pair with the
    // wrong label. The index is left alone (see sync_index).
    const std::unique_lock<std::shared_mutex> store(store_mutex_);
    labels_.push_back(std::move(label));
    try {
      pending_.push_back(std::move(signature));
    } catch (...) {
      labels_.pop_back();
      throw;
    }
    id = labels_.size() - 1;
  }
  // Invalidate *after* the append is visible: a classify racing this add
  // that rebuilt the cache from the pre-append store would otherwise
  // install a stale cache with no reset left to clear it.
  {
    const std::lock_guard<std::mutex> lock(syndrome_mutex_);
    syndrome_cache_.reset();
  }
  db_metrics().docs_ingested->inc();
  return id;
}

void SignatureDatabase::validate_batch(
    const std::vector<vsm::SparseVector>& signatures,
    const std::vector<std::string>& labels) {
  if (signatures.size() != labels.size()) {
    throw std::invalid_argument(
        "add_batch: signatures and labels must align");
  }
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    if (!all_finite(signatures[i])) {
      throw std::invalid_argument(
          "add_batch: signature " + std::to_string(i) +
          " carries a non-finite weight; rejecting the batch before any "
          "mutation");
    }
  }
}

std::size_t SignatureDatabase::add_batch(
    std::vector<vsm::SparseVector> signatures, std::vector<std::string> labels) {
  // Validate the whole batch before touching any member: a rejected batch
  // must leave the database exactly as it was, still usable.
  validate_batch(signatures, labels);
  const std::size_t appended = signatures.size();
  std::size_t first = 0;
  {
    const std::unique_lock<std::shared_mutex> store(store_mutex_);
    first = labels_.size();
    const std::size_t pending_before = pending_.size();
    // Both reservations before either append: the moves below cannot
    // throw, so the two containers stay aligned.
    labels_.reserve(first + labels.size());
    pending_.reserve(pending_before + signatures.size());
    pending_.insert(pending_.end(), std::make_move_iterator(signatures.begin()),
                    std::make_move_iterator(signatures.end()));
    labels_.insert(labels_.end(), std::make_move_iterator(labels.begin()),
                   std::make_move_iterator(labels.end()));
    // Index this batch together with any scalar adds before it: one build.
    // The index build is strong, so undoing the appends restores the
    // database exactly.
    try {
      index_pending_locked();
    } catch (...) {
      pending_.resize(pending_before);
      labels_.resize(first);
      throw;
    }
  }
  // Invalidate after the append is visible — see add() for why.
  {
    const std::lock_guard<std::mutex> lock(syndrome_mutex_);
    syndrome_cache_.reset();
  }
  db_metrics().docs_ingested->inc(appended);
  return first;
}

std::shared_ptr<const exec::ShardedIndex> SignatureDatabase::sync_index()
    const {
  {
    const std::shared_lock<std::shared_mutex> store(store_mutex_);
    if (pending_.empty()) return index_;
  }
  const std::unique_lock<std::shared_mutex> store(store_mutex_);
  index_pending_locked();  // a no-op if another reader caught up first
  return index_;
}

void SignatureDatabase::index_pending_locked() const {
  if (pending_.empty()) return;
  const obs::StageSpan ingest_span(obs::Stage::kIngest);
  // Built aside; readers holding the old index keep it as it was.
  index_ = std::make_shared<const exec::ShardedIndex>(
      index_->appended(std::span<const vsm::SparseVector>(pending_)));
  // The forward store now holds the only copy; release the capacity too.
  std::vector<vsm::SparseVector>().swap(pending_);
}

vsm::SparseView SignatureDatabase::document_locked(std::size_t id) const {
  const std::size_t indexed = index_->size();
  if (id < indexed) {
    return index_->document(static_cast<exec::ShardedIndex::DocId>(id));
  }
  return pending_[id - indexed];
}

vsm::SparseVector SignatureDatabase::signature(std::size_t id) const {
  const std::shared_lock<std::shared_mutex> store(store_mutex_);
  if (id >= labels_.size()) {
    throw std::out_of_range("SignatureDatabase::signature: id out of range");
  }
  return vsm::SparseVector(document_locked(id));
}

std::shared_ptr<const exec::ShardedIndex> SignatureDatabase::index() const {
  return sync_index();
}

std::vector<std::string> SignatureDatabase::distinct_labels() const {
  const std::shared_lock<std::shared_mutex> store(store_mutex_);
  return distinct_labels_locked();
}

std::vector<std::string> SignatureDatabase::distinct_labels_locked() const {
  std::vector<std::string> out;
  for (const auto& label : labels_) {
    if (std::find(out.begin(), out.end(), label) == out.end()) {
      out.push_back(label);
    }
  }
  return out;
}

std::vector<SearchHit> SignatureDatabase::search(
    const vsm::SparseVector& query, std::size_t k, SimilarityMetric metric,
    ScanPolicy policy, PruningMode mode, QueryStats* stats,
    const SearchOptions& options) const {
  auto results =
      search_batch({&query, 1}, k, metric, policy, mode, stats, options);
  return std::move(results.front());
}

std::vector<std::vector<SearchHit>> SignatureDatabase::search_batch(
    std::span<const vsm::SparseVector> queries, std::size_t k,
    SimilarityMetric metric, ScanPolicy policy, PruningMode mode,
    QueryStats* stats, const SearchOptions& options) const {
  std::vector<const vsm::SparseVector*> pointers;
  pointers.reserve(queries.size());
  for (const auto& query : queries) pointers.push_back(&query);
  return search_batch(std::span<const vsm::SparseVector* const>(pointers), k,
                      metric, policy, mode, stats, options);
}

std::vector<std::vector<SearchHit>> SignatureDatabase::search_batch(
    std::span<const vsm::SparseVector* const> queries, std::size_t k,
    SimilarityMetric metric, ScanPolicy policy, PruningMode mode,
    QueryStats* stats, const SearchOptions& options) const {
  const DbMetrics& metrics = db_metrics();
  const obs::Stopwatch watch;
  metrics.searches->inc(queries.size());
  if (options.outcomes != nullptr) {
    options.outcomes->assign(queries.size(), QueryOutcome::kOk);
  }

  // Admission front door, gate 1: the in-flight budget. A batch is admitted
  // whole or rejected whole — rejection is an answer (empty hits, outcome
  // kRejected), not an exception, and costs no shard work.
  const InflightGuard inflight(inflight_, admission_.max_inflight_queries,
                               queries.size());
  if (!inflight.admitted()) {
    metrics.rejected->inc(queries.size());
    if (stats != nullptr) stats->rejected += queries.size();
    if (options.outcomes != nullptr) {
      std::fill(options.outcomes->begin(), options.outcomes->end(),
                QueryOutcome::kRejected);
    }
    watch.record(*metrics.search_ns);
    return std::vector<std::vector<SearchHit>>(queries.size());
  }

  // The indexed path and the cost cap need every document indexed; the
  // brute-force scan reads the pending list as it is and must never pay
  // for a build. The pin keeps this batch's index intact while a
  // concurrent ingest swaps in the next one.
  std::shared_ptr<const exec::ShardedIndex> pinned;
  if (policy == ScanPolicy::kIndexed || admission_.max_query_cost_docs > 0.0) {
    pinned = sync_index();
  }

  // Gate 2: the per-query cost cap. A too-expensive query is swapped for
  // the empty query — which every execution path already defines as "no
  // hits, touch nothing" — so the batch keeps its shape and alignment, and
  // the rejection is stamped over the outcome afterwards.
  static const vsm::SparseVector kEmptyQuery{};
  std::vector<const vsm::SparseVector*> admitted;
  std::vector<std::size_t> cost_rejected;
  std::span<const vsm::SparseVector* const> effective = queries;
  if (admission_.max_query_cost_docs > 0.0) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const double cost = exec::QueryEngine::estimated_query_cost(
          *pinned, *queries[i], k, to_index_metric(metric), mode);
      if (cost <= admission_.max_query_cost_docs) continue;
      if (admitted.empty()) {
        admitted.assign(queries.begin(), queries.end());
      }
      admitted[i] = &kEmptyQuery;
      cost_rejected.push_back(i);
    }
    if (!cost_rejected.empty()) {
      effective = admitted;
      metrics.rejected->inc(cost_rejected.size());
      if (stats != nullptr) stats->rejected += cost_rejected.size();
    }
  }
  const auto stamp_rejections = [&] {
    if (options.outcomes == nullptr) return;
    for (const std::size_t i : cost_rejected) {
      (*options.outcomes)[i] = QueryOutcome::kRejected;
    }
  };

  if (policy == ScanPolicy::kBruteForce) {
    std::vector<std::vector<SearchHit>> results;
    results.reserve(effective.size());
    for (const auto* query : effective) {
      results.push_back(search_scan(*query, k, metric));
    }
    stamp_rejections();
    watch.record(*metrics.search_ns);
    return results;
  }
  const exec::QueryEngine engine(*pinned);
  const auto batch = engine.run_batch(effective, k, to_index_metric(metric),
                                      mode, stats, options);
  stamp_rejections();
  std::vector<std::vector<SearchHit>> results(batch.size());
  // The label fill-in needs the store's reader side: a concurrent add_batch
  // may be reallocating labels_. Every doc id the engine returned already
  // has its label (labels are appended before any build), so the lookup
  // itself cannot go out of bounds.
  std::shared_lock<std::shared_mutex> store(store_mutex_);
  for (std::size_t q = 0; q < batch.size(); ++q) {
    results[q].reserve(batch[q].size());
    for (const auto& hit : batch[q]) {
      results[q].push_back({hit.doc, labels_[hit.doc], hit.score});
    }
  }
  store.unlock();
  watch.record(*metrics.search_ns);
  return results;
}

std::vector<SearchHit> SignatureDatabase::search_scan(
    const vsm::SparseVector& query, std::size_t k,
    SimilarityMetric metric) const {
  // Same degenerate-query contract as the engine: no hits for k == 0 or an
  // all-zero/empty query.
  if (k == 0 || query.empty()) return {};
  const std::shared_lock<std::shared_mutex> store(store_mutex_);
  // Score every document where it lies — one sequential sweep of each
  // shard's forward store, then the pending list — rank, and fetch labels
  // for the top k only. The ranking does not depend on the visit order.
  std::vector<index::IndexHit> scored;
  scored.reserve(labels_.size());
  const auto score = [&](std::size_t id, vsm::SparseView doc) {
    scored.push_back({static_cast<index::InvertedIndex::DocId>(id),
                      metric == SimilarityMetric::kCosine
                          ? vsm::cosine_similarity(query, doc)
                          : -vsm::euclidean_distance(query, doc)});
  };
  for (std::size_t s = 0; s < index_->num_shards(); ++s) {
    index_->shard(s).for_each_document([&](auto local, vsm::SparseView doc) {
      score(index_->global_of(s, local), doc);
    });
  }
  const std::size_t indexed = index_->size();
  for (std::size_t id = indexed; id < labels_.size(); ++id) {
    score(id, pending_[id - indexed]);
  }
  const std::size_t top = std::min(k, scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(top),
                    scored.end(), index::ranks_better);
  std::vector<SearchHit> hits(top);
  for (std::size_t r = 0; r < top; ++r) {
    hits[r].id = scored[r].doc;
    hits[r].label = labels_[scored[r].doc];
    hits[r].score = scored[r].score;
  }
  return hits;
}

std::shared_ptr<const SignatureDatabase::SyndromeCache>
SignatureDatabase::syndrome_cache() const {
  const std::lock_guard<std::mutex> lock(syndrome_mutex_);
  if (syndrome_cache_ != nullptr) return syndrome_cache_;

  auto cache = std::make_shared<SyndromeCache>();
  {
    // Nested acquisition order: syndrome_mutex_ → store_mutex_ (shared).
    // Writers take the store lock without the cache mutex, so the order
    // cannot invert.
    const std::shared_lock<std::shared_mutex> store(store_mutex_);
    // One pass over the documents in id order, each folded into its
    // label's running sum: per label, the same sums in the same order as
    // a scan per label. Labels keep their first-appearance order.
    std::unordered_map<std::string_view, std::size_t> slot_of;
    std::vector<vsm::SparseVector> sums;
    for (std::size_t id = 0; id < labels_.size(); ++id) {
      const auto [it, added] =
          slot_of.try_emplace(labels_[id], cache->syndromes.size());
      if (added) {
        cache->syndromes.push_back(Syndrome{labels_[id], {}, 0});
        sums.emplace_back();
      }
      sums[it->second] = sums[it->second].plus(document_locked(id));
      ++cache->syndromes[it->second].support;
    }
    for (std::size_t s = 0; s < sums.size(); ++s) {
      Syndrome& syndrome = cache->syndromes[s];
      syndrome.centroid =
          sums[s].scaled(1.0 / static_cast<double>(syndrome.support));
    }
  }
  std::vector<vsm::SparseView> centroids;
  for (const auto& syndrome : cache->syndromes) {
    centroids.push_back(syndrome.centroid);
  }
  cache->centroid_index = exec::ShardedIndex().appended(centroids);
  syndrome_cache_ = std::move(cache);
  return syndrome_cache_;
}

std::vector<Syndrome> SignatureDatabase::syndromes() const {
  return syndrome_cache()->syndromes;
}

std::string SignatureDatabase::classify_scan(
    const vsm::SparseVector& query, SimilarityMetric metric,
    const SyndromeCache& cache) const {
  std::string best_label;
  double best_score = -std::numeric_limits<double>::max();
  for (const auto& syndrome : cache.syndromes) {
    const double score =
        metric == SimilarityMetric::kCosine
            ? vsm::cosine_similarity(query, syndrome.centroid)
            : -vsm::euclidean_distance(query, syndrome.centroid);
    if (score > best_score) {
      best_score = score;
      best_label = syndrome.label;
    }
  }
  return best_label;
}

std::string SignatureDatabase::classify_by_syndrome(
    const vsm::SparseVector& query, SimilarityMetric metric, ScanPolicy policy,
    PruningMode mode) const {
  const DbMetrics& metrics = db_metrics();
  const obs::Stopwatch watch;
  metrics.classifies->inc();
  // Pinning the shared_ptr keeps this classify's cache alive even if a
  // concurrent ingest invalidates it mid-call.
  const auto cache = syndrome_cache();
  std::string label;
  // The engine defines the empty query as "no hits", but classification of
  // a zero signature still has an answer (the scan's: score 0 cosine / the
  // smallest-norm centroid), so the empty query takes the scan in both
  // policies — keeping them in agreement.
  if (policy == ScanPolicy::kBruteForce || query.empty()) {
    label = classify_scan(query, metric, *cache);
  } else {
    // Nearest centroid via the engine (batch of one); the ascending-id
    // tie-break picks the first-seen label, matching the scan. kMaxScore
    // is honored for contract uniformity, though a handful of centroids
    // gives pruning nothing to win.
    const exec::QueryEngine engine(cache->centroid_index);
    const auto hits = engine.run(query, 1, to_index_metric(metric), mode);
    if (!hits.empty()) label = cache->syndromes[hits[0].doc].label;
  }
  watch.record(*metrics.classify_ns);
  return label;
}

void SignatureDatabase::save(io::Env& env, const std::string& path) const {
  // The image is the pinned index plus its labels: a scalar add landing
  // after the sync is not in that index's forward store, so it is not in
  // the file either. The store's reader side covers only the label
  // encoding, not the write.
  const auto pinned = sync_index();
  std::shared_lock<std::shared_mutex> store(store_mutex_);
  const std::vector<std::byte> labels = encode_labels(
      std::span<const std::string>(labels_.data(), pinned->size()));
  store.unlock();
  write_snapshot(*pinned, labels, env, path);
}

void SignatureDatabase::save(const std::string& path) const {
  save(io::Env::posix(), path);
}

void SignatureDatabase::load(const std::string& path) {
  load(io::Env::posix(), path);
}

void SignatureDatabase::load(io::Env& env, const std::string& path) {
  // Loaded into a temporary which replaces *this only on success (the
  // strong guarantee).
  LabeledIndex loaded = LabeledIndex::load(env, path);
  SignatureDatabase db(1);
  db.index_ =
      std::make_shared<const exec::ShardedIndex>(std::move(loaded.index));
  db.labels_ = std::move(loaded.labels);
  *this = std::move(db);
}

void SignatureDatabase::publish_gauges() const {
  const auto pinned = sync_index();
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  r.gauge("fmeter_index_documents", "Signatures stored in the sharded index")
      .set(static_cast<double>(pinned->size()));
  r.gauge("fmeter_index_terms", "Distinct terms with at least one posting")
      .set(static_cast<double>(pinned->num_terms()));
  r.gauge("fmeter_index_shards", "Index shard count")
      .set(static_cast<double>(pinned->num_shards()));
  r.gauge("fmeter_index_memory_bytes", "Heap footprint of the sharded index")
      .set(static_cast<double>(pinned->memory_bytes()));
}

std::vector<std::size_t> SignatureDatabase::meta_cluster(
    std::size_t k, std::uint64_t seed) const {
  const auto cache = syndrome_cache();  // pinned across the clustering
  const auto& all = cache->syndromes;
  if (all.size() < k) {
    throw std::invalid_argument("meta_cluster: fewer syndromes than clusters");
  }
  std::vector<vsm::SparseVector> centroids;
  centroids.reserve(all.size());
  for (const auto& syndrome : all) centroids.push_back(syndrome.centroid);

  ml::KMeansConfig config;
  config.k = k;
  config.seed = seed;
  const auto result = ml::KMeans(config).fit(centroids);
  return result.assignments;
}

}  // namespace fmeter::core
