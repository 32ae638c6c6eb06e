#include "fmeter/live_database.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fmeter::core {
namespace {

struct LiveMetrics {
  obs::Counter* batches;
  obs::Counter* docs;
  obs::Counter* seal_merges;
  obs::Counter* seal_merge_docs;
  obs::Counter* refreezes;
  obs::Counter* refreeze_failures;
  obs::Histogram* publish_ns;
  obs::Histogram* refreeze_ns;
};

const LiveMetrics& live_metrics() {
  static const LiveMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    LiveMetrics out;
    out.batches = &r.counter("fmeter_live_batches_total",
                             "Batches sealed into live-archive segments");
    out.docs = &r.counter("fmeter_live_docs_ingested_total",
                          "Signatures ingested through the live archive");
    out.seal_merges = &r.counter(
        "fmeter_live_seal_merges_total",
        "Seals that merged the batch with trailing ladder segments");
    out.seal_merge_docs = &r.counter(
        "fmeter_live_seal_merge_docs_total",
        "Already-sealed signatures merged by seal merges");
    out.refreezes = &r.counter("fmeter_live_refreezes_total",
                               "Tail folds committed (epoch swaps)");
    out.refreeze_failures =
        &r.counter("fmeter_live_refreeze_failures_total",
                   "Background re-freezes that died on an I/O error");
    out.publish_ns = &r.histogram(
        "fmeter_live_publish_ns",
        "Wall time of the locked section of add_batch (journal + publish)");
    out.refreeze_ns = &r.histogram("fmeter_live_refreeze_ns",
                                   "Wall time of one committed re-freeze");
    return out;
  }();
  return m;
}

/// The ladder rule. Segment doc counts (oldest first) stay superincreasing:
/// each segment holds more documents than all newer ones together. A new
/// batch of `docs` absorbs every trailing segment from the oldest one it
/// would leave at or below that sum, as long as the merged run stays
/// under `max_run` docs. With equal batches this is the binary counter of
/// LevelDB and Lucene; below `max_run` the tail keeps at most
/// floor(log2(tail_docs)) + 1 segments for any batch sizes, and an
/// absorbed document lands in a segment at least twice the size of its
/// old one. Returns how many trailing entries of `segment_docs` to absorb.
std::size_t ladder_absorbs(const std::vector<std::size_t>& segment_docs,
                           std::size_t docs, std::size_t max_run) {
  std::size_t absorbed = 0;
  std::size_t run = docs;  // the batch plus segments [i, end)
  for (std::size_t i = segment_docs.size(); i-- > 0;) {
    const std::size_t newer = run;
    run += segment_docs[i];
    if (run >= max_run) break;
    if (segment_docs[i] <= newer) absorbed = segment_docs.size() - i;
  }
  return absorbed;
}

/// Appends views of documents [from, to) of a part — into its forward
/// store, valid while `part` lives — and their labels.
void append_views(const LabeledIndex& part, std::size_t from, std::size_t to,
                  std::vector<vsm::SparseView>& views,
                  std::vector<std::string>& labels) {
  for (std::size_t i = from; i < to; ++i) {
    views.push_back(
        part.index.document(static_cast<exec::ShardedIndex::DocId>(i)));
    labels.push_back(part.labels[i]);
  }
}

/// Appends one journal record per batch of a sealed segment, re-encoded
/// from its forward store and labels. The store holds each signature's
/// terms and weights as add_batch received them, so every record is
/// byte-identical to the one add_batch appended.
void rejournal(const LabeledIndex& part,
               std::span<const std::size_t> batch_docs,
               io::journal::Writer& journal) {
  std::vector<vsm::SparseView> views;
  std::vector<std::string> labels;
  std::size_t id = 0;
  for (const std::size_t docs : batch_docs) {
    views.clear();
    labels.clear();
    append_views(part, id, id + docs, views, labels);
    journal.append(encode_batch(views, labels));
    id += docs;
  }
}

/// Builds a frozen single-shard segment: `oldest`'s documents followed by
/// `docs`, merged into its posting arena (LabeledIndex::appended), which
/// is a bulk build of the run. An empty `oldest` seals `docs` alone.
std::shared_ptr<const LabeledIndex> seal(const LabeledIndex& oldest,
                                         std::span<const vsm::SparseView> docs,
                                         std::vector<std::string> labels) {
  return std::make_shared<const LabeledIndex>(
      oldest.appended(docs, std::move(labels)));
}

}  // namespace

// ---------------------------------------------------------------- Snapshot

std::size_t LiveDatabase::Snapshot::size() const noexcept {
  return epoch_->total_docs;
}

std::uint64_t LiveDatabase::Snapshot::sequence() const noexcept {
  return epoch_->sequence;
}

std::uint64_t LiveDatabase::Snapshot::manifest_epoch() const noexcept {
  return epoch_->manifest_epoch;
}

std::size_t LiveDatabase::Snapshot::base_docs() const noexcept {
  return epoch_->base_docs;
}

std::size_t LiveDatabase::Snapshot::tail_docs() const noexcept {
  return epoch_->total_docs - epoch_->base_docs;
}

std::size_t LiveDatabase::Snapshot::num_segments() const noexcept {
  return epoch_->segments.size();
}

const LabeledIndex& LiveDatabase::Snapshot::base() const noexcept {
  return *epoch_->base;
}

const LabeledIndex& LiveDatabase::Snapshot::segment(std::size_t i) const {
  return *epoch_->segments.at(i)->part;
}

std::pair<const LabeledIndex*, std::size_t> LiveDatabase::Snapshot::locate(
    std::size_t id) const {
  if (id >= epoch_->total_docs) {
    throw std::out_of_range("LiveDatabase: id out of range");
  }
  if (id < epoch_->base_docs) return {epoch_->base.get(), id};
  // Segments are ordered by first_id and tile [base_docs, total_docs);
  // the last one starting at or before `id` holds it.
  const auto& segments = epoch_->segments;
  const auto it = std::prev(std::upper_bound(
      segments.begin(), segments.end(), id,
      [](std::size_t value, const std::shared_ptr<const LiveSegment>& seg) {
        return value < seg->first_id;
      }));
  return {(*it)->part.get(), id - (*it)->first_id};
}

std::string LiveDatabase::Snapshot::label(std::size_t id) const {
  const auto [part, local] = locate(id);
  return part->labels[local];
}

vsm::SparseVector LiveDatabase::Snapshot::signature(std::size_t id) const {
  const auto [part, local] = locate(id);
  return vsm::SparseVector(
      part->index.document(static_cast<exec::ShardedIndex::DocId>(local)));
}

std::vector<SearchHit> LiveDatabase::Snapshot::search(
    const vsm::SparseVector& query, std::size_t k, SimilarityMetric metric,
    PruningMode mode, QueryStats* stats, const SearchOptions& options) const {
  auto results = search_batch({&query, 1}, k, metric, mode, stats, options);
  return std::move(results.front());
}

std::vector<std::vector<SearchHit>> LiveDatabase::Snapshot::search_batch(
    std::span<const vsm::SparseVector> queries, std::size_t k,
    SimilarityMetric metric, PruningMode mode, QueryStats* stats,
    const SearchOptions& options) const {
  // The base and every segment are parts of one engine run, each at its
  // first id; the pinned epoch keeps every part alive for the run.
  const LiveEpoch& epoch = *epoch_;
  std::vector<exec::IndexPart> parts;
  parts.reserve(1 + epoch.segments.size());
  parts.push_back({&epoch.base->index, 0});
  for (const auto& segment : epoch.segments) {
    parts.push_back({&segment->part->index, segment->first_id});
  }
  const exec::QueryEngine engine(parts);
  const auto batch = engine.run_batch(queries, k, to_index_metric(metric),
                                      mode, stats, options);

  std::vector<std::vector<SearchHit>> results(batch.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    results[q].reserve(batch[q].size());
    for (const auto& hit : batch[q]) {
      results[q].push_back({hit.doc, label(hit.doc), hit.score});
    }
  }
  return results;
}

// ------------------------------------------------------------ LiveDatabase

LiveDatabase::LiveDatabase(io::Env& env, std::string dir, LiveOptions options)
    : env_(env), dir_(std::move(dir)), options_(options) {
  open();
}

LiveDatabase::~LiveDatabase() {
  wait_for_refreeze();
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  try {
    if (journal_) journal_->close();
  } catch (...) {
    // Destructors do not throw; an unsynced tail under kAsync was already
    // lost by contract, and synced bytes survive a failed close.
  }
}

void LiveDatabase::open() {
  env_.create_dir(dir_);  // idempotent in every Env

  auto base = std::make_shared<LabeledIndex>();
  base->index = exec::ShardedIndex(
      options_.num_shards > 0 ? options_.num_shards : default_num_shards());
  auto epoch = std::make_shared<LiveEpoch>();

  Manifest manifest;
  if (!env_.file_exists(manifest_path(dir_))) {
    // Fresh directory — or a crash beat the very first manifest commit, in
    // which case nothing was ever durable and fresh is the truth.
    recovery_.created = true;
    manifest.epoch = 0;
    manifest.journal = journal_name(0);
    if (journaled()) {
      journal_ = std::make_unique<io::journal::Writer>(
          env_, dir_ + "/" + manifest.journal);
      journal_->sync();  // its header is durable before the manifest names it
    }
    write_manifest(env_, dir_, manifest);
  } else {
    manifest = read_manifest(env_, dir_);
    if (!manifest.snapshot.empty()) {
      *base = LabeledIndex::load(env_, dir_ + "/" + manifest.snapshot);
      recovery_.snapshot_loaded = true;
    }
    // Replay straight into the ladder a writer sealing the same records
    // one by one would publish — one build per segment, not per record —
    // so the recovered epoch searches bit-identically to a fresh bulk
    // build of the same docs.
    struct Replayed {
      std::vector<vsm::SparseVector> signatures;
      std::vector<std::string> labels;
    };
    std::vector<Replayed> records;
    const std::string journal_path = dir_ + "/" + manifest.journal;
    const auto replayed = io::journal::replay(
        env_, journal_path,
        [&records](std::span<const std::byte> payload) {
          Replayed record;
          decode_batch(payload, record.signatures, record.labels);
          if (record.signatures.empty()) return;
          records.push_back(std::move(record));
        },
        /*repair=*/true);
    recovery_.journal_records_replayed = replayed.records;
    recovery_.journal_truncated = replayed.truncated_tail;
    recovery_.journal_bytes_dropped = replayed.dropped_bytes;
    recovery_.truncate_reason = replayed.truncate_reason;
    if (journaled()) {
      journal_ = std::make_unique<io::journal::Writer>(env_, journal_path);
    }

    // Plan the ladder over the record sizes: docs and first record of
    // each segment, oldest first.
    std::vector<std::size_t> ladder_docs;
    std::vector<std::size_t> ladder_first;
    for (std::size_t r = 0; r < records.size(); ++r) {
      std::size_t docs = records[r].signatures.size();
      std::size_t first = r;
      for (std::size_t n = ladder_absorbs(ladder_docs, docs, max_run()); n > 0;
           --n) {
        docs += ladder_docs.back();
        first = ladder_first.back();
        ladder_docs.pop_back();
        ladder_first.pop_back();
      }
      ladder_docs.push_back(docs);
      ladder_first.push_back(first);
    }
    // The segments are independent builds: seal them across the pool (the
    // caller participates), as the shards of one bulk build would be.
    std::vector<std::shared_ptr<LiveSegment>> segments(ladder_first.size());
    pool().run_spans(segments.size(), [&](std::size_t s) {
      const std::size_t end =
          s + 1 < ladder_first.size() ? ladder_first[s + 1] : records.size();
      auto segment = std::make_shared<LiveSegment>();
      std::vector<vsm::SparseView> signatures;
      std::vector<std::string> labels;
      signatures.reserve(ladder_docs[s]);
      labels.reserve(ladder_docs[s]);
      for (std::size_t r = ladder_first[s]; r < end; ++r) {
        signatures.insert(signatures.end(), records[r].signatures.begin(),
                          records[r].signatures.end());
        std::move(records[r].labels.begin(), records[r].labels.end(),
                  std::back_inserter(labels));
        segment->batch_docs.push_back(records[r].signatures.size());
      }
      segment->part = seal(LabeledIndex(), signatures, std::move(labels));
      // The segment's forward store now holds these documents; release the
      // decoded copies here, on this span's thread, not all at the end.
      for (std::size_t r = ladder_first[s]; r < end; ++r) {
        std::vector<vsm::SparseVector>().swap(records[r].signatures);
      }
      segments[s] = std::move(segment);
    });
    std::size_t next_id = base->index.size();
    for (auto& segment : segments) {
      segment->first_id = next_id;
      next_id += segment->part->index.size();
      epoch->segments.push_back(std::move(segment));
    }
    epoch->total_docs = next_id - base->index.size();  // base added below
  }

  manifest_epoch_ = manifest.epoch;
  recovery_.epoch = manifest.epoch;
  epoch->manifest_epoch = manifest.epoch;
  epoch->base_docs = base->index.size();
  epoch->total_docs += epoch->base_docs;
  epoch->base = std::move(base);
  epoch->journal_bytes = journal_ ? journal_->bytes() : 0;
  publish(std::move(epoch));

  // Sweep crash leftovers: everything the manifest does not name is
  // garbage — torn atomic-commit temps, a superseded epoch's files.
  bool removed_any = false;
  for (const std::string& name : env_.list_dir(dir_)) {
    if (name == "MANIFEST" || name == manifest.snapshot ||
        name == manifest.journal) {
      continue;
    }
    env_.remove_file(dir_ + "/" + name);
    recovery_.removed_files.push_back(name);
    removed_any = true;
  }
  if (removed_any) env_.sync_dir(dir_);
}

std::shared_ptr<const LiveDatabase::LiveEpoch> LiveDatabase::acquire() const {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  return published_;
}

void LiveDatabase::publish(std::shared_ptr<const LiveEpoch> epoch) {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  published_ = std::move(epoch);
}

void LiveDatabase::check_not_poisoned() const {
  if (commit_poisoned_) {
    throw DurabilityError(
        "LiveDatabase: a re-freeze commit failed between the manifest swap "
        "and the in-memory swap; disk and RAM may disagree about the "
        "current journal. Reopen the directory to recover.");
  }
}

LiveDatabase::Snapshot LiveDatabase::snapshot() const {
  return Snapshot(acquire());
}

std::size_t LiveDatabase::add_batch(std::vector<vsm::SparseVector> signatures,
                                    std::vector<std::string> labels) {
  // Validate before journaling *and* before sealing, so every record that
  // reaches the journal replays cleanly and a bad batch changes nothing.
  SignatureDatabase::validate_batch(signatures, labels);
  if (signatures.empty()) return acquire()->total_docs;

  const std::size_t docs = signatures.size();
  // The record lives only for this call: once it is appended, the
  // segment's forward store is the batch's one in-RAM copy.
  std::vector<std::byte> record;
  if (journaled()) record = encode_batch(signatures, labels);

  // Plan and build the merge outside the writer lock, from a pinned epoch:
  // concurrent ingests build concurrently; only the journal append and
  // the pointer swap serialize.
  const auto pinned = acquire();
  std::vector<std::size_t> ladder_docs;
  ladder_docs.reserve(pinned->segments.size());
  for (const auto& segment : pinned->segments) {
    ladder_docs.push_back(segment->part->index.size());
  }
  const std::size_t absorbed =
      ladder_absorbs(ladder_docs, docs, max_run());
  const std::span<const std::shared_ptr<const LiveSegment>> victims =
      std::span(pinned->segments).last(absorbed);

  // The seal reads the victims' forward stores and the batch in place: the
  // oldest victim's arena is extended by the rest of the run.
  const std::vector<vsm::SparseView> batch(signatures.begin(),
                                           signatures.end());
  auto segment = std::make_shared<LiveSegment>();
  if (absorbed == 0) {
    segment->part = seal(LabeledIndex(), batch, std::move(labels));
  } else {
    std::vector<vsm::SparseView> run;
    std::vector<std::string> run_labels;
    for (const auto& victim : victims.subspan(1)) {
      append_views(*victim->part, 0, victim->part->index.size(), run,
                   run_labels);
    }
    for (const auto& victim : victims) {
      segment->batch_docs.insert(segment->batch_docs.end(),
                                 victim->batch_docs.begin(),
                                 victim->batch_docs.end());
    }
    run.insert(run.end(), batch.begin(), batch.end());
    std::move(labels.begin(), labels.end(), std::back_inserter(run_labels));
    segment->part = seal(*victims.front()->part, run, std::move(run_labels));
  }
  segment->batch_docs.push_back(docs);

  std::size_t first = 0;
  std::size_t merged_docs = 0;
  {
    std::unique_lock<std::mutex> lock(writer_mutex_);
    // The merged run may be published only while its victims are still
    // the trailing segments; a concurrent seal or re-freeze may have
    // moved them. Then the batch goes in unmerged (built with the lock
    // released) and a later seal's merge absorbs it.
    const auto locked = acquire();
    const auto& tail = locked->segments;
    const bool victims_trailing =
        tail.size() >= absorbed &&
        std::equal(victims.begin(), victims.end(), tail.end() - absorbed);
    if (!victims_trailing) {
      lock.unlock();
      auto lone = std::make_shared<LiveSegment>();
      const std::vector<std::string>& sealed = segment->part->labels;
      lone->part = seal(LabeledIndex(), batch,
                        {sealed.end() - static_cast<std::ptrdiff_t>(docs),
                         sealed.end()});
      lone->batch_docs.push_back(docs);
      segment = std::move(lone);
      lock.lock();
    }
    const std::size_t replaced = victims_trailing ? absorbed : 0;
    check_not_poisoned();
    const obs::Stopwatch watch;
    if (journal_) {
      journal_->append(record);
      if (options_.durability == Durability::kEachBatch) journal_->sync();
    }
    const auto current = acquire();
    auto next = std::make_shared<LiveEpoch>(*current);
    next->sequence = current->sequence + 1;
    first = current->total_docs;
    next->total_docs = current->total_docs + docs;
    if (journal_) next->journal_bytes = journal_->bytes();
    segment->first_id = next->total_docs - segment->part->index.size();
    merged_docs = segment->part->index.size() - docs;
    next->segments.resize(next->segments.size() - replaced);
    next->segments.push_back(std::move(segment));
    publish(std::move(next));
    watch.record(*live_metrics().publish_ns);
  }

  live_metrics().batches->inc();
  live_metrics().docs->inc(docs);
  if (merged_docs > 0) {
    live_metrics().seal_merges->inc();
    live_metrics().seal_merge_docs->inc(merged_docs);
  }
  maybe_schedule_refreeze();
  return first;
}

void LiveDatabase::sync() {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  check_not_poisoned();
  if (journal_) journal_->sync();
}

void LiveDatabase::maybe_schedule_refreeze() {
  if (!options_.background_refreeze) return;
  const auto current = acquire();
  const std::size_t tail = current->total_docs - current->base_docs;
  if (tail < options_.refreeze_min_docs) return;
  if (static_cast<double>(tail) <
      options_.refreeze_fraction * static_cast<double>(current->base_docs)) {
    return;
  }
  if (refreeze_inflight_.exchange(true)) return;  // single-flight
  try {
    const std::lock_guard<std::mutex> lock(refreeze_mutex_);
    refreeze_future_ = pool().submit([this] {
      try {
        do_refreeze();
      } catch (const std::exception&) {
        // Background folds fail soft: the published epoch is untouched,
        // ingest continues, the next qualifying batch retries. Torn files
        // are unreferenced and swept at the next open.
        live_metrics().refreeze_failures->inc();
      }
      refreeze_inflight_.store(false);
    });
  } catch (...) {
    refreeze_inflight_.store(false);
    throw;
  }
}

bool LiveDatabase::refreeze_now() {
  if (refreeze_inflight_.exchange(true)) {
    wait_for_refreeze();
    return false;
  }
  bool committed = false;
  try {
    committed = do_refreeze();
  } catch (...) {
    refreeze_inflight_.store(false);
    throw;
  }
  refreeze_inflight_.store(false);
  return committed;
}

void LiveDatabase::wait_for_refreeze() {
  std::future<void> pending;
  {
    const std::lock_guard<std::mutex> lock(refreeze_mutex_);
    if (refreeze_future_.valid()) pending = std::move(refreeze_future_);
  }
  if (pending.valid()) pending.wait();
}

bool LiveDatabase::do_refreeze() {
  const auto capture = acquire();
  if (capture->segments.empty()) return false;
  if (options_.after_refreeze_capture) options_.after_refreeze_capture();
  const obs::Stopwatch watch;
  const obs::StageSpan span(obs::Stage::kRefreeze);

  // 1. Build the next base from the pinned capture — no locks held, ingest
  //    keeps publishing segments meanwhile: the capture's base extended by
  //    every tail segment, read in place from their immutable forward
  //    stores. appended() merges them into the base's posting arenas, so
  //    the new base is byte-for-byte the database a bulk build of the same
  //    documents would produce.
  std::vector<vsm::SparseView> tail;
  std::vector<std::string> labels;
  tail.reserve(capture->total_docs - capture->base_docs);
  labels.reserve(capture->total_docs - capture->base_docs);
  for (const auto& segment : capture->segments) {
    append_views(*segment->part, 0, segment->part->index.size(), tail,
                 labels);
  }
  const auto fresh = std::make_shared<const LabeledIndex>(
      capture->base->appended(tail, std::move(labels)));

  // 2. Write the new base as the next epoch's snapshot — still no locks;
  //    the file is atomic-committed and unreferenced until the manifest
  //    swap, so a crash (or failure) here leaves garbage for the sweep,
  //    never a torn archive.
  const std::uint64_t next_epoch = manifest_epoch_ + 1;
  const std::string snapshot_file = snapshot_name(next_epoch);
  fresh->save(env_, dir_ + "/" + snapshot_file);

  // 3. The commit section, under the writer lock (ingest pauses for the
  //    duration of a journal rotation + manifest swap, not the build).
  {
    const std::lock_guard<std::mutex> lock(writer_mutex_);
    check_not_poisoned();
    const auto current = acquire();

    // Every segment whose id range extends past the capture survives the
    // fold. One sealed after the capture may have merged with captured
    // segments; it is split, its post-capture batches sealed alone. The
    // survivors' journal records, re-encoded from their forward stores,
    // go to the fresh journal *before* the manifest swap — the old journal
    // dies with the old epoch, and a synced batch must not lose its
    // durable copy in the swap.
    const std::size_t boundary = capture->total_docs;
    std::vector<std::shared_ptr<const LiveSegment>> survivors;
    for (const auto& segment : current->segments) {
      const std::size_t docs = segment->part->index.size();
      if (segment->first_id + docs <= boundary) continue;
      if (segment->first_id >= boundary) {
        survivors.push_back(segment);
        continue;
      }
      auto split = std::make_shared<LiveSegment>();
      split->first_id = boundary;
      std::size_t id = segment->first_id;
      for (const std::size_t docs : segment->batch_docs) {
        if (id >= boundary) split->batch_docs.push_back(docs);
        id += docs;
      }
      std::vector<vsm::SparseView> kept;
      std::vector<std::string> kept_labels;
      append_views(*segment->part, boundary - segment->first_id, docs, kept,
                   kept_labels);
      split->part = seal(LabeledIndex(), kept, std::move(kept_labels));
      survivors.push_back(std::move(split));
    }
    const std::string journal_file = journal_name(next_epoch);
    std::unique_ptr<io::journal::Writer> fresh_journal;
    if (journaled()) {
      fresh_journal =
          std::make_unique<io::journal::Writer>(env_, dir_ + "/" + journal_file);
      for (const auto& segment : survivors) {
        rejournal(*segment->part, segment->batch_docs, *fresh_journal);
      }
      fresh_journal->sync();
    }

    // The manifest swap is the one commit point. Failing *during* it is
    // ambiguous (the rename may or may not have landed), so the archive
    // is poisoned until RAM provably matches disk again — add_batch fails
    // loudly instead of appending to a journal the manifest may no longer
    // reference.
    commit_poisoned_ = true;
    Manifest next;
    next.epoch = next_epoch;
    next.snapshot = snapshot_file;
    next.journal = journal_file;
    write_manifest(env_, dir_, next);

    const std::uint64_t old_epoch = manifest_epoch_;
    auto old_journal = std::move(journal_);
    journal_ = std::move(fresh_journal);
    manifest_epoch_ = next_epoch;

    auto published = std::make_shared<LiveEpoch>();
    published->sequence = current->sequence + 1;
    published->manifest_epoch = next_epoch;
    published->base = fresh;
    published->base_docs = boundary;
    published->segments = std::move(survivors);
    published->total_docs = current->total_docs;
    published->journal_bytes = journal_ ? journal_->bytes() : 0;
    publish(std::move(published));
    commit_poisoned_ = false;

    // The new epoch is in force; retire the old one. Failures here leave
    // stale-but-unreferenced files, swept at the next open — not worth
    // failing a committed fold over.
    try {
      if (old_journal) old_journal->close();
      const std::string old_journal_path =
          dir_ + "/" + journal_name(old_epoch);
      const std::string old_snapshot_path =
          dir_ + "/" + snapshot_name(old_epoch);
      if (env_.file_exists(old_journal_path)) {
        env_.remove_file(old_journal_path);
      }
      if (env_.file_exists(old_snapshot_path)) {
        env_.remove_file(old_snapshot_path);
      }
      env_.sync_dir(dir_);
    } catch (const io::IoError&) {
    }
  }

  refreezes_.fetch_add(1, std::memory_order_relaxed);
  live_metrics().refreezes->inc();
  watch.record(*live_metrics().refreeze_ns);
  return true;
}

std::vector<SearchHit> LiveDatabase::search(const vsm::SparseVector& query,
                                            std::size_t k,
                                            SimilarityMetric metric,
                                            PruningMode mode,
                                            QueryStats* stats,
                                            const SearchOptions& options)
    const {
  return snapshot().search(query, k, metric, mode, stats, options);
}

std::vector<std::vector<SearchHit>> LiveDatabase::search_batch(
    std::span<const vsm::SparseVector> queries, std::size_t k,
    SimilarityMetric metric, PruningMode mode, QueryStats* stats,
    const SearchOptions& options) const {
  return snapshot().search_batch(queries, k, metric, mode, stats, options);
}

std::uint64_t LiveDatabase::manifest_epoch() const {
  return acquire()->manifest_epoch;
}

LiveStats LiveDatabase::stats() const {
  const auto epoch = acquire();
  LiveStats out;
  out.published_sequence = epoch->sequence;
  out.manifest_epoch = epoch->manifest_epoch;
  out.refreezes = refreezes();
  out.total_docs = epoch->total_docs;
  out.base_docs = epoch->base_docs;
  out.tail_docs = epoch->total_docs - epoch->base_docs;
  out.segments = epoch->segments.size();
  out.journal_bytes = epoch->journal_bytes;
  out.base_shards = epoch->base->index.shard_stats();
  out.memory_bytes = epoch->base->index.memory_bytes();
  for (const auto& segment : epoch->segments) {
    out.memory_bytes += segment->part->index.memory_bytes();
    out.tail_segments.push_back({segment->first_id,
                                 segment->part->index.size(),
                                 segment->batch_docs.size()});
  }
  return out;
}

void LiveDatabase::publish_gauges() const {
  const LiveStats s = stats();
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  r.gauge("fmeter_live_published_sequence",
          "Publish sequence of the current epoch")
      .set(static_cast<double>(s.published_sequence));
  r.gauge("fmeter_live_manifest_epoch", "Durable manifest epoch")
      .set(static_cast<double>(s.manifest_epoch));
  r.gauge("fmeter_live_total_docs", "Signatures visible to readers")
      .set(static_cast<double>(s.total_docs));
  r.gauge("fmeter_live_base_docs", "Signatures in the frozen sharded base")
      .set(static_cast<double>(s.base_docs));
  r.gauge("fmeter_live_tail_docs", "Signatures in sealed tail segments")
      .set(static_cast<double>(s.tail_docs));
  r.gauge("fmeter_live_segments", "Sealed tail segments in the epoch")
      .set(static_cast<double>(s.segments));
  r.gauge("fmeter_live_memory_bytes", "Index footprint of the epoch")
      .set(static_cast<double>(s.memory_bytes));
  r.gauge("fmeter_live_journal_bytes",
          "Length of the current journal: the tail's durable footprint "
          "since the last re-freeze commit")
      .set(static_cast<double>(s.journal_bytes));
}

}  // namespace fmeter::core
