#include "index/inverted_index.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>

#include "index/kernels.hpp"
#include "index/snapshot.hpp"
#include "obs/trace.hpp"

namespace fmeter::index {
namespace {

// Max-score tuning. The pruned path stays correct for any values here (every
// pruning and skipping decision is bound-checked); these only steer where it
// spends time.

/// Fraction of the query's squared norm that the head phase accumulates
/// before the threshold bootstrap. The bootstrap and filters run over the
/// touched-doc list instead of the whole corpus, and the post-bootstrap
/// lists go through the block-skipping loop — both make an early (cheap)
/// bootstrap affordable: less mandatory head accumulation, more posting
/// mass routed past the skip tests. A looser early threshold only costs
/// extra survivors, which the per-list filters and theta refreshes claw
/// back; correctness never depends on this value.
constexpr double kFrozenBootstrapMassFraction = 0.74;

/// Theta refresh cadence: re-raise the threshold whenever the remaining
/// query mass has shrunk to this fraction of its value at the previous
/// raise. Refreshes are cheap (the refresh heap runs over the survivor
/// list only), and every raise unlocks more block skipping, so refresh
/// almost every list.
constexpr double kFrozenThetaRefreshFactor = 0.999;

/// Switch from posting-list accumulation to candidate-centric re-scoring
/// when factor * (total forward extent of the survivors) < remaining posting
/// entries. The extent sum is the *exact* cost of finishing the survivors
/// off the forward store — measured per doc, not assumed uniform — so the
/// factor only prices the forward store's slightly colder access pattern.
/// Re-tuned against the frozen block-max path: block skipping makes the
/// remaining posting work cheaper per entry, so the switch waits for an
/// 8× advantage. A forward re-score streams a ~2.4 KB run from memory per
/// candidate while skipped blocks cost three metadata loads; on one
/// unseeded 100k-document shard of the bench corpus (4-vCPU Xeon VM, min
/// of 9 sweeps, 2 runs each) the pruned/exact time ratio read 1.11-1.16 at
/// 1.5 and 0.74-0.84 at 8 for cosine (0.78-0.84 at 50k), and 0.79-0.80
/// vs 0.56-0.59 for Euclidean. Anywhere in 8-24 measured alike; never
/// switching read 1.01-1.03.
constexpr double kCandidateSwitchFactor = 8.0;

/// Absolute/relative slack subtracted from the threshold before any prune
/// test, absorbing the rounding drift between the accumulation orders of
/// the exact and pruned paths. Far below any real score gap, far above
/// double rounding error.
constexpr double kThetaMargin = 1e-10;

struct HeapCmp {
  bool operator()(const IndexHit& a, const IndexHit& b) const noexcept {
    return ranks_better(a, b);  // best sinks, worst surfaces at top()
  }
};
using BoundedHeap = std::priority_queue<IndexHit, std::vector<IndexHit>, HeapCmp>;

std::vector<IndexHit> drain_heap(BoundedHeap& heap) {
  std::vector<IndexHit> hits(heap.size());
  for (std::size_t i = heap.size(); i-- > 0;) {
    hits[i] = heap.top();
    heap.pop();
  }
  return hits;
}

void heap_offer(BoundedHeap& heap, std::size_t capacity, IndexHit hit) {
  if (heap.size() < capacity) {
    heap.push(hit);
  } else if (ranks_better(hit, heap.top())) {
    heap.pop();
    heap.push(hit);
  }
}

/// The dense scoring pass: turns every document's completed dot product
/// (acc[doc * kStride], internal order) into its score and keeps the best
/// `top` (ids emitted through `public_of`) in `heap`, whose root is the
/// worst retained hit. The loop runs in internal (arena) order —
/// accumulators and norms are both sequential reads — and a bounded heap
/// under the total (score, public id) order holds the same top-k whatever
/// the offer order, so the doc permutation cannot move a hit.
///
/// Divide-free pre-test for cosine: score < t ⟺ acc < t·|q|·norm (|q|,
/// norm > 0), so a doc with acc below that product — shrunk by a 1e-13
/// relative margin, ~450× the worst rounding drift of the two extra
/// multiplies — is provably below t and skips the divide and the heap
/// entirely. Borderline docs (within the margin, or exactly tied with t)
/// fail the pre-test and fall through to the exact compute, the exact seed
/// compare and the heap's id tie-break, so the returned hits are
/// bit-identical with and without it. t starts at the cross-shard seed and
/// rises to the heap's worst score once the heap holds `top` hits: a doc
/// strictly below that can never displace a retained hit. So even an
/// unseeded shard — every shard of a pooled batch starts unseeded — turns
/// most of its scoring loop into one multiply-compare per doc. Only
/// positive thresholds arm it (the margin shrinks toward zero). With
/// kStride == 1 the pre-test runs through `pretest_scan`, which skips to the
/// next survivor (8 documents per compare in the AVX-512F form); the factor
/// only rises, so a document it skipped would fail any later test too.
template <std::size_t kStride>
void score_dense(const double* acc, std::span<const double> norms,
                 std::span<const InvertedIndex::DocId> public_of,
                 double q_norm, Metric metric, double seed_score,
                 std::size_t top, BoundedHeap& heap, CheckpointGuard& guard,
                 kernels::PretestScanFn pretest_scan =
                     kernels::pretest_scan_scalar) {
  const std::size_t n = norms.size();
  const std::size_t stride = guard.stride();
  const double* snorms = norms.data();
  const bool running_pretest = metric == Metric::kCosine && q_norm > 0.0;
  double pretest_score = std::max(seed_score, 0.0);
  bool pretest = running_pretest && pretest_score > 0.0;
  double pretest_factor = pretest_score * q_norm * (1.0 - 1e-13);
  std::size_t doc = 0;
  while (doc < n) {
    const std::size_t doc_stop = n - doc > stride ? doc + stride : n;
    const std::size_t chunk = doc_stop - doc;
    for (; doc < doc_stop; ++doc) {
      if constexpr (kStride == 1) {
        if (pretest) {
          doc = pretest_scan(acc, snorms, doc, doc_stop, pretest_factor);
          if (doc == doc_stop) break;
        }
      } else if (pretest && acc[doc * kStride] < pretest_factor * snorms[doc]) {
        continue;
      }
      const double dot = acc[doc * kStride];
      IndexHit hit;
      hit.doc = public_of[doc];
      if (metric == Metric::kCosine) {
        // Mirrors vsm::cosine_similarity: 0 when either vector is zero.
        hit.score = (q_norm == 0.0 || snorms[doc] == 0.0)
                        ? 0.0
                        : dot / (q_norm * snorms[doc]);
      } else {
        // Mirrors vsm::euclidean_distance (negated): ||q-d||^2 expanded,
        // clamped at zero before the sqrt. The clamp emits -0.0 because the
        // scan negates the distance's +0.0 — bit-identical even in sign.
        const double sq =
            q_norm * q_norm + snorms[doc] * snorms[doc] - 2.0 * dot;
        hit.score = sq <= 0.0 ? -0.0 : -std::sqrt(sq);
      }
      // Cross-shard seed: k documents elsewhere already reach seed_score,
      // so anything strictly below it can never enter the global top-k —
      // drop it before the heap. Exact compare on the exact score (no
      // margin): equal scores must survive for the ascending-id tie-break,
      // and the heap then fills only with genuine contenders instead of
      // churning through every shard-local also-ran.
      if (hit.score < seed_score) continue;
      heap_offer(heap, top, hit);
      if (running_pretest && heap.size() == top &&
          heap.top().score > pretest_score) {
        pretest_score = heap.top().score;
        pretest = true;
        pretest_factor = pretest_score * q_norm * (1.0 - 1e-13);
      }
    }
    guard.charge(chunk);
  }
}

/// A document's doc-reorder key and its L2 norm, from one walk of its run.
struct DocKey {
  InvertedIndex::TermId term;  ///< the dominant (highest-|weight|) term
  double norm;
};

/// Strict > keeps the lowest dominant term under weight ties, and an empty
/// document sorts after every other. The norm sums the squares in
/// vsm::norm_l2's order, so it equals that function's to the bit. `visit`
/// sees every posting (its position in the run, term and weight) in the
/// same walk, so a restore checks and counts a run while it reads it.
template <typename Visit>
DocKey doc_key(const vsm::SparseView& run, Visit&& visit) noexcept {
  InvertedIndex::TermId dominant =
      std::numeric_limits<InvertedIndex::TermId>::max();
  double best = -1.0;
  double sum = 0.0;
  for (std::size_t f = 0; f < run.indices.size(); ++f) {
    const InvertedIndex::TermId term = run.indices[f];
    const double weight = run.values[f];
    const double magnitude = std::abs(weight);
    if (magnitude > best) {
      best = magnitude;
      dominant = term;
    }
    sum += weight * weight;
    visit(f, term, weight);
  }
  return {dominant, std::sqrt(sum)};
}

DocKey doc_key(const vsm::SparseView& run) noexcept {
  return doc_key(run, [](std::size_t, InvertedIndex::TermId, double) {});
}

/// The weights an index stores: finite and non-zero. Branch-free, so a
/// validation loop over a span compiles to straight-line code.
bool is_stored_weight(double weight) noexcept {
  const double magnitude = std::abs(weight);
  return (magnitude > 0.0) & (magnitude <= std::numeric_limits<double>::max());
}

/// The prefix of a restore's diagnostics.
std::string shard_where(std::uint32_t shard) {
  return "snapshot: shard " + std::to_string(shard);
}

}  // namespace

InvertedIndex InvertedIndex::appended(
    std::span<const vsm::SparseVector> docs) const {
  const std::vector<vsm::SparseView> views(docs.begin(), docs.end());
  return appended(std::span<const vsm::SparseView>(views));
}

InvertedIndex InvertedIndex::appended(
    std::span<const vsm::SparseView> docs) const {
  // A non-finite weight would poison its document's cached norm, its terms'
  // max/min bounds and every score computed against them. A term id that
  // does not strictly increase would list the document twice in one span
  // (the accumulate's scatter needs distinct ids). Both produce a forward
  // store the snapshot loader rightly rejects. Refuse the whole batch
  // here, before any build, so every ingest path enforces one invariant.
  for (const vsm::SparseView& doc : docs) {
    for (const double value : doc.values) {
      if (!std::isfinite(value)) {
        throw std::invalid_argument(
            "InvertedIndex::appended: document carries a non-finite weight");
      }
    }
    for (std::size_t f = 1; f < doc.indices.size(); ++f) {
      if (doc.indices[f] <= doc.indices[f - 1]) {
        throw std::invalid_argument(
            "InvertedIndex::appended: document term ids are not strictly "
            "increasing");
      }
    }
  }
  if (docs.empty()) return *this;
  const std::size_t stored = size();
  std::size_t postings = forward_terms_.size();
  for (const vsm::SparseView& doc : docs) postings += doc.indices.size();

  // This index's forward store followed by the batch's runs, copied once.
  // The reservations are exact, so no stream carries spare capacity however
  // the store was assembled.
  ForwardVector<std::uint64_t> offsets;
  ForwardVector<TermId> terms;
  ForwardVector<double> weights;
  offsets.reserve(stored + docs.size() + 1);
  terms.reserve(postings);
  weights.reserve(postings);
  offsets.assign(forward_offsets_.begin(), forward_offsets_.end());
  terms.assign(forward_terms_.begin(), forward_terms_.end());
  weights.assign(forward_weights_.begin(), forward_weights_.end());
  for (const vsm::SparseView& doc : docs) {
    terms.insert(terms.end(), doc.indices.begin(), doc.indices.end());
    weights.insert(weights.end(), doc.values.begin(), doc.values.end());
    offsets.push_back(terms.size());
  }
  InvertedIndex out;
  out.forward_offsets_ = SharedSpan<std::uint64_t>(std::move(offsets));
  out.forward_terms_ = SharedSpan<TermId>(std::move(terms));
  out.forward_weights_ = SharedSpan<double>(std::move(weights));
  out.merge_arena(*this);
  return out;
}

std::size_t InvertedIndex::check_forward_offsets(std::uint32_t shard) const {
  using snapshot::SnapshotError;
  const auto& offsets = forward_offsets_;
  if (offsets.empty() || offsets.front() != 0) {
    throw SnapshotError(shard_where(shard) +
                        " offsets section must start at 0");
  }
  for (std::size_t d = 1; d < offsets.size(); ++d) {
    if (offsets[d] < offsets[d - 1]) {
      throw SnapshotError(shard_where(shard) + " offsets decrease at doc " +
                          std::to_string(d - 1));
    }
  }
  if (offsets.back() != forward_terms_.size() ||
      forward_terms_.size() != forward_weights_.size()) {
    throw SnapshotError(shard_where(shard) +
                        " posting streams disagree with the offset table");
  }
  std::size_t terms = 0;
  for (std::size_t d = 1; d < offsets.size(); ++d) {
    if (offsets[d] > offsets[d - 1]) {
      const TermId last = forward_terms_[offsets[d] - 1];
      terms = std::max(terms, static_cast<std::size_t>(last) + 1);
    }
  }
  return terms;
}

void InvertedIndex::check_forward_run(std::size_t doc,
                                      std::uint32_t shard) const {
  const vsm::SparseView run = forward_run(doc);
  bool unordered = false;
  for (std::size_t f = 1; f < run.indices.size(); ++f) {
    unordered |= run.indices[f] <= run.indices[f - 1];
  }
  bool stored = true;
  for (const double weight : run.values) stored &= is_stored_weight(weight);
  check_run_flags(doc, shard, unordered, stored);
}

void InvertedIndex::check_run_flags(std::size_t doc, std::uint32_t shard,
                                    bool unordered, bool stored) {
  using snapshot::SnapshotError;
  if (unordered) {
    throw SnapshotError(shard_where(shard) + " doc " + std::to_string(doc) +
                        " term ids are not strictly increasing");
  }
  // Zero weights never reach a forward store (SparseVector drops them at
  // construction), so one here means a damaged or crafted file.
  if (!stored) {
    throw SnapshotError(shard_where(shard) + " doc " + std::to_string(doc) +
                        " carries a non-finite or zero weight");
  }
}

std::size_t InvertedIndex::size_adopted_arena(std::uint32_t shard) {
  using snapshot::SnapshotError;
  const std::string where = shard_where(shard);
  // A forward store without an offset table fails in adopt_arena; until
  // then it counts as no documents.
  const std::size_t n =
      forward_offsets_.empty() ? 0 : forward_offsets_.size() - 1;
  const std::size_t postings = forward_terms_.size();
  if (arena_ids_.size() != postings || arena_weights_.size() != postings ||
      public_of_.size() != n) {
    throw SnapshotError(where + " arena sections disagree in size with the "
                                "forward store");
  }
  // The offset table sizes the block metadata, so it must describe the
  // streams before it sizes anything.
  const std::size_t terms = arena_terms();
  if (terms > 0) {
    if (arena_offsets_[0] != 0) {
      throw SnapshotError(where + " arena offsets must start at 0");
    }
    for (std::size_t t = 0; t < terms; ++t) {
      if (arena_offsets_[t + 1] < arena_offsets_[t]) {
        throw SnapshotError(where + " arena offsets decrease at term " +
                            std::to_string(t));
      }
    }
    if (arena_offsets_[terms] != postings) {
      throw SnapshotError(where + " arena offsets end short of or past the " +
                          std::to_string(postings) + " postings");
    }
  }
  // A shard without documents is the empty index, which has no arena.
  if (n == 0) return terms;
  internal_of_.resize(n);
  keys_.resize(n);
  norms_.resize(n);
  norms_sq_.resize(n);
  max_weight_.resize(terms);
  min_weight_.resize(terms);
  layout_blocks(arena_offsets_);
  return terms;
}

void InvertedIndex::adopt_arena(std::uint32_t shard,
                                std::span<std::size_t> counts) {
  using snapshot::SnapshotError;
  const std::string where = shard_where(shard);
  const std::size_t terms = check_forward_offsets(shard);
  const std::size_t n = forward_offsets_.size() - 1;
  // A shard without documents is the empty index, which has no arena.
  if (arena_offsets_.size() != (n == 0 ? 0 : terms + 1)) {
    throw SnapshotError(where + " arena sections disagree in size with the "
                                "forward store");
  }
  if (n == 0) return;

  // 1. public_of_ must name every document once; internal_of_ inverts it.
  constexpr DocId kUnset = std::numeric_limits<DocId>::max();
  std::fill(internal_of_.begin(), internal_of_.end(), kUnset);
  for (std::size_t r = 0; r < n; ++r) {
    const DocId g = public_of_[r];
    if (g >= n || internal_of_[g] != kUnset) {
      throw SnapshotError(where + " public-of is not a permutation");
    }
    internal_of_[g] = static_cast<DocId>(r);
  }

  // 2. One public-order pass over the forward store, as a build's: each
  //    run is checked, then its document's reorder key and norm (stored at
  //    its internal id) and its terms' posting counts are taken. The keys
  //    must then ascend along internal order, ties by public id: the order
  //    a build sorts documents into.
  //    The run is checked, keyed and counted in one walk. Only a strictly
  //    increasing run keeps every term below its last, so until the check
  //    has passed a count is clamped into range (a run that fails it
  //    throws before its counts are read).
  std::fill(counts.begin(), counts.end(), 0);
  const std::size_t last_term = terms == 0 ? 0 : terms - 1;
  for (std::size_t g = 0; g < n; ++g) {
    const vsm::SparseView run = forward_run(g);
    bool unordered = false;
    bool stored = true;
    const DocKey doc = doc_key(run, [&](std::size_t f, TermId term,
                                        double weight) {
      unordered |= f > 0 && term <= run.indices[f - 1];
      stored &= is_stored_weight(weight);
      ++counts[std::min<std::size_t>(term, last_term)];
    });
    check_run_flags(g, shard, unordered, stored);
    const DocId r = internal_of_[g];
    keys_[r] = doc.term;
    norms_[r] = doc.norm;
    norms_sq_[r] = doc.norm * doc.norm;
  }
  for (std::size_t r = 1; r < n; ++r) {
    if (keys_[r] < keys_[r - 1] ||
        (keys_[r] == keys_[r - 1] && public_of_[r] < public_of_[r - 1])) {
      throw SnapshotError(where + " public-of is not in build order");
    }
  }

  // 3. The offset table (which size_adopted_arena checked runs from 0 to
  //    the posting count) gives each term a span of exactly its forward
  //    postings.
  for (std::size_t t = 0; t < terms; ++t) {
    if (arena_offsets_[t + 1] - arena_offsets_[t] != counts[t]) {
      throw SnapshotError(where + " arena offsets disagree with the forward "
                                  "store at term " + std::to_string(t));
    }
  }

  // 4. One pass over the arena, a block at a time: every span's ids are in
  //    range and strictly increasing (so its last is its largest) and its
  //    weights finite and non-zero, like the forward store's. Each block's
  //    metadata is taken while the block is in cache, and the term's bounds
  //    are its blocks' bounds.
  std::size_t nonempty = 0;
  for (std::size_t t = 0; t < terms; ++t) {
    const std::size_t begin = arena_offsets_[t];
    const std::size_t end = arena_offsets_[t + 1];
    max_weight_[t] = 0.0;
    min_weight_[t] = 0.0;
    if (begin == end) continue;
    ++nonempty;
    bool disordered = arena_ids_[end - 1] >= n;
    bool stored = true;
    for (std::size_t b = arena_block_begin_[t], at = begin; at < end;
         ++b, at += kBlockSize) {
      const std::size_t block_end = std::min(at + kBlockSize, end);
      for (std::size_t i = at; i < block_end; ++i) {
        disordered |= i > begin && arena_ids_[i] <= arena_ids_[i - 1];
        stored &= is_stored_weight(arena_weights_[i]);
      }
      fill_block(b, at, block_end, arena_ids_, arena_weights_);
    }
    if (disordered) {
      throw SnapshotError(where + " arena ids of term " + std::to_string(t) +
                          " are out of range or not strictly increasing");
    }
    if (!stored) {
      throw SnapshotError(where + " arena weights of term " +
                          std::to_string(t) +
                          " carry a non-finite or zero weight");
    }
    const std::size_t first = arena_block_begin_[t];
    double max_w = block_max_w_[first];
    double min_w = block_min_w_[first];
    for (std::size_t b = first + 1; b < arena_block_begin_[t + 1]; ++b) {
      max_w = std::max(max_w, block_max_w_[b]);
      min_w = std::min(min_w, block_min_w_[b]);
    }
    max_weight_[t] = max_w;
    min_weight_[t] = min_w;
  }
  num_postings_ = forward_terms_.size();
  nonempty_terms_ = nonempty;
}

void InvertedIndex::save(snapshot::Writer& writer, std::uint32_t shard) const {
  // The writer borrows every array as it stands: the forward store in
  // public id order, then the arena a build sorted and scattered.
  using snapshot::SectionKind;
  writer.add_section(SectionKind::kForwardOffsets, shard,
                     std::span<const std::uint64_t>(forward_offsets_));
  writer.add_section(SectionKind::kTermIds, shard,
                     std::span<const TermId>(forward_terms_));
  writer.add_section(SectionKind::kWeights, shard,
                     std::span<const double>(forward_weights_));
  writer.add_section(SectionKind::kArenaOffsets, shard,
                     std::span<const std::uint64_t>(arena_offsets_));
  writer.add_section(SectionKind::kArenaIds, shard,
                     std::span<const DocId>(arena_ids_));
  writer.add_section(SectionKind::kArenaWeights, shard,
                     std::span<const double>(arena_weights_));
  writer.add_section(SectionKind::kPublicOf, shard,
                     std::span<const DocId>(public_of_));
}

InvertedIndex InvertedIndex::load(snapshot::Reader& reader,
                                  std::uint32_t shard) {
  return Restore(reader, shard).finish();
}

InvertedIndex::Restore::Restore(snapshot::Reader& reader, std::uint32_t shard)
    : shard_(shard), build_(reader.version() == 1) {
  // The sections become the index's arrays as they are. A v2 or v3 file
  // carries the arena, which is checked and completed; a v1 file only the
  // forward store, which finish() checks and merges onto the empty index.
  // Either way the result is byte-for-byte a fresh build, so every query
  // contract of a fresh index holds for a loaded one.
  using snapshot::SectionKind;
  index_.forward_offsets_ =
      reader.take_section<std::uint64_t>(SectionKind::kForwardOffsets, shard);
  index_.forward_terms_ =
      reader.take_section<TermId>(SectionKind::kTermIds, shard);
  index_.forward_weights_ =
      reader.take_section<double>(SectionKind::kWeights, shard);
  if (build_) {
    index_.check_forward_offsets(shard);
    return;
  }
  index_.arena_offsets_ =
      reader.take_section<std::uint64_t>(SectionKind::kArenaOffsets, shard);
  index_.arena_ids_ = reader.take_section<DocId>(SectionKind::kArenaIds, shard);
  index_.arena_weights_ =
      reader.take_section<double>(SectionKind::kArenaWeights, shard);
  index_.public_of_ =
      reader.take_section<DocId>(SectionKind::kPublicOf, shard);
  counts_.resize(index_.size_adopted_arena(shard));
}

InvertedIndex InvertedIndex::Restore::finish() {
  if (!build_) {
    index_.adopt_arena(shard_, counts_);
    return std::move(index_);
  }
  const std::size_t n = index_.forward_offsets_.size() - 1;
  for (std::size_t d = 0; d < n; ++d) index_.check_forward_run(d, shard_);
  // A shard without documents is the empty index, which has no arena.
  if (n > 0) index_.merge_arena(InvertedIndex());
  return std::move(index_);
}

void InvertedIndex::merge_arena(const InvertedIndex& old) {
  // `old` holds documents [0, stored) of this forward store. Documents are
  // ordered by reorder key (dominant term), ties by public id, so one
  // behavior's signatures become neighbors in internal id space (see the
  // header: this is what makes per-block id ranges selective). Old's
  // internal order is a subsequence of the new one: new documents have
  // larger public ids, so within one key they sort after every old one.
  // Each term's span is therefore old's span, renumbered, merged with the
  // new postings — only the new postings are scattered.
  const std::size_t stored = old.size();
  const std::size_t n = forward_offsets_.size() - 1;
  const std::size_t postings = forward_terms_.size();
  std::size_t terms = old.max_weight_.size();
  for (std::size_t g = stored; g < n; ++g) {
    const vsm::SparseView run = forward_run(g);
    if (!run.indices.empty()) {
      terms = std::max(terms, static_cast<std::size_t>(run.indices.back()) + 1);
    }
  }

  // 1. The new documents in key order, each placed behind the old ones of
  //    its key (old's keys ascend along its internal order). The q-th new
  //    document in key order lands at internal id fresh_internal[q],
  //    behind fresh_bound[q] old documents.
  const std::size_t fresh = n - stored;
  std::vector<DocId> order(fresh);
  std::vector<TermId> key(fresh);
  std::vector<double> fresh_norm(fresh);
  for (std::size_t q = 0; q < fresh; ++q) {
    const DocKey doc = doc_key(forward_run(stored + q));
    key[q] = doc.term;
    fresh_norm[q] = doc.norm;
    order[q] = static_cast<DocId>(stored + q);
  }
  std::sort(order.begin(), order.end(), [&](DocId a, DocId b) {
    if (key[a - stored] != key[b - stored]) {
      return key[a - stored] < key[b - stored];
    }
    return a < b;
  });
  std::vector<DocId> remap(stored);  // old internal id -> new internal id
  std::vector<DocId> fresh_internal(fresh);
  std::vector<DocId> fresh_bound(fresh);
  ForwardVector<DocId> public_of(n);
  internal_of_.resize(n);
  keys_.resize(n);
  norms_.resize(n);
  norms_sq_.resize(n);
  std::size_t r = 0;
  std::size_t old_r = 0;
  const auto take_old = [&](std::size_t end) {
    for (; old_r < end; ++old_r, ++r) {
      remap[old_r] = static_cast<DocId>(r);
      public_of[r] = old.public_of_[old_r];
      keys_[r] = old.keys_[old_r];
      norms_[r] = old.norms_[old_r];
      norms_sq_[r] = old.norms_sq_[old_r];
    }
  };
  for (std::size_t q = 0; q < fresh; ++q) {
    const DocId g = order[q];
    const TermId k = key[g - stored];
    take_old(static_cast<std::size_t>(
        std::upper_bound(old.keys_.begin() + old_r, old.keys_.end(), k) -
        old.keys_.begin()));
    fresh_internal[q] = static_cast<DocId>(r);
    fresh_bound[q] = static_cast<DocId>(old_r);
    public_of[r] = g;
    keys_[r] = k;
    const double norm = fresh_norm[g - stored];
    norms_[r] = norm;
    norms_sq_[r] = norm * norm;
    ++r;
  }
  take_old(stored);
  for (std::size_t i = 0; i < n; ++i) {
    internal_of_[public_of[i]] = static_cast<DocId>(i);
  }

  // 2. Bounds: old's, widened by the new postings in public order — the
  //    same fold one public-order pass over every document computes.
  //    New-posting counts per term ride along.
  const std::size_t old_terms = old.arena_terms();
  const auto old_begin = [&](std::size_t t) {
    return t < old_terms ? old.arena_offsets_[t] : old.num_postings_;
  };
  std::vector<double> max_w(terms, 0.0);
  std::vector<double> min_w(terms, 0.0);
  std::copy(old.max_weight_.begin(), old.max_weight_.end(), max_w.begin());
  std::copy(old.min_weight_.begin(), old.min_weight_.end(), min_w.begin());
  ForwardVector<std::uint64_t> fresh_offsets(terms + 1, 0);
  std::size_t nonempty = old.nonempty_terms_;
  for (std::size_t g = stored; g < n; ++g) {
    const vsm::SparseView run = forward_run(g);
    for (std::size_t f = 0; f < run.indices.size(); ++f) {
      const TermId term = run.indices[f];
      const double weight = run.values[f];
      if (fresh_offsets[term + 1]++ == 0 &&
          old_begin(term) == old_begin(term + 1)) {
        ++nonempty;
        max_w[term] = weight;
        min_w[term] = weight;
      } else {
        max_w[term] = std::max(max_w[term], weight);
        min_w[term] = std::min(min_w[term], weight);
      }
    }
  }

  // 3. A counting sort of only the new postings — each as its document's
  //    key-order rank q — visiting the new documents in key order, so each
  //    term's fresh span is sorted. It writes every slot once, so the
  //    streams are sized without a zero fill.
  for (std::size_t t = 0; t < terms; ++t) {
    fresh_offsets[t + 1] += fresh_offsets[t];
  }
  ArenaVector<DocId> fresh_rank(fresh_offsets[terms]);
  ArenaVector<double> fresh_weights(fresh_offsets[terms]);
  {
    std::vector<std::size_t> cursor(fresh_offsets.begin(),
                                    fresh_offsets.end() - 1);
    for (std::size_t q = 0; q < fresh; ++q) {
      const vsm::SparseView run = forward_run(order[q]);
      for (std::size_t f = 0; f < run.indices.size(); ++f) {
        const std::size_t slot = cursor[run.indices[f]]++;
        fresh_rank[slot] = static_cast<DocId>(q);
        fresh_weights[slot] = run.values[f];
      }
    }
  }

  // 4. Each term's span: runs of old's postings, renumbered through
  //    `remap` (monotone, so they stay sorted), with each fresh posting
  //    placed behind the old postings whose documents precede it. Its
  //    blocks follow while the span is still in cache. Without old
  //    postings the fresh rank is the internal id, so the scatter is the
  //    arena and only its blocks are filled.
  //    The streams are written front to back, so they are appended to,
  //    never zero-filled first.
  ForwardVector<std::uint64_t> offsets;
  ArenaVector<DocId> ids;
  ArenaVector<double> weights;
  if (stored == 0) {
    offsets = std::move(fresh_offsets);
    ids = std::move(fresh_rank);
    weights = std::move(fresh_weights);
    layout_blocks(offsets);
    for (std::size_t t = 0; t < terms; ++t) {
      fill_blocks(t, offsets, ids, weights);
    }
  } else {
    offsets.resize(terms + 1);
    for (std::size_t t = 0; t <= terms; ++t) {
      offsets[t] = old_begin(t) + fresh_offsets[t];
    }
    layout_blocks(offsets);
    ids.reserve(postings);
    weights.reserve(postings);
    const DocId* old_ids = old.arena_ids_.data();
    const double* old_weights = old.arena_weights_.data();
    const auto copy_old = [&](std::size_t begin, std::size_t end) {
      weights.insert(weights.end(), old_weights + begin, old_weights + end);
      for (std::size_t a = begin; a < end; ++a) {
        ids.push_back(remap[old_ids[a]]);
      }
    };
    for (std::size_t t = 0; t < terms; ++t) {
      std::size_t a = old_begin(t);
      const std::size_t a_end = old_begin(t + 1);
      for (std::size_t b = fresh_offsets[t]; b < fresh_offsets[t + 1]; ++b) {
        const DocId q = fresh_rank[b];
        std::size_t run_end = a;
        while (run_end < a_end && old_ids[run_end] < fresh_bound[q]) ++run_end;
        copy_old(a, run_end);
        a = run_end;
        ids.push_back(fresh_internal[q]);
        weights.push_back(fresh_weights[b]);
      }
      copy_old(a, a_end);
      fill_blocks(t, offsets, ids, weights);
    }
  }
  arena_offsets_ = SharedSpan<std::uint64_t>(std::move(offsets));
  arena_ids_ = SharedSpan<DocId>(std::move(ids));
  arena_weights_ = SharedSpan<double>(std::move(weights));
  public_of_ = SharedSpan<DocId>(std::move(public_of));
  max_weight_ = std::move(max_w);
  min_weight_ = std::move(min_w);
  num_postings_ = postings;
  nonempty_terms_ = nonempty;
}

void InvertedIndex::layout_blocks(std::span<const std::uint64_t> offsets) {
  const std::size_t terms = offsets.empty() ? 0 : offsets.size() - 1;
  arena_block_begin_.assign(terms + 1, 0);
  for (std::size_t t = 0; t < terms; ++t) {
    const std::size_t len = offsets[t + 1] - offsets[t];
    arena_block_begin_[t + 1] =
        arena_block_begin_[t] + (len + kBlockSize - 1) / kBlockSize;
  }
  const std::size_t blocks = arena_block_begin_[terms];
  block_last_doc_.resize(blocks);
  block_max_w_.resize(blocks);
  block_min_w_.resize(blocks);
}

void InvertedIndex::fill_blocks(std::size_t term,
                                std::span<const std::uint64_t> offsets,
                                std::span<const DocId> ids,
                                std::span<const double> weights) {
  const std::size_t first = arena_block_begin_[term];
  for (std::size_t b = first; b < arena_block_begin_[term + 1]; ++b) {
    const std::size_t begin = offsets[term] + (b - first) * kBlockSize;
    fill_block(b, begin,
               std::min<std::size_t>(begin + kBlockSize, offsets[term + 1]),
               ids, weights);
  }
}

void InvertedIndex::fill_block(std::size_t block, std::size_t begin,
                               std::size_t end, std::span<const DocId> ids,
                               std::span<const double> weights) {
  block_last_doc_[block] = ids[end - 1];
  double block_max_w = weights[begin];
  double block_min_w = weights[begin];
  for (std::size_t i = begin + 1; i < end; ++i) {
    block_max_w = std::max(block_max_w, weights[i]);
    block_min_w = std::min(block_min_w, weights[i]);
  }
  block_max_w_[block] = block_max_w;
  block_min_w_[block] = block_min_w;
}

const char* InvertedIndex::scoring_kernel() noexcept {
  return kernels::avx512_supported() ? "avx512f" : "scalar";
}

std::size_t InvertedIndex::num_postings_for(
    const vsm::SparseVector& query) const noexcept {
  std::size_t total = 0;
  for (const auto term : query.indices()) {
    if (term < arena_terms()) {
      total += arena_offsets_[term + 1] - arena_offsets_[term];
    }
  }
  return total;
}

MemoryBreakdown InvertedIndex::memory_breakdown() const noexcept {
  MemoryBreakdown mem;
  mem.postings = arena_ids_.size() * sizeof(DocId) +
                 arena_weights_.size() * sizeof(double);
  mem.offsets = arena_offsets_.size() * sizeof(std::uint64_t) +
                arena_block_begin_.capacity() * sizeof(std::size_t) +
                max_weight_.capacity() * sizeof(double) +
                min_weight_.capacity() * sizeof(double) +
                internal_of_.capacity() * sizeof(DocId) +
                public_of_.size() * sizeof(DocId) +
                keys_.capacity() * sizeof(TermId);
  mem.blocks = block_last_doc_.capacity() * sizeof(DocId) +
               block_max_w_.capacity() * sizeof(double) +
               block_min_w_.capacity() * sizeof(double);
  mem.forward = forward_offsets_.size() * sizeof(std::uint64_t) +
                forward_terms_.size() * sizeof(TermId) +
                forward_weights_.size() * sizeof(double) +
                norms_.capacity() * sizeof(double) +
                norms_sq_.capacity() * sizeof(double);
  return mem;
}

std::vector<IndexHit> InvertedIndex::top_k(const vsm::SparseVector& query,
                                           std::size_t k, Metric metric,
                                           TopKScratch* scratch,
                                           double seed_score,
                                           PruneStats* stats,
                                           const Deadline* deadline) const {
  const std::size_t n = size();
  const std::size_t top = std::min(k, n);
  // k == 0 and the all-zero/empty query are defined to return no hits (the
  // brute-force scan applies the same rule, so the paths stay equivalent).
  if (top == 0 || query.empty()) return {};

  // Cooperative checkpoints: the walks below are split into stride()-sized
  // chunks and charge the guard after each one. Without an active deadline
  // stride() is effectively infinite (one chunk == the original loop) and
  // charge() is a single predictable branch, so results — and the
  // instruction stream of the hot inner loops — are unchanged. The polls
  // the guard does perform land in stats->checkpoint_polls even when a
  // checkpoint throws QueryInterrupted mid-walk.
  CheckpointGuard guard(deadline,
                        stats != nullptr ? &stats->checkpoint_polls : nullptr);
  const std::size_t stride = guard.stride();

  // Term-at-a-time accumulation of dot(query, doc) for every doc. Query
  // terms arrive in ascending index order, so each accumulator sums its
  // doc's shared terms in the same order as vsm::dot's merge join
  // (each doc holds a term at most once), so results stay bit-identical.
  // The accumulator lives in the caller's scratch when provided, so a batch
  // of queries pays for the allocation once.
  TopKScratch local;
  TopKScratch& state = scratch != nullptr ? *scratch : local;
  state.accumulators.assign(n, 0.0);
  double* acc = state.accumulators.data();
  const auto q_indices = query.indices();
  const auto q_values = query.values();
  std::size_t visited = 0;
#if defined(__GNUC__) || defined(__clang__)
  // Upfront prefetch pass: issue prefetches for every arena span before the
  // walk, so short spans overlap their memory latency instead of paying it
  // serially span by span — the penalty that otherwise makes many small
  // shards slower than one big one (a 10k corpus split 8 ways leaves ~66
  // postings per span, too short for the hardware prefetcher to wind up).
  // Long spans (average ≥ 256 postings) stream fine on their own, and the
  // extra prefetch instructions only cost there, so the pass is gated on
  // the measured average span length.
  if (arena_terms() > 0 && arena_ids_.size() < arena_terms() * 256) {
    const DocId* ids = arena_ids_.data();
    const double* ws = arena_weights_.data();
    for (std::size_t i = 0; i < q_indices.size(); ++i) {
      const std::size_t term = q_indices[i];
      if (term >= arena_terms()) continue;
      const std::size_t begin = arena_offsets_[term];
      // Only the head of each span: the cost being hidden is the cold
      // span-*start* latency while the hardware prefetcher winds up; once a
      // span streams, software hints are redundant instructions. Hot Zipf
      // terms keep long spans even in a heavily sharded corpus, and
      // covering them end-to-end was measurably pure overhead.
      const std::size_t end =
          std::min(arena_offsets_[term + 1], begin + 128);
      for (std::size_t p = begin; p < end; p += 8) {
        __builtin_prefetch(ws + p);
        __builtin_prefetch(ids + p);
      }
    }
  }
#endif
  // Hot kernel: two contiguous streams (4-byte ids, 8-byte weights), on
  // AVX-512F hosts 8 postings per step (kernels.hpp).
  const bool simd = kernels::use_avx512(n);
  const kernels::AccumulateFn accumulate =
      simd ? kernels::accumulate_avx512 : kernels::accumulate_scalar;
  const DocId* ids = arena_ids_.data();
  const double* ws = arena_weights_.data();
  for (std::size_t i = 0; i < q_indices.size(); ++i) {
    const std::size_t term = q_indices[i];
    const double q_weight = q_values[i];
    if (term < arena_terms()) {
      const std::size_t begin = arena_offsets_[term];
      const std::size_t end = arena_offsets_[term + 1];
      for (std::size_t i2 = begin; i2 < end;) {
        const std::size_t chunk = std::min(end - i2, stride);
        accumulate(acc, ids + i2, ws + i2, chunk, q_weight);
        i2 += chunk;
        guard.charge(chunk);
      }
      visited += end - begin;
    }
  }

  // Score every doc (including ones with zero overlap — the scan ranks them
  // too).
  BoundedHeap heap;
  score_dense<1>(acc, norms_, public_of_, query.norm_l2(), metric, seed_score,
                 top, heap, guard,
                 simd ? kernels::pretest_scan_avx512
                      : kernels::pretest_scan_scalar);
  if (stats != nullptr) {
    stats->docs_scored += n;
    stats->postings_visited += visited;
  }
  return drain_heap(heap);
}

std::vector<IndexHit> InvertedIndex::top_k_pruned(
    const vsm::SparseVector& query, std::size_t k, Metric metric,
    TopKScratch* scratch, double seed_score, PruneStats* stats,
    const Deadline* deadline) const {
  const std::size_t n = size();
  const std::size_t top = std::min(k, n);
  if (top == 0 || query.empty()) return {};
  // k >= size(): every document must be returned, so there is nothing to
  // prune — the exact dense pass is the cheapest correct answer (and its
  // bit-identical scores trivially satisfy the 1e-9 contract).
  if (top == n) {
    return top_k(query, k, metric, scratch, seed_score, stats, deadline);
  }

  TopKScratch local;
  TopKScratch& state = scratch != nullptr ? *scratch : local;

  // Same cooperative-checkpoint contract as top_k(): chunked walks charge
  // completed work, the guard polls every ~kInterval units, and an inactive
  // deadline leaves the hot loops' instruction stream unchanged. An
  // interruption unwinds mid-phase; the epoch/rescore stamps make the
  // scratch safe to reuse on the next call regardless of where.
  CheckpointGuard guard(deadline,
                        stats != nullptr ? &stats->checkpoint_polls : nullptr);
  const std::size_t stride = guard.stride();

  const double q_norm = query.norm_l2();
  const double q_norm_sq = q_norm * q_norm;
  const auto q_indices = query.indices();
  const auto q_values = query.values();
  const std::size_t term_space = arena_terms();

  const auto arena_len = [&](TermId term) -> std::size_t {
    return arena_offsets_[term + 1] - arena_offsets_[term];
  };

  // Query terms with postings, each with its per-term score impact
  // |q_w| * extreme posting weight, clamped at 0: a per-term cap on any
  // document's score gain from that list (a doc missing the term gains 0),
  // so impact suffix sums bound the unprocessed remainder.
  struct TermRef {
    double impact;
    double q_weight;
    double key;  ///< precomputed sort key — see below
    TermId term;
  };
  // The sort key is computed here, in the same pass that already loads each
  // term's list lengths, never inside the comparator: a comparator chasing
  // arena_offsets_ does two random reads per comparison, and at many small
  // shards that made the sort a top-three cost of the whole pruned call.
  //
  // List order: the bootstrap's job is to shrink the Cauchy–Schwarz slack
  // |q_rem|·|d_rem|, and |q_rem| falls with the query mass q_w² retired per
  // list while the cost is the list's postings — so the head is a greedy
  // knapsack on mass retired per posting visited, not on impact. (The
  // partial dots still surface the true top-k contenders: mass-heavy lists
  // dominate every large dot product, and the threshold re-scores its
  // candidates exactly before any pruning decision rests on it.)
  std::vector<TermRef> terms;
  terms.reserve(q_indices.size());
  for (std::size_t i = 0; i < q_indices.size(); ++i) {
    const std::size_t term = q_indices[i];
    if (term >= term_space) continue;
    const std::size_t len = arena_len(static_cast<TermId>(term));
    if (len == 0) continue;
    const double impact = std::max(q_values[i] * max_weight_[term],
                                   q_values[i] * min_weight_[term]);
    const double clamped = std::max(impact, 0.0);
    const double key =
        q_values[i] * q_values[i] / static_cast<double>(len + 1);
    terms.push_back({clamped, q_values[i], key, static_cast<TermId>(term)});
  }
  std::sort(terms.begin(), terms.end(),
            [](const TermRef& a, const TermRef& b) {
              if (a.key != b.key) return a.key > b.key;
              return a.term < b.term;  // deterministic order under ties
            });
  std::vector<std::size_t> suffix_postings(terms.size() + 1, 0);
  std::vector<double> suffix_impact(terms.size() + 1, 0.0);
  for (std::size_t j = terms.size(); j-- > 0;) {
    suffix_postings[j] = suffix_postings[j + 1] + arena_len(terms[j].term);
    suffix_impact[j] = suffix_impact[j + 1] + terms[j].impact;
  }

  // Densified query: O(1) weight lookups during candidate re-scoring.
  state.query_dense.assign(term_space, 0.0);
  for (std::size_t i = 0; i < q_indices.size(); ++i) {
    if (q_indices[i] < term_space) {
      state.query_dense[q_indices[i]] = q_values[i];
    }
  }

  // Interleaved per-doc state — acc_mass[2d] is the partial dot, [2d+1] the
  // squared mass of the doc's already-processed terms (one cache line per
  // posting touch instead of two). The buffer is not zeroed at all: a slot
  // is valid only while its epoch stamp matches this query's counter and
  // is reset lazily on first touch, so the query's working set is the docs
  // its postings actually reach — no O(#docs) zeroing pass (2n doubles,
  // the single largest fixed cost at archive scale). `touched` records
  // exactly the docs with head-phase state; `slots_valid` flips once a
  // full-corpus repair pass has stamped every slot (give-up and fallback
  // scans need the whole array readable).
  state.acc_mass.resize(2 * n);
  if (state.epoch.size() != n) {
    state.epoch.assign(n, 0);
    state.epoch_counter = 0;
  }
  if (++state.epoch_counter == 0) {  // stamp wrap: all stamps invalid again
    state.epoch.assign(n, 0);
    state.epoch_counter = 1;
  }
  state.touched.clear();
  double* acc_mass = state.acc_mass.data();
  std::uint32_t* epoch = state.epoch.data();
  const std::uint32_t cur_epoch = state.epoch_counter;
  bool slots_valid = false;
  // Stamps every stale slot as a zeroed valid slot (one O(#docs) pass) —
  // the escape hatch for code paths that must read the whole array.
  const auto repair_all_slots = [&] {
    if (slots_valid) return;
    for (std::size_t d = 0; d < n; ++d) {
      if (epoch[d] != cur_epoch) {
        epoch[d] = cur_epoch;
        acc_mass[2 * d] = 0.0;
        acc_mass[2 * d + 1] = 0.0;
      }
    }
    slots_valid = true;
  };

  // Per-doc norms in internal (arena) order — every doc id inside this
  // function is an internal id until the final heaps translate back.
  const double* snorms = norms_.data();
  const double* snorms_sq = norms_sq_.data();

  // Forward-store run length of internal doc `doc` (the store is in public
  // order, so the run is reached through public_of_).
  const auto forward_extent = [&](DocId doc) {
    const std::size_t pub = public_of_[doc];
    return forward_offsets_[pub + 1] - forward_offsets_[pub];
  };

  // Exact re-score of one doc from the forward store. The merge order (and
  // therefore the rounding) matches vsm::dot, so these scores are
  // bit-identical to the brute-force scan.
  const auto exact_score = [&](DocId doc) {
    double dot = 0.0;
    const double* qd = state.query_dense.data();
    const std::size_t pub = public_of_[doc];
    for (std::size_t f = forward_offsets_[pub]; f < forward_offsets_[pub + 1];
         ++f) {
      dot += forward_weights_[f] * qd[forward_terms_[f]];
    }
    if (metric == Metric::kCosine) {
      return (q_norm == 0.0 || snorms[doc] == 0.0)
                 ? 0.0
                 : dot / (q_norm * snorms[doc]);
    }
    const double sq = q_norm_sq + snorms_sq[doc] - 2.0 * dot;
    return sq <= 0.0 ? -0.0 : -std::sqrt(sq);
  };

  // Memoized exact re-score. Every theta raise probes the current best
  // accumulators — overwhelmingly the same leading documents as the raise
  // before — and a doc's exact score never changes within one call, so the
  // second and later probes return the cached double instead of walking the
  // forward store. At many small shards the refresh cadence makes this the
  // dominant saving: raises scale with shard count while the distinct docs
  // they probe barely grow. Stamped lazily like the accumulator epochs (no
  // O(#docs) clearing per query); `forward_gathers` counts real walks only,
  // so the counter keeps meaning "forward-store work".
  if (state.rescore_epoch.size() != n) {
    state.rescore_epoch.assign(n, 0);
    state.rescore_score.resize(n);
    state.rescore_counter = 0;
  }
  if (++state.rescore_counter == 0) {  // stamp wrap: all stamps invalid again
    state.rescore_epoch.assign(n, 0);
    state.rescore_counter = 1;
  }
  const auto memo_score = [&](DocId doc) {
    if (state.rescore_epoch[doc] == state.rescore_counter) {
      return state.rescore_score[doc];
    }
    state.rescore_epoch[doc] = state.rescore_counter;
    return state.rescore_score[doc] = exact_score(doc);
  };

  std::size_t visited = 0;
  std::size_t blocks_skipped = 0;
  std::size_t forward_gathers = 0;
  // Set when a block with surviving docs was skipped on its weight bound:
  // those survivors' accumulators then understate their true partial dot
  // (by non-positive contributions only — bounds stay conservative), so the
  // final scores must come from the exact forward re-score, not the
  // accumulators.
  bool weight_skipped = false;

  /// Full accumulation (dot + mass) of one term's arena span. Lazily resets
  /// stale slots and records first touches.
  const auto touch_slot = [&](DocId d) -> double* {
    double* slot = acc_mass + 2 * d;
    if (epoch[d] != cur_epoch) {
      epoch[d] = cur_epoch;
      slot[0] = 0.0;
      slot[1] = 0.0;
      state.touched.push_back(d);
    }
    return slot;
  };
  const auto accumulate_full = [&](TermId term, double q_weight) {
    const std::size_t begin = arena_offsets_[term];
    const std::size_t end = arena_offsets_[term + 1];
    const DocId* ids = arena_ids_.data();
    const double* ws = arena_weights_.data();
    std::size_t i = begin;
    while (i < end) {
      const std::size_t stop = end - i > stride ? i + stride : end;
      const std::size_t chunk = stop - i;
      for (; i < stop; ++i) {
#if defined(__GNUC__) || defined(__clang__)
        if (i + 12 < end) __builtin_prefetch(acc_mass + 2 * ids[i + 12], 1);
#endif
        double* slot = touch_slot(ids[i]);
        slot[0] += q_weight * ws[i];
        slot[1] += ws[i] * ws[i];
      }
      guard.charge(chunk);
    }
    visited += end - begin;
  };

  double q_rem_sq = 0.0;  // squared norm of the unprocessed query prefix
  for (const auto& term : terms) q_rem_sq += term.q_weight * term.q_weight;

  // Head phase: accumulate the highest-impact lists (dot and mass) until
  // the bulk of the query's mass is covered and partial accumulators can
  // identify the true top-k contenders.
  const double boot_target = (1.0 - kFrozenBootstrapMassFraction) *
                             (q_rem_sq > 0.0 ? q_rem_sq : 1.0);
  std::size_t li = 0;
  for (; li < terms.size() && (q_rem_sq > boot_target || li < 2); ++li) {
    accumulate_full(terms[li].term, terms[li].q_weight);
    q_rem_sq -= terms[li].q_weight * terms[li].q_weight;
  }

  // Threshold bootstrap/refresh: pick the best `depth` docs by a cheap
  // partial key, re-score them *exactly*, and take the k-th best of those
  // exact scores. At least k of the re-scored documents provably reach
  // that score, so pruning strictly below it can never evict a true top-k
  // member — ties included. Depth > k is a pure threshold sharpener: the
  // partial key mis-ranks some contenders, and a few extra exact
  // re-scores (2k total, each one forward extent) recover the true k-th
  // best far more often than a k-deep probe — measurably the difference
  // between the survivor set collapsing or not at an early bootstrap.
  double theta = seed_score;
  const std::size_t boot_depth = 2 * top;
  std::vector<double> rescored;
  const auto raise_theta = [&](const std::uint32_t* docs, std::size_t count) {
    // One checkpoint per raise, charged at the scan's size: the raise
    // itself is a cheap partial-key scan plus at most boot_depth memoized
    // re-scores, so per-raise granularity is plenty.
    guard.charge(count);
    BoundedHeap best;
    const auto offer = [&](DocId d) {
      // Partial key: the partial dot, for both metrics. Any candidates
      // yield a valid (if possibly loose) threshold — the exact re-score
      // below is what pruning decisions rest on — and for the
      // L2-normalized signatures this system stores, the dot orders
      // Euclidean candidates the same as 2*dot - |d|^2 would, without
      // streaming norms_sq_ through the O(#docs) scan.
      heap_offer(best, boot_depth, IndexHit{d, acc_mass[2 * d]});
    };
    for (std::size_t i = 0; i < count; ++i) offer(docs[i]);
    if (best.size() < top) return;  // not enough docs to back a threshold
    rescored.clear();
    while (!best.empty()) {
      rescored.push_back(memo_score(best.top().doc));
      best.pop();
    }
    // k-th largest exact score among the re-scored candidates.
    std::nth_element(rescored.begin(),
                     rescored.begin() + static_cast<std::ptrdiff_t>(top - 1),
                     rescored.end(), std::greater<double>());
    theta = std::max(theta, rescored[top - 1]);
  };
  // Bootstrap from the docs the head phase actually reached: untouched
  // docs all carry a zero partial dot, so they cannot improve the best-k
  // partial key (and their slots were never materialized).
  raise_theta(state.touched.data(), state.touched.size());

  // A doc survives unless its best possible score falls strictly below the
  // (margin-relaxed) threshold. The remaining dot is capped by the tighter
  // of two bounds: Cauchy–Schwarz over the unprocessed mass,
  //   dot_rem(d) <= |q_rem| * sqrt(|d|^2 - mass(d)),
  // and the max-score suffix bound (sum of the unprocessed lists' clamped
  // impacts, one value for the whole corpus). Comparisons are squared so
  // the hot loop has no sqrt/divide. Alongside filtering, the survivors'
  // total forward extent is re-measured — the exact cost of candidate-mode
  // re-scoring, which the switch below weighs against the postings ahead.
  double alive_extent_sum = 0.0;
  const auto filter_alive = [&](std::vector<std::uint32_t>& alive,
                                bool from_all, double rem_impact) {
    // One checkpoint per filter pass, charged at the candidate count it is
    // about to scan (the full corpus on the bootstrap pass).
    guard.charge(from_all ? n : alive.size());
    const double theta_m =
        theta - kThetaMargin * std::max(1.0, std::abs(theta));
    const double q_rem_2 = std::max(q_rem_sq, 0.0);
    alive_extent_sum = 0.0;
    std::size_t w = 0;
    const auto keep = [&](DocId d) {
      const double acc = acc_mass[2 * d];
      const double mass = acc_mass[2 * d + 1];
      const double d_rem_2 = std::max(snorms_sq[d] - mass, 0.0);
      bool kept;
      if (metric == Metric::kCosine) {
        // acc + min(|q_rem|*|d_rem|, rem_impact) >= theta_m * |q| * |d| ?
        const double rhs = theta_m * q_norm * snorms[d] - acc;
        kept = rhs <= 0.0 ||
               (rem_impact >= rhs && q_rem_2 * d_rem_2 >= rhs * rhs);
      } else {
        // -sqrt(|q|^2+|d|^2-2*(acc + min(...))) >= theta_m ?
        const double lhs =
            q_norm_sq + snorms_sq[d] - 2.0 * acc - theta_m * theta_m;
        kept = lhs <= 0.0 ||
               (2.0 * rem_impact >= lhs && lhs * lhs <= 4.0 * q_rem_2 * d_rem_2);
      }
      if (kept) alive_extent_sum += static_cast<double>(forward_extent(d));
      return kept;
    };
    if (from_all) {
      alive.clear();
      // Every untouched doc has acc = 0 and its full mass remaining, so one
      // closed-form bound settles them all: for cosine the norms cancel
      // (best possible score |q_rem| / |q|; zero-norm docs score exactly
      // 0), for euclidean the supremum over any doc norm is
      // -sqrt(max(|q|² - |q_rem|², 0)), attained at |d| = |q_rem|. When that
      // best case falls strictly below the threshold, the filter scans only
      // the touched list instead of the whole corpus.
      const bool untouched_discharged =
          metric == Metric::kCosine
              ? theta_m > 0.0 &&
                    (q_norm == 0.0 || q_rem_2 < theta_m * theta_m * q_norm_sq)
              : -std::sqrt(std::max(q_norm_sq - q_rem_2, 0.0)) < theta_m;
      if (untouched_discharged) {
        for (const auto d : state.touched) {
          if (keep(d)) alive.push_back(d);
        }
        // The block-skip cursor and the shard merge both rely on ascending
        // ids; touched is in first-touch order, so restore the invariant.
        std::sort(alive.begin(), alive.end());
      } else {
        repair_all_slots();
        for (std::size_t d = 0; d < n; ++d) {
          if (keep(static_cast<DocId>(d))) {
            alive.push_back(static_cast<DocId>(d));
          }
        }
      }
    } else {
      for (const auto d : alive) {
        if (keep(d)) alive[w++] = d;
      }
      alive.resize(w);
    }
  };
  std::vector<std::uint32_t>& alive = state.alive;
  filter_alive(alive, /*from_all=*/true, suffix_impact[li]);

  // Pruning-hostile corpus (every document looks like every other): if the
  // bootstrap bound could not discard at least a quarter of the corpus, the
  // per-list re-filtering below would cost O(#docs) per list for nothing.
  // Finish as a plain dense accumulation instead — same results, and the
  // overhead stays bounded at the head/bootstrap work already spent.
  // (Re-examined for the block-max path: block skipping does not help here
  // either, because blocks full of survivors cannot be skipped, so the 3/4
  // give-up line carries over unchanged.)
  if (alive.size() * 4 > 3 * n) {
    repair_all_slots();  // the dense finish reads every doc's accumulator
    const auto accumulate_dot = [&](TermId term, double q_weight) {
      const std::size_t begin = arena_offsets_[term];
      const std::size_t end = arena_offsets_[term + 1];
      const DocId* ids = arena_ids_.data();
      const double* ws = arena_weights_.data();
      std::size_t i = begin;
      while (i < end) {
        const std::size_t stop = end - i > stride ? i + stride : end;
        const std::size_t chunk = stop - i;
        for (; i < stop; ++i) {
          acc_mass[2 * ids[i]] += q_weight * ws[i];
        }
        guard.charge(chunk);
      }
      visited += end - begin;
    };
    for (; li < terms.size(); ++li) {
      accumulate_dot(terms[li].term, terms[li].q_weight);
    }
    // The exact path's scoring pass, running threshold included, over the
    // interleaved accumulators.
    BoundedHeap heap;
    score_dense<2>(acc_mass, norms_, public_of_, q_norm, metric, seed_score,
                   top, heap, guard);
    if (stats != nullptr) {
      stats->docs_scored += n;
      stats->postings_visited += visited;
    }
    return drain_heap(heap);
  }

  /// Block-skipping accumulation of one term. A block is skipped when its
  /// doc-id range holds no survivor (the survivor list and the id stream
  /// are both sorted, so one cursor decides each block from the metadata
  /// alone — zero posting loads) or when its best weight bound cannot
  /// contribute positive score (see weight_skipped above). Skipped blocks
  /// hold only postings the survivors never needed, so the per-doc bounds
  /// stay conservative with the full q_weight² still retired from q_rem.
  const auto accumulate_skipping = [&](TermId term, double q_weight) {
    const std::size_t b0 = arena_block_begin_[term];
    const std::size_t b1 = arena_block_begin_[term + 1];
    const std::size_t off = arena_offsets_[term];
    const std::size_t end_off = arena_offsets_[term + 1];
    const DocId* ids = arena_ids_.data();
    const double* ws = arena_weights_.data();
    std::size_t a = 0;  // cursor into the sorted survivor list
    for (std::size_t b = b0; b < b1; ++b) {
      if (a == alive.size()) {  // no survivors left: the rest all skip
        blocks_skipped += b1 - b;
        break;
      }
      const DocId last = block_last_doc_[b];
      if (alive[a] > last) {
        ++blocks_skipped;  // no survivor falls inside this block
      } else if (std::max(q_weight * block_max_w_[b],
                          q_weight * block_min_w_[b]) <= 0.0) {
        ++blocks_skipped;  // block cannot raise any survivor's score
        weight_skipped = true;
        while (a < alive.size() && alive[a] <= last) ++a;
      } else {
        const std::size_t begin = off + (b - b0) * kBlockSize;
        const std::size_t end = std::min(begin + kBlockSize, end_off);
        for (std::size_t i = begin; i < end; ++i) {
          double* slot = acc_mass + 2 * ids[i];
          slot[0] += q_weight * ws[i];
          slot[1] += ws[i] * ws[i];
        }
        visited += end - begin;
        // Per-processed-block checkpoint (one branch per kBlockSize
        // postings); skipped blocks are three metadata loads and ride on
        // the next processed block's charge.
        guard.charge(end - begin);
        while (a < alive.size() && alive[a] <= last) ++a;
      }
    }
  };

  // Tail phase: keep walking lists (tightening acc, mass and theta) until
  // finishing the survivors off the forward store is cheaper than the
  // posting entries still ahead. "Still ahead" is discounted by how much
  // block skipping is actually saving: before any tail list has run, a
  // uniform-spread prior (a block of B postings over survivor fraction p
  // intersects with probability ≈ min(1, pB)); afterwards, the measured
  // fraction of tail postings that survived skipping. Survivors clustered
  // in doc-id space (one behavior's incidents arrive together) make
  // skipping far cheaper than the prior predicts, and the measurement is
  // what lets the switch keep skipping instead of bailing to the forward
  // store. The floor of 1/kBlockSize prices the metadata scan a fully
  // skipped list still pays.
  bool candidate_mode = false;
  double last_raise_rem = q_rem_sq;
  double skip_scale = std::min(1.0, static_cast<double>(alive.size()) *
                                        static_cast<double>(kBlockSize) /
                                        static_cast<double>(n));
  std::size_t tail_len_seen = 0;
  std::size_t tail_visited_base = visited;
  for (; li < terms.size(); ++li) {
    if (kCandidateSwitchFactor * alive_extent_sum <
        skip_scale * static_cast<double>(suffix_postings[li])) {
      candidate_mode = true;
      break;
    }
    accumulate_skipping(terms[li].term, terms[li].q_weight);
    tail_len_seen += arena_len(terms[li].term);
    if (tail_len_seen > 0) {
      skip_scale = std::max(
          static_cast<double>(visited - tail_visited_base) /
              static_cast<double>(tail_len_seen),
          1.0 / static_cast<double>(kBlockSize));
    }
    q_rem_sq -= terms[li].q_weight * terms[li].q_weight;
    if (q_rem_sq <= kFrozenThetaRefreshFactor * last_raise_rem) {
      last_raise_rem = q_rem_sq;
      raise_theta(alive.data(), alive.size());
    }
    filter_alive(alive, /*from_all=*/false, suffix_impact[li + 1]);
#ifdef FMETER_PRUNE_DEBUG
    std::fprintf(stderr,
                 "li=%zu alive=%zu theta=%.6f q_rem=%.4f skip_scale=%.3f "
                 "suffix=%zu extent=%.0f visited=%zu\n",
                 li, alive.size(), theta, q_rem_sq, skip_scale,
                 suffix_postings[li + 1], alive_extent_sum, visited);
#endif
  }

  // Final scoring over the survivors only. The exact forward-store score
  // (bit-identical to the scan) whenever the accumulators may be
  // incomplete — candidate mode abandoned lists, a weight skip withheld
  // non-positive contributions; otherwise the completed accumulators,
  // matching the exact path's formula (doc-id skips never touch a
  // survivor's postings, so survivors' accumulators are complete).
  BoundedHeap heap;
  const bool rescore = candidate_mode || weight_skipped;
  if (rescore) {
    const obs::StageSpan rescore_span(obs::Stage::kRescore);
    // Bound-ordered re-scoring: candidates are gathered from the forward
    // store in descending upper-bound order, and the gather stops the
    // moment the next bound falls strictly below the worst retained exact
    // score — every remaining candidate's true score sits under its bound,
    // so none of them can enter the top-k (a candidate tied exactly at the
    // k-th score has bound >= score and is never cut off, keeping the
    // ascending-id tie-break intact). In practice this prunes most of the
    // forward gather, the biggest remaining cost of candidate mode.
    const double q_rem_2 = std::max(q_rem_sq, 0.0);
    const double rem_impact = suffix_impact[li];
    std::vector<std::pair<double, DocId>> by_bound;
    by_bound.reserve(alive.size());
    for (const auto d : alive) {
      const double acc = acc_mass[2 * d];
      const double mass = acc_mass[2 * d + 1];
      const double d_rem = std::sqrt(std::max(snorms_sq[d] - mass, 0.0));
      const double rem = std::min(std::sqrt(q_rem_2) * d_rem, rem_impact);
      double bound;
      if (metric == Metric::kCosine) {
        bound = (q_norm == 0.0 || snorms[d] == 0.0)
                    ? 0.0
                    : (acc + rem) / (q_norm * snorms[d]);
      } else {
        const double sq = q_norm_sq + snorms_sq[d] - 2.0 * (acc + rem);
        bound = sq <= 0.0 ? -0.0 : -std::sqrt(sq);
      }
      by_bound.emplace_back(bound, d);
    }
    std::sort(by_bound.begin(), by_bound.end(),
              [](const std::pair<double, DocId>& a,
                 const std::pair<double, DocId>& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;  // deterministic under ties
              });
    for (const auto& [bound, d] : by_bound) {
      if (heap.size() == top && bound < heap.top().score) break;
      // Charged at the candidate's forward extent — the work the gather is
      // about to do (memo hits overcharge slightly, which only polls a bit
      // early; the cadence stays amortized).
      guard.charge(forward_extent(d));
      if (state.rescore_epoch[d] != state.rescore_counter) ++forward_gathers;
      heap_offer(heap, top, IndexHit{public_of_[d], memo_score(d)});
    }
  } else {
    for (const auto d : alive) {
      double score;
      if (metric == Metric::kCosine) {
        score = (q_norm == 0.0 || snorms[d] == 0.0)
                    ? 0.0
                    : acc_mass[2 * d] / (q_norm * snorms[d]);
      } else {
        const double sq = q_norm_sq + snorms_sq[d] - 2.0 * acc_mass[2 * d];
        score = sq <= 0.0 ? -0.0 : -std::sqrt(sq);
      }
      heap_offer(heap, top, IndexHit{public_of_[d], score});
    }
  }
  if (stats != nullptr) {
    stats->docs_scored += alive.size();
    stats->docs_pruned += n - alive.size();
    stats->postings_visited += visited;
    stats->blocks_skipped += blocks_skipped;
    stats->forward_gathers += forward_gathers;
  }
  return drain_heap(heap);
}

}  // namespace fmeter::index
