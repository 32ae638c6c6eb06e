// Inverted index over sparse tf-idf signatures (paper §1, §2.2).
//
// The paper's central claim is that kernel-function-count signatures are
// *indexable* "similar to regular text documents": the tf-idf vectors live in
// a term space (one term per core-kernel function), so the standard IR
// machinery applies. This module is that machinery — an inverted index
// mapping each term to a posting list of (document id, weight) pairs,
// queried term-at-a-time with an accumulator array and a bounded top-k heap.
//
// Why it beats the brute-force scan: a query only touches the posting lists
// of its own non-zero terms, so work is proportional to the postings of the
// query's terms rather than to sum(nnz) over every stored signature.
//
// Storage is one layout, the **frozen posting arena**, laid out by every
// build: all postings are compacted into three contiguous parallel
// arrays (term-major doc-id and weight streams plus a per-term offset
// table). The scoring loops read two separate dense streams (4-byte ids,
// 8-byte weights). The exact path's accumulate is a scatter through those
// ids, which GCC does not vectorize on its own; on an AVX-512F host it runs
// a hand-written gather/multiply/add/scatter loop, 8 postings a step, and
// its score pass pre-tests 8 documents per compare, both bit-identical to
// the scalar loops (kernels.hpp). A posting stream of at least 2 MiB sits
// on transparent huge pages (arena_allocator.hpp). Each term's span is
// additionally partitioned into fixed-size blocks
// (kBlockSize postings) carrying the block's last doc id and max/min
// posting weight, the block-max metadata the pruned path skips whole
// blocks with.
//
// A build also *reorders documents*: arena postings are stored under an
// internal doc-id permutation that clusters documents by their dominant
// (highest-|weight|) term, translated back to public ids only at the result
// boundary. Signatures of one behavior share their hottest kernel
// functions, so similar documents become *neighbors in id space* — which is
// what makes per-block doc-id ranges selective: a query's surviving
// candidates concentrate in a few contiguous internal ranges, and whole
// blocks elsewhere are skipped from three metadata loads. (Classic
// document-reordering for block-max indexes; the public id space, every
// returned hit, and all tie-breaks are unchanged.)
//
// The forward store — each document's (term, weight) run — is kept in
// *public* id order; the arena, norms and block metadata are in internal
// order. The build contract: an index is immutable once built, and
// appended(docs) returns a new one holding its documents followed by
// `docs` — byte-for-byte the index a bulk build of all of them produces.
// One build, the merge, does that. The reorder key is (dominant term,
// public id) and new ids are larger, so a new document never moves an old
// one: the old internal order is a subsequence of the new, and within one
// key the old documents come first. The merge copies the forward store
// once, keeps the old cached norms, widens the old per-term bounds by the
// new postings in public order, counting-sorts only the new postings (in
// key order, so each term's new span comes out sorted), and merges them
// into each term's old span through an old → new internal id map. Its
// cost is a sequential pass over the old arena plus a scatter of the
// batch, not a scatter of everything. A bulk build is the merge onto the
// empty index, whose scatter already is the arena; so is the load of a
// version-1 snapshot, which adopts the file's sections as the forward
// store.
//
// There is no in-place ingest: an owner that grows an archive swaps in
// the appended index. A snapshot save hands the forward store, the arena
// streams and offsets and the permutation to the snapshot writer as they
// stand, and a version-2 or 3 load adopts them and builds nothing: it derives
// the rest (inverse permutation, keys, norms, bounds, blocks) in streaming
// passes that also validate what it adopted.
//
// Two query paths with two distinct equivalence contracts:
//
//  * top_k() — the exact path. The final scoring pass is O(#docs) of cheap
//    arithmetic (one divide or sqrt per doc), which keeps scores
//    *bit-identical* to the linear scan:
//      cosine:    dot / (|q| * |d|)        with |d| cached at build time
//      euclidean: sqrt(|q|^2 + |d|^2 - 2*dot), clamped at 0
//    matching vsm::cosine_similarity / vsm::euclidean_distance expression
//    for expression, and the term-at-a-time accumulation visits each doc's
//    shared terms in the same ascending-index order as the merge join in
//    vsm::dot, so even the floating-point rounding agrees.
//
//  * top_k_pruned() — the max-score path. Classic IR engines do not score
//    every document; they prune with per-term score upper bounds. This path
//    processes posting lists in descending impact order, bootstraps a
//    threshold by exactly re-scoring the current best-k accumulators, and
//    discards documents by the tighter of two upper bounds: the
//    Cauchy–Schwarz remainder (partial dot plus |q_rem|·|d_rem| from
//    per-doc processed-mass bookkeeping) and the max-score suffix bound
//    (the sum of the unprocessed lists' per-term impact caps). The
//    surviving lists are then walked block-at-a-time:
//    a block whose doc-id range contains no surviving candidate is skipped
//    without touching a single posting (the survivor set and the arena
//    streams are both doc-id-sorted, so one merge cursor decides each
//    block), and a block whose best weight bound cannot contribute positive
//    score mass (negative-weight queries) is skipped by its block-max/min
//    metadata. Once the surviving candidate set's total forward extent is
//    smaller than the postings still ahead, the remaining lists are
//    abandoned entirely and the candidates are re-scored exactly from the
//    forward store. Guarantee: the *same document set in the same order* as
//    top_k(), with scores equal within 1e-9 (the different accumulation
//    order perturbs the last few bits, so results are not golden/
//    bit-identical; candidate-mode scores do match the scan bit-for-bit
//    because the forward merge join reproduces its rounding). Every pruning
//    decision is conservative: a document is dropped only when its upper
//    bound falls strictly below a threshold that at least k exactly-scored
//    documents are known to meet, so ties always survive. Skipping is
//    equally conservative: a doc-id-skipped block holds only already-pruned
//    documents, and a weight-skipped block can only *understate* a
//    survivor's accumulator (its postings are non-positive contributions),
//    which loosens — never tightens — that survivor's bound; survivors are
//    exactly re-scored from the forward store whenever a weight skip
//    occurred. One caveat on ordering: exact ties (duplicate documents)
//    take identical accumulation sequences in both paths and order
//    identically, but two *distinct* documents whose true scores differ by
//    less than the reordering rounding error (~1e-15, adversarially
//    constructed) may swap relative to the exact path — their scores still
//    agree within the 1e-9 contract.
//
// To support pruning, a build additionally records per-term maximum and
// minimum posting weights (the max-score bounds), per-doc squared norms
// and a forward store of each document's (term, weight) pairs — roughly
// doubling memory_bytes() relative to the postings-only layout (reported
// honestly, split by component in memory_breakdown()). The forward store
// is the only copy of the stored documents: builds, snapshots and
// document() (SignatureDatabase's signature reads) all read it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "index/arena_allocator.hpp"
#include "index/cancel.hpp"
#include "index/shared_span.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::index {

namespace snapshot {
class Reader;
class Writer;
}  // namespace snapshot

/// Ranking metric. Mirrors core::SimilarityMetric; kept separate so the
/// index layer does not depend on fmeter_core (which sits above it).
enum class Metric { kCosine, kEuclidean };

/// How a top-k query executes. kExact runs the dense scoring pass whose
/// results are bit-identical to the brute-force scan; kMaxScore prunes with
/// per-term/per-doc/per-block upper bounds — same documents, same order,
/// scores equal within 1e-9. kAuto picks per shard and metric from the
/// measured crossovers (InvertedIndex::resolve_auto): pruning's bound
/// bookkeeping costs more than it saves on small shards, so kAuto runs
/// those exactly and prunes the rest.
enum class PruningMode { kExact, kMaxScore, kAuto };

/// One scored result. `score` is the cosine similarity or the negative
/// Euclidean distance, so larger is always better.
struct IndexHit {
  std::uint32_t doc = 0;
  double score = 0.0;
};

/// "a ranks strictly better than b": higher score first, then lower doc id.
/// The single ordering shared by the per-index heap, the brute-force scan
/// and the shard merge, so ties are deterministic everywhere.
inline bool ranks_better(const IndexHit& a, const IndexHit& b) noexcept {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

/// Observability counters for one (or an aggregate of) top-k executions.
/// docs_scored + docs_pruned always equals the documents considered; the
/// exact path scores everything (docs_pruned == 0). blocks_skipped counts
/// whole arena blocks the pruned path never touched (their kBlockSize-ish
/// postings are absent from postings_visited).
struct PruneStats {
  std::size_t docs_scored = 0;     ///< documents whose final score was computed
  std::size_t docs_pruned = 0;     ///< documents discarded by an upper bound
  std::size_t postings_visited = 0;  ///< posting-list entries touched
  std::size_t blocks_skipped = 0;  ///< frozen blocks bypassed wholesale
  /// Forward-store walks the candidate-mode finish actually performed (the
  /// gather that replaces walking the abandoned posting lists — the cost
  /// the candidate-switch model prices). Candidates whose exact score was
  /// already memoized by a threshold raise cost no walk and are not
  /// counted, and neither are the bounded per-raise bootstrap re-scores —
  /// the counter means "forward-store work", not "candidates considered".
  /// Always ≤ docs_scored; 0 on the exact path.
  std::size_t forward_gathers = 0;
  /// Cooperative deadline checkpoints actually polled (see cancel.hpp's
  /// CheckpointGuard). 0 whenever no active Deadline was passed — the
  /// no-deadline path never polls. Counted even when the walk unwinds
  /// mid-shard, so the cost of deadline enforcement stays observable.
  std::size_t checkpoint_polls = 0;

  PruneStats& operator+=(const PruneStats& other) noexcept {
    docs_scored += other.docs_scored;
    docs_pruned += other.docs_pruned;
    postings_visited += other.postings_visited;
    blocks_skipped += other.blocks_skipped;
    forward_gathers += other.forward_gathers;
    checkpoint_polls += other.checkpoint_polls;
    return *this;
  }
};

/// Footprint of one index, split by role: its arrays' bytes, unused vector
/// capacity included, whether a build's vectors or a snapshot's mapping
/// holds them. total() is what memory_bytes() reports.
struct MemoryBreakdown {
  std::size_t postings = 0;  ///< arena id/weight streams
  std::size_t offsets = 0;   ///< per-term offsets and bounds, permutation, keys
  std::size_t blocks = 0;    ///< per-block last-doc / max / min metadata
  std::size_t forward = 0;   ///< forward store + per-doc norms
  std::size_t total() const noexcept {
    return postings + offsets + blocks + forward;
  }
  MemoryBreakdown& operator+=(const MemoryBreakdown& other) noexcept {
    postings += other.postings;
    offsets += other.offsets;
    blocks += other.blocks;
    forward += other.forward;
    return *this;
  }
};

/// Reusable per-worker scoring state. Passing the same scratch to many
/// top_k()/top_k_pruned() calls amortizes the O(#docs) buffers across a
/// batch of queries (buffers are re-zeroed, not re-allocated).
struct TopKScratch {
  std::vector<double> accumulators;     ///< exact path: per-doc dot
  std::vector<double> acc_mass;         ///< pruned path: interleaved dot, mass
  std::vector<std::uint32_t> alive;     ///< pruned path: surviving doc ids
  std::vector<double> query_dense;      ///< pruned path: densified query
  // Lazy accumulator reset: acc_mass[2d] is valid only when
  // epoch[d] == epoch_counter, so a query pays O(docs touched) instead of
  // an O(#docs) zeroing pass, and `touched` enumerates exactly the docs
  // with nonzero head-phase state for the bootstrap and filter scans.
  std::vector<std::uint32_t> epoch;     ///< per-doc stamp of the last touch
  std::vector<std::uint32_t> touched;   ///< docs first-touched this query
  std::uint32_t epoch_counter = 0;      ///< current query's stamp
  // Memoized forward-store re-scores, stamped the same lazy way: every
  // threshold raise re-probes largely the same leading documents, and a
  // doc's exact score is a pure function of (query, doc) — so within one
  // pruned call the second and later probes of a doc cost one array read
  // instead of a forward-store walk.
  std::vector<std::uint32_t> rescore_epoch;  ///< per-doc stamp of a cached score
  std::vector<double> rescore_score;         ///< cached exact score per doc
  std::uint32_t rescore_counter = 0;         ///< current pruned call's stamp
};

class InvertedIndex {
 public:
  using DocId = std::uint32_t;
  using TermId = vsm::SparseVector::Index;

  /// Postings per frozen block. Small enough that one skipped block's
  /// metadata costs three scalar loads, large enough that a processed block
  /// amortizes the cursor logic over a few cache lines of each stream.
  static constexpr std::size_t kBlockSize = 128;

  /// A new index holding this one's documents (ids [0, size())) followed
  /// by `docs` (ids continuing densely) — equal (operator==, capacities
  /// included) to a bulk build of the same documents, however they were
  /// split into batches. This index is untouched. Costs a copy of the
  /// forward store plus the merge described in the header (on an empty
  /// index, a scatter of `docs`). Throws std::invalid_argument,
  /// leaving nothing built, if any document carries a non-finite weight (it
  /// would poison the cached norms and bounds) or term ids that are not
  /// strictly increasing (a repeated term would list the document twice in
  /// one span); either would also make a saved snapshot unloadable.
  InvertedIndex appended(std::span<const vsm::SparseView> docs) const;
  InvertedIndex appended(std::span<const vsm::SparseVector> docs) const;

  /// Member-wise equality over every array (values, not capacities): the
  /// property appended() guarantees against a bulk build.
  bool operator==(const InvertedIndex&) const = default;

  std::size_t size() const noexcept { return norms_.size(); }
  bool empty() const noexcept { return norms_.empty(); }

  /// Number of distinct terms with at least one posting.
  std::size_t num_terms() const noexcept { return nonempty_terms_; }
  /// Total postings across all lists (== sum of nnz over documents).
  std::size_t num_postings() const noexcept { return num_postings_; }
  /// One past the largest term id stored (0 when there is none).
  std::size_t term_range() const noexcept { return arena_terms(); }
  /// Postings of `term` (0 for a term outside term_range()).
  std::size_t postings_of(TermId term) const noexcept {
    return term < arena_terms()
               ? arena_offsets_[term + 1] - arena_offsets_[term]
               : 0;
  }

  /// Cached L2 norm of a stored document.
  double norm(DocId doc) const { return norms_.at(internal_of_.at(doc)); }

  /// Stored document `doc` (< size()) as a view of its forward-store run.
  /// Valid until this index is assigned to or destroyed.
  vsm::SparseView document(DocId doc) const noexcept {
    return forward_run(doc);
  }

  /// Calls fn(doc, document(doc)) for every stored document in id order:
  /// one sequential sweep of the forward store.
  template <typename Fn>
  void for_each_document(Fn&& fn) const {
    for (std::size_t d = 0; d < size(); ++d) {
      fn(static_cast<DocId>(d), forward_run(d));
    }
  }

  /// Largest weight stored for `term` (0 if the term has no postings) —
  /// the max-score per-term upper bound.
  double max_weight(TermId term) const noexcept {
    return term < max_weight_.size() ? max_weight_[term] : 0.0;
  }
  /// Smallest weight stored for `term` (0 if absent); bounds queries with
  /// negative weights.
  double min_weight(TermId term) const noexcept {
    return term < min_weight_.size() ? min_weight_[term] : 0.0;
  }

  /// The exact path's kernel on this host: "avx512f" where the CPU runs
  /// AVX-512F, "scalar" elsewhere (the benches record it as `simd`).
  static const char* scoring_kernel() noexcept;

  /// Posting-list entries a query for `query` would touch (the exact
  /// path's postings_visited).
  std::size_t num_postings_for(const vsm::SparseVector& query) const noexcept;

  /// Footprint of the index's arrays; == memory_breakdown().total().
  std::size_t memory_bytes() const noexcept {
    return memory_breakdown().total();
  }
  /// The same footprint split into postings / offsets / block-metadata /
  /// forward-store components (fmeter_inspect's per-shard memory table).
  MemoryBreakdown memory_breakdown() const noexcept;

  /// Resolves PruningMode::kAuto for a shard of `docs` documents answering
  /// a top-`k` query under `metric`: kMaxScore once the shard is large
  /// enough that bound bookkeeping pays for itself, kExact below. The
  /// cutoffs come from measured crossovers, not from theory, and differ by
  /// metric: the cosine exact pass skips most of its divides with a cheap
  /// pre-test, the Euclidean one takes a sqrt per document. Last measured
  /// with the AVX-512F exact kernels and the huge-page arena (one unseeded
  /// shard, top-10, the bench corpus, minimum of 9 alternating
  /// exact/pruned sweeps of 64 queries, 3 runs per size on a 4-vCPU
  /// AVX-512 Xeon VM). Exact/pruned time for cosine: 0.41–0.45 at 10k,
  /// 0.55–0.64 at 20k, 0.72–0.81 at 32768, 0.72–0.85 at 40k, 0.97–1.12 at
  /// 50k, 1.01–1.02 at 60k, 0.92–1.08 at 65536, 1.10–1.12 at 75k and
  /// 1.06–1.18 at 100k docs. For Euclidean: 0.62–0.74 at 10k, 0.86–0.96 at
  /// 16384, 0.91–0.93 at 18k, 0.95–1.26 at 20k, 1.00–1.05 at 22k,
  /// 1.10–1.17 at 25k, 1.23–1.28 at 32768 and 1.80–1.84 at 100k.
  static PruningMode resolve_auto(std::size_t docs, std::size_t k,
                                  Metric metric) noexcept {
    constexpr std::size_t kCosinePrunedMinDocs = 60000;
    constexpr std::size_t kEuclideanPrunedMinDocs = 20000;
    const std::size_t min_docs = metric == Metric::kCosine
                                     ? kCosinePrunedMinDocs
                                     : kEuclideanPrunedMinDocs;
    // Near-full retrieval gives bounds nothing to discard.
    return (docs >= min_docs && k * 16 <= docs) ? PruningMode::kMaxScore
                                                : PruningMode::kExact;
  }

  /// Top-k most similar documents, ranked by descending score; equal scores
  /// order by ascending doc id (deterministic tie-break). k is clamped to
  /// size(). Returns scores bit-identical to a linear scan that calls
  /// vsm::cosine_similarity / vsm::euclidean_distance per document.
  ///
  /// Degenerate queries are defined, not accidental: k == 0 and the
  /// empty/all-zero query both return no hits without walking any posting
  /// list. An optional scratch reuses the accumulator buffer across calls.
  /// `stats`, when given, accumulates observability counters.
  ///
  /// `seed_score` is a cross-shard short-circuit: when the caller already
  /// holds k documents scoring at least `seed_score` (another shard's full
  /// top-k), documents scoring strictly below it can never reach the global
  /// top-k, so they are dropped before the heap — the call may then return
  /// fewer than k hits, but every omitted document provably loses to the
  /// seed. Retained hits keep bit-identical scores; docs scoring exactly at
  /// the seed are kept so cross-shard tie-breaks stay intact. kNoSeed (the
  /// default) restores the full standalone top-k contract. Seeded or not,
  /// the cosine pass raises its own divide-free pre-test to the heap's
  /// worst score once the heap is full, so an unseeded call still skips
  /// the divide for most documents; docs_scored counts every document.
  ///
  /// `deadline`, when non-null and active, is polled at amortized
  /// cooperative checkpoints (every ~CheckpointGuard::kInterval postings /
  /// docs of work); an expired or cancelled deadline throws
  /// QueryInterrupted mid-walk. Scratch state stays reusable after an
  /// interruption. With a null or inactive deadline the walk never polls
  /// and results remain bit-identical to the pre-deadline kernels.
  static constexpr double kNoSeed = -1e300;
  std::vector<IndexHit> top_k(const vsm::SparseVector& query, std::size_t k,
                              Metric metric = Metric::kCosine,
                              TopKScratch* scratch = nullptr,
                              double seed_score = kNoSeed,
                              PruneStats* stats = nullptr,
                              const Deadline* deadline = nullptr) const;

  /// Max-score top-k: same documents in the same order as top_k(), scores
  /// equal within 1e-9 (see the header comment for why they are not
  /// bit-identical). `seed_score` pre-loads the pruning threshold — pass a
  /// known lower bound on the global k-th best score (e.g. from another
  /// shard's already-computed top-k) to prune harder; kNoSeed means no
  /// outside knowledge. Documents scoring exactly at the threshold are
  /// never pruned, so cross-shard tie-breaks stay intact. Degenerate
  /// inputs behave exactly like top_k(). `deadline` follows the same
  /// cooperative-checkpoint contract as top_k().
  std::vector<IndexHit> top_k_pruned(const vsm::SparseVector& query,
                                     std::size_t k,
                                     Metric metric = Metric::kCosine,
                                     TopKScratch* scratch = nullptr,
                                     double seed_score = kNoSeed,
                                     PruneStats* stats = nullptr,
                                     const Deadline* deadline = nullptr) const;

  /// Appends this index to a snapshot as the per-shard sections of
  /// snapshot.hpp: the forward store (offsets / term ids / weights, public
  /// id order), then the arena's offsets, id and weight streams and the
  /// permutation. Every build of the same documents produces the same
  /// arrays, so the emitted bytes depend only on the documents. The writer
  /// borrows the arrays: keep this index alive until it has finished.
  void save(snapshot::Writer& writer, std::uint32_t shard) const;

  /// Restores one shard from its snapshot sections, taking them out of
  /// `reader` as this index's arrays: views that share the file mapping,
  /// no copy. A version-2 or 3 shard's arena is validated and completed
  /// (adopt_arena); a version-1 shard's forward store is checked and
  /// merged onto the empty index.
  /// Either way the result is byte-for-byte the index a fresh build of the
  /// same documents would produce, so all query contracts transfer. Throws
  /// snapshot::SnapshotError on any corruption or validation failure.
  /// Restore(reader, shard).finish() in one step.
  static InvertedIndex load(snapshot::Reader& reader, std::uint32_t shard);

  /// load() in two steps, so a restore fanned out over a pool allocates on
  /// the thread that fans it out, not on the workers (whose malloc arenas
  /// would keep a dropped index's small arrays resident). The constructor
  /// takes the shard's sections. For a version-2 or 3 shard it checks the
  /// sections' sizes and the arena offset table and sizes every array the
  /// restore derives (inverse permutation, keys, norms, bounds, block
  /// metadata); finish() validates and fills them, on any thread. For a
  /// version-1 shard it checks the forward offsets; finish() checks every
  /// run and builds the arena by the merge, allocating where it runs (a
  /// legacy format, not worth a second build). Both steps throw
  /// snapshot::SnapshotError.
  class Restore;

 private:
  /// The build, on a freshly constructed index whose forward store is in
  /// place: it holds `old`'s documents followed by new ones. Reuses old's
  /// norms, bounds and arena spans; on an empty `old` the scatter of the
  /// new postings is the arena.
  void merge_arena(const InvertedIndex& old);

  /// The restore's first step (Restore's constructor): the adopted arena
  /// sections of shard `shard` must agree in size with the forward store
  /// and the offset table must run from 0 to the posting count without
  /// decreasing; sizes the derived arrays and the block layout from them.
  /// Returns the term range. Throws snapshot::SnapshotError.
  std::size_t size_adopted_arena(std::uint32_t shard);

  /// The restore: the forward store, the arena streams and offsets and
  /// public_of_ are in place, read from shard `shard` of a snapshot, and
  /// size_adopted_arena sized the rest. Checks them, and against each
  /// other as a build would have laid them out, and derives internal_of_,
  /// keys, norms, bounds and blocks on the way, counting each term's
  /// postings into `counts` (one slot per term). Throws
  /// snapshot::SnapshotError.
  void adopt_arena(std::uint32_t shard, std::span<std::size_t> counts);

  /// Checks an adopted forward store's offsets: they start at 0, never
  /// decrease and end at both streams' length. Returns the term range its
  /// documents' last terms give (the store's, once every run is checked).
  /// Throws snapshot::SnapshotError naming shard `shard`.
  std::size_t check_forward_offsets(std::uint32_t shard) const;
  /// Checks document `doc`'s run: term ids strictly increase, weights are
  /// finite and non-zero. Throws snapshot::SnapshotError.
  void check_forward_run(std::size_t doc, std::uint32_t shard) const;
  /// Throws check_forward_run's error for document `doc` when its run was
  /// found `unordered` or not all `stored` weights.
  static void check_run_flags(std::size_t doc, std::uint32_t shard,
                              bool unordered, bool stored);

  /// Sizes the block metadata from the arena offset table `offsets`.
  void layout_blocks(std::span<const std::uint64_t> offsets);
  /// Fills term `term`'s block metadata from its finished span in the
  /// arena streams `ids` and `weights` laid out by `offsets`.
  void fill_blocks(std::size_t term, std::span<const std::uint64_t> offsets,
                   std::span<const DocId> ids, std::span<const double> weights);
  /// Fills block `block`'s metadata from postings [begin, end) of `ids`
  /// and `weights`.
  void fill_block(std::size_t block, std::size_t begin, std::size_t end,
                  std::span<const DocId> ids, std::span<const double> weights);

  /// Forward-store run of the document at public id `doc`.
  vsm::SparseView forward_run(std::size_t doc) const noexcept {
    const std::size_t begin = forward_offsets_[doc];
    const std::size_t size = forward_offsets_[doc + 1] - begin;
    return {{forward_terms_.data() + begin, size},
            {forward_weights_.data() + begin, size}};
  }

  /// Terms the offset table covers.
  std::size_t arena_terms() const noexcept {
    return arena_offsets_.empty() ? 0 : arena_offsets_.size() - 1;
  }

  // The offsets of a forward store without documents.
  static constexpr std::uint64_t kNoDocuments[1] = {0};

  // --- posting arena (term-major struct-of-arrays) ---
  // All doc ids below are *internal* ids (see internal_of_/public_of_).
  // The arena streams, the offset tables, the permutation and the forward
  // store are SharedSpans: a build's vectors (the streams on ArenaVector,
  // the rest on ForwardVector) or a snapshot's mapping, shared by copies.
  SharedSpan<DocId> arena_ids_;         // doc-id stream
  SharedSpan<double> arena_weights_;    // weight stream
  SharedSpan<std::uint64_t> arena_offsets_;  // term t's span: [t], [t+1])
  // Term t's blocks are [arena_block_begin_[t], arena_block_begin_[t+1]);
  // block b of term t covers postings
  // [offsets[t] + (b - begin[t]) * kBlockSize, ...) — blocks never straddle
  // terms, so per-block bounds are per-term bounds refined 128 postings at
  // a time.
  std::vector<std::size_t> arena_block_begin_;
  std::vector<DocId> block_last_doc_;   // largest doc id in the block
  std::vector<double> block_max_w_;     // largest posting weight in the block
  std::vector<double> block_min_w_;     // smallest posting weight in the block

  // Doc-reorder permutation. Every per-doc array below is indexed by
  // internal id, so the hot loops run gather-free in internal space.
  std::vector<DocId> internal_of_;  // public id -> internal id
  SharedSpan<DocId> public_of_;     // internal id -> public id
  // Each document's reorder key (its dominant term; empty documents sort
  // last), ascending along internal order — where a merge places new ones.
  std::vector<TermId> keys_;

  std::vector<double> norms_;                   // per-doc L2 norm
  std::vector<double> norms_sq_;                // per-doc squared L2 norm
  std::vector<double> max_weight_;              // per-term max posting weight
  std::vector<double> min_weight_;              // per-term min posting weight
  // Forward store, in *public* id order: doc d's (term, weight) pairs live
  // at [forward_offsets_[d], forward_offsets_[d + 1]) in ascending term
  // order — the candidate re-scoring substrate of the pruned path (which
  // reaches an internal id's run through public_of_), the per-doc extents
  // behind its candidate-switch cost model, the source every build reads
  // the stored documents from, and the snapshot sections verbatim.
  // A build copies it; a snapshot load adopts the file's sections where
  // the mapping holds them (as it does the arena streams, the arena
  // offsets and public_of_).
  SharedSpan<std::uint64_t> forward_offsets_{nullptr, kNoDocuments};
  SharedSpan<TermId> forward_terms_;
  SharedSpan<double> forward_weights_;
  std::size_t num_postings_ = 0;
  std::size_t nonempty_terms_ = 0;
};

class InvertedIndex::Restore {
 public:
  Restore(snapshot::Reader& reader, std::uint32_t shard);
  /// The restored index; call once.
  InvertedIndex finish();

 private:
  InvertedIndex index_;
  std::uint32_t shard_;
  bool build_ = false;               ///< version 1: build the arena
  std::vector<std::size_t> counts_;  ///< per-term posting counts
};

}  // namespace fmeter::index
