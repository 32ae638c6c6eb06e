// Versioned binary snapshot container for the index layer (ROADMAP:
// persistence so a rebuilt server does not re-index the archive).
//
// Design: a snapshot is the index's own arrays on disk. Each shard writes
// its forward store (every document's (term, weight) pairs in public id
// order) and the parts of its posting arena that a build pays a sort and
// a merge for: the term-major doc-id and weight streams, their per-term
// offset table and the doc-reorder permutation (public_of). A restore maps
// the file, checksums every section over the mapping, and the index adopts
// the sections where they lie: its arrays are views into the mapping, so a
// version-3 restore copies and zero-fills none of them. What one streaming
// pass derives is not stored: the inverse permutation, the per-doc norms
// and reorder keys, the per-term bounds and the block-max metadata are
// recomputed on the shard's own task while it validates the adopted
// arrays. A save hands the Writer borrowed views of the same arrays. The
// restored index is byte-for-byte the index a fresh bulk build (appended)
// would produce, so every query contract (exact bit-identity, pruned 1e-9,
// any mode, any shard count) transfers to snapshots with no new
// equivalence proofs.
//
// File layout (all integers in the writing host's byte order — the
// endianness tag below makes a foreign-endian file a clean error, not
// silent garbage):
//
//   magic            8 bytes  "FMETSNAP"
//   version          u32      1, 2 or 3; writers always emit kFormatVersion
//   endianness tag   u32      kEndianTag as written by the producing host
//   shard count      u32
//   section count    u32
//   doc count        u64      documents across all shards
//   term count       u64      distinct terms (cross-checked after load)
//   directory        section count × { kind u32, shard u32,
//                                       byte length u64, checksum u64 }
//   header checksum  u64      FNV-1a over everything above
//   section payloads in directory order. Version 3 starts every non-empty
//                    payload on a file offset that is a multiple of
//                    kSectionAlign (64) and fills each gap with zero bytes,
//                    which the Reader and verify both check; the file ends
//                    where the last payload ends. Versions 1 and 2 store
//                    the payloads back to back.
//
// Sections, per shard in this order, then the labels once:
//   kForwardOffsets  u64 × (shard docs + 1): doc d's pairs live at
//                    [offsets[d], offsets[d+1]) in the two streams below
//   kTermIds         u32 × postings, strictly increasing within a doc
//   kWeights         f64 × postings, parallel to kTermIds
//   kArenaOffsets    u64 × (term range + 1), v2+: term t's postings live at
//                    [offsets[t], offsets[t+1]) in the two streams below
//                    (empty for a shard with no documents)
//   kArenaIds        u32 × postings, v2+: internal doc ids, strictly
//                    increasing within each term's span
//   kArenaWeights    f64 × postings, v2+: parallel to kArenaIds
//   kPublicOf        u32 × shard docs, v2+: internal id -> public id, in
//                    ascending (dominant term, public id) order
//   kLabels          u64 label count, then per label { u32 length, bytes }
//
// Version 1 files hold only the forward store and the labels; a restore
// merges each shard's forward store onto the empty index, as a bulk build
// (appended) does. In a
// version-1 or 2 file a section can start at an offset misaligned for its
// element type (after a u32 section of odd length); such a section is
// copied out of the mapping into aligned storage, and every other one is
// adopted in place, so all three versions share one restore path.
//
// Mapping lifetime: a restored index holds the mapping (through its
// SharedSpan arrays) until the last index sharing it is dropped — copies
// of the index, and the indexes of every shard, share it. The file may be
// renamed or unlinked meanwhile (LiveDatabase only ever unlinks a
// superseded snapshot), but it must not be truncated or rewritten in
// place while an index holds it: the pages would change or vanish under
// the index. Every writer here commits through write-temp-and-rename, so
// a snapshot file is never modified once its name points at it.
//
// Corruption behavior: every failure mode — truncation, flipped bytes in
// any section or padding gap, wrong version, foreign endianness,
// zero-length file, forged section lengths, arrays that checksum but break
// an index invariant — throws SnapshotError with a diagnostic message. The
// header checksum covers the directory, so a corrupted length/checksum
// entry cannot misdirect section parsing; per-section checksums catch
// payload damage, and the restore validates every adopted array before the
// index answers a query. Writers copy nothing: checksums are computed over
// the caller's in-memory arrays before the single sequential write pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "index/shared_span.hpp"
#include "io/env.hpp"

namespace fmeter::index::snapshot {

/// Every snapshot failure — I/O, truncation, corruption, version or
/// endianness mismatch, semantic validation — surfaces as this type so
/// callers can guarantee "load failed cleanly, target untouched" with one
/// catch.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kMagic[8] = {'F', 'M', 'E', 'T', 'S', 'N', 'A', 'P'};
/// The version every writer emits. Readers accept 1 (forward store only),
/// 2 (forward store and posting arena) and 3 (the same sections, each
/// starting on a kSectionAlign file offset).
inline constexpr std::uint32_t kFormatVersion = 3;
/// Version 3's section alignment: every non-empty payload starts on a file
/// offset that is a multiple of this, the gap before it zero bytes.
inline constexpr std::size_t kSectionAlign = 64;
/// Written in native order; a foreign-endian reader sees the byte-swapped
/// value and reports an endianness mismatch instead of misparsing counts.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;

enum class SectionKind : std::uint32_t {
  kForwardOffsets = 1,
  kTermIds = 2,
  kWeights = 3,
  kLabels = 4,
  kArenaOffsets = 5,
  kArenaIds = 6,
  kArenaWeights = 7,
  kPublicOf = 8,
};

const char* section_kind_name(SectionKind kind) noexcept;

/// FNV-1a 64-bit — the per-section and header checksum. Not cryptographic;
/// its job is detecting truncation and bit rot, which it does per byte.
std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept;

/// Collects sections, then commits the whole file through an io::Env in
/// one sequential pass. Sections are *borrowed*, not copied: the caller
/// keeps the arrays alive and unchanged until finish() returns.
class Writer {
 public:
  Writer(std::uint32_t shard_count, std::uint64_t doc_count,
         std::uint64_t term_count);

  /// Appends one section over `data`'s object representation (the arrays
  /// serialized here are trivially copyable scalars). Its checksum is taken
  /// now; its bytes are written by finish().
  template <typename T>
  void add_section(SectionKind kind, std::uint32_t shard,
                   std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    add_bytes(kind, shard, std::as_bytes(data));
  }

  /// Commits the snapshot to `path` through `env` as write-temp → fsync →
  /// rename → fsync-dir: the header, directory and header checksum as one
  /// append, then one append per non-empty section, straight from the
  /// borrowed arrays. A crash (or I/O failure) at any point leaves the
  /// previous `path` contents intact — never a torn file; I/O failures
  /// surface as SnapshotError carrying the env's errno text. The writer is
  /// spent afterwards.
  void finish(io::Env& env, const std::string& path);

 private:
  void add_bytes(SectionKind kind, std::uint32_t shard,
                 std::span<const std::byte> payload);

  struct Section {
    SectionKind kind;
    std::uint32_t shard;
    std::span<const std::byte> payload;
    std::uint64_t checksum;
  };
  std::uint32_t shard_count_;
  std::uint64_t doc_count_;
  std::uint64_t term_count_;
  std::vector<Section> sections_;
};

/// Runs task(i) once for every i in [0, n) and returns once all have
/// returned; calls may run on several threads at once. The index layer
/// owns no threads, so the layer above hands its pool in as one of these
/// (exec::ShardedIndex::read_snapshot).
using ParallelFor = std::function<void(
    std::size_t n, const std::function<void(std::size_t)>& task)>;

/// Parses and fully validates a snapshot file up front: magic, version,
/// endianness, header checksum, section lengths and padding against the
/// bytes the file holds, and every per-section checksum. The file is
/// mapped (io::Env::map_file), not read: each section is a view into the
/// mapping, so after construction it costs the checksum pass and nothing
/// else. After construction corruption can no longer surface mid-load,
/// which is what lets callers build into a temporary and swap on success.
///
/// Forged counts and lengths fail before they size anything: a directory
/// that does not fit in the file, sections that overrun the bytes present,
/// or a length that is not a whole number of the kind's elements throws
/// SnapshotError, never bad_alloc.
class Reader {
 public:
  /// Maps `path` through `env`. The header, the directory, every length
  /// and padding gap against the file size and the trailing-bytes rule are
  /// checked first, on the calling thread. A legacy section misaligned for
  /// its element type gets aligned storage, allocated here on the calling
  /// thread. Then each section is checksummed over the mapping (and copied
  /// to its storage when it has one) by one task of `parallel_for`
  /// (largest first; inline when it is empty). A failure anywhere throws
  /// once every task has finished — the first failing section in directory
  /// order. An io::IoError on the way surfaces as SnapshotError.
  Reader(const io::Env& env, const std::string& path,
         const ParallelFor& parallel_for = {});

  /// The file's format version (1 to 3).
  std::uint32_t version() const noexcept { return version_; }
  std::uint32_t shard_count() const noexcept { return shard_count_; }
  std::uint64_t doc_count() const noexcept { return doc_count_; }
  std::uint64_t term_count() const noexcept { return term_count_; }

  bool has_section(SectionKind kind, std::uint32_t shard) const noexcept;

  /// Hands a section out as an array of `T` — the kind's element type:
  /// std::uint64_t (offsets), std::uint32_t (term ids, arena ids, public
  /// ids), double (weights), std::byte (labels). The array shares the
  /// mapping (or the section's aligned copy), so it stays valid after this
  /// Reader is gone. Throws SnapshotError when the section is absent or
  /// already taken; it counts as absent afterwards. Distinct sections may
  /// be taken from different threads at once.
  template <typename T>
  SharedSpan<T> take_section(SectionKind kind, std::uint32_t shard) {
    static_assert(std::is_trivially_copyable_v<T>);
    Section& section = find(kind, shard);
    section.taken = true;
    return {section.owner,
            {reinterpret_cast<const T*>(section.bytes.data()),
             section.bytes.size() / sizeof(T)}};
  }

 private:
  struct Section {
    SectionKind kind;
    std::uint32_t shard;
    std::shared_ptr<const void> owner;  ///< the mapping, or an aligned copy
    std::span<const std::byte> bytes;   ///< the payload, in `owner`
    bool taken = false;
  };
  /// The untaken section (kind, shard); throws SnapshotError when it is
  /// absent or already taken.
  Section& find(SectionKind kind, std::uint32_t shard);

  std::uint32_t version_ = 0;
  std::uint32_t shard_count_ = 0;
  std::uint64_t doc_count_ = 0;
  std::uint64_t term_count_ = 0;
  std::vector<Section> sections_;
};

/// One section's verification outcome (see verify).
struct SectionVerify {
  SectionKind kind = SectionKind::kForwardOffsets;
  std::uint32_t shard = 0;
  std::uint64_t bytes = 0;
  bool checksum_ok = false;
};

/// Deep-checksum report for `fmeter_inspect verify`.
struct VerifyResult {
  bool ok = false;            ///< header, lengths and every checksum good
  std::string error;          ///< the message a load throws, empty when ok
  std::uint32_t version = 0;  ///< format version, 0 when the header failed
  std::uint32_t shard_count = 0;
  std::uint64_t doc_count = 0;
  std::uint64_t term_count = 0;
  std::uint64_t total_bytes = 0;  ///< the file's size
  std::vector<SectionVerify> sections;
};

/// Validates the snapshot at `path` end to end, through the Reader's own
/// header and layout checks — magic, version, endianness, header
/// checksum, section lengths, padding, trailing bytes — and every section
/// checksum, over the same mapping a Reader takes and without copying a
/// section, so an archive of any size verifies in constant heap memory
/// (the mapping is page cache). Every section is listed; each one the
/// file holds whole is checksummed, so one bad section does not end the
/// scan. Never throws for corruption or I/O failure: `error` carries the
/// SnapshotError message a load of the same file throws (up to the
/// semantic checks a restore adds).
VerifyResult verify(const io::Env& env, const std::string& path);

}  // namespace fmeter::index::snapshot
