// On-disk format of an archive directory — the files LiveDatabase opens,
// journals into and re-freezes (the live archive is the only code that
// opens one; fmeter_inspect reads the MANIFEST through the same codec).
//
// Directory layout:
//
//   <dir>/MANIFEST            names the current epoch's snapshot + journal
//   <dir>/snapshot-NNNNNN     full database image (index/snapshot.hpp
//                             format); absent at epoch 0
//   <dir>/journal-NNNNNN.wal  batches added since that snapshot
//                             (io/journal.hpp format)
//
// The MANIFEST is tiny and swapped atomically (write-temp → fsync →
// rename → fsync-dir), and it is the *only* commit point of an epoch
// transition: a crash anywhere during a re-freeze leaves either the old
// manifest (old snapshot + old journal still present, new files are
// unreferenced garbage swept at the next open) or the new one (old files
// become the garbage). Opening a directory therefore never needs to
// guess — whatever the manifest names is a consistent pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/env.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::core {

/// Manifest/recovery failures that are not snapshot or journal errors
/// (corrupt manifest, malformed journal record, poisoned commit).
class DurabilityError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What opening a directory found and did — surfaced for fmeter_inspect
/// recover and the recovery assertions in tests.
struct RecoveryInfo {
  bool created = false;           ///< directory was initialised fresh
  bool snapshot_loaded = false;   ///< manifest named a snapshot and it loaded
  std::uint64_t epoch = 0;        ///< manifest epoch after open
  std::uint64_t journal_records_replayed = 0;
  std::uint64_t journal_bytes_dropped = 0;  ///< torn tail cut by repair
  bool journal_truncated = false;
  std::string truncate_reason;    ///< empty when the tail was clean
  std::vector<std::string> removed_files;   ///< unreferenced leftovers swept
};

/// Names inside an archive directory.
std::string manifest_path(const std::string& dir);
std::string snapshot_name(std::uint64_t epoch);
std::string journal_name(std::uint64_t epoch);

/// Parsed MANIFEST contents.
struct Manifest {
  std::uint64_t epoch = 0;
  std::string snapshot;  ///< file name relative to the directory; "" = none
  std::string journal;   ///< file name relative to the directory
};

/// Reads and checksum-validates a MANIFEST; throws DurabilityError on
/// corruption (manifest writes are atomic, so a bad one is bit rot, not a
/// crash artifact).
Manifest read_manifest(io::Env& env, const std::string& dir);

/// Atomically swaps the directory's MANIFEST to `m` (write-temp → fsync →
/// rename → fsync-dir) — the one commit point of every epoch transition.
void write_manifest(io::Env& env, const std::string& dir, const Manifest& m);

/// Journal record payload codec for one batch — exposed so tests can craft
/// records and fmeter_inspect can describe them. Layout (host byte order):
/// u64 doc count, then per doc { u32 label length, label bytes, u32 nnz,
/// nnz × { u32 term, f64 weight } }. decode_batch throws DurabilityError
/// on a truncated payload, trailing bytes, or a document that violates
/// the sparse-vector invariant (unsorted/duplicate terms, zero weights).
/// The view form encodes documents read in place (a segment's forward
/// store) into the same bytes as the vectors they were built from.
std::vector<std::byte> encode_batch(
    std::span<const vsm::SparseView> signatures,
    std::span<const std::string> labels);
std::vector<std::byte> encode_batch(
    const std::vector<vsm::SparseVector>& signatures,
    const std::vector<std::string>& labels);
void decode_batch(std::span<const std::byte> payload,
                  std::vector<vsm::SparseVector>& signatures,
                  std::vector<std::string>& labels);

}  // namespace fmeter::core
