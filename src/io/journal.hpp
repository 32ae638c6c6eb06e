// Checksummed, length-prefixed write-ahead journal (ISSUE 8).
//
// The journal is the first tier of the durability contract: add_batch
// appends one record *before* mutating the index, so a crash at any later
// point can replay the batch, and a crash mid-append leaves a torn tail
// that recovery truncates — committed records are never lost, an
// uncommitted record vanishes atomically.
//
// File layout:
//
//   magic      8 bytes   "FMETWAL1" (format version folded into the tag)
//   records    repeated { length u32, checksum u64, payload bytes }
//
// The checksum is chunked FNV-64 (snapshot::fnv1a — one checksum dialect
// repo-wide) over the 4 length bytes *and* the payload, so a flipped bit
// in the length prefix fails the checksum of whatever bytes it now frames
// instead of silently re-framing the stream.
//
// Replay semantics — the crash cases and what each one must do:
//   * clean end-of-file after a record boundary → all records returned;
//   * torn tail (length prefix cut short, payload cut short, checksum
//     mismatch, garbage after the last good record) → replay stops at the
//     last good boundary and, with repair, truncates the file there so the
//     next append extends a valid journal;
//   * file shorter than the magic → treated as an empty journal (a crash
//     between file creation and the first sync);
//   * a *valid, synced* header with wrong magic → JournalError. That is
//     not a crash artifact; it is corruption or a foreign file, and
//     silently discarding it would throw away committed data.
//
// sync() is the commit point: append() only writes, so a record is
// durable once a later sync() returns, and a crash may lose every record
// appended since the last one. The caller (LiveDatabase) decides when to
// sync — after each batch, or only at re-freeze commits and explicit
// LiveDatabase::sync() calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "io/env.hpp"

namespace fmeter::io::journal {

class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kMagic[8] = {'F', 'M', 'E', 'T', 'W', 'A', 'L', '1'};
/// Bytes before the first record.
inline constexpr std::uint64_t kHeaderBytes = sizeof(kMagic);
/// Per-record framing overhead (u32 length + u64 checksum).
inline constexpr std::uint64_t kRecordHeaderBytes =
    sizeof(std::uint32_t) + sizeof(std::uint64_t);
/// Format cap on one record's payload: far above any real batch, low
/// enough that a corrupt length can never drive a multi-gigabyte
/// allocation during replay.
inline constexpr std::uint32_t kMaxRecordBytes = 1u << 30;

/// Appends records to a journal file through an Env. Creates the file
/// (with its magic header, durable at the first sync()) when absent or
/// shorter than the header — i.e. when a crash killed it before the first
/// sync; otherwise opens at the end, trusting recovery (replay with
/// repair) ran first. Only sync() fsyncs, so every journal fsync is
/// counted in fmeter_journal_syncs_total.
///
/// Not thread-safe; callers (LiveDatabase) serialize appends.
class Writer {
 public:
  Writer(Env& env, std::string path);

  /// Appends one record (framing + payload in a single Env write, so a
  /// fault tears at most one record). Never syncs.
  void append(std::span<const std::byte> payload);

  /// fsync — the commit point of every record appended so far.
  void sync();

  void close();

  const std::string& path() const noexcept { return path_; }
  /// Records appended through this writer (not lifetime file records).
  std::uint64_t records_appended() const noexcept { return records_; }
  /// Current file length including header and framing.
  std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  Env& env_;
  std::string path_;
  std::unique_ptr<WritableFile> file_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
};

/// What replay() found and did.
struct ReplayResult {
  std::uint64_t records = 0;        ///< intact records delivered to `apply`
  std::uint64_t payload_bytes = 0;  ///< their summed payload size
  std::uint64_t valid_bytes = 0;    ///< file offset of the last good boundary
  bool truncated_tail = false;      ///< damage found past valid_bytes
  std::uint64_t dropped_bytes = 0;  ///< bytes past the last good boundary
  std::string truncate_reason;      ///< empty when the tail was clean
};

/// Replays every intact record in order into `apply`, stopping at the
/// first torn or corrupt one. With `repair`, the file is truncated back to
/// the last good record boundary (and a missing/short file is created
/// fresh with just the magic) so a subsequent Writer extends a valid
/// journal. Throws JournalError only for non-crash corruption (wrong magic
/// on a complete header); `apply` exceptions propagate as-is.
ReplayResult replay(Env& env, const std::string& path,
                    const std::function<void(std::span<const std::byte>)>& apply,
                    bool repair);

/// Counts records without applying them — `fmeter_inspect recover`'s
/// read-only probe (repair never modifies the file here).
ReplayResult scan(Env& env, const std::string& path);

}  // namespace fmeter::io::journal
