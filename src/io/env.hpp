// File-system abstraction for everything Fmeter persists (ISSUE 8 /
// ROADMAP: the live archive's "a crash never loses more than one epoch"
// needs a durability substrate before it can be promised).
//
// Three implementations of one interface:
//
//   PosixEnv          the real thing — EINTR-safe full writes, fsync,
//                     atomic rename, directory fsync. One process-wide
//                     instance behind Env::posix().
//   InMemoryEnv       a crash-semantics model of a POSIX file system:
//                     every file is an inode with *volatile* bytes (what
//                     the page cache holds) and *durable* bytes (what
//                     survives power loss — advanced only by sync());
//                     the namespace likewise has a volatile and a durable
//                     view (renames/creates/removes become durable only at
//                     sync_dir()). crash() collapses volatile state back
//                     to durable state, exactly what a kernel panic does
//                     under the strictest POSIX reading.
//   FaultInjectingEnv InMemoryEnv plus deterministic fault injection: the
//                     Nth mutating operation throws IoError, optionally
//                     after a *torn* append (a prefix of the failing write
//                     reaches durable bytes, modeling a page written back
//                     just before the crash). The crash-matrix test in
//                     tests/test_durability.cpp iterates N over every
//                     fault point of every durable operation.
//
// Error model: all failures throw IoError carrying the operation, the
// path and (for PosixEnv) errno text — matching the repo-wide exception
// idiom (SnapshotError, std::invalid_argument) rather than status codes.
//
// The interface is deliberately small: exactly the operations the atomic
// snapshot commit (write-temp → fsync → rename → fsync-dir), the
// write-ahead journal and the manifest swap need, no more.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fmeter::io {

/// Every environment failure — open, short write, fsync, rename — and
/// every injected fault surfaces as this type. `error_code()` carries the
/// captured errno (0 when the failure has no errno, e.g. injected faults).
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what, int error_code = 0)
      : std::runtime_error(what), error_code_(error_code) {}
  int error_code() const noexcept { return error_code_; }

 private:
  int error_code_;
};

/// Append-only file handle. Writes are *full* writes: append() either
/// persists every byte into the (volatile) file image or throws — partial
/// progress on a real fd is retried across EINTR/short writes. Durability
/// is explicit: nothing appended survives a crash until sync() returns.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual void append(std::span<const std::byte> data) = 0;
  /// fsync: everything appended so far joins the durable image.
  virtual void sync() = 0;
  /// Idempotent; destructors call it implicitly (without throwing).
  virtual void close() = 0;

  void append(const void* data, std::size_t size) {
    append(std::span<const std::byte>(
        static_cast<const std::byte*>(data), size));
  }
  void append(std::string_view text) { append(text.data(), text.size()); }
};

/// A whole file's bytes, read-only, at a stable address for as long as any
/// copy of the handle lives (Env::map_file, the one way to read a file).
/// Dropping the last copy releases the view, so a span taken from bytes()
/// must not outlive the handle. The bytes start on a 64-byte boundary.
class MappedFile {
 public:
  virtual ~MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const std::byte> bytes() const noexcept { return bytes_; }

 protected:
  explicit MappedFile(std::span<const std::byte> bytes) : bytes_(bytes) {}

 private:
  std::span<const std::byte> bytes_;
};

class Env {
 public:
  virtual ~Env() = default;

  /// Opens `path` for writing. `truncate` replaces existing contents;
  /// otherwise the file is opened append-at-end (journal reopen).
  virtual std::unique_ptr<WritableFile> new_writable_file(
      const std::string& path, bool truncate = true) = 0;

  virtual bool file_exists(const std::string& path) const = 0;
  virtual std::uint64_t file_size(const std::string& path) const = 0;
  /// Names (not paths) of the entries directly inside `dir`, sorted.
  virtual std::vector<std::string> list_dir(const std::string& dir) const = 0;

  /// Creates one directory level; succeeding on an existing directory.
  virtual void create_dir(const std::string& dir) = 0;
  virtual void remove_file(const std::string& path) = 0;
  /// Atomic replace: after rename_file returns, `to` is the renamed file;
  /// durable only once the parent directory is synced.
  virtual void rename_file(const std::string& from, const std::string& to) = 0;
  /// fsync on the directory itself: makes completed renames/creates/
  /// removes inside it durable.
  virtual void sync_dir(const std::string& dir) = 0;
  /// Truncates to `size` bytes (journal recovery chops torn tails).
  virtual void truncate_file(const std::string& path, std::uint64_t size) = 0;

  /// A shared read-only view of the whole file as it is now: every read
  /// goes through here (snapshot restores and verify use the view,
  /// read_file copies it). PosixEnv maps it (mmap PROT_READ, MAP_PRIVATE |
  /// MAP_POPULATE), so the view reads the page cache with no copy; the
  /// file must then not be truncated or rewritten in place while a view
  /// lives (renaming or unlinking it is fine: the view keeps the inode).
  /// InMemoryEnv hands out an immutable copy. Fails like a read: a
  /// missing file throws IoError.
  virtual std::shared_ptr<const MappedFile> map_file(
      const std::string& path) const = 0;

  /// Whole file into a string (manifest and journal loads): a copy of
  /// map_file(path)'s bytes, taken while the view is held.
  std::string read_file(const std::string& path) const;

  /// The process-wide PosixEnv. Leaked like the metrics registry so
  /// late-running destructors can still flush through it.
  static Env& posix();
};

/// Directory part of `path` ("" when none) — where sync_dir must aim after
/// a rename that commits `path`.
std::string parent_dir(const std::string& path);

// ---------------------------------------------------------------------------
// Atomic whole-file commit
// ---------------------------------------------------------------------------

/// Write-temp → fsync → rename → fsync-dir as an RAII scope:
///
///   AtomicFileWriter writer(env, "archive/snapshot.fms");
///   writer.file().append(bytes);   // as many appends as the format needs
///   writer.commit();               // the only point `path` changes
///
/// A crash (or exception unwind) at any point before commit() returns
/// leaves the previous `path` contents byte-identical; the temp file is
/// removed best-effort on abandonment. Appends go straight to the
/// WritableFile, unbuffered: a caller hands over whole records or
/// payloads (snapshot::Writer::finish issues one per section).
class AtomicFileWriter {
 public:
  AtomicFileWriter(Env& env, std::string path);
  ~AtomicFileWriter();

  WritableFile& file() { return *file_; }

  /// Fsync the temp file, close it, rename it over `path`, fsync the
  /// directory.
  void commit();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

 private:
  Env& env_;
  std::string path_;
  std::string temp_path_;
  std::unique_ptr<WritableFile> file_;
  bool committed_ = false;
};

// ---------------------------------------------------------------------------
// In-memory crash-model environment
// ---------------------------------------------------------------------------

/// See the header comment. Thread-safe (one mutex over the whole model —
/// this env backs tests and fault matrices, not hot paths).
class InMemoryEnv : public Env {
 public:
  InMemoryEnv() = default;

  // Default repeated from Env so calls through a concrete reference (the
  // norm in tests) can omit it; it must stay identical to the base's.
  std::unique_ptr<WritableFile> new_writable_file(const std::string& path,
                                                  bool truncate = true) override;
  std::shared_ptr<const MappedFile> map_file(
      const std::string& path) const override;
  bool file_exists(const std::string& path) const override;
  std::uint64_t file_size(const std::string& path) const override;
  std::vector<std::string> list_dir(const std::string& dir) const override;
  void create_dir(const std::string& dir) override;
  void remove_file(const std::string& path) override;
  void rename_file(const std::string& from, const std::string& to) override;
  void sync_dir(const std::string& dir) override;
  void truncate_file(const std::string& path, std::uint64_t size) override;

  /// What a crash preserves beyond the durable image.
  enum class CrashMode {
    /// Strictest POSIX: everything not fsync'd is gone — unsynced bytes,
    /// un-dir-synced renames/creates/removes all roll back.
    kDropUnsynced,
    /// Opposite extreme: the kernel happened to write every dirty page
    /// and directory back before dying — the volatile view survives
    /// whole. Torn in-flight writes still surface (they were torn when
    /// issued, not by the cache).
    kPersistEverything,
  };

  /// Simulates a kill: collapses the live (volatile) view onto what the
  /// chosen mode says survives. Open handles keep working but their
  /// un-synced appends are gone under kDropUnsynced.
  void crash(CrashMode mode = CrashMode::kDropUnsynced);

 protected:
  struct Inode {
    std::string volatile_bytes;  ///< the page-cache view
    std::string durable_bytes;   ///< what survives kDropUnsynced
  };
  using InodeRef = std::shared_ptr<Inode>;

  /// Hook for FaultInjectingEnv: called (mutex held) before every mutating
  /// operation takes effect. `payload` is the append data (empty for
  /// non-append ops) — the hook may write a torn prefix and throw.
  virtual void before_mutation(const char* op, const std::string& path,
                               std::span<const std::byte> payload,
                               Inode* inode);

  mutable std::mutex mutex_;
  std::map<std::string, InodeRef> volatile_ns_;
  std::map<std::string, InodeRef> durable_ns_;
  std::map<std::string, bool> dirs_;  ///< dir path -> exists (volatile)
  std::map<std::string, bool> durable_dirs_;

 private:
  friend class MemWritableFile;
  InodeRef find_locked(const std::string& path) const;
};

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// InMemoryEnv that throws IoError on the Nth mutating operation. Every
/// append/sync/rename/sync_dir/remove/truncate/create counts as one fault
/// point, in execution order, so a test can enumerate them:
///
///   FaultInjectingEnv env;
///   run_scenario(env);                       // count pass, no faults
///   const auto total = env.ops_seen();
///   for (std::uint64_t n = 0; n < total; ++n) {
///     FaultInjectingEnv fresh;
///     fresh.fail_at_op(n);
///     try { run_scenario(fresh); } catch (const IoError&) {}
///     fresh.crash();
///     verify_recovery(fresh);
///   }
///
/// When the failing operation is an append and tearing is enabled, the
/// first half of the payload lands in the file's *durable* bytes before
/// the throw — the torn-page case every length-prefixed format must
/// survive.
class FaultInjectingEnv final : public InMemoryEnv {
 public:
  enum class TearMode {
    kNone,  ///< the failing append writes nothing
    kHalf,  ///< the failing append persists floor(size/2) bytes durably
  };

  /// Arms the injector: the op with this 0-based sequence number throws.
  /// Counting restarts from the current ops_seen() value — call on a
  /// fresh env (or after reset_ops()) for stable numbering.
  void fail_at_op(std::uint64_t index) noexcept { fail_at_ = index; }
  void disarm() noexcept { fail_at_ = kNever; }
  void set_tear(TearMode mode) noexcept { tear_ = mode; }

  std::uint64_t ops_seen() const noexcept { return ops_seen_; }
  void reset_ops() noexcept { ops_seen_ = 0; }

 protected:
  void before_mutation(const char* op, const std::string& path,
                       std::span<const std::byte> payload,
                       Inode* inode) override;

 private:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::uint64_t ops_seen_ = 0;
  std::uint64_t fail_at_ = kNever;
  TearMode tear_ = TearMode::kHalf;
};

}  // namespace fmeter::io
