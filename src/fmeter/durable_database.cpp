#include "fmeter/durable_database.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "io/checksum.hpp"
#include "obs/metrics.hpp"

namespace fmeter::core {
namespace {

/// MANIFEST layout: magic, version, epoch, then the two referenced file
/// names (length-prefixed), then chunked FNV-64 over everything above.
/// Swapped atomically, so a torn manifest is impossible by construction —
/// a checksum failure here means bit rot, which deserves a loud error,
/// not a silent fresh database over live data.
constexpr char kManifestMagic[8] = {'F', 'M', 'E', 'T', 'M', 'A', 'N', '1'};
constexpr std::uint32_t kManifestVersion = 1;
/// File names are epoch-derived and short; anything bigger is corruption.
constexpr std::uint32_t kMaxNameBytes = 4096;

struct DurableMetrics {
  obs::Counter* checkpoints;
  obs::Counter* recoveries;
  obs::Histogram* checkpoint_ns;
  obs::Histogram* recovery_ns;
};

const DurableMetrics& durable_metrics() {
  static const DurableMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    DurableMetrics out;
    out.checkpoints = &r.counter("fmeter_durable_checkpoints_total",
                                 "Snapshot + journal-rotation cycles");
    out.recoveries = &r.counter("fmeter_durable_recoveries_total",
                                "DurableDatabase opens of an existing "
                                "directory");
    out.checkpoint_ns = &r.histogram("fmeter_durable_checkpoint_ns",
                                     "Wall time of one checkpoint()");
    out.recovery_ns = &r.histogram("fmeter_durable_recovery_ns",
                                   "Wall time of open (load + replay)");
    return out;
  }();
  return m;
}

std::uint64_t elapsed_ns(const std::chrono::steady_clock::time_point& start) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
}

void put_bytes(std::vector<std::byte>& out, const void* data,
               std::size_t size) {
  const std::size_t at = out.size();
  out.resize(at + size);
  if (size != 0) std::memcpy(out.data() + at, data, size);
}

template <typename T>
void put_scalar(std::vector<std::byte>& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_bytes(out, &value, sizeof(value));
}

/// Bounds-checked sequential reader over a record/manifest payload.
class ByteReader {
 public:
  ByteReader(std::span<const std::byte> bytes, const char* what)
      : bytes_(bytes), what_(what) {}

  void read(void* into, std::size_t size) {
    if (size > bytes_.size() - at_) {
      throw DurabilityError(std::string(what_) + ": truncated payload");
    }
    std::memcpy(into, bytes_.data() + at_, size);
    at_ += size;
  }

  template <typename T>
  T read_scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    read(&value, sizeof(value));
    return value;
  }

  std::string read_string(std::uint32_t length) {
    std::string out(length, '\0');
    read(out.data(), length);
    return out;
  }

  std::size_t at() const noexcept { return at_; }
  bool done() const noexcept { return at_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  const char* what_;
  std::size_t at_ = 0;
};

std::string epoch_name(const char* stem, const char* suffix,
                       std::uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s-%06llu%s", stem,
                static_cast<unsigned long long>(epoch), suffix);
  return buf;
}

std::vector<std::byte> encode_manifest(const Manifest& m) {
  std::vector<std::byte> out;
  put_bytes(out, kManifestMagic, sizeof(kManifestMagic));
  put_scalar(out, kManifestVersion);
  put_scalar(out, m.epoch);
  const auto put_name = [&out](const std::string& name) {
    put_scalar(out, static_cast<std::uint32_t>(name.size()));
    put_bytes(out, name.data(), name.size());
  };
  put_name(m.snapshot);
  put_name(m.journal);
  put_scalar(out, io::fnv1a(out));
  return out;
}

}  // namespace

void write_manifest(io::Env& env, const std::string& dir, const Manifest& m) {
  const std::vector<std::byte> bytes = encode_manifest(m);
  io::AtomicFileWriter file(env, manifest_path(dir));
  file.file().append(bytes);
  file.commit();
}

std::string manifest_path(const std::string& dir) { return dir + "/MANIFEST"; }

std::string snapshot_name(std::uint64_t epoch) {
  return epoch_name("snapshot", "", epoch);
}

std::string journal_name(std::uint64_t epoch) {
  return epoch_name("journal", ".wal", epoch);
}

Manifest read_manifest(io::Env& env, const std::string& dir) {
  const std::string path = manifest_path(dir);
  std::string raw;
  try {
    raw = env.read_file(path);
  } catch (const io::IoError& e) {
    throw DurabilityError(std::string("manifest: ") + e.what());
  }
  const auto bytes = std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(raw.data()), raw.size());
  if (bytes.size() < sizeof(kManifestMagic) + sizeof(std::uint64_t) ||
      std::memcmp(raw.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    throw DurabilityError("manifest: bad magic in " + path);
  }
  std::uint64_t stored = 0;
  std::memcpy(&stored, raw.data() + raw.size() - sizeof(stored),
              sizeof(stored));
  if (io::fnv1a(bytes.first(bytes.size() - sizeof(stored))) != stored) {
    throw DurabilityError("manifest: checksum mismatch in " + path +
                          " (bit rot? manifests are written atomically)");
  }
  ByteReader reader(bytes.first(bytes.size() - sizeof(stored)), "manifest");
  char magic[sizeof(kManifestMagic)];
  reader.read(magic, sizeof(magic));
  const auto version = reader.read_scalar<std::uint32_t>();
  if (version != kManifestVersion) {
    throw DurabilityError("manifest: unsupported version " +
                          std::to_string(version));
  }
  Manifest m;
  m.epoch = reader.read_scalar<std::uint64_t>();
  const auto read_name = [&reader]() {
    const auto length = reader.read_scalar<std::uint32_t>();
    if (length > kMaxNameBytes) {
      throw DurabilityError("manifest: implausible name length");
    }
    return reader.read_string(length);
  };
  m.snapshot = read_name();
  m.journal = read_name();
  if (!reader.done()) {
    throw DurabilityError("manifest: trailing bytes in " + path);
  }
  return m;
}

std::vector<std::byte> encode_batch(
    const std::vector<vsm::SparseVector>& signatures,
    const std::vector<std::string>& labels) {
  std::size_t bytes = sizeof(std::uint64_t);
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    bytes += 2 * sizeof(std::uint32_t) + labels[i].size() +
             signatures[i].nnz() * (sizeof(std::uint32_t) + sizeof(double));
  }
  std::vector<std::byte> out;
  out.reserve(bytes);
  put_scalar(out, static_cast<std::uint64_t>(signatures.size()));
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    put_scalar(out, static_cast<std::uint32_t>(labels[i].size()));
    put_bytes(out, labels[i].data(), labels[i].size());
    const auto& sig = signatures[i];
    put_scalar(out, static_cast<std::uint32_t>(sig.nnz()));
    for (std::size_t f = 0; f < sig.nnz(); ++f) {
      put_scalar(out, sig.indices()[f]);
      put_scalar(out, sig.values()[f]);
    }
  }
  return out;
}

void decode_batch(std::span<const std::byte> payload,
                  std::vector<vsm::SparseVector>& signatures,
                  std::vector<std::string>& labels) {
  // The record already passed its journal checksum, so a malformed payload
  // here is not a crash artifact — it is a foreign or crafted record, and
  // the DurabilityError propagates out of recovery loudly.
  ByteReader reader(payload, "journal record");
  const auto count = reader.read_scalar<std::uint64_t>();
  signatures.clear();
  labels.clear();
  // Cap the upfront reserve by what the payload could possibly hold (a doc
  // costs at least its two length prefixes), so a corrupt count cannot
  // drive a huge allocation before the bounds checks trip.
  const std::uint64_t plausible =
      std::min<std::uint64_t>(count, payload.size() / sizeof(std::uint64_t));
  signatures.reserve(plausible);
  labels.reserve(plausible);
  for (std::uint64_t d = 0; d < count; ++d) {
    const auto label_length = reader.read_scalar<std::uint32_t>();
    labels.push_back(reader.read_string(label_length));
    const auto nnz = reader.read_scalar<std::uint32_t>();
    std::vector<vsm::SparseVector::Index> indices;
    std::vector<double> values;
    indices.reserve(nnz);
    values.reserve(nnz);
    for (std::uint32_t f = 0; f < nnz; ++f) {
      indices.push_back(reader.read_scalar<vsm::SparseVector::Index>());
      values.push_back(reader.read_scalar<double>());
    }
    try {
      signatures.push_back(
          vsm::SparseVector::from_sorted(std::move(indices),
                                         std::move(values)));
    } catch (const std::invalid_argument& e) {
      throw DurabilityError(std::string("journal record: document ") +
                            std::to_string(d) + " violates the sparse "
                            "vector invariant (" + e.what() + ")");
    }
  }
  if (!reader.done()) {
    throw DurabilityError("journal record: trailing bytes after the last "
                          "document");
  }
}

DurableDatabase::DurableDatabase(io::Env& env, std::string dir,
                                 DurableOptions options)
    : env_(env),
      dir_(std::move(dir)),
      options_(options),
      db_(options.num_shards > 0 ? SignatureDatabase(options.num_shards)
                                 : SignatureDatabase()) {
  open();
}

void DurableDatabase::open() {
  const auto start = std::chrono::steady_clock::now();
  env_.create_dir(dir_);  // idempotent in every Env

  Manifest manifest;
  if (!env_.file_exists(manifest_path(dir_))) {
    // Fresh directory — or a crash beat the very first manifest commit, in
    // which case nothing was ever durable and fresh is the truth.
    recovery_.created = true;
    manifest.epoch = 0;
    manifest.journal = journal_name(0);
    if (options_.journaled) {
      journal_ = std::make_unique<io::journal::Writer>(
          env_, dir_ + "/" + manifest.journal, options_.sync_policy);
    }
    write_manifest(env_, dir_, manifest);
  } else {
    manifest = read_manifest(env_, dir_);
    durable_metrics().recoveries->inc();
    if (!manifest.snapshot.empty()) {
      db_.load(env_, dir_ + "/" + manifest.snapshot);
      recovery_.snapshot_loaded = true;
    }
    // Replay even when options say "no journal": records a previous
    // (journaled) incarnation committed are data, not configuration.
    // Every record is decoded first and indexed once, as one batch: a
    // build per record would rebuild every shard per record.
    const std::string journal_path = dir_ + "/" + manifest.journal;
    std::vector<vsm::SparseVector> signatures;
    std::vector<std::string> labels;
    const auto replayed = io::journal::replay(
        env_, journal_path,
        [&signatures, &labels](std::span<const std::byte> payload) {
          std::vector<vsm::SparseVector> record_signatures;
          std::vector<std::string> record_labels;
          decode_batch(payload, record_signatures, record_labels);
          std::move(record_signatures.begin(), record_signatures.end(),
                    std::back_inserter(signatures));
          std::move(record_labels.begin(), record_labels.end(),
                    std::back_inserter(labels));
        },
        /*repair=*/true);
    db_.add_batch(std::move(signatures), std::move(labels));
    recovery_.journal_records_replayed = replayed.records;
    recovery_.journal_truncated = replayed.truncated_tail;
    recovery_.journal_bytes_dropped = replayed.dropped_bytes;
    recovery_.truncate_reason = replayed.truncate_reason;
    if (options_.journaled) {
      journal_ = std::make_unique<io::journal::Writer>(
          env_, journal_path, options_.sync_policy);
    }
  }
  epoch_ = manifest.epoch;
  recovery_.epoch = manifest.epoch;

  // Sweep crash leftovers: temp files from torn atomic commits, the
  // previous epoch's files when a crash hit checkpoint() between manifest
  // swap and cleanup. Everything the manifest does not name is garbage —
  // that is the manifest's whole job.
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
  durable_metrics().recovery_ns->record(elapsed_ns(start));
}

std::size_t DurableDatabase::add_batch(
    std::vector<vsm::SparseVector> signatures,
    std::vector<std::string> labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Validate before journaling: a record that reaches the journal must be
  // replayable, or recovery would fail on data the write path accepted.
  SignatureDatabase::validate_batch(signatures, labels);
  if (journal_) {
    const std::vector<std::byte> payload = encode_batch(signatures, labels);
    journal_->append(payload);  // commit point under kEachRecord
  }
  return db_.add_batch(std::move(signatures), std::move(labels));
}

void DurableDatabase::sync() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (journal_) journal_->sync();
}

void DurableDatabase::checkpoint() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t old_epoch = epoch_;
  Manifest next;
  next.epoch = epoch_ + 1;
  next.snapshot = snapshot_name(next.epoch);
  next.journal = journal_name(next.epoch);

  // Everything until the manifest swap is preparation: a crash or an
  // IoError anywhere in it leaves the old manifest in force and the new
  // files as unreferenced garbage for the next open's sweep.
  db_.save(env_, dir_ + "/" + next.snapshot);
  std::unique_ptr<io::journal::Writer> fresh;
  if (options_.journaled) {
    fresh = std::make_unique<io::journal::Writer>(
        env_, dir_ + "/" + next.journal, options_.sync_policy);
  }
  write_manifest(env_, dir_, next);  // the atomic commit point

  // The new epoch is in force; retire the old one. Failures past this
  // point leave stale-but-unreferenced files, swept at the next open.
  if (journal_) journal_->close();
  journal_ = std::move(fresh);
  epoch_ = next.epoch;
  const std::string old_journal = dir_ + "/" + journal_name(old_epoch);
  const std::string old_snapshot = dir_ + "/" + snapshot_name(old_epoch);
  if (env_.file_exists(old_journal)) env_.remove_file(old_journal);
  if (env_.file_exists(old_snapshot)) env_.remove_file(old_snapshot);
  env_.sync_dir(dir_);

  const DurableMetrics& m = durable_metrics();
  m.checkpoints->inc();
  m.checkpoint_ns->record(elapsed_ns(start));
}

}  // namespace fmeter::core
