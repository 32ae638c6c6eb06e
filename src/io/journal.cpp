#include "io/journal.hpp"

#include <cstring>
#include <utility>
#include <vector>

#include "io/checksum.hpp"
#include "obs/metrics.hpp"

namespace fmeter::io::journal {
namespace {

/// Journal metric handles, resolved once (registration allocates; the
/// append path must not).
struct JournalMetrics {
  obs::Counter* appends;
  obs::Counter* bytes;
  obs::Counter* syncs;
  obs::Histogram* append_ns;
  obs::Histogram* sync_ns;
  obs::Counter* replayed_records;
  obs::Counter* truncations;
  obs::Counter* dropped_bytes;
};

const JournalMetrics& metrics() {
  static const JournalMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    JournalMetrics out;
    out.appends = &r.counter("fmeter_journal_appends_total",
                             "Records appended to write-ahead journals");
    out.bytes = &r.counter("fmeter_journal_bytes_total",
                           "Bytes appended to write-ahead journals "
                           "(framing included)");
    out.syncs = &r.counter("fmeter_journal_syncs_total",
                           "Journal fsync calls");
    out.append_ns = &r.histogram("fmeter_journal_append_ns",
                                 "Wall time of one journal append "
                                 "(excluding sync)");
    out.sync_ns = &r.histogram("fmeter_journal_sync_ns",
                               "Wall time of one journal fsync");
    out.replayed_records =
        &r.counter("fmeter_journal_recovery_records_replayed_total",
                   "Intact journal records replayed during recovery");
    out.truncations =
        &r.counter("fmeter_journal_recovery_truncations_total",
                   "Recoveries that found (and cut) a torn/corrupt tail");
    out.dropped_bytes =
        &r.counter("fmeter_journal_recovery_bytes_dropped_total",
                   "Bytes past the last good record boundary at recovery");
    return out;
  }();
  return m;
}

std::uint64_t record_checksum(std::uint32_t length,
                              std::span<const std::byte> payload) noexcept {
  // Over the length prefix *and* the payload (one fixed chunking: the
  // 4-byte prefix first, then the payload) so a flipped length bit cannot
  // re-frame the stream undetected.
  const auto length_bytes = std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(&length), sizeof(length));
  return fnv1a_extend(fnv1a(length_bytes), payload);
}

}  // namespace

Writer::Writer(Env& env, std::string path)
    : env_(env), path_(std::move(path)) {
  const std::uint64_t existing =
      env_.file_exists(path_) ? env_.file_size(path_) : 0;
  if (existing < kHeaderBytes) {
    // Absent, or a crash got it before the first sync: start fresh. The
    // magic is durable from the first sync(), which the caller issues
    // before any manifest names the file; until then a crash leaves the
    // headerless file replay reads as empty.
    file_ = env_.new_writable_file(path_, /*truncate=*/true);
    file_->append(kMagic, sizeof(kMagic));
    bytes_ = kHeaderBytes;
  } else {
    // Extending an existing journal: recovery (replay with repair) is
    // responsible for having truncated any torn tail first.
    file_ = env_.new_writable_file(path_, /*truncate=*/false);
    bytes_ = existing;
  }
}

void Writer::append(std::span<const std::byte> payload) {
  if (payload.size() > kMaxRecordBytes) {
    throw JournalError("journal: record of " + std::to_string(payload.size()) +
                       " bytes exceeds the format cap");
  }
  const obs::Stopwatch watch;
  const auto length = static_cast<std::uint32_t>(payload.size());
  const std::uint64_t checksum = record_checksum(length, payload);

  // One contiguous frame, one Env write: a fault can tear the record but
  // never interleave another writer's bytes into it.
  std::vector<std::byte> frame(kRecordHeaderBytes + payload.size());
  std::memcpy(frame.data(), &length, sizeof(length));
  std::memcpy(frame.data() + sizeof(length), &checksum, sizeof(checksum));
  if (!payload.empty()) {
    std::memcpy(frame.data() + kRecordHeaderBytes, payload.data(),
                payload.size());
  }
  file_->append(frame);
  ++records_;
  bytes_ += frame.size();
  const JournalMetrics& m = metrics();
  m.appends->inc();
  m.bytes->inc(frame.size());
  watch.record(*m.append_ns);
}

void Writer::sync() {
  const obs::Stopwatch watch;
  file_->sync();
  const JournalMetrics& m = metrics();
  m.syncs->inc();
  watch.record(*m.sync_ns);
}

void Writer::close() {
  if (file_) {
    file_->close();
    file_.reset();
  }
}

namespace {

ReplayResult replay_impl(
    Env& env, const std::string& path,
    const std::function<void(std::span<const std::byte>)>* apply,
    bool repair) {
  ReplayResult result;
  const bool exists = env.file_exists(path);
  const std::string bytes = exists ? env.read_file(path) : std::string();

  const auto span_at = [&bytes](std::uint64_t at, std::uint64_t n) {
    return std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(bytes.data()) + at, n);
  };

  if (bytes.size() < kHeaderBytes) {
    // Crash between creation and the first sync (or no journal at all):
    // zero records were ever committed, by construction.
    result.valid_bytes = 0;
    result.truncated_tail = !bytes.empty();
    result.dropped_bytes = bytes.size();
    if (result.truncated_tail) result.truncate_reason = "short magic header";
  } else if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    // A complete header that is not ours is corruption of synced data (or
    // a foreign file) — refusing loudly beats discarding committed records.
    throw JournalError("journal: bad magic in " + path +
                       " (not a journal file)");
  } else {
    std::uint64_t at = kHeaderBytes;
    result.valid_bytes = at;
    while (at < bytes.size()) {
      if (bytes.size() - at < kRecordHeaderBytes) {
        result.truncate_reason = "torn record header";
        break;
      }
      std::uint32_t length = 0;
      std::uint64_t checksum = 0;
      std::memcpy(&length, bytes.data() + at, sizeof(length));
      std::memcpy(&checksum, bytes.data() + at + sizeof(length),
                  sizeof(checksum));
      if (length > kMaxRecordBytes) {
        result.truncate_reason = "implausible record length";
        break;
      }
      if (bytes.size() - at - kRecordHeaderBytes < length) {
        result.truncate_reason = "torn record payload";
        break;
      }
      const auto payload = span_at(at + kRecordHeaderBytes, length);
      if (record_checksum(length, payload) != checksum) {
        result.truncate_reason = "record checksum mismatch";
        break;
      }
      if (apply != nullptr) (*apply)(payload);
      ++result.records;
      result.payload_bytes += length;
      at += kRecordHeaderBytes + length;
      result.valid_bytes = at;
    }
    result.truncated_tail = result.valid_bytes < bytes.size();
    result.dropped_bytes = bytes.size() - result.valid_bytes;
  }

  if (repair && (result.truncated_tail || !exists)) {
    if (result.valid_bytes < kHeaderBytes) {
      // Nothing valid — rebuild the header so the journal leaves its
      // limbo state now, not at the next Writer construction.
      auto file = env.new_writable_file(path, /*truncate=*/true);
      file->append(kMagic, sizeof(kMagic));
      file->sync();
      file->close();
      result.valid_bytes = kHeaderBytes;
    } else if (result.truncated_tail) {
      env.truncate_file(path, result.valid_bytes);
      auto file = env.new_writable_file(path, /*truncate=*/false);
      file->sync();  // the truncation itself must survive the next crash
      file->close();
    }
  }

  if (apply != nullptr) {  // scan() is a read-only probe, not a recovery
    const JournalMetrics& m = metrics();
    m.replayed_records->inc(result.records);
    if (result.truncated_tail) {
      m.truncations->inc();
      m.dropped_bytes->inc(result.dropped_bytes);
    }
  }
  return result;
}

}  // namespace

ReplayResult replay(
    Env& env, const std::string& path,
    const std::function<void(std::span<const std::byte>)>& apply,
    bool repair) {
  return replay_impl(env, path, &apply, repair);
}

ReplayResult scan(Env& env, const std::string& path) {
  return replay_impl(env, path, nullptr, /*repair=*/false);
}

}  // namespace fmeter::io::journal
