#include "fmeter/archive_format.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>

#include "io/checksum.hpp"

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

/// Sequential writer over a buffer sized once up front: every field is
/// copied through a cursor, so encoding a record allocates exactly once.
class ByteWriter {
 public:
  explicit ByteWriter(std::size_t size) : bytes_(size) {}

  void write(const void* data, std::size_t size) {
    if (size != 0) std::memcpy(bytes_.data() + at_, data, size);
    at_ += size;
  }

  template <typename T>
  void write_scalar(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(&value, sizeof(value));
  }

  std::span<const std::byte> written() const noexcept {
    return std::span(bytes_).first(at_);
  }
  std::vector<std::byte> take() && { return std::move(bytes_); }

 private:
  std::vector<std::byte> bytes_;
  std::size_t at_ = 0;
};

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
  ByteWriter out(sizeof(kManifestMagic) + sizeof(kManifestVersion) +
                 sizeof(m.epoch) + 2 * sizeof(std::uint32_t) +
                 m.snapshot.size() + m.journal.size() + sizeof(std::uint64_t));
  out.write(kManifestMagic, sizeof(kManifestMagic));
  out.write_scalar(kManifestVersion);
  out.write_scalar(m.epoch);
  for (const std::string* name : {&m.snapshot, &m.journal}) {
    out.write_scalar(static_cast<std::uint32_t>(name->size()));
    out.write(name->data(), name->size());
  }
  out.write_scalar(io::fnv1a(out.written()));
  return std::move(out).take();
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
    std::span<const vsm::SparseView> signatures,
    std::span<const std::string> labels) {
  std::size_t bytes = sizeof(std::uint64_t);
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    bytes += 2 * sizeof(std::uint32_t) + labels[i].size() +
             signatures[i].indices.size() *
                 (sizeof(std::uint32_t) + sizeof(double));
  }
  ByteWriter out(bytes);
  out.write_scalar(static_cast<std::uint64_t>(signatures.size()));
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    out.write_scalar(static_cast<std::uint32_t>(labels[i].size()));
    out.write(labels[i].data(), labels[i].size());
    const vsm::SparseView sig = signatures[i];
    out.write_scalar(static_cast<std::uint32_t>(sig.indices.size()));
    for (std::size_t f = 0; f < sig.indices.size(); ++f) {
      out.write_scalar(sig.indices[f]);
      out.write_scalar(sig.values[f]);
    }
  }
  return std::move(out).take();
}

std::vector<std::byte> encode_batch(
    const std::vector<vsm::SparseVector>& signatures,
    const std::vector<std::string>& labels) {
  const std::vector<vsm::SparseView> views(signatures.begin(),
                                           signatures.end());
  return encode_batch(views, labels);
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
    const std::size_t plausible_nnz = std::min<std::size_t>(
        nnz, payload.size() / (sizeof(std::uint32_t) + sizeof(double)));
    std::vector<vsm::SparseVector::Index> indices;
    std::vector<double> values;
    indices.reserve(plausible_nnz);
    values.reserve(plausible_nnz);
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

}  // namespace fmeter::core
