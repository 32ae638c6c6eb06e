#include "index/snapshot.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <istream>
#include <ostream>

#include "io/checksum.hpp"
#include "obs/trace.hpp"

namespace fmeter::index::snapshot {
namespace {

using io::fnv1a_extend;

/// Format limits guarding header-count allocations (see Reader below).
constexpr std::uint32_t kMaxShards = 1u << 16;
constexpr std::uint32_t kExtraSectionSlack = 16;

/// Sections a writer emits per shard, and the last section kind, in each
/// format version.
constexpr std::uint32_t sections_per_shard(std::uint32_t version) noexcept {
  return version == 1 ? 3 : 7;
}
constexpr SectionKind last_kind(std::uint32_t version) noexcept {
  return version == 1 ? SectionKind::kLabels : SectionKind::kPublicOf;
}

/// Payloads are read and checksummed this many bytes at a time, so each
/// chunk is hashed while it is still in cache. A multiple of 8: the chunked
/// FNV folds 8 bytes per step, so a split at a non-multiple boundary would
/// hash different chunks than the writer's one-shot pass.
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

/// Fixed-size header prefix (before the directory), kept as a POD so the
/// byte layout is the documented one. Packed by construction: every field
/// sits on its natural alignment with no padding.
struct HeaderPrefix {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian_tag;
  std::uint32_t shard_count;
  std::uint32_t section_count;
  std::uint64_t doc_count;
  std::uint64_t term_count;
};
static_assert(sizeof(HeaderPrefix) == 40);

struct DirectoryEntry {
  std::uint32_t kind;
  std::uint32_t shard;
  std::uint64_t bytes;
  std::uint64_t checksum;
};
static_assert(sizeof(DirectoryEntry) == 24);

template <typename T>
std::span<const std::byte> as_bytes_of(const T& value) noexcept {
  return {reinterpret_cast<const std::byte*>(&value), sizeof(T)};
}

void write_bytes(std::ostream& out, std::span<const std::byte> bytes) {
  errno = 0;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    // An ofstream that hit ENOSPC/EIO leaves the reason in errno; surface
    // it — "write failure" alone is undebuggable on a full disk.
    std::string message = "snapshot: write failure";
    if (errno != 0) {
      message += " (";
      message += std::strerror(errno);
      message += ")";
    }
    throw SnapshotError(message);
  }
}

}  // namespace

/// Sequential reads over an istream or an Env file, with the total size
/// when the source can tell it. read() fills as much of `into` as the
/// source holds — short only at EOF — looping over short reads.
class ByteSource {
 public:
  static constexpr std::uint64_t kUnknownSize = ~std::uint64_t{0};

  virtual std::size_t read(std::span<std::byte> into) = 0;
  /// Bytes from the current position to the end, or kUnknownSize.
  virtual std::uint64_t remaining() const = 0;
};

namespace {

class StreamSource final : public ByteSource {
 public:
  explicit StreamSource(std::istream& in) : in_(in) {
    // A seekable stream (files, stringstreams) reveals its size; a pipe
    // does not, and reads it as it comes.
    const auto at = in.tellg();
    if (at == std::istream::pos_type(-1)) return;
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    in.seekg(at);
    if (end != std::istream::pos_type(-1) && in) {
      size_ = static_cast<std::uint64_t>(end - at);
    }
    in.clear();
  }

  std::size_t read(std::span<std::byte> into) override {
    in_.read(reinterpret_cast<char*>(into.data()),
             static_cast<std::streamsize>(into.size()));
    const auto got = static_cast<std::size_t>(in_.gcount());
    consumed_ += got;
    return got;
  }

  std::uint64_t remaining() const override {
    return size_ == kUnknownSize ? kUnknownSize : size_ - consumed_;
  }

 private:
  std::istream& in_;
  std::uint64_t size_ = kUnknownSize;
  std::uint64_t consumed_ = 0;
};

class FileSource final : public ByteSource {
 public:
  /// Reads `file` (of `size` bytes) from offset `at` on.
  FileSource(const io::RandomAccessFile& file, std::uint64_t size,
             std::uint64_t at = 0)
      : file_(file), size_(size), at_(at) {}

  std::size_t read(std::span<std::byte> into) override {
    // RandomAccessFile::read may come back short without being at EOF.
    std::size_t got = 0;
    while (got < into.size()) {
      const std::size_t n = file_.read(at_ + got, into.subspan(got));
      if (n == 0) break;
      got += n;
    }
    at_ += got;
    return got;
  }

  std::uint64_t remaining() const override {
    return at_ < size_ ? size_ - at_ : 0;
  }

 private:
  const io::RandomAccessFile& file_;
  std::uint64_t size_;
  std::uint64_t at_;
};

void read_exact(ByteSource& in, void* into, std::size_t bytes,
                const char* what) {
  if (in.read({static_cast<std::byte*>(into), bytes}) != bytes) {
    throw SnapshotError(std::string("snapshot: truncated file (short read in ") +
                        what + ")");
  }
}

/// True when the source holds no byte past the last section.
bool at_end(ByteSource& in) {
  std::byte extra;
  return in.read({&extra, 1}) == 0;
}

/// Bytes per element of a section kind's typed storage.
std::size_t element_size(SectionKind kind) noexcept {
  switch (kind) {
    case SectionKind::kForwardOffsets:
    case SectionKind::kArenaOffsets: return sizeof(std::uint64_t);
    case SectionKind::kTermIds:
    case SectionKind::kArenaIds:
    case SectionKind::kPublicOf: return sizeof(std::uint32_t);
    case SectionKind::kWeights:
    case SectionKind::kArenaWeights: return sizeof(double);
    case SectionKind::kLabels: return 1;
  }
  return 1;
}

/// Header prefix + directory, parsed and fully validated (magic, version,
/// endianness, count caps, header checksum). Shared by Reader — which goes
/// on to materialize sections — and verify_stream, which only streams them
/// through the checksum.
struct ParsedHeader {
  HeaderPrefix prefix;
  std::vector<DirectoryEntry> directory;
  std::uint64_t bytes_read = 0;
};

ParsedHeader read_header(ByteSource& in) {
  ParsedHeader out;
  HeaderPrefix& prefix = out.prefix;
  read_exact(in, &prefix, sizeof(prefix), "header");
  if (std::memcmp(prefix.magic, kMagic, sizeof(kMagic)) != 0) {
    throw SnapshotError("snapshot: bad magic (not a snapshot file)");
  }
  if (prefix.endian_tag != kEndianTag) {
    // Distinguish the honest cross-endian case from plain corruption.
    std::uint32_t swapped = 0;
    const auto* raw = reinterpret_cast<const unsigned char*>(&prefix.endian_tag);
    for (int i = 0; i < 4; ++i) {
      swapped = (swapped << 8) | raw[i];
    }
    if (swapped == kEndianTag) {
      throw SnapshotError(
          "snapshot: endianness mismatch (file was written on a "
          "foreign-endian host)");
    }
    throw SnapshotError("snapshot: corrupt endianness tag");
  }
  if (prefix.version < 1 || prefix.version > kFormatVersion) {
    throw SnapshotError("snapshot: unsupported format version " +
                        std::to_string(prefix.version) +
                        " (this build reads 1 to " +
                        std::to_string(kFormatVersion) + ")");
  }
  // The counts are not covered by any checksum until the directory has
  // been read, so cap them *before* they size an allocation — a bit-rotted
  // count must surface as a SnapshotError, not a std::bad_alloc. The caps
  // are format limits, far above anything a writer emits (three or seven
  // sections per shard plus one labels blob).
  if (prefix.shard_count > kMaxShards) {
    throw SnapshotError("snapshot: implausible shard count " +
                        std::to_string(prefix.shard_count) +
                        " (corrupt header?)");
  }
  if (prefix.section_count >
      sections_per_shard(prefix.version) * prefix.shard_count +
          kExtraSectionSlack) {
    throw SnapshotError("snapshot: implausible section count " +
                        std::to_string(prefix.section_count) + " for " +
                        std::to_string(prefix.shard_count) +
                        " shards (corrupt header?)");
  }

  out.directory.resize(prefix.section_count);
  for (DirectoryEntry& entry : out.directory) {
    read_exact(in, &entry, sizeof(entry), "section directory");
  }
  std::uint64_t stored_header_checksum = 0;
  read_exact(in, &stored_header_checksum, sizeof(stored_header_checksum),
             "header checksum");
  std::uint64_t header_checksum = fnv1a(as_bytes_of(prefix));
  for (const DirectoryEntry& entry : out.directory) {
    header_checksum = fnv1a_extend(header_checksum, as_bytes_of(entry));
  }
  if (header_checksum != stored_header_checksum) {
    throw SnapshotError("snapshot: header checksum mismatch (corrupt header "
                        "or section directory)");
  }
  for (std::size_t a = 0; a < out.directory.size(); ++a) {
    const DirectoryEntry& entry = out.directory[a];
    if (entry.kind < static_cast<std::uint32_t>(SectionKind::kForwardOffsets) ||
        entry.kind > static_cast<std::uint32_t>(last_kind(prefix.version))) {
      throw SnapshotError("snapshot: unknown section kind " +
                          std::to_string(entry.kind));
    }
    for (std::size_t b = 0; b < a; ++b) {
      if (out.directory[b].kind == entry.kind &&
          out.directory[b].shard == entry.shard) {
        throw SnapshotError(std::string("snapshot: duplicate section ") +
                            section_kind_name(static_cast<SectionKind>(
                                entry.kind)) +
                            "/" + std::to_string(entry.shard));
      }
    }
  }
  out.bytes_read = sizeof(prefix) +
                   out.directory.size() * sizeof(DirectoryEntry) +
                   sizeof(stored_header_checksum);
  return out;
}

}  // namespace

const char* section_kind_name(SectionKind kind) noexcept {
  switch (kind) {
    case SectionKind::kForwardOffsets: return "offsets";
    case SectionKind::kTermIds: return "ids";
    case SectionKind::kWeights: return "weights";
    case SectionKind::kLabels: return "labels";
    case SectionKind::kArenaOffsets: return "arena-offsets";
    case SectionKind::kArenaIds: return "arena-ids";
    case SectionKind::kArenaWeights: return "arena-weights";
    case SectionKind::kPublicOf: return "public-of";
  }
  return "unknown";
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept {
  return io::fnv1a(bytes);  // one checksum dialect repo-wide (io/checksum.hpp)
}

Writer::Writer(std::uint32_t shard_count, std::uint64_t doc_count,
               std::uint64_t term_count)
    : shard_count_(shard_count),
      doc_count_(doc_count),
      term_count_(term_count) {}

void Writer::add_bytes(SectionKind kind, std::uint32_t shard,
                       std::span<const std::byte> payload) {
  sections_.push_back({kind, shard, payload, fnv1a(payload)});
}

void Writer::finish(std::ostream& out) {
  const obs::StageSpan save_span(obs::Stage::kSnapshotSave);
  HeaderPrefix prefix{};
  std::memcpy(prefix.magic, kMagic, sizeof(kMagic));
  prefix.version = kFormatVersion;
  prefix.endian_tag = kEndianTag;
  prefix.shard_count = shard_count_;
  prefix.section_count = static_cast<std::uint32_t>(sections_.size());
  prefix.doc_count = doc_count_;
  prefix.term_count = term_count_;

  std::vector<DirectoryEntry> directory;
  directory.reserve(sections_.size());
  for (const Section& section : sections_) {
    directory.push_back({static_cast<std::uint32_t>(section.kind),
                         section.shard,
                         static_cast<std::uint64_t>(section.payload.size()),
                         section.checksum});
  }

  // The header checksum covers the prefix *and* the directory, so a flipped
  // byte in a section length or checksum entry fails here instead of
  // misdirecting the payload parse.
  std::uint64_t header_checksum = fnv1a(as_bytes_of(prefix));
  for (const DirectoryEntry& entry : directory) {
    header_checksum = fnv1a_extend(header_checksum, as_bytes_of(entry));
  }

  write_bytes(out, as_bytes_of(prefix));
  for (const DirectoryEntry& entry : directory) {
    write_bytes(out, as_bytes_of(entry));
  }
  write_bytes(out, as_bytes_of(header_checksum));
  for (const Section& section : sections_) {
    write_bytes(out, section.payload);
  }
  out.flush();
  if (!out) throw SnapshotError("snapshot: write failure");
}

void Writer::finish(io::Env& env, const std::string& path) {
  try {
    io::AtomicFileWriter file(env, path);
    finish(file.stream());
    file.commit();
  } catch (const io::IoError& e) {
    // One exception type per layer: callers of the snapshot API catch
    // SnapshotError, whatever transport failed underneath.
    throw SnapshotError(std::string("snapshot: ") + e.what());
  }
}

namespace {

/// Checks every directory length before any of them sizes an allocation —
/// a forged entry must fail as a SnapshotError, not as bad_alloc — against
/// the `present` payload bytes, which the sections must fill exactly
/// (kUnknownSize, an unseekable stream, skips both checks).
void check_lengths(const std::vector<DirectoryEntry>& directory,
                   std::uint64_t present) {
  std::uint64_t declared = 0;
  for (const DirectoryEntry& entry : directory) {
    const auto kind = static_cast<SectionKind>(entry.kind);
    if (entry.bytes % element_size(kind) != 0) {
      throw SnapshotError(std::string("snapshot: section ") +
                          section_kind_name(kind) + "/" +
                          std::to_string(entry.shard) +
                          " byte length is not a whole number of elements");
    }
    if (present != ByteSource::kUnknownSize &&
        entry.bytes > present - declared) {
      throw SnapshotError(
          "snapshot: truncated file (section directory declares more "
          "payload than the file holds)");
    }
    declared += entry.bytes;
  }
  if (present != ByteSource::kUnknownSize && declared != present) {
    throw SnapshotError("snapshot: trailing bytes after the last section");
  }
}

/// Allocates `entry`'s storage in `data` as a `Vector` and returns its
/// bytes, advised onto huge pages before a read faults them in (see
/// arena_allocator.hpp). The elements are left unset for the read.
template <typename Vector, typename Data>
std::span<std::byte> allocate_as(const DirectoryEntry& entry, Data& data) {
  using T = typename Vector::value_type;
  auto& out = data.template emplace<Vector>(
      static_cast<std::size_t>(entry.bytes / sizeof(T)));
  const std::span<std::byte> bytes = std::as_writable_bytes(std::span<T>(out));
  advise_huge_pages(bytes.data(), bytes.size());
  return bytes;
}

/// Allocates `entry`'s storage in `data` as its kind's vector type: the
/// arena streams on ArenaVector, so an index adopts them on the storage it
/// builds them on, everything else on ForwardVector.
template <typename Data>
std::span<std::byte> allocate_section(const DirectoryEntry& entry,
                                      Data& data) {
  switch (static_cast<SectionKind>(entry.kind)) {
    case SectionKind::kForwardOffsets:
    case SectionKind::kArenaOffsets:
      return allocate_as<ForwardVector<std::uint64_t>>(entry, data);
    case SectionKind::kTermIds:
    case SectionKind::kPublicOf:
      return allocate_as<ForwardVector<std::uint32_t>>(entry, data);
    case SectionKind::kWeights:
      return allocate_as<ForwardVector<double>>(entry, data);
    case SectionKind::kLabels:
      return allocate_as<ForwardVector<std::byte>>(entry, data);
    case SectionKind::kArenaIds:
      return allocate_as<ArenaVector<std::uint32_t>>(entry, data);
    case SectionKind::kArenaWeights:
      return allocate_as<ArenaVector<double>>(entry, data);
  }
  return {};
}

/// Reads `entry`'s payload from `in` into `bytes` (its allocated storage)
/// and verifies its checksum.
void read_payload(ByteSource& in, const DirectoryEntry& entry,
                  std::span<std::byte> bytes) {
  std::uint64_t hash = io::kFnvOffset;
  for (std::size_t at = 0; at < bytes.size(); at += kChunkBytes) {
    const std::span<std::byte> chunk =
        bytes.subspan(at, std::min(kChunkBytes, bytes.size() - at));
    read_exact(in, chunk.data(), chunk.size(), "section payload");
    hash = fnv1a_extend(hash, chunk);
  }
  if (hash != entry.checksum) {
    throw SnapshotError(std::string("snapshot: section ") +
                        section_kind_name(static_cast<SectionKind>(
                            entry.kind)) +
                        "/" + std::to_string(entry.shard) +
                        " checksum mismatch");
  }
}

}  // namespace

Reader::Reader(std::istream& in) {
  const obs::StageSpan load_span(obs::Stage::kSnapshotLoad);
  StreamSource source(in);
  read_all(source);
}

void Reader::read_all(ByteSource& in) {
  const ParsedHeader header = read_header(in);
  version_ = header.prefix.version;
  shard_count_ = header.prefix.shard_count;
  doc_count_ = header.prefix.doc_count;
  term_count_ = header.prefix.term_count;
  check_lengths(header.directory, in.remaining());

  sections_.reserve(header.directory.size());
  for (const DirectoryEntry& entry : header.directory) {
    Section section{static_cast<SectionKind>(entry.kind), entry.shard, {}};
    read_payload(in, entry, allocate_section(entry, section.data));
    sections_.push_back(std::move(section));
  }
  // Anything after the last declared section is not this snapshot's data
  // (checked up front already where the source knows its size).
  if (!at_end(in)) {
    throw SnapshotError("snapshot: trailing bytes after the last section");
  }
}

Reader::Reader(const io::Env& env, const std::string& path,
               const ParallelFor& parallel_for) {
  const obs::StageSpan load_span(obs::Stage::kSnapshotLoad);
  try {
    const auto file = env.new_random_access_file(path);
    const std::uint64_t size = env.file_size(path);
    FileSource source(*file, size);
    const ParsedHeader header = read_header(source);
    version_ = header.prefix.version;
    shard_count_ = header.prefix.shard_count;
    doc_count_ = header.prefix.doc_count;
    term_count_ = header.prefix.term_count;
    check_lengths(header.directory, source.remaining());

    // Every section's storage is allocated here, on the calling thread:
    // a section under the mapping cutoff then comes from this thread's
    // malloc arena, and a restore that lands on other workers next time
    // reuses it instead of growing theirs. One task per section, largest
    // first, so a big section never starts last while the other
    // participants sit idle. Each task reads from its own cursor into its
    // own slot; a failure is kept, not thrown, so every task finishes
    // before the first failure in directory order surfaces.
    const std::size_t count = header.directory.size();
    std::vector<std::uint64_t> offset(count);
    std::vector<std::span<std::byte>> storage(count);
    std::vector<std::size_t> order(count);
    std::uint64_t at = header.bytes_read;
    sections_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const DirectoryEntry& entry = header.directory[i];
      sections_.push_back({static_cast<SectionKind>(entry.kind), entry.shard,
                           {}});
      storage[i] = allocate_section(entry, sections_[i].data);
      offset[i] = at;
      at += entry.bytes;
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&header](std::size_t a, std::size_t b) {
                       return header.directory[a].bytes >
                              header.directory[b].bytes;
                     });
    std::vector<std::exception_ptr> failures(count);
    const auto read_one = [&](std::size_t task) {
      const std::size_t i = order[task];
      try {
        FileSource cursor(*file, size, offset[i]);
        read_payload(cursor, header.directory[i], storage[i]);
      } catch (...) {
        failures[i] = std::current_exception();
      }
    };
    if (parallel_for) {
      parallel_for(count, read_one);
    } else {
      for (std::size_t task = 0; task < count; ++task) read_one(task);
    }
    for (const std::exception_ptr& failure : failures) {
      if (failure) std::rethrow_exception(failure);
    }
  } catch (const io::IoError& e) {
    // One exception type per layer, as for the write side.
    throw SnapshotError(std::string("snapshot: ") + e.what());
  }
}

bool Reader::has_section(SectionKind kind,
                         std::uint32_t shard) const noexcept {
  for (const Section& section : sections_) {
    if (section.kind == kind && section.shard == shard) return !section.taken;
  }
  return false;
}

const Reader::Section& Reader::find(SectionKind kind,
                                    std::uint32_t shard) const {
  // Compares only kind and shard of other sections, so threads taking
  // distinct sections never touch each other's state.
  for (const Section& section : sections_) {
    if (section.kind == kind && section.shard == shard) {
      if (section.taken) break;
      return section;
    }
  }
  throw SnapshotError(std::string("snapshot: missing section ") +
                      section_kind_name(kind) + "/" + std::to_string(shard));
}

VerifyResult verify_stream(std::istream& stream) {
  VerifyResult result;
  StreamSource in(stream);
  ParsedHeader header;
  try {
    header = read_header(in);
  } catch (const SnapshotError& e) {
    result.error = e.what();
    return result;
  }
  result.version = header.prefix.version;
  result.shard_count = header.prefix.shard_count;
  result.doc_count = header.prefix.doc_count;
  result.term_count = header.prefix.term_count;
  result.total_bytes = header.bytes_read;

  std::vector<std::byte> chunk(kChunkBytes);

  bool all_ok = true;
  for (const DirectoryEntry& entry : header.directory) {
    SectionVerify section;
    section.kind = static_cast<SectionKind>(entry.kind);
    section.shard = entry.shard;
    section.bytes = entry.bytes;
    std::uint64_t hash = io::kFnvOffset;
    std::uint64_t remaining = entry.bytes;
    bool truncated = false;
    while (remaining > 0) {
      const std::size_t want = remaining < kChunkBytes
                                   ? static_cast<std::size_t>(remaining)
                                   : kChunkBytes;
      const std::size_t got = in.read({chunk.data(), want});
      hash = fnv1a_extend(hash, std::span<const std::byte>(chunk).first(got));
      result.total_bytes += got;
      remaining -= got;
      if (got != want) {
        truncated = true;
        break;
      }
    }
    section.checksum_ok = !truncated && hash == entry.checksum;
    result.sections.push_back(section);
    if (truncated) {
      result.error = std::string("snapshot: truncated file (short read in "
                                 "section ") +
                     section_kind_name(section.kind) + "/" +
                     std::to_string(section.shard) + ")";
      return result;
    }
    if (!section.checksum_ok && all_ok) {
      all_ok = false;
      result.error = std::string("snapshot: section ") +
                     section_kind_name(section.kind) + "/" +
                     std::to_string(section.shard) + " checksum mismatch";
    }
  }
  if (all_ok && !at_end(in)) {
    result.error = "snapshot: trailing bytes after the last section";
    return result;
  }
  result.ok = all_ok;
  return result;
}

}  // namespace fmeter::index::snapshot
