#include "index/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <exception>

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

/// Sequential reads over an Env file of known size, from offset `at` on.
/// read() fills as much of `into` as the file holds — short only at its
/// end — looping over the short reads a RandomAccessFile may return.
class FileSource {
 public:
  FileSource(const io::RandomAccessFile& file, std::uint64_t size,
             std::uint64_t at = 0)
      : file_(file), size_(size), at_(at) {}

  std::size_t read(std::span<std::byte> into) {
    std::size_t got = 0;
    while (got < into.size()) {
      const std::size_t n = file_.read(at_ + got, into.subspan(got));
      if (n == 0) break;
      got += n;
    }
    at_ += got;
    return got;
  }

  /// Bytes from the current position to the end of the file.
  std::uint64_t remaining() const { return at_ < size_ ? size_ - at_ : 0; }

 private:
  const io::RandomAccessFile& file_;
  std::uint64_t size_;
  std::uint64_t at_;
};

void read_exact(FileSource& in, void* into, std::size_t bytes,
                const char* what) {
  if (in.read({static_cast<std::byte*>(into), bytes}) != bytes) {
    throw SnapshotError(std::string("snapshot: truncated file (short read in ") +
                        what + ")");
  }
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
/// on to materialize sections — and verify, which only streams them
/// through the checksum.
struct ParsedHeader {
  HeaderPrefix prefix;
  std::vector<DirectoryEntry> directory;
  std::uint64_t bytes_read = 0;
};

ParsedHeader read_header(FileSource& in) {
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
  // been read, so bound them *before* they size an allocation — a
  // bit-rotted count must surface as a SnapshotError, not a std::bad_alloc.
  // The caps are format limits, far above anything a writer emits (three
  // or seven sections per shard plus one labels blob); the directory and
  // the header checksum behind it must also fit in the file.
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
  const std::uint64_t directory_bytes =
      std::uint64_t{prefix.section_count} * sizeof(DirectoryEntry);
  std::uint64_t stored_header_checksum = 0;
  if (directory_bytes + sizeof(stored_header_checksum) > in.remaining()) {
    throw SnapshotError("snapshot: truncated file (section directory of " +
                        std::to_string(prefix.section_count) +
                        " entries does not fit in the file)");
  }

  out.directory.resize(prefix.section_count);
  read_exact(in, out.directory.data(), directory_bytes, "section directory");
  read_exact(in, &stored_header_checksum, sizeof(stored_header_checksum),
             "header checksum");
  const std::uint64_t header_checksum =
      fnv1a_extend(fnv1a(as_bytes_of(prefix)),
                   std::as_bytes(std::span(out.directory)));
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
  out.bytes_read =
      sizeof(prefix) + directory_bytes + sizeof(stored_header_checksum);
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

void Writer::finish(io::Env& env, const std::string& path) {
  const obs::StageSpan save_span(obs::Stage::kSnapshotSave);
  HeaderPrefix prefix{};
  std::memcpy(prefix.magic, kMagic, sizeof(kMagic));
  prefix.version = kFormatVersion;
  prefix.endian_tag = kEndianTag;
  prefix.shard_count = shard_count_;
  prefix.section_count = static_cast<std::uint32_t>(sections_.size());
  prefix.doc_count = doc_count_;
  prefix.term_count = term_count_;

  // Prefix, directory and header checksum go out as one append; the
  // checksum covers the prefix *and* the directory, so a flipped byte in a
  // section length or checksum entry fails the header check instead of
  // misdirecting the payload parse.
  std::vector<DirectoryEntry> directory;
  directory.reserve(sections_.size());
  for (const Section& section : sections_) {
    directory.push_back({static_cast<std::uint32_t>(section.kind),
                         section.shard,
                         static_cast<std::uint64_t>(section.payload.size()),
                         section.checksum});
  }
  const std::span<const std::byte> entries = std::as_bytes(std::span(directory));
  const std::uint64_t header_checksum =
      fnv1a_extend(fnv1a(as_bytes_of(prefix)), entries);
  std::vector<std::byte> header;
  header.reserve(sizeof(prefix) + entries.size() + sizeof(header_checksum));
  for (const auto part :
       {as_bytes_of(prefix), entries, as_bytes_of(header_checksum)}) {
    header.insert(header.end(), part.begin(), part.end());
  }

  try {
    io::AtomicFileWriter file(env, path);
    file.file().append(header);
    for (const Section& section : sections_) {
      if (!section.payload.empty()) file.file().append(section.payload);
    }
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
/// the `present` payload bytes, which the sections must fill exactly.
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
    if (entry.bytes > present - declared) {
      throw SnapshotError(
          "snapshot: truncated file (section directory declares more "
          "payload than the file holds)");
    }
    declared += entry.bytes;
  }
  if (declared != present) {
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

/// Reads `bytes` bytes from `in` in kChunkBytes chunks — each into the
/// span `chunk(offset, size)` returns — and returns their checksum, each
/// chunk hashed while it is still in cache.
template <typename ChunkAt>
std::uint64_t read_checksummed(FileSource& in, std::uint64_t bytes,
                               const ChunkAt& chunk) {
  std::uint64_t hash = io::kFnvOffset;
  for (std::uint64_t at = 0; at < bytes; at += kChunkBytes) {
    const std::span<std::byte> into = chunk(
        at, static_cast<std::size_t>(std::min<std::uint64_t>(kChunkBytes,
                                                             bytes - at)));
    read_exact(in, into.data(), into.size(), "section payload");
    hash = fnv1a_extend(hash, into);
  }
  return hash;
}

std::string checksum_mismatch(const DirectoryEntry& entry) {
  return std::string("snapshot: section ") +
         section_kind_name(static_cast<SectionKind>(entry.kind)) + "/" +
         std::to_string(entry.shard) + " checksum mismatch";
}

/// Reads `entry`'s payload from `in` into `bytes` (its allocated storage)
/// and verifies its checksum.
void read_payload(FileSource& in, const DirectoryEntry& entry,
                  std::span<std::byte> bytes) {
  const std::uint64_t hash = read_checksummed(
      in, bytes.size(), [bytes](std::uint64_t at, std::size_t n) {
        return bytes.subspan(static_cast<std::size_t>(at), n);
      });
  if (hash != entry.checksum) throw SnapshotError(checksum_mismatch(entry));
}

}  // namespace

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

Reader::Section& Reader::find(SectionKind kind, std::uint32_t shard) {
  // Compares only kind and shard of other sections, so threads taking
  // distinct sections never touch each other's state.
  for (Section& section : sections_) {
    if (section.kind == kind && section.shard == shard) {
      if (section.taken) break;
      return section;
    }
  }
  throw SnapshotError(std::string("snapshot: missing section ") +
                      section_kind_name(kind) + "/" + std::to_string(shard));
}

VerifyResult verify(const io::Env& env, const std::string& path) {
  VerifyResult result;
  try {
    const auto file = env.new_random_access_file(path);
    const std::uint64_t size = env.file_size(path);
    result.total_bytes = size;
    FileSource in(*file, size);
    const ParsedHeader header = read_header(in);
    result.version = header.prefix.version;
    result.shard_count = header.prefix.shard_count;
    result.doc_count = header.prefix.doc_count;
    result.term_count = header.prefix.term_count;

    // A length failure is the diagnosis a load gives, but every section
    // the file holds whole is still checksummed and reported; one that
    // runs past the end, and every one after it, reads as not ok.
    try {
      check_lengths(header.directory, in.remaining());
    } catch (const SnapshotError& e) {
      result.error = e.what();
    }
    std::vector<std::byte> buffer(kChunkBytes);
    const auto into_buffer = [&buffer](std::uint64_t, std::size_t n) {
      return std::span(buffer).first(n);
    };
    bool fits = true;
    for (const DirectoryEntry& entry : header.directory) {
      SectionVerify& section = result.sections.emplace_back();
      section.kind = static_cast<SectionKind>(entry.kind);
      section.shard = entry.shard;
      section.bytes = entry.bytes;
      fits = fits && entry.bytes <= in.remaining();
      if (!fits) continue;
      section.checksum_ok =
          read_checksummed(in, entry.bytes, into_buffer) == entry.checksum;
      if (!section.checksum_ok && result.error.empty()) {
        result.error = checksum_mismatch(entry);
      }
    }
  } catch (const SnapshotError& e) {
    result.error = e.what();
  } catch (const io::IoError& e) {
    result.error = std::string("snapshot: ") + e.what();
  }
  result.ok = result.error.empty();
  return result;
}

}  // namespace fmeter::index::snapshot
