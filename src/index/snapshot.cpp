#include "index/snapshot.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>

#include "index/arena_allocator.hpp"
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

/// `at` rounded up to version 3's section alignment.
constexpr std::uint64_t aligned(std::uint64_t at) noexcept {
  return (at + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
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
/// endianness, count caps, header checksum). Shared by Reader and verify.
struct ParsedHeader {
  HeaderPrefix prefix;
  std::vector<DirectoryEntry> directory;
  std::uint64_t bytes = 0;  ///< prefix, directory and header checksum
};

ParsedHeader read_header(std::span<const std::byte> file) {
  ParsedHeader out;
  HeaderPrefix& prefix = out.prefix;
  if (file.size() < sizeof(prefix)) {
    throw SnapshotError("snapshot: truncated file (short read in header)");
  }
  std::memcpy(&prefix, file.data(), sizeof(prefix));
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
  if (directory_bytes + sizeof(stored_header_checksum) >
      file.size() - sizeof(prefix)) {
    throw SnapshotError("snapshot: truncated file (section directory of " +
                        std::to_string(prefix.section_count) +
                        " entries does not fit in the file)");
  }

  out.directory.resize(prefix.section_count);
  std::memcpy(out.directory.data(), file.data() + sizeof(prefix),
              directory_bytes);
  std::memcpy(&stored_header_checksum,
              file.data() + sizeof(prefix) + directory_bytes,
              sizeof(stored_header_checksum));
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
  out.bytes =
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
    std::uint64_t at = header.size();
    const std::byte zeros[kSectionAlign] = {};
    for (const Section& section : sections_) {
      if (section.payload.empty()) continue;
      if (const std::uint64_t gap = aligned(at) - at; gap > 0) {
        file.file().append(zeros, gap);
        at += gap;
      }
      file.file().append(section.payload);
      at += section.payload.size();
    }
    file.commit();
  } catch (const io::IoError& e) {
    // One exception type per layer: callers of the snapshot API catch
    // SnapshotError, whatever transport failed underneath.
    throw SnapshotError(std::string("snapshot: ") + e.what());
  }
}

namespace {

/// Where each section's payload lies in a file of `size` bytes, and the
/// first thing wrong with that layout. Every length is checked before
/// anything could be sized by it — a forged entry must fail as a
/// SnapshotError, not as bad_alloc — and the sections must fill the file
/// exactly, version 3's padding gaps holding only zero bytes.
struct Layout {
  std::vector<std::uint64_t> offset;  ///< per section, in directory order
  std::size_t whole = 0;  ///< leading sections that lie whole in the file
  std::string error;      ///< the load's diagnosis; empty when sound
};

Layout layout_sections(const ParsedHeader& header,
                       std::span<const std::byte> file) {
  Layout out;
  const auto fail = [&out](std::string message) {
    if (out.error.empty()) out.error = std::move(message);
  };
  const bool padded = header.prefix.version >= 3;
  const std::uint64_t size = file.size();
  std::uint64_t at = header.bytes;
  bool fits = true;
  for (const DirectoryEntry& entry : header.directory) {
    const auto kind = static_cast<SectionKind>(entry.kind);
    const auto name = [&] {
      return std::string(section_kind_name(kind)) + "/" +
             std::to_string(entry.shard);
    };
    if (entry.bytes % element_size(kind) != 0) {
      fail("snapshot: section " + name() +
           " byte length is not a whole number of elements");
    }
    // An empty section occupies no bytes, so it needs no padding either.
    const std::uint64_t begin = padded && entry.bytes > 0 ? aligned(at) : at;
    fits = fits && begin <= size && entry.bytes <= size - begin;
    if (!fits) {
      fail("snapshot: truncated file (section directory declares more "
           "payload than the file holds)");
      out.offset.push_back(begin);
      continue;
    }
    const std::span<const std::byte> gap = file.subspan(at, begin - at);
    if (std::any_of(gap.begin(), gap.end(),
                    [](std::byte b) { return b != std::byte{0}; })) {
      fail("snapshot: nonzero padding before section " + name());
    }
    out.offset.push_back(begin);
    ++out.whole;
    at = begin + entry.bytes;
  }
  if (fits && at != size) {
    fail("snapshot: trailing bytes after the last section");
  }
  return out;
}

std::string checksum_mismatch(const DirectoryEntry& entry) {
  return std::string("snapshot: section ") +
         section_kind_name(static_cast<SectionKind>(entry.kind)) + "/" +
         std::to_string(entry.shard) + " checksum mismatch";
}

/// The section is adopted where it lies only if the mapping places it on
/// its element type's alignment (always so in version 3).
bool misaligned(std::span<const std::byte> bytes, SectionKind kind) noexcept {
  return reinterpret_cast<std::uintptr_t>(bytes.data()) %
             element_size(kind) !=
         0;
}

}  // namespace

Reader::Reader(const io::Env& env, const std::string& path,
               const ParallelFor& parallel_for) {
  const obs::StageSpan load_span(obs::Stage::kSnapshotLoad);
  try {
    const std::shared_ptr<const io::MappedFile> mapping = env.map_file(path);
    const std::span<const std::byte> file = mapping->bytes();
    const ParsedHeader header = read_header(file);
    version_ = header.prefix.version;
    shard_count_ = header.prefix.shard_count;
    doc_count_ = header.prefix.doc_count;
    term_count_ = header.prefix.term_count;
    const Layout layout = layout_sections(header, file);
    if (!layout.error.empty()) throw SnapshotError(layout.error);

    // Every section is a view into the mapping, except a legacy one
    // misaligned for its element type: that one gets aligned storage of
    // its own, allocated here on the calling thread so it comes from this
    // thread's malloc arena, not from whichever worker fills it. One task
    // per section, largest first, so a big section never starts last while
    // the other participants sit idle. Each task checksums its section
    // over the mapping (and copies it when it has storage of its own); a
    // failure is kept, not thrown, so every task finishes before the first
    // failure in directory order surfaces.
    const std::size_t count = header.directory.size();
    std::vector<std::span<const std::byte>> source(count);
    std::vector<std::byte*> copy(count, nullptr);
    std::vector<std::size_t> order(count);
    sections_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const DirectoryEntry& entry = header.directory[i];
      const auto kind = static_cast<SectionKind>(entry.kind);
      source[i] = file.subspan(static_cast<std::size_t>(layout.offset[i]),
                               static_cast<std::size_t>(entry.bytes));
      Section& section =
          sections_.emplace_back(Section{kind, entry.shard, mapping,
                                         source[i]});
      if (!source[i].empty() && misaligned(source[i], kind)) {
        // Byte storage aligned for every element type: operator new's
        // 16 bytes below a huge page, a mapping of its own above.
        auto storage =
            std::make_shared<ForwardVector<std::byte>>(source[i].size());
        copy[i] = storage->data();
        section.bytes = {copy[i], source[i].size()};
        section.owner = std::move(storage);
      }
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&header](std::size_t a, std::size_t b) {
                       return header.directory[a].bytes >
                              header.directory[b].bytes;
                     });
    std::vector<std::exception_ptr> failures(count);
    const auto check_one = [&](std::size_t task) {
      const std::size_t i = order[task];
      try {
        if (fnv1a(source[i]) != header.directory[i].checksum) {
          throw SnapshotError(checksum_mismatch(header.directory[i]));
        }
        if (copy[i] != nullptr) {
          std::memcpy(copy[i], source[i].data(), source[i].size());
        }
      } catch (...) {
        failures[i] = std::current_exception();
      }
    };
    if (parallel_for) {
      parallel_for(count, check_one);
    } else {
      for (std::size_t task = 0; task < count; ++task) check_one(task);
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
    const std::shared_ptr<const io::MappedFile> mapping = env.map_file(path);
    const std::span<const std::byte> file = mapping->bytes();
    result.total_bytes = file.size();
    const ParsedHeader header = read_header(file);
    result.version = header.prefix.version;
    result.shard_count = header.prefix.shard_count;
    result.doc_count = header.prefix.doc_count;
    result.term_count = header.prefix.term_count;

    // A layout failure is the diagnosis a load gives, but every section
    // the file holds whole is still checksummed and reported; one that
    // runs past the end, and every one after it, reads as not ok.
    const Layout layout = layout_sections(header, file);
    result.error = layout.error;
    for (std::size_t i = 0; i < header.directory.size(); ++i) {
      const DirectoryEntry& entry = header.directory[i];
      SectionVerify& section = result.sections.emplace_back();
      section.kind = static_cast<SectionKind>(entry.kind);
      section.shard = entry.shard;
      section.bytes = entry.bytes;
      if (i >= layout.whole) continue;
      section.checksum_ok =
          fnv1a(file.subspan(static_cast<std::size_t>(layout.offset[i]),
                             static_cast<std::size_t>(entry.bytes))) ==
          entry.checksum;
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
