#include "index/snapshot.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "index/inverted_index.hpp"
#include "io/checksum.hpp"
#include "obs/trace.hpp"

namespace fmeter::index::snapshot {
namespace {

using io::fnv1a_extend;

/// Format limits guarding header-count allocations (see Reader below).
constexpr std::uint32_t kMaxShards = 1u << 16;
constexpr std::uint32_t kExtraSectionSlack = 16;

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

void read_exact(std::istream& in, void* into, std::size_t bytes,
                const char* what) {
  in.read(reinterpret_cast<char*>(into), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in.gcount()) != bytes) {
    throw SnapshotError(std::string("snapshot: truncated file (short read in ") +
                        what + ")");
  }
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

ParsedHeader read_header(std::istream& in) {
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
  if (prefix.version != kFormatVersion) {
    throw SnapshotError("snapshot: unsupported format version " +
                        std::to_string(prefix.version) + " (this build reads " +
                        std::to_string(kFormatVersion) + ")");
  }
  // The counts are not covered by any checksum until the directory has
  // been read, so cap them *before* they size an allocation — a bit-rotted
  // count must surface as a SnapshotError, not a std::bad_alloc. The caps
  // are format limits, far above anything a writer emits (three sections
  // per shard plus one labels blob).
  if (prefix.shard_count > kMaxShards) {
    throw SnapshotError("snapshot: implausible shard count " +
                        std::to_string(prefix.shard_count) +
                        " (corrupt header?)");
  }
  if (prefix.section_count > 3 * prefix.shard_count + kExtraSectionSlack) {
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
        entry.kind > static_cast<std::uint32_t>(SectionKind::kLabels)) {
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

void Writer::add_section(SectionKind kind, std::uint32_t shard,
                         std::vector<std::byte> payload) {
  Section section;
  section.kind = kind;
  section.shard = shard;
  section.checksum = fnv1a(payload);
  section.payload = std::move(payload);
  sections_.push_back(std::move(section));
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

Reader::Reader(std::istream& in) {
  const obs::StageSpan load_span(obs::Stage::kSnapshotLoad);
  const ParsedHeader header = read_header(in);

  shard_count_ = header.prefix.shard_count;
  doc_count_ = header.prefix.doc_count;
  term_count_ = header.prefix.term_count;

  sections_.reserve(header.directory.size());
  for (const DirectoryEntry& entry : header.directory) {
    const auto kind = static_cast<SectionKind>(entry.kind);
    Section section;
    section.kind = kind;
    section.shard = entry.shard;
    section.payload.resize(entry.bytes);
    if (entry.bytes > 0) {
      read_exact(in, section.payload.data(), entry.bytes, "section payload");
    }
    if (fnv1a(section.payload) != entry.checksum) {
      throw SnapshotError(std::string("snapshot: section ") +
                          section_kind_name(kind) + "/" +
                          std::to_string(entry.shard) + " checksum mismatch");
    }
    sections_.push_back(std::move(section));
  }
  // Anything after the last declared section is not this snapshot's data.
  if (in.peek() != std::istream::traits_type::eof()) {
    throw SnapshotError("snapshot: trailing bytes after the last section");
  }
}

bool Reader::has_section(SectionKind kind,
                         std::uint32_t shard) const noexcept {
  for (const Section& section : sections_) {
    if (section.kind == kind && section.shard == shard) return true;
  }
  return false;
}

std::span<const std::byte> Reader::section(SectionKind kind,
                                           std::uint32_t shard) const {
  for (const Section& section : sections_) {
    if (section.kind == kind && section.shard == shard) {
      return section.payload;
    }
  }
  throw SnapshotError(std::string("snapshot: missing section ") +
                      section_kind_name(kind) + "/" + std::to_string(shard));
}

namespace {

/// One shard's (offsets, term ids, weights) sections, copied out of the
/// file image, with a view of every document in public id order. `docs`
/// points into `terms` and `weights`; moving the struct keeps it valid.
struct ShardDocuments {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> terms;
  std::vector<double> weights;
  std::vector<vsm::SparseView> docs;
};

/// Decodes and validates one shard's sections: offsets start at 0 and
/// never decrease, both streams match the final offset, term ids are
/// strictly increasing within a document, and every weight is finite and
/// non-zero. InvertedIndex::load's input.
ShardDocuments read_shard_documents(const Reader& reader,
                                    std::uint32_t shard) {
  auto offsets =
      reader.section_as<std::uint64_t>(SectionKind::kForwardOffsets, shard);
  auto terms = reader.section_as<std::uint32_t>(SectionKind::kTermIds, shard);
  auto weights = reader.section_as<double>(SectionKind::kWeights, shard);

  const std::string where = "snapshot: shard " + std::to_string(shard);
  if (offsets.empty() || offsets.front() != 0) {
    throw SnapshotError(where + " offsets section must start at 0");
  }
  for (std::size_t d = 1; d < offsets.size(); ++d) {
    if (offsets[d] < offsets[d - 1]) {
      throw SnapshotError(where + " offsets decrease at doc " +
                          std::to_string(d - 1));
    }
  }
  if (offsets.back() != terms.size() || terms.size() != weights.size()) {
    throw SnapshotError(where +
                        " posting streams disagree with the offset table");
  }

  std::vector<vsm::SparseView> docs;
  docs.reserve(offsets.size() - 1);
  for (std::size_t d = 0; d + 1 < offsets.size(); ++d) {
    for (std::size_t f = offsets[d]; f < offsets[d + 1]; ++f) {
      if (f > offsets[d] && terms[f] <= terms[f - 1]) {
        throw SnapshotError(where + " doc " + std::to_string(d) +
                            " term ids are not strictly increasing");
      }
      // Zero weights never reach a forward store (SparseVector drops them
      // at construction), so one here means a damaged or crafted file.
      if (!std::isfinite(weights[f]) || weights[f] == 0.0) {
        throw SnapshotError(where + " doc " + std::to_string(d) +
                            " carries a non-finite or zero weight");
      }
    }
    const std::size_t size = offsets[d + 1] - offsets[d];
    docs.push_back({{terms.data() + offsets[d], size},
                    {weights.data() + offsets[d], size}});
  }
  return {std::move(offsets), std::move(terms), std::move(weights),
          std::move(docs)};
}

}  // namespace

VerifyResult verify_stream(std::istream& in) {
  VerifyResult result;
  ParsedHeader header;
  try {
    header = read_header(in);
  } catch (const SnapshotError& e) {
    result.error = e.what();
    return result;
  }
  result.shard_count = header.prefix.shard_count;
  result.doc_count = header.prefix.doc_count;
  result.term_count = header.prefix.term_count;
  result.total_bytes = header.bytes_read;

  // Chunk size must be a multiple of 8: the chunked FNV folds 8 bytes per
  // step, so a split at a non-multiple boundary would hash different
  // chunks than the writer's one-shot pass and "verify" nothing.
  constexpr std::size_t kChunk = 1u << 20;
  std::vector<char> chunk(kChunk);

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
      const std::size_t want =
          remaining < kChunk ? static_cast<std::size_t>(remaining) : kChunk;
      in.read(chunk.data(), static_cast<std::streamsize>(want));
      const auto got = static_cast<std::size_t>(in.gcount());
      hash = fnv1a_extend(
          hash, std::span<const std::byte>(
                    reinterpret_cast<const std::byte*>(chunk.data()), got));
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
  if (all_ok && in.peek() != std::istream::traits_type::eof()) {
    result.error = "snapshot: trailing bytes after the last section";
    return result;
  }
  result.ok = all_ok;
  return result;
}

}  // namespace fmeter::index::snapshot

namespace fmeter::index {

void InvertedIndex::save(snapshot::Writer& writer, std::uint32_t shard) const {
  const std::size_t n = size();
  // Forward image in *public* id order: the arena's internal permutation is
  // un-applied here, so the bytes depend only on the documents, never on
  // how they were batched into builds.
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<TermId> terms(forward_terms_.size());
  std::vector<double> weights(forward_weights_.size());
  std::size_t w = 0;
  for (std::size_t pub = 0; pub < n; ++pub) {
    const vsm::SparseView doc = document(static_cast<DocId>(pub));
    std::copy(doc.indices.begin(), doc.indices.end(), terms.begin() + w);
    std::copy(doc.values.begin(), doc.values.end(), weights.begin() + w);
    w += doc.indices.size();
    offsets[pub + 1] = w;
  }
  writer.add_section(snapshot::SectionKind::kForwardOffsets, shard,
                     std::span<const std::uint64_t>(offsets));
  writer.add_section(snapshot::SectionKind::kTermIds, shard,
                     std::span<const TermId>(terms));
  writer.add_section(snapshot::SectionKind::kWeights, shard,
                     std::span<const double>(weights));
}

InvertedIndex InvertedIndex::load(const snapshot::Reader& reader,
                                  std::uint32_t shard) {
  // One build of every document in public order: byte-for-byte a fresh
  // build of the same documents — so every query contract of a fresh index
  // holds for a loaded one.
  const auto sections = snapshot::read_shard_documents(reader, shard);
  InvertedIndex index;
  index.add_batch(sections.docs);
  return index;
}

}  // namespace fmeter::index
