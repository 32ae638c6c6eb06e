// Shared test helpers that rewrite snapshot files at the byte level, using
// the layout documented in src/index/snapshot.hpp: a 40-byte prefix
// (version at byte 8, section count at byte 20, term count at byte 32), a
// directory of 24-byte entries { kind u32, shard u32, bytes u64,
// checksum u64 }, the header checksum, then the payloads in directory
// order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "index/snapshot.hpp"

namespace fmeter::testing {

inline constexpr std::size_t kSnapshotPrefixBytes = 40;
inline constexpr std::size_t kSnapshotEntryBytes = 24;

inline std::uint32_t snapshot_section_count(const std::string& bytes) {
  std::uint32_t sections = 0;
  std::memcpy(&sections, bytes.data() + 20, sizeof(sections));
  return sections;
}

/// Recomputes the header checksum over the prefix and the directory.
inline void reseal_snapshot_header(std::string& bytes) {
  const std::size_t header =
      kSnapshotPrefixBytes +
      snapshot_section_count(bytes) * kSnapshotEntryBytes;
  const std::uint64_t checksum = index::snapshot::fnv1a(
      std::as_bytes(std::span<const char>(bytes.data(), header)));
  std::memcpy(bytes.data() + header, &checksum, sizeof(checksum));
}

/// The version-1 file a version-2 snapshot's writer would have produced
/// before version 2 existed: the same header and forward-store and labels
/// sections, without the arena sections, its version set to 1 and its
/// header checksum recomputed.
inline std::string downgrade_snapshot_to_v1(const std::string& v2) {
  const std::uint32_t sections = snapshot_section_count(v2);
  std::string directory;
  std::string payloads;
  std::size_t at = kSnapshotPrefixBytes + sections * kSnapshotEntryBytes +
                   sizeof(std::uint64_t);
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < sections; ++i) {
    const char* entry =
        v2.data() + kSnapshotPrefixBytes + i * kSnapshotEntryBytes;
    std::uint32_t kind = 0;
    std::uint64_t length = 0;
    std::memcpy(&kind, entry, sizeof(kind));
    std::memcpy(&length, entry + 8, sizeof(length));
    if (kind <= static_cast<std::uint32_t>(
                    index::snapshot::SectionKind::kLabels)) {
      directory.append(entry, kSnapshotEntryBytes);
      payloads.append(v2, at, length);
      ++kept;
    }
    at += length;
  }
  std::string v1 = v2.substr(0, kSnapshotPrefixBytes) + directory +
                   std::string(sizeof(std::uint64_t), '\0');
  const std::uint32_t version = 1;
  std::memcpy(v1.data() + 8, &version, sizeof(version));
  std::memcpy(v1.data() + 20, &kept, sizeof(kept));
  reseal_snapshot_header(v1);
  return v1 + payloads;
}

}  // namespace fmeter::testing
