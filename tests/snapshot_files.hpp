// Shared snapshot test helpers. saved_bytes / load_bytes move a snapshot
// between a database or index and a string through an io::InMemoryEnv —
// the one transport snapshots have. The rest rewrite snapshot files at the
// byte level, using the layout documented in src/index/snapshot.hpp: a
// 40-byte prefix (version at byte 8, section count at byte 20, term count
// at byte 32), a directory of 24-byte entries { kind u32, shard u32,
// bytes u64, checksum u64 }, the header checksum, then the payloads in
// directory order — back to back in versions 1 and 2, each non-empty one
// on a 64-byte file offset behind zero padding from version 3 on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "exec/sharded_index.hpp"
#include "fmeter/database.hpp"
#include "index/snapshot.hpp"
#include "io/env.hpp"

namespace fmeter::testing {

/// Where put_snapshot stores a snapshot in an InMemoryEnv.
inline constexpr const char* kSnapshotPath = "d/snap";

/// Stores `bytes` as a file in `env` and returns its path.
inline std::string put_snapshot(io::InMemoryEnv& env,
                                const std::string& bytes) {
  env.create_dir("d");
  env.new_writable_file(kSnapshotPath)->append(bytes);
  return kSnapshotPath;
}

/// The snapshot SignatureDatabase::save commits for `db`.
inline std::string saved_bytes(const core::SignatureDatabase& db) {
  io::InMemoryEnv env;
  env.create_dir("d");
  db.save(env, kSnapshotPath);
  return env.read_file(kSnapshotPath);
}

/// The snapshot LabeledIndex::save commits for `part`.
inline std::string saved_bytes(const core::LabeledIndex& part) {
  io::InMemoryEnv env;
  env.create_dir("d");
  part.save(env, kSnapshotPath);
  return env.read_file(kSnapshotPath);
}

/// The index-only snapshot of `sharded`: its shards' sections, no labels.
inline std::string saved_bytes(const exec::ShardedIndex& sharded) {
  index::snapshot::Writer writer(
      static_cast<std::uint32_t>(sharded.num_shards()), sharded.size(),
      sharded.num_terms());
  sharded.save(writer);
  io::InMemoryEnv env;
  env.create_dir("d");
  writer.finish(env, kSnapshotPath);
  return env.read_file(kSnapshotPath);
}

/// A Reader over snapshot `bytes`, its sections read inline.
inline index::snapshot::Reader read_bytes(const std::string& bytes) {
  io::InMemoryEnv env;
  return index::snapshot::Reader(env, put_snapshot(env, bytes));
}

/// The database SignatureDatabase::load restores from snapshot `bytes`.
inline core::SignatureDatabase load_bytes(const std::string& bytes) {
  io::InMemoryEnv env;
  core::SignatureDatabase db;
  db.load(env, put_snapshot(env, bytes));
  return db;
}

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

inline std::uint32_t snapshot_version(const std::string& bytes) {
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  return version;
}

/// One directory entry of a snapshot file and where its payload lies.
struct SnapshotSection {
  std::uint32_t kind = 0;
  std::uint32_t shard = 0;
  std::size_t entry_at = 0;  ///< file offset of the directory entry
  std::size_t begin = 0;     ///< file offset of the payload
  std::size_t length = 0;    ///< payload bytes
};

/// Every section of the well-formed snapshot `bytes`, in directory order.
inline std::vector<SnapshotSection> snapshot_sections(
    const std::string& bytes) {
  const std::uint32_t sections = snapshot_section_count(bytes);
  const bool padded = snapshot_version(bytes) >= 3;
  std::vector<SnapshotSection> out;
  std::size_t at = kSnapshotPrefixBytes + sections * kSnapshotEntryBytes +
                   sizeof(std::uint64_t);
  for (std::uint32_t i = 0; i < sections; ++i) {
    SnapshotSection section;
    section.entry_at = kSnapshotPrefixBytes + i * kSnapshotEntryBytes;
    std::uint64_t length = 0;
    std::memcpy(&section.kind, bytes.data() + section.entry_at, 4);
    std::memcpy(&section.shard, bytes.data() + section.entry_at + 4, 4);
    std::memcpy(&length, bytes.data() + section.entry_at + 8, 8);
    section.length = static_cast<std::size_t>(length);
    if (padded && section.length > 0) {
      const std::size_t align = index::snapshot::kSectionAlign;
      at = (at + align - 1) / align * align;
    }
    section.begin = at;
    at += section.length;
    out.push_back(section);
  }
  return out;
}

/// The snapshot a writer of format `version` would have produced from the
/// sections of `bytes` that `keep` accepts: the same header and payloads,
/// the payloads laid out as `version` lays them out, its version and
/// section count set and its header checksum recomputed.
inline std::string rewrite_snapshot(
    const std::string& bytes, std::uint32_t version,
    const std::function<bool(std::uint32_t kind)>& keep) {
  std::string directory;
  std::vector<std::string> payloads;
  for (const SnapshotSection& section : snapshot_sections(bytes)) {
    if (!keep(section.kind)) continue;
    directory.append(bytes, section.entry_at, kSnapshotEntryBytes);
    payloads.push_back(bytes.substr(section.begin, section.length));
  }
  const auto kept = static_cast<std::uint32_t>(payloads.size());
  std::string out = bytes.substr(0, kSnapshotPrefixBytes) + directory +
                    std::string(sizeof(std::uint64_t), '\0');
  std::memcpy(out.data() + 8, &version, sizeof(version));
  std::memcpy(out.data() + 20, &kept, sizeof(kept));
  reseal_snapshot_header(out);
  for (const std::string& payload : payloads) {
    if (version >= 3 && !payload.empty()) {
      const std::size_t align = index::snapshot::kSectionAlign;
      out.resize((out.size() + align - 1) / align * align, '\0');
    }
    out += payload;
  }
  return out;
}

/// The version-1 file of a newer snapshot: the forward-store and labels
/// sections only, back to back.
inline std::string downgrade_snapshot_to_v1(const std::string& bytes) {
  return rewrite_snapshot(bytes, 1, [](std::uint32_t kind) {
    return kind <= static_cast<std::uint32_t>(
                       index::snapshot::SectionKind::kLabels);
  });
}

/// The version-2 file of a version-3 snapshot: every section, back to back.
inline std::string downgrade_snapshot_to_v2(const std::string& bytes) {
  return rewrite_snapshot(bytes, 2, [](std::uint32_t) { return true; });
}

}  // namespace fmeter::testing
