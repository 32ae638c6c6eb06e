// Shared snapshot test helpers. saved_bytes / load_bytes move a snapshot
// between a database or index and a string through an io::InMemoryEnv —
// the one transport snapshots have. The rest rewrite snapshot files at the
// byte level, using the layout documented in src/index/snapshot.hpp: a
// 40-byte prefix (version at byte 8, section count at byte 20, term count
// at byte 32), a directory of 24-byte entries { kind u32, shard u32,
// bytes u64, checksum u64 }, the header checksum, then the payloads in
// directory order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

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
