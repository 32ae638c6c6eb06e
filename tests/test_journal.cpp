// Write-ahead journal battery (io/journal.hpp): append/replay round trips,
// sync() as the commit point, every torn-tail shape recovery must truncate
// (header cut inside the length prefix, payload cut, checksum flip in
// header vs payload, trailing garbage), repair durability, and the
// bad-magic refusal that protects committed data from silent discard.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "io/env.hpp"
#include "io/journal.hpp"

namespace fmeter::io::journal {
namespace {

std::vector<std::byte> payload_of(const std::string& text) {
  std::vector<std::byte> out(text.size());
  // memcpy from/to the null data() of an empty string/vector is undefined.
  if (!text.empty()) std::memcpy(out.data(), text.data(), text.size());
  return out;
}

std::vector<std::string> replay_strings(Env& env, const std::string& path,
                                        ReplayResult* result = nullptr,
                                        bool repair = false) {
  std::vector<std::string> records;
  const ReplayResult r = replay(
      env, path,
      [&records](std::span<const std::byte> payload) {
        records.emplace_back(reinterpret_cast<const char*>(payload.data()),
                             payload.size());
      },
      repair);
  if (result != nullptr) *result = r;
  return records;
}

/// A journal with three committed records, returned as raw bytes so each
/// corruption test can damage its own copy.
std::string three_record_journal(InMemoryEnv& env) {
  env.create_dir("d");
  Writer writer(env, "d/j.wal");
  writer.append(payload_of("first record"));
  writer.append(payload_of(""));  // empty payloads are legal records
  writer.append(payload_of("third, somewhat longer record payload"));
  writer.sync();
  writer.close();
  env.sync_dir("d");
  return env.read_file("d/j.wal");
}

void write_raw(Env& env, const std::string& path, const std::string& bytes) {
  auto file = env.new_writable_file(path, /*truncate=*/true);
  file->append(std::string_view(bytes));
  file->sync();
  file->close();
}

TEST(Journal, RoundTripAndWriterAccounting) {
  InMemoryEnv env;
  env.create_dir("d");
  Writer writer(env, "d/j.wal");
  EXPECT_EQ(writer.bytes(), kHeaderBytes);
  writer.append(payload_of("alpha"));
  writer.append(payload_of("beta"));
  EXPECT_EQ(writer.records_appended(), 2u);
  EXPECT_EQ(writer.bytes(), kHeaderBytes + 2 * kRecordHeaderBytes + 9);
  writer.close();

  ReplayResult result;
  const auto records = replay_strings(env, "d/j.wal", &result);
  EXPECT_EQ(records, (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(result.records, 2u);
  EXPECT_EQ(result.payload_bytes, 9u);
  EXPECT_FALSE(result.truncated_tail);
  EXPECT_EQ(result.valid_bytes, env.file_size("d/j.wal"));
}

TEST(Journal, ReopenExtendsExistingJournal) {
  InMemoryEnv env;
  env.create_dir("d");
  {
    Writer writer(env, "d/j.wal");
    writer.append(payload_of("one"));
  }
  {
    Writer writer(env, "d/j.wal");
    EXPECT_EQ(writer.records_appended(), 0u);  // per-writer, not lifetime
    writer.append(payload_of("two"));
  }
  EXPECT_EQ(replay_strings(env, "d/j.wal"),
            (std::vector<std::string>{"one", "two"}));
}

TEST(Journal, SyncIsTheCommitPoint) {
  // append() never syncs: a record survives a strict crash only once a
  // later sync() returned.
  InMemoryEnv env;
  env.create_dir("d");
  Writer writer(env, "d/j.wal");
  env.sync_dir("d");
  writer.append(payload_of("now committed"));
  writer.sync();
  writer.append(payload_of("still volatile"));
  env.crash(InMemoryEnv::CrashMode::kDropUnsynced);
  EXPECT_EQ(replay_strings(env, "d/j.wal"),
            (std::vector<std::string>{"now committed"}));
}

TEST(Journal, MissingAndEmptyFilesReplayAsEmpty) {
  InMemoryEnv env;
  env.create_dir("d");
  ReplayResult result;
  EXPECT_TRUE(replay_strings(env, "d/absent.wal", &result).empty());
  EXPECT_EQ(result.records, 0u);
  EXPECT_FALSE(result.truncated_tail);

  // Shorter than the magic: a crash between creation and first sync.
  write_raw(env, "d/short.wal", "FME");
  EXPECT_TRUE(replay_strings(env, "d/short.wal", &result).empty());
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_EQ(result.dropped_bytes, 3u);
  EXPECT_EQ(result.truncate_reason, "short magic header");
}

TEST(Journal, EveryTornTailShapeTruncatesToTheLastGoodRecord) {
  InMemoryEnv pristine;
  const std::string good = three_record_journal(pristine);

  // Offsets of the third record's framing, derived from the first two.
  const std::size_t second_end =
      kHeaderBytes + (kRecordHeaderBytes + 12) + (kRecordHeaderBytes + 0);
  struct Case {
    std::string name;
    std::string bytes;
    std::string reason;
  };
  std::vector<Case> cases;

  // Truncation *inside* the third record's length prefix.
  cases.push_back({"cut inside length prefix",
                   good.substr(0, second_end + 2), "torn record header"});
  // Truncation inside the checksum field (still the record header).
  cases.push_back({"cut inside checksum",
                   good.substr(0, second_end + 6), "torn record header"});
  // Truncation inside the payload.
  cases.push_back({"cut inside payload", good.substr(0, good.size() - 5),
                   "torn record payload"});
  // Flipped byte in the record *header* (length prefix): reframes to a
  // bogus length, caught as torn payload or implausible length.
  {
    std::string flipped = good;
    flipped[second_end] = static_cast<char>(flipped[second_end] ^ 0x40);
    cases.push_back({"flip in length prefix", flipped, ""});
  }
  // Flipped byte in the stored checksum.
  {
    std::string flipped = good;
    flipped[second_end + 5] =
        static_cast<char>(flipped[second_end + 5] ^ 0x01);
    cases.push_back(
        {"flip in stored checksum", flipped, "record checksum mismatch"});
  }
  // Flipped byte in the payload.
  {
    std::string flipped = good;
    flipped[second_end + kRecordHeaderBytes + 3] =
        static_cast<char>(flipped[second_end + kRecordHeaderBytes + 3] ^ 0x10);
    cases.push_back(
        {"flip in payload", flipped, "record checksum mismatch"});
  }
  // Garbage appended after a valid record boundary — too short to frame a
  // record, so it reads as a torn header.
  cases.push_back(
      {"trailing garbage", good.substr(0, second_end) + "garbage!", ""});
  // An implausible length prefix (all 0xff).
  {
    std::string huge = good.substr(0, second_end);
    huge += std::string(kRecordHeaderBytes, '\xff');
    cases.push_back({"implausible length", huge, "implausible record length"});
  }

  for (const Case& c : cases) {
    InMemoryEnv env;
    env.create_dir("d");
    write_raw(env, "d/j.wal", c.bytes);
    env.sync_dir("d");  // the crash below must not also drop the name

    ReplayResult result;
    const auto records =
        replay_strings(env, "d/j.wal", &result, /*repair=*/true);
    ASSERT_EQ(records.size(), 2u) << c.name;
    EXPECT_EQ(records[0], "first record") << c.name;
    EXPECT_EQ(records[1], "") << c.name;
    EXPECT_TRUE(result.truncated_tail) << c.name;
    EXPECT_EQ(result.valid_bytes, second_end) << c.name;
    if (!c.reason.empty()) {
      EXPECT_EQ(result.truncate_reason, c.reason) << c.name;
    } else {
      EXPECT_FALSE(result.truncate_reason.empty()) << c.name;
    }

    // Repair chopped the tail and made the truncation durable: a strict
    // crash, a re-replay and a fresh append all see a valid journal.
    env.crash(InMemoryEnv::CrashMode::kDropUnsynced);
    EXPECT_EQ(env.file_size("d/j.wal"), second_end) << c.name;
    Writer writer(env, "d/j.wal");
    writer.append(payload_of("appended after repair"));
    writer.close();
    EXPECT_EQ(replay_strings(env, "d/j.wal"),
              (std::vector<std::string>{"first record", "",
                                        "appended after repair"}))
        << c.name;
  }
}

TEST(Journal, BadMagicOnACompleteHeaderThrows) {
  // A synced header that is not ours is corruption or a foreign file —
  // refusing loudly beats silently discarding committed records.
  InMemoryEnv env;
  env.create_dir("d");
  write_raw(env, "d/j.wal", "NOTAWAL!and then some record bytes");
  EXPECT_THROW(replay_strings(env, "d/j.wal"), JournalError);
  EXPECT_THROW(scan(env, "d/j.wal"), JournalError);
}

TEST(Journal, ScanIsReadOnly) {
  InMemoryEnv pristine;
  const std::string good = three_record_journal(pristine);
  InMemoryEnv env;
  env.create_dir("d");
  const std::string torn = good.substr(0, good.size() - 5);
  write_raw(env, "d/j.wal", torn);

  const ReplayResult result = scan(env, "d/j.wal");
  EXPECT_EQ(result.records, 2u);
  EXPECT_TRUE(result.truncated_tail);
  // scan never repairs: the torn bytes are still there.
  EXPECT_EQ(env.read_file("d/j.wal"), torn);
}

TEST(Journal, OversizedRecordRejectedAtAppend) {
  InMemoryEnv env;
  env.create_dir("d");
  Writer writer(env, "d/j.wal");
  std::vector<std::byte> huge(static_cast<std::size_t>(kMaxRecordBytes) + 1);
  EXPECT_THROW(writer.append(huge), JournalError);
  // The reject happened before any bytes were written.
  EXPECT_EQ(writer.bytes(), kHeaderBytes);
}

TEST(Journal, ApplyExceptionPropagatesUnwrapped) {
  InMemoryEnv env;
  three_record_journal(env);
  EXPECT_THROW(
      replay(
          env, "d/j.wal",
          [](std::span<const std::byte>) {
            throw std::runtime_error("apply failed");
          },
          false),
      std::runtime_error);
}

}  // namespace
}  // namespace fmeter::io::journal
