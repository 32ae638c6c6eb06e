// Env layer battery (io/env.hpp): PosixEnv against a real temp directory,
// InMemoryEnv's crash model (volatile vs durable bytes and namespace),
// FaultInjectingEnv's deterministic fault points and torn writes, and the
// AtomicFileWriter commit protocol that snapshot and manifest writes ride,
// and the read-only whole-file views (map_file) every read goes through.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "io/env.hpp"

namespace fmeter::io {
namespace {

std::span<const std::byte> as_bytes(const std::string& text) {
  return {reinterpret_cast<const std::byte*>(text.data()), text.size()};
}

// ---------------------------------------------------------------------------
// PosixEnv
// ---------------------------------------------------------------------------

class PosixEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "fmeter_io_env_" +
           std::to_string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->line());
    Env::posix().create_dir(dir_);
  }
  void TearDown() override {
    // Best-effort sweep so reruns start clean.
    Env& env = Env::posix();
    try {
      for (const auto& name : env.list_dir(dir_)) {
        env.remove_file(dir_ + "/" + name);
      }
    } catch (...) {
    }
  }
  std::string dir_;
};

TEST_F(PosixEnvTest, WriteReadRoundTrip) {
  Env& env = Env::posix();
  const std::string path = dir_ + "/file.bin";
  {
    auto file = env.new_writable_file(path);
    file->append(std::string_view("hello "));
    file->append(std::string_view("world"));
    file->sync();
    file->close();
  }
  EXPECT_TRUE(env.file_exists(path));
  EXPECT_EQ(env.file_size(path), 11u);
  EXPECT_EQ(env.read_file(path), "hello world");

  // An empty file maps nothing and reads as empty.
  const std::string empty = dir_ + "/empty.bin";
  env.new_writable_file(empty)->close();
  EXPECT_EQ(env.read_file(empty), "");
}

TEST_F(PosixEnvTest, AppendModeExtendsTruncateModeReplaces) {
  Env& env = Env::posix();
  const std::string path = dir_ + "/mode.bin";
  env.new_writable_file(path)->append(std::string_view("abc"));
  env.new_writable_file(path, /*truncate=*/false)
      ->append(std::string_view("def"));
  EXPECT_EQ(env.read_file(path), "abcdef");
  env.new_writable_file(path, /*truncate=*/true)
      ->append(std::string_view("xyz"));
  EXPECT_EQ(env.read_file(path), "xyz");
}

TEST_F(PosixEnvTest, ErrorsCarryErrnoText) {
  Env& env = Env::posix();
  try {
    env.read_file(dir_ + "/absent");
    FAIL() << "read of a missing file succeeded";
  } catch (const IoError& error) {
    EXPECT_EQ(error.error_code(), ENOENT);
    EXPECT_NE(std::string(error.what()).find("absent"), std::string::npos);
  }
  EXPECT_THROW(env.file_size(dir_ + "/absent"), IoError);
  EXPECT_THROW(env.remove_file(dir_ + "/absent"), IoError);
  EXPECT_THROW(env.truncate_file(dir_ + "/absent", 0), IoError);
}

std::string text_of(const MappedFile& file) {
  return {reinterpret_cast<const char*>(file.bytes().data()),
          file.bytes().size()};
}

TEST_F(PosixEnvTest, MapFileViewsTheWholeFileAndOutlivesItsName) {
  Env& env = Env::posix();
  const std::string path = dir_ + "/mapped.bin";
  env.new_writable_file(path)->append(std::string_view("mapped bytes"));
  const std::shared_ptr<const MappedFile> mapped = env.map_file(path);
  EXPECT_EQ(text_of(*mapped), "mapped bytes");
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mapped->bytes().data()) % 64, 0u);
  // The view holds the inode: unlinking the name leaves it readable.
  env.remove_file(path);
  EXPECT_EQ(text_of(*mapped), "mapped bytes");

  env.new_writable_file(path);
  EXPECT_TRUE(env.map_file(path)->bytes().empty());
  try {
    env.map_file(dir_ + "/absent");
    FAIL() << "map of a missing file succeeded";
  } catch (const IoError& error) {
    EXPECT_EQ(error.error_code(), ENOENT);
    EXPECT_NE(std::string(error.what()).find("absent"), std::string::npos);
  }
}

TEST_F(PosixEnvTest, RenameListTruncate) {
  Env& env = Env::posix();
  env.new_writable_file(dir_ + "/a")->append(std::string_view("aaaa"));
  env.new_writable_file(dir_ + "/b")->append(std::string_view("bb"));
  env.rename_file(dir_ + "/a", dir_ + "/c");
  env.sync_dir(dir_);
  const auto names = env.list_dir(dir_);
  EXPECT_EQ(names, (std::vector<std::string>{"b", "c"}));
  env.truncate_file(dir_ + "/c", 2);
  EXPECT_EQ(env.read_file(dir_ + "/c"), "aa");
}

TEST_F(PosixEnvTest, AtomicFileWriterCommitsAndAbandons) {
  Env& env = Env::posix();
  const std::string path = dir_ + "/target";
  {
    AtomicFileWriter writer(env, path);
    writer.file().append(std::string_view("version 1"));
    writer.commit();
  }
  EXPECT_EQ(env.read_file(path), "version 1");

  // Abandoned writer: old contents untouched, temp file removed.
  {
    AtomicFileWriter writer(env, path);
    writer.file().append(std::string_view("version 2, never committed"));
  }
  EXPECT_EQ(env.read_file(path), "version 1");
  EXPECT_EQ(env.list_dir(dir_), (std::vector<std::string>{"target"}));
}

// ---------------------------------------------------------------------------
// InMemoryEnv crash model
// ---------------------------------------------------------------------------

TEST(InMemoryEnv, UnsyncedBytesVanishAtCrashSyncedBytesSurvive) {
  InMemoryEnv env;
  env.create_dir("d");
  auto file = env.new_writable_file("d/f");
  file->append(std::string_view("durable"));
  file->sync();
  env.sync_dir("d");  // the *name* d/f becomes durable here
  file->append(std::string_view(" volatile"));
  EXPECT_EQ(env.read_file("d/f"), "durable volatile");

  env.crash(InMemoryEnv::CrashMode::kDropUnsynced);
  EXPECT_EQ(env.read_file("d/f"), "durable");

  // The open handle still works; its future appends start from the
  // survived image.
  file->append(std::string_view("!"));
  EXPECT_EQ(env.read_file("d/f"), "durable!");
}

TEST(InMemoryEnv, UnsyncedNamespaceRollsBack) {
  InMemoryEnv env;
  env.create_dir("d");
  {
    auto file = env.new_writable_file("d/old");
    file->append(std::string_view("old"));
    file->sync();
  }
  env.sync_dir("d");

  // Create + rename without a dir sync: both roll back at crash.
  env.new_writable_file("d/fresh")->sync();
  env.rename_file("d/old", "d/renamed");
  EXPECT_TRUE(env.file_exists("d/fresh"));
  EXPECT_TRUE(env.file_exists("d/renamed"));
  EXPECT_FALSE(env.file_exists("d/old"));

  env.crash(InMemoryEnv::CrashMode::kDropUnsynced);
  EXPECT_FALSE(env.file_exists("d/fresh"));
  EXPECT_FALSE(env.file_exists("d/renamed"));
  EXPECT_EQ(env.read_file("d/old"), "old");
}

TEST(InMemoryEnv, SyncDirCommitsRenameOverwriteAtomically) {
  InMemoryEnv env;
  env.create_dir("d");
  {
    auto file = env.new_writable_file("d/target");
    file->append(std::string_view("v1"));
    file->sync();
  }
  env.sync_dir("d");
  {
    auto file = env.new_writable_file("d/target.tmp");
    file->append(std::string_view("v2"));
    file->sync();
  }
  env.rename_file("d/target.tmp", "d/target");
  env.sync_dir("d");

  env.crash(InMemoryEnv::CrashMode::kDropUnsynced);
  EXPECT_EQ(env.read_file("d/target"), "v2");
  EXPECT_FALSE(env.file_exists("d/target.tmp"));
}

TEST(InMemoryEnv, PersistEverythingKeepsTheVolatileView) {
  InMemoryEnv env;
  env.create_dir("d");
  env.new_writable_file("d/f")->append(std::string_view("never synced"));
  env.crash(InMemoryEnv::CrashMode::kPersistEverything);
  EXPECT_EQ(env.read_file("d/f"), "never synced");
}

TEST(InMemoryEnv, MapFileIsAnImmutableAlignedCopy) {
  InMemoryEnv env;
  env.create_dir("d");
  auto file = env.new_writable_file("d/f");
  file->append(std::string_view("first"));
  const std::shared_ptr<const MappedFile> mapped = env.map_file("d/f");
  file->append(std::string_view(" second"));
  env.remove_file("d/f");
  EXPECT_EQ(text_of(*mapped), "first");
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mapped->bytes().data()) % 64, 0u);
  // A missing file fails the way a read of it does.
  std::string read_error;
  try {
    env.read_file("d/f");
  } catch (const IoError& error) {
    read_error = error.what();
  }
  try {
    env.map_file("d/f");
    FAIL() << "map of a missing file succeeded";
  } catch (const IoError& error) {
    EXPECT_EQ(error.error_code(), ENOENT);
    EXPECT_EQ(error.what(), read_error);
  }
}

TEST(InMemoryEnv, TruncateIsJournaledMetadata) {
  InMemoryEnv env;
  env.create_dir("d");
  auto file = env.new_writable_file("d/f");
  file->append(std::string_view("0123456789"));
  file->sync();
  env.sync_dir("d");
  env.truncate_file("d/f", 4);
  env.crash(InMemoryEnv::CrashMode::kDropUnsynced);
  // No journaling FS resurrects truncated bytes.
  EXPECT_EQ(env.read_file("d/f"), "0123");
}

// ---------------------------------------------------------------------------
// FaultInjectingEnv
// ---------------------------------------------------------------------------

TEST(FaultInjectingEnv, NthOperationThrowsDeterministically) {
  const auto scenario = [](Env& env) {
    env.create_dir("d");                              // op 0 (mkdir)
    auto file = env.new_writable_file("d/f");         // op 1 (create)
    file->append(std::string_view("abc"));            // op 2 (write)
    file->sync();                                     // op 3 (fsync)
    env.sync_dir("d");                                // op 4 (fsync-dir)
  };
  FaultInjectingEnv counter;
  scenario(counter);
  ASSERT_EQ(counter.ops_seen(), 5u);

  for (std::uint64_t n = 0; n < 5; ++n) {
    FaultInjectingEnv env;
    env.set_tear(FaultInjectingEnv::TearMode::kNone);
    env.fail_at_op(n);
    try {
      scenario(env);
      FAIL() << "no fault at op " << n;
    } catch (const IoError& error) {
      EXPECT_NE(std::string(error.what()).find("injected fault"),
                std::string::npos);
    }
    // The fault fires exactly once: disarmed, the same env completes the
    // scenario (whose truncating create resets the file).
    env.disarm();
    scenario(env);
    EXPECT_EQ(env.read_file("d/f"), "abc");
  }
}

TEST(FaultInjectingEnv, TornWritePersistsHalfThePayload) {
  FaultInjectingEnv env;
  env.create_dir("d");
  auto file = env.new_writable_file("d/f");
  file->append(std::string_view("base"));
  file->sync();
  env.sync_dir("d");

  env.reset_ops();
  env.fail_at_op(0);
  env.set_tear(FaultInjectingEnv::TearMode::kHalf);
  EXPECT_THROW(file->append(std::string_view("ABCDEFGH")), IoError);

  env.disarm();
  env.crash(InMemoryEnv::CrashMode::kDropUnsynced);
  // Half of the failing 8-byte append reached the durable image.
  EXPECT_EQ(env.read_file("d/f"), "baseABCD");
}

TEST(FaultInjectingEnv, AtomicCommitNeverTearsTheTarget) {
  // Every fault point of a commit-over-existing-file cycle, with tearing:
  // after crash + recovery the target is either fully old or fully new.
  const std::string old_content = "the old contents, fsync'd";
  const std::string new_content = "replacement of a different length";

  const auto prepare = [&](FaultInjectingEnv& env) {
    env.create_dir("d");
    auto file = env.new_writable_file("d/t");
    file->append(as_bytes(old_content));
    file->sync();
    env.sync_dir("d");
    env.reset_ops();
  };
  const auto commit_cycle = [&](Env& env) {
    AtomicFileWriter writer(env, "d/t");
    writer.file().append(as_bytes(new_content));
    writer.commit();
  };

  FaultInjectingEnv counter;
  prepare(counter);
  commit_cycle(counter);
  const std::uint64_t total = counter.ops_seen();
  ASSERT_GE(total, 4u);  // create, write, fsync, rename, fsync-dir

  for (std::uint64_t n = 0; n < total; ++n) {
    for (const auto mode : {InMemoryEnv::CrashMode::kDropUnsynced,
                            InMemoryEnv::CrashMode::kPersistEverything}) {
      FaultInjectingEnv env;
      prepare(env);
      env.fail_at_op(n);
      try {
        commit_cycle(env);
        FAIL() << "no fault at op " << n;
      } catch (const IoError&) {
      }
      env.disarm();
      env.crash(mode);
      const std::string seen = env.read_file("d/t");
      EXPECT_TRUE(seen == old_content || seen == new_content)
          << "torn target at op " << n << ": \"" << seen << "\"";
      if (mode == InMemoryEnv::CrashMode::kDropUnsynced) {
        // Strict POSIX: the rename only becomes durable at the directory
        // sync, which is the cycle's last op — so every interrupted cycle
        // must roll back whole.
        EXPECT_EQ(seen, old_content) << "premature commit at op " << n;
      }
    }
  }
}

TEST(FaultInjectingEnv, ParentDirHelper) {
  EXPECT_EQ(parent_dir("a/b/c"), "a/b");
  EXPECT_EQ(parent_dir("a/b"), "a");
  EXPECT_EQ(parent_dir("plain"), "");
}

}  // namespace
}  // namespace fmeter::io
