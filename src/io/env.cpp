#include "io/env.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>
#include <utility>

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace fmeter::io {
namespace {

[[noreturn]] void throw_errno(const std::string& op, const std::string& path) {
  const int err = errno;
  throw IoError(op + " " + path + ": " + std::strerror(err), err);
}

/// ::open with the same EINTR discipline the read/write loops already
/// have: a signal landing during the open (slow on some filesystems) must
/// retry, not surface as a spurious IoError.
int open_retry(const char* path, int flags, mode_t mode = 0) noexcept {
  for (;;) {
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

// ---------------------------------------------------------------------------
// PosixEnv
// ---------------------------------------------------------------------------

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);  // best-effort; close() throws, dtor must not
  }

  void append(std::span<const std::byte> data) override {
    const char* at = reinterpret_cast<const char*>(data.data());
    std::size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, at, left);
      if (n < 0) {
        if (errno == EINTR) continue;  // retried, never surfaced
        throw_errno("write", path_);
      }
      at += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  void sync() override {
    if (::fsync(fd_) != 0) throw_errno("fsync", path_);
  }

  void close() override {
    if (fd_ < 0) return;
    const int fd = std::exchange(fd_, -1);
    if (::close(fd) != 0) throw_errno("close", path_);
  }

 private:
  int fd_;
  std::string path_;
};

/// A file mapped whole; unmapped with the last handle. An empty file maps
/// nothing (mmap refuses a zero length).
class PosixMappedFile final : public MappedFile {
 public:
  PosixMappedFile(const void* at, std::size_t size)
      : MappedFile({static_cast<const std::byte*>(at), size}) {}
  ~PosixMappedFile() override {
    if (!bytes().empty()) {
      ::munmap(const_cast<std::byte*>(bytes().data()), bytes().size());
    }
  }
};

class PosixEnv final : public Env {
 public:
  std::unique_ptr<WritableFile> new_writable_file(const std::string& path,
                                                  bool truncate) override {
    const int flags =
        O_WRONLY | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : O_APPEND);
    const int fd = open_retry(path.c_str(), flags, 0644);
    if (fd < 0) throw_errno("open for write", path);
    return std::make_unique<PosixWritableFile>(fd, path);
  }

  std::shared_ptr<const MappedFile> map_file(
      const std::string& path) const override {
    const int fd = open_retry(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw_errno("open for read", path);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      errno = err;
      throw_errno("stat", path);
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    void* at = nullptr;
    if (size > 0) {
      // Populated up front: the restore's checksum pass touches every page
      // anyway, and one populating call costs far less than a fault per
      // page spread over the pool's threads.
      at = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_POPULATE, fd, 0);
    }
    const int err = errno;
    ::close(fd);  // the mapping keeps the file open
    if (at == MAP_FAILED) {
      errno = err;
      throw_errno("mmap", path);
    }
    return std::make_shared<PosixMappedFile>(at, size);
  }

  bool file_exists(const std::string& path) const override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  std::uint64_t file_size(const std::string& path) const override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) throw_errno("stat", path);
    return static_cast<std::uint64_t>(st.st_size);
  }

  std::vector<std::string> list_dir(const std::string& dir) const override {
    DIR* handle = ::opendir(dir.c_str());
    if (handle == nullptr) throw_errno("opendir", dir);
    std::vector<std::string> names;
    while (const dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(handle);
    std::sort(names.begin(), names.end());
    return names;
  }

  void create_dir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      throw_errno("mkdir", dir);
    }
  }

  void remove_file(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) throw_errno("unlink", path);
  }

  void rename_file(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      throw_errno("rename to " + to + " from", from);
    }
  }

  void sync_dir(const std::string& dir) override {
    const int fd =
        open_retry(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) throw_errno("open dir for fsync", dir);
    const int rc = ::fsync(fd);
    const int err = errno;
    ::close(fd);
    if (rc != 0) {
      throw IoError("fsync dir " + dir + ": " + std::strerror(err), err);
    }
  }

  void truncate_file(const std::string& path, std::uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      throw_errno("truncate", path);
    }
  }
};

}  // namespace

std::string Env::read_file(const std::string& path) const {
  // The view's bytes live as long as the handle, so hold it while copying.
  const std::shared_ptr<const MappedFile> file = map_file(path);
  const std::span<const std::byte> bytes = file->bytes();
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

Env& Env::posix() {
  static PosixEnv* env = new PosixEnv();  // leaked deliberately
  return *env;
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return "";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// ---------------------------------------------------------------------------
// AtomicFileWriter
// ---------------------------------------------------------------------------

AtomicFileWriter::AtomicFileWriter(Env& env, std::string path)
    : env_(env),
      path_(std::move(path)),
      temp_path_(path_ + ".tmp"),
      file_(env.new_writable_file(temp_path_, /*truncate=*/true)) {}

AtomicFileWriter::~AtomicFileWriter() {
  if (committed_) return;
  // Abandoned: drop the temp file so a failed save leaves no debris. The
  // final path was never touched.
  try {
    file_->close();
  } catch (...) {
  }
  try {
    if (env_.file_exists(temp_path_)) env_.remove_file(temp_path_);
  } catch (...) {
  }
}

void AtomicFileWriter::commit() {
  // Order is the whole point: data durable before the name flips, the name
  // flip durable before callers may depend on it.
  file_->sync();
  file_->close();
  env_.rename_file(temp_path_, path_);
  env_.sync_dir(parent_dir(path_));
  committed_ = true;
}

// ---------------------------------------------------------------------------
// InMemoryEnv
// ---------------------------------------------------------------------------

// Handles hold the inode directly: a rename re-points the name, not the
// handle (exactly like an fd), and sync() works after the name moved.
// Namespace-scope (not anonymous) classes: they are the friends the header
// declares.
class MemWritableFile final : public WritableFile {
 public:
  MemWritableFile(InMemoryEnv& env, InMemoryEnv::InodeRef inode,
                  std::string path)
      : env_(env), inode_(std::move(inode)), path_(std::move(path)) {}

  void append(std::span<const std::byte> data) override;
  void sync() override;
  void close() override {}

 private:
  InMemoryEnv& env_;
  InMemoryEnv::InodeRef inode_;
  std::string path_;
};

/// An immutable copy of a file's bytes, on a 64-byte boundary like a
/// mapping's page-aligned start.
class MemMappedFile final : public MappedFile {
 public:
  explicit MemMappedFile(const std::string& bytes)
      : MappedFile({copy(bytes), bytes.size()}) {}
  ~MemMappedFile() override {
    ::operator delete(const_cast<std::byte*>(bytes().data()),
                      std::align_val_t{kAlign});
  }

 private:
  static constexpr std::size_t kAlign = 64;
  static std::byte* copy(const std::string& bytes) {
    auto* at = static_cast<std::byte*>(
        ::operator new(bytes.size() + 1, std::align_val_t{kAlign}));
    std::memcpy(at, bytes.data(), bytes.size());
    return at;
  }
};

InMemoryEnv::InodeRef InMemoryEnv::find_locked(const std::string& path) const {
  const auto it = volatile_ns_.find(path);
  return it == volatile_ns_.end() ? nullptr : it->second;
}

void InMemoryEnv::before_mutation(const char*, const std::string&,
                                  std::span<const std::byte>, Inode*) {}

std::unique_ptr<WritableFile> InMemoryEnv::new_writable_file(
    const std::string& path, bool truncate) {
  const std::lock_guard<std::mutex> lock(mutex_);
  before_mutation("create", path, {}, nullptr);
  InodeRef inode = find_locked(path);
  if (inode == nullptr) {
    inode = std::make_shared<Inode>();
    volatile_ns_[path] = inode;
  } else if (truncate) {
    // O_TRUNC clears the live bytes; the durable image shrinks too — a
    // truncate is metadata the filesystem journals, not cached data (and
    // keeping stale durable bytes would "resurrect" a truncated file at
    // crash, which no journaling FS does).
    inode->volatile_bytes.clear();
    inode->durable_bytes.clear();
  }
  return std::make_unique<MemWritableFile>(*this, inode, path);
}

std::shared_ptr<const MappedFile> InMemoryEnv::map_file(
    const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const InodeRef inode = find_locked(path);
  if (inode == nullptr) {
    throw IoError("open for read " + path + ": no such file", ENOENT);
  }
  return std::make_shared<MemMappedFile>(inode->volatile_bytes);
}

bool InMemoryEnv::file_exists(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return volatile_ns_.count(path) > 0;
}

std::uint64_t InMemoryEnv::file_size(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const InodeRef inode = find_locked(path);
  if (inode == nullptr) throw IoError("stat " + path + ": no such file", ENOENT);
  return inode->volatile_bytes.size();
}

std::vector<std::string> InMemoryEnv::list_dir(const std::string& dir) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (dirs_.find(dir) == dirs_.end()) {
    throw IoError("opendir " + dir + ": no such directory", ENOENT);
  }
  std::vector<std::string> names;
  const std::string prefix = dir.empty() || dir.back() == '/' ? dir : dir + "/";
  for (const auto& [path, inode] : volatile_ns_) {
    (void)inode;
    if (path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0 &&
        path.find('/', prefix.size()) == std::string::npos) {
      names.push_back(path.substr(prefix.size()));
    }
  }
  return names;  // map order == sorted
}

void InMemoryEnv::create_dir(const std::string& dir) {
  const std::lock_guard<std::mutex> lock(mutex_);
  before_mutation("mkdir", dir, {}, nullptr);
  dirs_[dir] = true;
}

void InMemoryEnv::remove_file(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  before_mutation("unlink", path, {}, nullptr);
  if (volatile_ns_.erase(path) == 0) {
    throw IoError("unlink " + path + ": no such file", ENOENT);
  }
}

void InMemoryEnv::rename_file(const std::string& from, const std::string& to) {
  const std::lock_guard<std::mutex> lock(mutex_);
  before_mutation("rename", from, {}, nullptr);
  const auto it = volatile_ns_.find(from);
  if (it == volatile_ns_.end()) {
    throw IoError("rename " + from + ": no such file", ENOENT);
  }
  volatile_ns_[to] = it->second;  // atomic replace, old inode unlinked
  volatile_ns_.erase(it);
}

void InMemoryEnv::sync_dir(const std::string& dir) {
  const std::lock_guard<std::mutex> lock(mutex_);
  before_mutation("fsync-dir", dir, {}, nullptr);
  if (dirs_.find(dir) == dirs_.end()) {
    throw IoError("fsync dir " + dir + ": no such directory", ENOENT);
  }
  durable_dirs_[dir] = true;
  // The namespace *inside this directory* becomes durable: entries added,
  // removed or re-pointed since the last sync_dir all commit. Other
  // directories' durable views are untouched.
  const std::string prefix = dir.empty() || dir.back() == '/' ? dir : dir + "/";
  const auto is_direct_child = [&prefix](const std::string& path) {
    return path.size() > prefix.size() &&
           path.compare(0, prefix.size(), prefix) == 0 &&
           path.find('/', prefix.size()) == std::string::npos;
  };
  for (auto it = durable_ns_.begin(); it != durable_ns_.end();) {
    if (is_direct_child(it->first) && volatile_ns_.count(it->first) == 0) {
      it = durable_ns_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [path, inode] : volatile_ns_) {
    if (is_direct_child(path)) durable_ns_[path] = inode;
  }
}

void InMemoryEnv::truncate_file(const std::string& path, std::uint64_t size) {
  const std::lock_guard<std::mutex> lock(mutex_);
  before_mutation("truncate", path, {}, nullptr);
  const InodeRef inode = find_locked(path);
  if (inode == nullptr) {
    throw IoError("truncate " + path + ": no such file", ENOENT);
  }
  if (size > inode->volatile_bytes.size()) {
    inode->volatile_bytes.resize(size, '\0');  // sparse extension
  } else {
    inode->volatile_bytes.resize(size);
  }
  // Like O_TRUNC above: an explicit truncate is journaled metadata.
  if (inode->durable_bytes.size() > size) inode->durable_bytes.resize(size);
}

void InMemoryEnv::crash(CrashMode mode) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (mode == CrashMode::kPersistEverything) {
    for (const auto& [path, inode] : volatile_ns_) {
      (void)path;
      inode->durable_bytes = inode->volatile_bytes;
    }
    durable_ns_ = volatile_ns_;
    durable_dirs_ = dirs_;
    return;
  }
  // Strict mode: the live view collapses onto the durable one.
  for (const auto& [path, inode] : durable_ns_) {
    (void)path;
    inode->volatile_bytes = inode->durable_bytes;
  }
  volatile_ns_ = durable_ns_;
  dirs_ = durable_dirs_;
}

void MemWritableFile::append(std::span<const std::byte> data) {
  const std::lock_guard<std::mutex> lock(env_.mutex_);
  env_.before_mutation("write", path_, data, inode_.get());
  inode_->volatile_bytes.append(reinterpret_cast<const char*>(data.data()),
                                data.size());
}

void MemWritableFile::sync() {
  const std::lock_guard<std::mutex> lock(env_.mutex_);
  env_.before_mutation("fsync", path_, {}, inode_.get());
  inode_->durable_bytes = inode_->volatile_bytes;
}

// ---------------------------------------------------------------------------
// FaultInjectingEnv
// ---------------------------------------------------------------------------

void FaultInjectingEnv::before_mutation(const char* op, const std::string& path,
                                        std::span<const std::byte> payload,
                                        Inode* inode) {
  const std::uint64_t index = ops_seen_++;
  if (index != fail_at_) return;
  if (std::strcmp(op, "write") == 0 && inode != nullptr &&
      tear_ == TearMode::kHalf && !payload.empty()) {
    // Torn write: a prefix of the failing append reached the platter (the
    // kernel wrote the page back just before dying). It lands in *both*
    // images so even a strict kDropUnsynced crash surfaces it.
    const std::size_t keep = payload.size() / 2;
    inode->volatile_bytes.append(
        reinterpret_cast<const char*>(payload.data()), keep);
    inode->durable_bytes = inode->volatile_bytes;
  }
  throw IoError(std::string("injected fault at op ") + std::to_string(index) +
                " (" + op + " " + path + ")");
}

}  // namespace fmeter::io
