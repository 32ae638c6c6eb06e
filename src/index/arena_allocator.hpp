// Allocator of the posting arena's doc-id and weight streams.
//
// The exact path streams every posting of a query's terms, and at archive
// scale the arena is far larger than the last-level cache, so each 4 KiB
// page it crosses costs a TLB miss. A stream of at least one huge page
// (kHugePageBytes) therefore gets a mapping of its own that starts on a
// 2 MiB boundary, advised MADV_HUGEPAGE over exactly the bytes in use:
// every whole 2 MiB extent can become one transparent huge page, and the
// tail stays on 4 KiB pages, so resident memory is the stream's own size
// (a size rounded up to 2 MiB would fault in up to 2 MiB more per stream).
// Where the kernel's THP mode is "never" the advice is a no-op. Smaller
// streams come from the global operator new like any vector.
#pragma once

#include <cstddef>
#include <limits>
#include <new>

namespace fmeter::index {

/// Streams of at least this many bytes are placed on huge pages.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Allocates `bytes` (see the header); throws std::bad_alloc.
void* allocate_arena_bytes(std::size_t bytes);
/// Releases a block from allocate_arena_bytes(bytes) (same `bytes`).
void deallocate_arena_bytes(void* block, std::size_t bytes) noexcept;

/// Stateless std::allocator replacement over allocate_arena_bytes.
template <typename T>
struct ArenaAllocator {
  using value_type = T;

  ArenaAllocator() noexcept = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(allocate_arena_bytes(n * sizeof(T)));
  }
  void deallocate(T* block, std::size_t n) noexcept {
    deallocate_arena_bytes(block, n * sizeof(T));
  }

  friend bool operator==(const ArenaAllocator&, const ArenaAllocator&) noexcept {
    return true;
  }
};

}  // namespace fmeter::index
