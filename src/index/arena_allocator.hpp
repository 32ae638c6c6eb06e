// Allocator of the index's large streams as a build lays them out: the
// posting arena's doc-id and weight streams and the forward store. A
// snapshot restore does not come through here: its arrays are views into
// the mapped file (snapshot.hpp), except a legacy section misaligned for
// its element type, which the Reader copies into a ForwardVector.
//
// A stream of at least one huge page (kHugePageBytes) gets a mapping of its
// own that starts on a 2 MiB boundary; smaller streams come from the global
// operator new like any vector. A mapping of its own returns its memory to
// the OS when it is freed, whichever thread frees it, where malloc's
// per-thread arenas would keep the freed blocks of a replaced index
// resident.
//
// The exact path streams every posting of a query's terms, and at archive
// scale the arena is far larger than the last-level cache, so each 4 KiB
// page it crosses costs a TLB miss. The posting streams (ArenaVector) are
// therefore advised MADV_HUGEPAGE over exactly the bytes in use: every
// whole 2 MiB extent can become one transparent huge page, and the tail
// stays on 4 KiB pages, so resident memory is the stream's own size (a
// size rounded up to 2 MiB would fault in up to 2 MiB more per stream).
// Forward stores (ForwardVector) are not advised: faulting in a huge page
// can mean compacting memory first, and a fold copies the whole forward
// store into fresh streams (with them advised, the fold of
// bench_build_scaling 100000 read 0.28-0.45 s against 0.25-0.28 s, 4-vCPU
// VM). A restored index reads its posting streams through the file
// mapping, on the page cache's pages. Where the kernel's THP mode is
// "never" the advice is a no-op.
//
// Elements are default-initialized: vector(n) and resize(n) leave a trivial
// type's new elements unset instead of zero-filling streams that are about
// to be overwritten (the merge's scatter of new postings, a section copy).
// Every such resize must write each new element before it is read.
#pragma once

#include <cstddef>
#include <limits>
#include <new>
#include <utility>
#include <vector>

namespace fmeter::index {

/// Streams of at least this many bytes get a mapping of their own.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Allocates `bytes` (see the header), advising huge pages when
/// `huge_pages`; throws std::bad_alloc.
void* allocate_arena_bytes(std::size_t bytes, bool huge_pages);
/// Releases a block from allocate_arena_bytes(bytes, ...) (same `bytes`).
void deallocate_arena_bytes(void* block, std::size_t bytes) noexcept;

/// Stateless std::allocator replacement over allocate_arena_bytes.
template <typename T, bool kHugePages = true>
struct ArenaAllocator {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = ArenaAllocator<U, kHugePages>;
  };

  ArenaAllocator() noexcept = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U, kHugePages>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(allocate_arena_bytes(n * sizeof(T), kHugePages));
  }
  void deallocate(T* block, std::size_t n) noexcept {
    deallocate_arena_bytes(block, n * sizeof(T));
  }

  /// Value construction as usual; no arguments default-initializes.
  template <typename U, typename... Args>
  void construct(U* at, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(at)) U;
    } else {
      ::new (static_cast<void*>(at)) U(std::forward<Args>(args)...);
    }
  }

  friend bool operator==(const ArenaAllocator&, const ArenaAllocator&) noexcept {
    return true;
  }
};

/// A posting stream: on huge pages once it spans one.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;
/// A forward-store stream (and a legacy section's aligned copy): a mapping
/// of its own once it spans a huge page, on 4 KiB pages.
template <typename T>
using ForwardVector = std::vector<T, ArenaAllocator<T, false>>;

}  // namespace fmeter::index
