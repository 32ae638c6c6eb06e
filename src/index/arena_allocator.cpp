#include "index/arena_allocator.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

namespace fmeter::index {
namespace {

std::size_t page_rounded(std::size_t bytes) noexcept {
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

}  // namespace

void* allocate_arena_bytes(std::size_t bytes, bool huge_pages) {
  if (bytes < kHugePageBytes) return ::operator new(bytes);
  // Over-map by one huge page, then unmap the slack on both sides of the
  // first 2 MiB boundary: the mapping that remains is the stream's own
  // pages, aligned.
  const std::size_t length = page_rounded(bytes);
  void* raw = ::mmap(nullptr, length + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start =
      (base + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
  if (start != base) ::munmap(raw, start - base);
  const std::uintptr_t end = base + length + kHugePageBytes;
  if (end != start + length) {
    ::munmap(reinterpret_cast<void*>(start + length), end - (start + length));
  }
  void* block = reinterpret_cast<void*>(start);
#ifdef MADV_HUGEPAGE
  if (huge_pages) {
    ::madvise(block, bytes, MADV_HUGEPAGE);  // advice only: failure is harmless
  }
#endif
  return block;
}

void deallocate_arena_bytes(void* block, std::size_t bytes) noexcept {
  if (bytes < kHugePageBytes) {
    ::operator delete(block);
    return;
  }
  ::munmap(block, page_rounded(bytes));
}

}  // namespace fmeter::index
