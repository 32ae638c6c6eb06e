// The read-only array type of an index's large streams: the forward store,
// the posting arena's offsets and doc-id and weight streams, and the
// doc-reorder permutation.
//
// A SharedSpan is a view plus a shared owner of the bytes it views. A build
// hands it the vector it filled; a snapshot restore hands it the file
// mapping (or, for a legacy section the file left misaligned, a copy).
// Copying an index then copies owners, not arrays, and the storage goes
// with the last index that holds it. Nothing writes through a SharedSpan.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace fmeter::index {

template <typename T>
class SharedSpan {
 public:
  SharedSpan() = default;

  /// Views `view`, whose bytes `owner` keeps alive.
  SharedSpan(std::shared_ptr<const void> owner, std::span<const T> view)
      : owner_(std::move(owner)), view_(view) {}

  /// Takes `vector` over as the owner of its elements.
  template <typename Allocator>
  explicit SharedSpan(std::vector<T, Allocator>&& vector) {
    auto owned = std::make_shared<const std::vector<T, Allocator>>(
        std::move(vector));
    view_ = std::span<const T>(*owned);
    owner_ = std::move(owned);
  }

  const T* data() const noexcept { return view_.data(); }
  std::size_t size() const noexcept { return view_.size(); }
  bool empty() const noexcept { return view_.empty(); }
  const T& operator[](std::size_t i) const noexcept { return view_[i]; }
  const T& front() const noexcept { return view_.front(); }
  const T& back() const noexcept { return view_.back(); }
  auto begin() const noexcept { return view_.begin(); }
  auto end() const noexcept { return view_.end(); }

  /// Element-wise, like std::vector's: where the bytes live is not part
  /// of the value.
  friend bool operator==(const SharedSpan& a, const SharedSpan& b) {
    return std::ranges::equal(a.view_, b.view_);
  }

 private:
  std::shared_ptr<const void> owner_;
  std::span<const T> view_;
};

}  // namespace fmeter::index
