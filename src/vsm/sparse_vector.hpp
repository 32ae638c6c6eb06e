// Sparse feature vectors for the vector space model.
//
// A signature lives in a space whose orthonormal basis is the set of distinct
// core-kernel functions (paper §2.1). With ~3.8k dimensions and most workloads
// touching only a few hundred functions per interval, a sorted sparse
// representation keeps both the tf-idf transform and the distance kernels
// cache-friendly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace fmeter::vsm {

/// Non-owning view of a sparse vector's two parallel arrays. SparseVector
/// converts to one implicitly, and the index hands out views of its stored
/// documents, so the kernels below serve both without a copy.
struct SparseView {
  std::span<const std::uint32_t> indices;
  std::span<const double> values;
};

/// Dot product (merge join over the two index arrays).
double dot(SparseView a, SparseView b) noexcept;

/// L2 norm.
double norm_l2(SparseView v) noexcept;

/// Immutable-ish sparse vector: parallel arrays of strictly increasing term
/// indices and their (typically non-zero) values.
class SparseVector {
 public:
  using Index = std::uint32_t;
  using Entry = std::pair<Index, double>;

  SparseVector() = default;

  /// Copies a view of a SparseVector or of an index document as it is.
  explicit SparseVector(SparseView view)
      : indices_(view.indices.begin(), view.indices.end()),
        values_(view.values.begin(), view.values.end()) {}

  operator SparseView() const noexcept { return {indices_, values_}; }

  /// Builds from unsorted (index, value) pairs; duplicate indices are summed,
  /// zero-valued entries are dropped.
  static SparseVector from_entries(std::vector<Entry> entries);

  /// Builds from parallel arrays that already satisfy the class invariant —
  /// strictly increasing indices, no zero values. The fast path for loaders
  /// (index snapshots) whose input is validated upfront: no sort, no
  /// AoS round trip, the arrays are adopted as-is. Throws
  /// std::invalid_argument when the invariant does not actually hold (one
  /// cheap pass — still far cheaper than from_entries).
  static SparseVector from_sorted(std::vector<Index> indices,
                                  std::vector<double> values);

  /// Builds from a dense vector, dropping zeros.
  static SparseVector from_dense(std::span<const double> dense);

  std::size_t nnz() const noexcept { return indices_.size(); }
  bool empty() const noexcept { return indices_.empty(); }

  std::span<const Index> indices() const noexcept { return indices_; }
  std::span<const double> values() const noexcept { return values_; }

  /// Value at a term index (0 if absent). O(log nnz).
  double at(Index index) const noexcept;

  /// Largest index present plus one; 0 for the empty vector.
  std::size_t dimension_bound() const noexcept;

  /// Dot product with another sparse vector (merge join).
  double dot(SparseView other) const noexcept {
    return vsm::dot(*this, other);
  }

  /// Lp norms.
  double norm_l1() const noexcept;
  double norm_l2() const noexcept { return vsm::norm_l2(*this); }
  double norm_lp(double p) const;

  /// Returns a copy scaled by `factor`.
  SparseVector scaled(double factor) const;

  /// Returns a copy with unit L2 norm ("scaled into the unit ball", §4.2.1);
  /// the zero vector is returned unchanged.
  SparseVector l2_normalized() const;

  /// Element-wise sum / difference.
  SparseVector plus(SparseView other) const;
  SparseVector minus(const SparseVector& other) const;

  /// Accumulates this vector into a dense buffer (used for centroids).
  /// The buffer must be at least dimension_bound() long.
  void add_to(std::span<double> dense, double weight = 1.0) const;

  /// Densifies into a vector of length `dimension` (>= dimension_bound()).
  std::vector<double> to_dense(std::size_t dimension) const;

  bool operator==(const SparseVector& other) const noexcept = default;

  /// Debug rendering like "{3: 0.5, 17: 0.25}".
  std::string to_string() const;

 private:
  std::vector<Index> indices_;
  std::vector<double> values_;
};

/// Euclidean (L2) distance between sparse vectors.
double euclidean_distance(SparseView a, SparseView b) noexcept;

/// Minkowski distance induced by the Lp norm (paper §2.1). Requires p >= 1.
double minkowski_distance(const SparseVector& a, const SparseVector& b, double p);

/// Cosine of the angle between two vectors; 0 if either is the zero vector.
double cosine_similarity(SparseView a, SparseView b) noexcept;

}  // namespace fmeter::vsm
