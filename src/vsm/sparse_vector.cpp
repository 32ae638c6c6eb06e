#include "vsm/sparse_vector.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace fmeter::vsm {

double dot(SparseView a, SparseView b) noexcept {
  double total = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.indices.size() && j < b.indices.size()) {
    if (a.indices[i] < b.indices[j]) {
      ++i;
    } else if (a.indices[i] > b.indices[j]) {
      ++j;
    } else {
      total += a.values[i] * b.values[j];
      ++i;
      ++j;
    }
  }
  return total;
}

double norm_l2(SparseView v) noexcept {
  double total = 0.0;
  for (const double value : v.values) total += value * value;
  return std::sqrt(total);
}

SparseVector SparseVector::from_entries(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
  SparseVector v;
  v.indices_.reserve(entries.size());
  v.values_.reserve(entries.size());
  for (const auto& [index, value] : entries) {
    if (!v.indices_.empty() && v.indices_.back() == index) {
      v.values_.back() += value;
    } else {
      v.indices_.push_back(index);
      v.values_.push_back(value);
    }
  }
  // Drop entries that cancelled to exactly zero.
  std::size_t out = 0;
  for (std::size_t i = 0; i < v.indices_.size(); ++i) {
    if (v.values_[i] != 0.0) {
      v.indices_[out] = v.indices_[i];
      v.values_[out] = v.values_[i];
      ++out;
    }
  }
  v.indices_.resize(out);
  v.values_.resize(out);
  return v;
}

SparseVector SparseVector::from_sorted(std::vector<Index> indices,
                                       std::vector<double> values) {
  if (indices.size() != values.size()) {
    throw std::invalid_argument("from_sorted: index/value arrays must align");
  }
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i > 0 && indices[i] <= indices[i - 1]) {
      throw std::invalid_argument(
          "from_sorted: indices must be strictly increasing");
    }
    if (values[i] == 0.0) {
      throw std::invalid_argument("from_sorted: zero values are not stored");
    }
  }
  SparseVector v;
  v.indices_ = std::move(indices);
  v.values_ = std::move(values);
  return v;
}

SparseVector SparseVector::from_dense(std::span<const double> dense) {
  SparseVector v;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0) {
      v.indices_.push_back(static_cast<Index>(i));
      v.values_.push_back(dense[i]);
    }
  }
  return v;
}

double SparseVector::at(Index index) const noexcept {
  const auto it = std::lower_bound(indices_.begin(), indices_.end(), index);
  if (it == indices_.end() || *it != index) return 0.0;
  return values_[static_cast<std::size_t>(it - indices_.begin())];
}

std::size_t SparseVector::dimension_bound() const noexcept {
  return indices_.empty() ? 0 : static_cast<std::size_t>(indices_.back()) + 1;
}

double SparseVector::norm_l1() const noexcept {
  double total = 0.0;
  for (const double v : values_) total += std::abs(v);
  return total;
}

double SparseVector::norm_lp(double p) const {
  if (p < 1.0) throw std::invalid_argument("norm_lp: p must be >= 1");
  double total = 0.0;
  for (const double v : values_) total += std::pow(std::abs(v), p);
  return std::pow(total, 1.0 / p);
}

SparseVector SparseVector::scaled(double factor) const {
  if (factor == 0.0) return {};
  SparseVector v = *this;
  for (auto& value : v.values_) value *= factor;
  return v;
}

SparseVector SparseVector::l2_normalized() const {
  const double norm = norm_l2();
  if (norm == 0.0) return *this;
  return scaled(1.0 / norm);
}

SparseVector SparseVector::plus(SparseView other) const {
  // A merge join of the two ascending runs. An index both hold is the one
  // two-term sum from_entries would have formed, so the bits agree with
  // summing the concatenated entries; exact zeros drop as there.
  SparseVector v;
  v.indices_.reserve(nnz() + other.indices.size());
  v.values_.reserve(nnz() + other.indices.size());
  const auto put = [&v](Index index, double value) {
    if (value != 0.0) {
      v.indices_.push_back(index);
      v.values_.push_back(value);
    }
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < indices_.size() && j < other.indices.size()) {
    if (indices_[i] < other.indices[j]) {
      put(indices_[i], values_[i]);
      ++i;
    } else if (other.indices[j] < indices_[i]) {
      put(other.indices[j], other.values[j]);
      ++j;
    } else {
      put(indices_[i], values_[i] + other.values[j]);
      ++i;
      ++j;
    }
  }
  for (; i < indices_.size(); ++i) put(indices_[i], values_[i]);
  for (; j < other.indices.size(); ++j) put(other.indices[j], other.values[j]);
  return v;
}

SparseVector SparseVector::minus(const SparseVector& other) const {
  return plus(other.scaled(-1.0));
}

void SparseVector::add_to(std::span<double> dense, double weight) const {
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    dense[indices_[i]] += weight * values_[i];
  }
}

std::vector<double> SparseVector::to_dense(std::size_t dimension) const {
  if (dimension < dimension_bound()) {
    throw std::invalid_argument("to_dense: dimension too small");
  }
  std::vector<double> dense(dimension, 0.0);
  add_to(dense);
  return dense;
}

std::string SparseVector::to_string() const {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    if (i > 0) out << ", ";
    out << indices_[i] << ": " << values_[i];
  }
  out << '}';
  return out.str();
}

double euclidean_distance(SparseView a, SparseView b) noexcept {
  // ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b, computed without materialising a-b.
  const double na = norm_l2(a);
  const double nb = norm_l2(b);
  const double sq = na * na + nb * nb - 2.0 * dot(a, b);
  return sq <= 0.0 ? 0.0 : std::sqrt(sq);
}

double minkowski_distance(const SparseVector& a, const SparseVector& b, double p) {
  if (p < 1.0) throw std::invalid_argument("minkowski_distance: p must be >= 1");
  return a.minus(b).norm_lp(p);
}

double cosine_similarity(SparseView a, SparseView b) noexcept {
  const double na = norm_l2(a);
  const double nb = norm_l2(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

}  // namespace fmeter::vsm
