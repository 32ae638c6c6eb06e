// Log-linear bucketed latency histogram — the recording substrate of the
// metrics registry (src/obs/metrics.hpp).
//
// Design goals, in order: (1) the hot path is wait-free and allocation-free
// — one bucket-index computation (a handful of bit ops) plus two relaxed
// fetch_adds on the calling thread's shard; (2) memory is fixed at
// construction (no resizing, ever — an always-on monitor must not allocate
// on the query path); (3) quantiles carry a bounded relative error.
//
// Bucketing is log-linear: a recorded value v (nanoseconds by convention,
// but the histogram is unit-agnostic over u64) below kSubBuckets gets an
// exact unit bucket; above, the octave [2^e, 2^(e+1)) is split into
// kSubBuckets equal-width buckets of width 2^(e - kSubBucketBits), so a
// bucket's width never exceeds 1/kSubBuckets of its lower edge. With
// kSubBuckets = 64 any value reported from its bucket edge is within
// 1/64 ≈ 1.6% of the true value (≈ 0.8% from the midpoint) — the "~1–2%
// relative error" contract. Values at or above 2^kMaxExponent (~4.6 min in
// ns) clamp into the top bucket; latencies that large are an outage, not a
// distribution worth resolving.
//
// Concurrency: counts live in per-thread shards — a fixed power-of-two
// array of cache-line-aligned bucket arrays; each thread is assigned a
// shard slot round-robin at first record and keeps it for life (threads
// beyond the shard count wrap, degrading to striping, never to a lock).
// All cells are relaxed atomics: recording is one fetch_add per bucket
// plus one for the sum; merging happens only at snapshot() time. A scrape
// racing with recorders may see a bucket count without its sum increment
// (or vice versa) — snapshots are eventually consistent by design, never
// torn per cell.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace fmeter::obs {

/// Merged, immutable view of a histogram at one scrape. Quantiles are
/// interpolated inside the covering bucket, so their error is bounded by
/// the bucket width (≤ 1/kSubBuckets of the value).
struct HistogramSnapshot {
  std::uint64_t count = 0;  ///< values recorded
  /// Sum of recorded values (same unit as input); outliers contribute the
  /// clamped ceiling, keeping mean() ≤ max().
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> buckets;  ///< dense per-bucket counts

  bool empty() const noexcept { return count == 0; }
  /// Mean of the recorded values (exact — from sum, not buckets).
  double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) /
                                  static_cast<double>(count);
  }
  /// Smallest / largest recorded value at bucket resolution (the lower
  /// edge of the extreme nonzero buckets; 0 when empty).
  std::uint64_t min() const noexcept;
  std::uint64_t max() const noexcept;
  /// q in [0, 1]: the value below which a fraction q of recordings fall,
  /// linearly interpolated within its covering bucket. 0 when empty.
  double quantile(double q) const noexcept;

  /// Bucket-wise merge; recording a stream into one histogram and
  /// recording its halves into two then merging give identical snapshots.
  HistogramSnapshot& operator+=(const HistogramSnapshot& other);
};

class Histogram {
 public:
  /// Sub-buckets per octave: 64 ⇒ worst-case relative error 1/64 ≈ 1.6%.
  static constexpr int kSubBucketBits = 6;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;
  /// Values ≥ 2^kMaxExponent clamp into the last bucket (~4.6 min in ns).
  static constexpr int kMaxExponent = 38;
  /// Dense bucket count: the exact linear region [0, kSubBuckets) plus
  /// kSubBuckets buckets for each octave [2^e, 2^(e+1)),
  /// e ∈ [kSubBucketBits, kMaxExponent).
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kSubBuckets) *
      static_cast<std::size_t>(kMaxExponent - kSubBucketBits + 1);

  /// Per-thread shard count (rounded up to a power of two; 0 ⇒ a default
  /// sized to the hardware, capped at 8).
  explicit Histogram(std::size_t shards = 0);

  /// Index of the bucket covering `value` (exposed for tests and the
  /// exporters' boundary computation). Monotonic in `value`.
  static constexpr std::size_t bucket_index(std::uint64_t value) noexcept {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    int exponent = std::bit_width(value) - 1;  // ≥ kSubBucketBits
    if (exponent >= kMaxExponent) {
      exponent = kMaxExponent - 1;
      value = (std::uint64_t{1} << kMaxExponent) - 1;
    }
    const int shift = exponent - kSubBucketBits;
    // value >> shift ∈ [kSubBuckets, 2·kSubBuckets); shift 0 reproduces the
    // linear region's indices seamlessly, so octave e starts at
    // (e - kSubBucketBits + 1) · kSubBuckets.
    return static_cast<std::size_t>(shift) * kSubBuckets +
           static_cast<std::size_t>(value >> shift);
  }

  /// Inclusive lower edge of bucket `index`; bucket `index` covers values
  /// [bucket_lower_bound(index), bucket_lower_bound(index + 1)), with the
  /// last bucket also absorbing the clamped tail.
  static constexpr std::uint64_t bucket_lower_bound(
      std::size_t index) noexcept {
    if (index < 2 * kSubBuckets) return index;  // unit-width region
    const std::size_t shift = index / kSubBuckets - 1;
    const std::uint64_t mantissa = index - shift * kSubBuckets;  // [64, 128)
    return mantissa << shift;
  }

  /// Records one value: two relaxed fetch_adds on this thread's shard.
  /// Values beyond the top bucket clamp to its upper edge (2^kMaxExponent−1)
  /// for the sum too, so mean() never exceeds max() for clamped outliers.
  void record(std::uint64_t value) noexcept {
    constexpr std::uint64_t kCeiling = (std::uint64_t{1} << kMaxExponent) - 1;
    if (value > kCeiling) value = kCeiling;
    Shard& shard = shards_[shard_slot() & shard_mask_];
    shard.buckets[bucket_index(value)].fetch_add(1,
                                                 std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Merges every shard into one dense snapshot.
  HistogramSnapshot snapshot() const;

  std::size_t num_shards() const noexcept { return shard_mask_ + 1; }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBucketCount> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };

  /// The calling thread's stable shard slot, assigned round-robin at first
  /// use (process-wide — one slot per thread, shared by all histograms).
  static std::size_t shard_slot() noexcept;

  std::unique_ptr<Shard[]> shards_;
  std::size_t shard_mask_ = 0;  ///< shard count − 1 (count is a power of 2)
};

/// Wall time since construction on the steady clock — the one elapsed-time
/// helper of the latency histograms: start a Stopwatch, do the work, then
/// record() it. A call that throws before record() is not timed.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(std::chrono::steady_clock::now()) {}

  /// Nanoseconds since construction (0 should the clock appear to step
  /// back).
  std::uint64_t elapsed_ns() const noexcept {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    return ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
  }

  /// Records elapsed_ns() into `sink`.
  void record(Histogram& sink) const noexcept { sink.record(elapsed_ns()); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace fmeter::obs
