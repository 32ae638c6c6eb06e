// The exact path's two hot loops, in a scalar and an AVX-512F form.
// Private to src/index/: InvertedIndex::top_k runs them, and the tests pin
// the AVX-512F loops bit for bit against the scalar ones.
//
// Both forms compute the same values in the same rounding steps. The
// accumulate multiplies and then adds, two separately rounded operations
// in either form; the build passes -ffp-contract=off so the compiler never
// fuses the vector pair into an FMA, which rounds once and would move the
// low bits of the dot products the scan reproduces. The AVX-512F form
// runs where the host supports it (checked once); the scalar form is the
// reference and the only other path.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fmeter::index::kernels {

/// acc[ids[p]] += q_weight * weights[p] for p in [0, count): one term's
/// arena span, added into the per-document accumulators. The ids must be
/// distinct — a span holds each document at most once — because the
/// AVX-512F form gathers and scatters 8 of them at a time.
using AccumulateFn = void (*)(double* acc, const std::uint32_t* ids,
                              const double* weights, std::size_t count,
                              double q_weight);

/// The cosine pre-test of the dense scoring pass: the first doc in
/// [doc, stop) that survives it, i.e. for which
/// acc[doc] < factor * norms[doc] is false (a NaN survives), or `stop`
/// when none does.
using PretestScanFn = std::size_t (*)(const double* acc, const double* norms,
                                      std::size_t doc, std::size_t stop,
                                      double factor);

inline void accumulate_scalar(double* acc, const std::uint32_t* ids,
                              const double* weights, std::size_t count,
                              double q_weight) {
  for (std::size_t p = 0; p < count; ++p) acc[ids[p]] += q_weight * weights[p];
}

inline std::size_t pretest_scan_scalar(const double* acc, const double* norms,
                                       std::size_t doc, std::size_t stop,
                                       double factor) {
  while (doc < stop && acc[doc] < factor * norms[doc]) ++doc;
  return doc;
}

// Require avx512_supported(); accumulate_avx512 also needs every id to fit
// the gather's signed 32-bit lane (ids < kMaxGatherDocs).
void accumulate_avx512(double* acc, const std::uint32_t* ids,
                       const double* weights, std::size_t count,
                       double q_weight);
std::size_t pretest_scan_avx512(const double* acc, const double* norms,
                                std::size_t doc, std::size_t stop,
                                double factor);

/// Documents a shard may hold for its internal ids to fit a gather lane.
inline constexpr std::size_t kMaxGatherDocs = std::size_t{1} << 31;

/// True when this host runs AVX-512F (checked once per process).
bool avx512_supported() noexcept;

/// True when top_k over `docs` documents runs the AVX-512F loops.
inline bool use_avx512(std::size_t docs) noexcept {
  return avx512_supported() && docs <= kMaxGatherDocs;
}

}  // namespace fmeter::index::kernels
