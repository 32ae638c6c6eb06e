#include "index/kernels.hpp"

#include <bit>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define FMETER_HAVE_AVX512_KERNELS 1
#endif

namespace fmeter::index::kernels {

#ifdef FMETER_HAVE_AVX512_KERNELS

bool avx512_supported() noexcept {
  static const bool supported = __builtin_cpu_supports("avx512f") != 0;
  return supported;
}

// Eight postings per step: gather their accumulators, multiply the
// weights, add, scatter back. The span's ids are distinct, so no two
// lanes of a scatter alias.
__attribute__((target("avx512f"))) void accumulate_avx512(
    double* acc, const std::uint32_t* ids, const double* weights,
    std::size_t count, double q_weight) {
  const __m512d q = _mm512_set1_pd(q_weight);
  // The masked gather with every lane set reads all 8 accumulators; its
  // zero source only keeps GCC from flagging the unmasked form's undefined
  // one.
  const __m512d zero = _mm512_setzero_pd();
  std::size_t p = 0;
  for (; p + 8 <= count; p += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + p));
    const __m512d product = _mm512_mul_pd(q, _mm512_loadu_pd(weights + p));
    const __m512d sum =
        _mm512_add_pd(_mm512_mask_i32gather_pd(zero, 0xFF, idx, acc, 8),
                      product);
    _mm512_i32scatter_pd(acc, idx, sum, 8);
  }
  accumulate_scalar(acc, ids + p, weights + p, count - p, q_weight);
}

// Eight pre-tests per compare. _CMP_NLT_UQ is the exact negation of the
// scalar `<` (unordered counts as a survivor), so the first set bit is the
// scalar loop's stopping point.
__attribute__((target("avx512f"))) std::size_t pretest_scan_avx512(
    const double* acc, const double* norms, std::size_t doc, std::size_t stop,
    double factor) {
  const __m512d f = _mm512_set1_pd(factor);
  for (; doc + 8 <= stop; doc += 8) {
    const __mmask8 survivors =
        _mm512_cmp_pd_mask(_mm512_loadu_pd(acc + doc),
                           _mm512_mul_pd(f, _mm512_loadu_pd(norms + doc)),
                           _CMP_NLT_UQ);
    if (survivors != 0) {
      return doc + static_cast<std::size_t>(std::countr_zero(
                       static_cast<unsigned>(survivors)));
    }
  }
  return pretest_scan_scalar(acc, norms, doc, stop, factor);
}

#else  // no AVX-512F kernels on this target: the scalar loops run everywhere

bool avx512_supported() noexcept { return false; }

void accumulate_avx512(double* acc, const std::uint32_t* ids,
                       const double* weights, std::size_t count,
                       double q_weight) {
  accumulate_scalar(acc, ids, weights, count, q_weight);
}

std::size_t pretest_scan_avx512(const double* acc, const double* norms,
                                std::size_t doc, std::size_t stop,
                                double factor) {
  return pretest_scan_scalar(acc, norms, doc, stop, factor);
}

#endif

}  // namespace fmeter::index::kernels
