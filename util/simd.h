#ifndef FASTHIST_UTIL_SIMD_H_
#define FASTHIST_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

// Portable SIMD shim for the merge engine's streaming kernels.  The AVX2
// path compiles when the target enables it (__AVX2__, e.g. via the
// FASTHIST_NATIVE CMake option, which adds -march=native); everything else
// gets plain scalar loops that modern compilers auto-vectorize.
//
// Determinism contract: every kernel computes each output element with the
// same single-rounded double operations in the same order as the scalar
// loop (the AVX2 variants are pure elementwise add/mul/div/sub/max — no
// reassociated reductions, no FMA contraction), so the SIMD, scalar,
// serial, and threaded paths all produce bit-identical results.
#if defined(__AVX2__)
#include <immintrin.h>
#define FASTHIST_SIMD_AVX2 1
#else
#define FASTHIST_SIMD_AVX2 0
#endif

namespace fasthist {
namespace simd {

// dst[i] = src[2*i] + src[2*i + 1] for i in [0, n): the pairwise merge of
// adjacent sufficient statistics (sum and sumsq planes) in one stream.
inline void PairwiseSum(const double* src, size_t n, double* dst) {
  size_t i = 0;
#if FASTHIST_SIMD_AVX2
  for (; i + 4 <= n; i += 4) {
    const __m256d lo = _mm256_loadu_pd(src + 2 * i);      // a0 a1 a2 a3
    const __m256d hi = _mm256_loadu_pd(src + 2 * i + 4);  // a4 a5 a6 a7
    // hadd gives (a0+a1, a4+a5, a2+a3, a6+a7); permute restores pair order.
    const __m256d sums = _mm256_permute4x64_pd(_mm256_hadd_pd(lo, hi),
                                               _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_pd(dst + i, sums);
  }
#endif
  for (; i < n; ++i) dst[i] = src[2 * i] + src[2 * i + 1];
}

// dst[i] = double(end[2*i + 1] - begin[2*i]) for i in [0, n): the span of
// the merged pair (i's two adjacent intervals) as a double, ready to be the
// `len` input of ResidualError.  The cast is exact for spans up to 2^53
// (the merge engine rejects larger domains up front).  Scalar only: AVX2
// has no int64 -> double convert (that is AVX-512's vcvtqq2pd), and the
// magic-constant trick is only exact below 2^52 — a plain loop matches the
// cast's rounding everywhere and auto-vectorizes where the hardware allows.
inline void PairwiseSpan(const int64_t* begin, const int64_t* end, size_t n,
                         double* dst) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<double>(end[2 * i + 1] - begin[2 * i]);
  }
}

// err[i] = max(0, sumsq[i] - sum[i]^2 / len[i]): the best-flat-fit squared
// residual of a merged interval from its moments, clamped against the tiny
// negatives floating-point cancellation can produce.
inline void ResidualError(const double* sum, const double* sumsq,
                          const double* len, size_t n, double* err) {
  size_t i = 0;
#if FASTHIST_SIMD_AVX2
  const __m256d zero = _mm256_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    const __m256d s = _mm256_loadu_pd(sum + i);
    const __m256d ss = _mm256_loadu_pd(sumsq + i);
    const __m256d l = _mm256_loadu_pd(len + i);
    const __m256d r =
        _mm256_sub_pd(ss, _mm256_div_pd(_mm256_mul_pd(s, s), l));
    // max_pd(a, b) is a > b ? a : b, so a NaN or -0 residual yields +0
    // exactly like the scalar tail (the selection tiers rely on a NaN-free
    // error plane).
    _mm256_storeu_pd(err + i, _mm256_max_pd(r, zero));
  }
#endif
  for (; i < n; ++i) {
    const double r = sumsq[i] - sum[i] * sum[i] / len[i];
    err[i] = r > 0.0 ? r : 0.0;
  }
}

}  // namespace simd
}  // namespace fasthist

#endif  // FASTHIST_UTIL_SIMD_H_
