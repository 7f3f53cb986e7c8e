#ifndef FASTHIST_UTIL_SIMD_H_
#define FASTHIST_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

// The merge engine's streaming kernel for the polynomial store's first
// candidate pass: a plain scalar loop that compilers auto-vectorize where
// the hardware allows, with each output element computed exactly as the
// scalar definition says.

namespace fasthist {
namespace simd {

// dst[i] = double(end[2*i + 1] - begin[2*i]) for i in [0, n): the span of
// the merged pair (i's two adjacent intervals) as a double.  The cast is
// exact for spans up to 2^53 (the merge engine rejects larger domains up
// front).  Scalar only: AVX2 has no int64 -> double convert (that is
// AVX-512's vcvtqq2pd), and the magic-constant trick is only exact below
// 2^52 — a plain loop matches the cast's rounding everywhere.
inline void PairwiseSpan(const int64_t* begin, const int64_t* end, size_t n,
                         double* dst) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<double>(end[2 * i + 1] - begin[2 * i]);
  }
}

}  // namespace simd
}  // namespace fasthist

#endif  // FASTHIST_UTIL_SIMD_H_
