#ifndef FASTHIST_STORE_PREFETCH_H_
#define FASTHIST_STORE_PREFETCH_H_

namespace fasthist {

// Cache-line read-ahead hints for the store's pipelined ingest
// (SummaryStore::AddBatch).  A hint never faults and never changes a
// result; compilers without the builtin get no-ops.
//
// Each hint is opaque to the optimizer: an empty volatile asm that takes the
// address.  GCC's pure/const analysis counts __builtin_prefetch as having
// no side effect, so a helper whose only effect is a hint is proven const
// and its calls deleted; the asm is a side effect, so no caller of a hint
// can be.  The asm body is empty, so it adds no instruction of its own.
// tests/check_prefetch_codegen.cmake fails if AddBatch loses its write
// hints.
inline void PrefetchForRead(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
  asm volatile("" : : "r"(address));
#else
  (void)address;
#endif
}

inline void PrefetchForWrite(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/1, /*locality=*/3);
  asm volatile("" : : "r"(address));
#else
  (void)address;
#endif
}

}  // namespace fasthist

#endif  // FASTHIST_STORE_PREFETCH_H_
