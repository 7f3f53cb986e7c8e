#ifndef FASTHIST_STORE_PREFETCH_H_
#define FASTHIST_STORE_PREFETCH_H_

namespace fasthist {

// Cache-line read-ahead hints for the store's pipelined ingest
// (SummaryStore::AddBatch).  A hint never faults and never changes a
// result; compilers without the builtin get no-ops.
inline void PrefetchForRead(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

inline void PrefetchForWrite(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/1, /*locality=*/3);
#else
  (void)address;
#endif
}

}  // namespace fasthist

#endif  // FASTHIST_STORE_PREFETCH_H_
