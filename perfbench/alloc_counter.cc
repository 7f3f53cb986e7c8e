#include "perfbench/alloc_counter.h"

#include <cstdlib>
#include <new>

namespace fasthist {
namespace perfbench {
namespace {

thread_local uint64_t tls_allocations = 0;

void* CountedAllocate(std::size_t size) {
  ++tls_allocations;
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* CountedAllocateAligned(std::size_t size, std::align_val_t align) {
  ++tls_allocations;
  const std::size_t alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  for (;;) {
    if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                             : rounded)) {
      return p;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

uint64_t ThreadAllocations() { return tls_allocations; }

}  // namespace perfbench
}  // namespace fasthist

using fasthist::perfbench::CountedAllocate;
using fasthist::perfbench::CountedAllocateAligned;

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAllocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAllocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocateAligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
