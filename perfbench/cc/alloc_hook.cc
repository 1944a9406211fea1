// Counting replacement of the global allocation functions, linked into
// the traced binary only. Every operator new form bumps a call counter
// and a byte counter of the calling thread (thread-local, so threads
// that allocate at once do not contend for one cache line); the deletes
// forward to free.
#include <cstdlib>
#include <new>

#include "common.h"

namespace {

thread_local uint64_t t_count = 0;
thread_local uint64_t t_bytes = 0;

void* counted(std::size_t size, std::size_t align) {
    ++t_count;
    t_bytes += size;
    if (size == 0) size = 1;
    void* p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(size);
    } else if (posix_memalign(&p, align, size) != 0) {
        p = nullptr;
    }
    return p;
}

}  // namespace

namespace perfbench {

AllocCounts alloc_counts() noexcept {
    return {t_count, t_bytes};
}
bool alloc_counting() noexcept { return true; }

}  // namespace perfbench

void* operator new(std::size_t size) {
    if (void* p = counted(size, 0)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
    if (void* p = counted(size, 0)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
    if (void* p = counted(size, static_cast<std::size_t>(align))) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
    if (void* p = counted(size, static_cast<std::size_t>(align))) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted(size, 0); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return counted(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
    return counted(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
    return counted(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}
