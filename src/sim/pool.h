// Size-class freelist pool for short-lived simulation objects.
//
// The discrete-event hot path allocates millions of small, short-lived
// blocks per simulated second: coroutine frames for every Task<> in a
// co_await chain and every callback too big to store inline. glibc
// malloc/free dominated the event loop before this pool existed (~2.8
// mallocs per simulated event on the fig9 stressmark mix). The pool
// replaces them with LIFO freelists binned by size class, so a block
// freed by one GET's coroutine frame is re-used — cache-hot — by the
// next GET a few events later.
//
// Design (docs/PERFORMANCE.md):
//  * classes of 32-byte granularity up to 2 KiB; larger blocks fall
//    through to operator new. Blocks carry no header: every caller hands
//    the block's size back to pool_free, which picks the class from it
//    (coroutine frames through the sized PooledFrame::operator delete,
//    containers through PoolAllocator, callback spills with sizeof).
//  * backing chunks of 64 KiB are carved whole into a class's freelist
//    and are never returned to the OS: steady-state simulation reaches a
//    high-water mark once and allocates nothing afterwards.
//  * each class counts its live blocks beside its freelist head and
//    links its chunks through a small header. pool_trim(), which the
//    Simulator calls when run() returns and when it is destroyed, gives
//    every chunk of a class with no live block to a spare list, and a
//    class that needs a chunk takes a spare one before it calls operator
//    new. So the classes one phase of a program uses (allocation frames,
//    say) hand their memory to the classes the next phase uses.
//  * single-threaded by design, like the simulator itself. There is one
//    process-global pool (coroutine frames outlive any one Simulator).
//  * AddressSanitizer builds compile the freelists out: every block is
//    its own ::operator new allocation, released by a sized
//    ::operator delete, so ASan checks each frame's lifetime and each
//    caller's size (new-delete-type-mismatch).
//
// Determinism: pointer values never influence simulation behaviour, so
// the pool cannot change results — only wall-clock speed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xlupc::sim {

/// Allocate `bytes` from the pool (operator new for oversize blocks).
/// Never returns nullptr; throws std::bad_alloc.
void* pool_alloc(std::size_t bytes);

/// Return a block to its freelist. `bytes` must be the size it was
/// allocated with.
void pool_free(void* p, std::size_t bytes) noexcept;

/// Give the chunks of every size class that has no live block to the
/// spare list, from which any class carves before it calls operator new.
/// A no-op when the freelists are compiled out.
void pool_trim() noexcept;

/// Allocation statistics, for tests and docs/PERFORMANCE.md numbers.
struct PoolStats {
  std::uint64_t reuses = 0;    ///< served from a freelist (cache-hot)
  std::uint64_t oversize = 0;  ///< larger than the largest class
  /// 64 KiB backing chunks taken from operator new (a spare chunk a
  /// class re-carves is not counted again).
  std::uint64_t chunks = 0;
  std::uint64_t chunk_bytes = 0;      ///< total backing bytes reserved
  std::uint64_t live_bytes = 0;       ///< class blocks handed out, in bytes
  std::uint64_t peak_live_bytes = 0;  ///< high-water mark of live_bytes
};
const PoolStats& pool_stats() noexcept;

/// Mixin giving a class (and, for coroutine promise types, the whole
/// coroutine frame) pooled allocation. Task<T>::promise_type and
/// Simulator's detached driver inherit this, which is what removes the
/// per-operation frame malloc from every co_await chain. The delete is
/// sized-only, so a coroutine frame is freed with its frame size.
struct PooledFrame {
  static void* operator new(std::size_t n) { return pool_alloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    pool_free(p, n);
  }
};

/// STL allocator over the pool, for short-lived containers on the hot
/// path (message payloads, staging buffers). Small backing arrays
/// recycle through the freelists; oversize ones fall through to
/// operator new inside pool_alloc.
template <class T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <class U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pool_free(p, n * sizeof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

}  // namespace xlupc::sim
