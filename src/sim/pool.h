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
//    the block's size back to pool_free, which takes oversize blocks
//    back to operator delete (coroutine frames through the sized
//    PooledFrame::operator delete, containers through PoolAllocator,
//    callback spills with sizeof).
//  * backing chunks of 64 KiB, aligned to 64 KiB, are carved one at a
//    time from 2 MiB slabs mapped with mmap; a slab's uncarved chunks
//    are never touched, so they cost no resident memory.
//  * a chunk's first 32-byte granule is its header: its own LIFO
//    freelist, its live count, its class and its partial-list links.
//    pool_free finds it by masking the block's address. A class
//    allocates from its current chunk, then from its partial chunks
//    (not current, some blocks free; lowest address first), then from a
//    spare chunk, then from a fresh one, carving a spare or fresh chunk
//    wholesale into its freelist.
//  * a non-current chunk whose last block comes back goes to the spare
//    list at once, so any class can take it mid-run. pool_trim(), which
//    the Simulator calls when run() returns and when it is destroyed,
//    also gives away current chunks with no live block. Chunk memory
//    thus follows the live blocks, not each class's past peak.
//  * a trim that finds no live block unmaps every slab, so the pages of
//    a finished run go back to the OS and the next run carves afresh.
//  * one pool per host thread, like the simulator itself single-threaded
//    (coroutine frames outlive any one Simulator, so the pool is not a
//    Simulator's). A block must be freed on the thread that allocated
//    it; independent Simulators may run on different threads.
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
/// allocated with, and the calling thread the one that allocated it.
void pool_free(void* p, std::size_t bytes) noexcept;

/// Give each class's current chunk, when it has no live block, to the
/// spare list, from which any class carves before it takes a fresh chunk
/// (other chunks go there as soon as their last block is freed; a class
/// that needs a fresh chunk also does this first). When the calling
/// thread's pool then has no live block, unmap all its slabs. A no-op
/// when the freelists are compiled out.
void pool_trim() noexcept;

/// Size classes: blocks of (class + 1) x kPoolGranularity bytes, up to
/// 2 KiB; larger blocks go to operator new.
inline constexpr std::size_t kPoolGranularity = 32;
inline constexpr std::size_t kPoolClasses = 64;

/// One size class's share of the pool.
struct PoolClassCount {
  std::uint32_t live_blocks = 0;  ///< blocks handed out and not yet freed
  std::uint32_t chunks = 0;       ///< 64 KiB chunks the class holds
};

/// Allocation statistics of the calling thread's pool, for tests and
/// docs/PERFORMANCE.md numbers.
struct PoolStats {
  /// Blocks handed out without taking a fresh chunk.
  std::uint64_t reuses = 0;
  std::uint64_t oversize = 0;  ///< larger than the largest class
  /// Fresh 64 KiB chunks carved from a slab (a spare chunk a class
  /// re-carves is not counted again; a chunk carved again after its
  /// slab was unmapped is).
  std::uint64_t chunks = 0;
  std::uint64_t chunk_bytes = 0;      ///< total backing bytes carved
  /// Bytes of the slabs mapped now. They come from mmap, so heap
  /// trackers that follow operator new (tools/hotspots.sh -m) miss them.
  std::uint64_t mapped_bytes = 0;
  /// Times pool_trim() found no live block and unmapped every slab.
  std::uint64_t releases = 0;
  std::uint64_t live_bytes = 0;       ///< class blocks handed out, in bytes
  std::uint64_t live_blocks = 0;      ///< class blocks handed out
  std::uint64_t peak_live_bytes = 0;  ///< high-water mark of live_bytes
  /// Times a class's current chunk ran out of free blocks and the class
  /// switched to a partial, spare or fresh chunk.
  std::uint64_t chunk_switches = 0;
  /// Partial-list entries stepped over to insert a chunk that turned
  /// partial (the list is kept in address order).
  std::uint64_t partial_steps = 0;
  /// Each class's live blocks and chunks now, indexed by class.
  PoolClassCount classes[kPoolClasses] = {};
  /// `classes` as it stood when the live peak last passed a multiple of
  /// 64 KiB, and `live_bytes` then: the pool's make-up within 64 KiB of
  /// its peak, at the cost of one compare per allocation.
  PoolClassCount census[kPoolClasses] = {};
  std::uint64_t census_live_bytes = 0;
  /// `classes` as it stood when the last fresh chunk was carved (that
  /// chunk counted, the block it was carved for not yet out), and
  /// `live_bytes` then. Resident memory follows carved chunks, not live
  /// bytes, so this shows which classes held the chunks when it grew.
  PoolClassCount fresh_census[kPoolClasses] = {};
  std::uint64_t fresh_census_live_bytes = 0;
};
const PoolStats& pool_stats() noexcept;

/// Mixin giving a class (and, for coroutine promise types, the whole
/// coroutine frame) pooled allocation. Task<T>::promise_type and
/// Simulator::Process inherit this, which is what removes the
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
