#include "sim/pool.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <new>

namespace xlupc::sim {

namespace {

// 32-byte class granularity up to 2 KiB covers every coroutine frame and
// callback spill the runtime produces (measured distribution peaks at
// 64-1024 bytes); anything larger is rare enough to leave to malloc.
constexpr std::size_t kGranularity = kPoolGranularity;
constexpr std::size_t kClasses = kPoolClasses;
constexpr std::size_t kMaxBlock = kClasses * kGranularity;
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::size_t kSlabBytes = 2 * 1024 * 1024;

// ASan cannot see a use-after-free inside a recycled block, so its
// builds give every block to operator new instead (see pool.h).
#ifdef __SANITIZE_ADDRESS__
constexpr bool kFreelists = false;
#else
constexpr bool kFreelists = true;
#endif

// A free block's first word links it to the next free block of its chunk.
struct FreeBlock {
  FreeBlock* next;
};

// The first granule of every chunk; the blocks follow it.
struct Chunk {
  FreeBlock* free;     ///< this chunk's free blocks, LIFO
  Chunk* next;         ///< in its class's partial list or the spare list
  Chunk* prev;         ///< in its class's partial list
  std::uint32_t live;  ///< blocks handed out and not yet freed
  std::uint32_t cls;
};
static_assert(sizeof(Chunk) <= kGranularity);

// A class allocates from its current chunk. Its other chunks either
// have every block out, and are on no list, or sit on its partial list:
// some blocks out, some free.
struct SizeClass {
  Chunk* current;
  Chunk* partial;
};

// One per host thread. Constant-initialized and trivially destructible,
// so it needs no init guard and stays valid for frames freed by static
// destructors after main() returns.
struct Pool {
  SizeClass classes[kClasses];
  PoolStats stats;
  Chunk* spare;     ///< chunks no class holds, every block free
  char* slab_next;  ///< the next uncarved chunk of the current slab
  char* slab_end;
  std::uint64_t census_mark;  ///< live bytes that take the next census
  char** slabs;  ///< every slab mapped now (a malloc'd array), to unmap
  std::size_t slab_count;
  std::size_t slab_capacity;
};
constinit thread_local Pool g_pool{};

std::size_t class_of(std::size_t bytes) {
  return bytes == 0 ? 0 : (bytes - 1) / kGranularity;
}

std::size_t block_bytes(std::size_t cls) { return (cls + 1) * kGranularity; }

Chunk* chunk_of(void* p) {
  return reinterpret_cast<Chunk*>(reinterpret_cast<std::uintptr_t>(p) &
                                  ~std::uintptr_t{kChunkBytes - 1});
}

// A new 2 MiB slab, 64 KiB-aligned, mapped straight from the kernel.
// Its uncarved chunks are never touched, so they cost no resident
// memory. Not operator new: freeing a 2 MiB block through glibc raises
// its mmap threshold, and later multi-MB vectors then stay resident in
// the brk heap.
void map_slab() {
  if (g_pool.slab_count == g_pool.slab_capacity) {
    const std::size_t capacity =
        std::max<std::size_t>(16, 2 * g_pool.slab_count);
    void* const grown =
        std::realloc(g_pool.slabs, capacity * sizeof(char*));
    if (grown == nullptr) throw std::bad_alloc();
    g_pool.slabs = static_cast<char**>(grown);
    g_pool.slab_capacity = capacity;
  }
  // Map a chunk more than a slab and trim it to the aligned slab inside.
  void* const raw = ::mmap(nullptr, kSlabBytes + kChunkBytes,
                           PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  char* const lo = static_cast<char*>(raw);
  const std::size_t head =
      (kChunkBytes - reinterpret_cast<std::uintptr_t>(lo) % kChunkBytes) %
      kChunkBytes;
  char* const slab = lo + head;
  if (head != 0) ::munmap(lo, head);
  ::munmap(slab + kSlabBytes, kChunkBytes - head);
  g_pool.slabs[g_pool.slab_count++] = slab;
  g_pool.slab_next = slab;
  g_pool.slab_end = slab + kSlabBytes;
  g_pool.stats.mapped_bytes += kSlabBytes;
}

// The pool has no live block, and every chunk it carved is spare: unmap
// every slab and start again from none.
void unmap_slabs() {
  for (std::size_t i = 0; i < g_pool.slab_count; ++i) {
    ::munmap(g_pool.slabs[i], kSlabBytes);
  }
  std::free(g_pool.slabs);
  g_pool.slabs = nullptr;
  g_pool.slab_count = g_pool.slab_capacity = 0;
  g_pool.spare = nullptr;
  g_pool.slab_next = g_pool.slab_end = nullptr;
  g_pool.stats.mapped_bytes = 0;
  ++g_pool.stats.releases;
}

// A chunk never handed out since the last unmap_slabs(), the next one of
// the current slab.
Chunk* fresh_chunk() {
  if (g_pool.slab_next == g_pool.slab_end) map_slab();
  char* const at = g_pool.slab_next;
  g_pool.slab_next += kChunkBytes;
  ++g_pool.stats.chunks;
  g_pool.stats.chunk_bytes += kChunkBytes;
  return reinterpret_cast<Chunk*>(at);
}

// Give `chunk`, whose blocks are all free, wholesale to class `cls`.
void carve(Chunk* chunk, std::size_t cls) {
  ++g_pool.stats.classes[cls].chunks;
  char* const base = reinterpret_cast<char*>(chunk);
  const std::size_t block = block_bytes(cls);
  FreeBlock* head = nullptr;
  for (std::size_t off = kGranularity; off + block <= kChunkBytes;
       off += block) {
    head = ::new (base + off) FreeBlock{head};
  }
  ::new (chunk)
      Chunk{head, nullptr, nullptr, 0, static_cast<std::uint32_t>(cls)};
}

void unlink_partial(SizeClass& c, Chunk* chunk) {
  (chunk->prev != nullptr ? chunk->prev->next : c.partial) = chunk->next;
  if (chunk->next != nullptr) chunk->next->prev = chunk->prev;
}

// `chunk`, with no block out, leaves its class for the spare list.
void to_spare(Chunk* chunk) {
  --g_pool.stats.classes[chunk->cls].chunks;
  chunk->next = g_pool.spare;
  g_pool.spare = chunk;
}

// Give each class's current chunk that has no block out to the spare
// list. A class whose last block came back to its current chunk keeps
// that chunk, so a class idle for a while would sit on it.
void spare_empty_currents() {
  for (SizeClass& c : g_pool.classes) {
    Chunk* const chunk = c.current;
    if (chunk == nullptr || chunk->live != 0) continue;
    to_spare(chunk);
    c.current = nullptr;
  }
}

// The current chunk of `cls` has no free block: the lowest partial
// chunk takes its place, else a spare chunk (another class's empty
// current chunk included: one 64-entry scan before each fresh chunk),
// else a fresh one. Only a fresh chunk's first block is not counted as
// a reuse; each fresh chunk takes a census (fresh_census).
Chunk* next_chunk(std::size_t cls) {
  ++g_pool.stats.chunk_switches;
  SizeClass& c = g_pool.classes[cls];
  Chunk* chunk = c.partial;
  if (chunk == nullptr && g_pool.spare == nullptr) spare_empty_currents();
  if (chunk != nullptr) {
    unlink_partial(c, chunk);
    ++g_pool.stats.reuses;
  } else if (g_pool.spare != nullptr) {
    chunk = g_pool.spare;
    g_pool.spare = chunk->next;
    carve(chunk, cls);
    ++g_pool.stats.reuses;
  } else {
    chunk = fresh_chunk();
    carve(chunk, cls);
    PoolStats& st = g_pool.stats;
    std::copy(std::begin(st.classes), std::end(st.classes),
              std::begin(st.fresh_census));
    st.fresh_census_live_bytes = st.live_bytes;
  }
  // The old current chunk has every block out: it joins no list until
  // one comes back.
  c.current = chunk;
  return chunk;
}

// The live bytes passed their peak: record it, and take a census each
// time it passes another 64 KiB.
void raise_peak(PoolStats& st) {
  st.peak_live_bytes = st.live_bytes;
  if (st.live_bytes < g_pool.census_mark) return;
  std::copy(std::begin(st.classes), std::end(st.classes),
            std::begin(st.census));
  st.census_live_bytes = st.live_bytes;
  g_pool.census_mark = (st.live_bytes / kChunkBytes + 1) * kChunkBytes;
}

// A block came back to `chunk`, which is not its class's current one.
// A chunk that was full joins the partial list, in address order; one
// with no block out leaves its class for the spare list. Refilling from
// the lowest partial chunk packs a class's long-lived blocks low, so
// the higher chunks, holding the last blocks of a burst, drain.
void settle(Chunk* chunk, bool was_full) {
  SizeClass& c = g_pool.classes[chunk->cls];
  if (chunk->live == 0) {
    if (!was_full) unlink_partial(c, chunk);
    to_spare(chunk);
  } else {
    Chunk* prev = nullptr;
    Chunk* next = c.partial;
    std::uint64_t steps = 0;
    while (next != nullptr && std::less<Chunk*>()(next, chunk)) {
      prev = next;
      next = next->next;
      ++steps;
    }
    g_pool.stats.partial_steps += steps;
    chunk->prev = prev;
    chunk->next = next;
    (prev != nullptr ? prev->next : c.partial) = chunk;
    if (next != nullptr) next->prev = chunk;
  }
}

}  // namespace

void* pool_alloc(std::size_t bytes) {
  if (bytes > kMaxBlock) ++g_pool.stats.oversize;
  if (!kFreelists || bytes > kMaxBlock) return ::operator new(bytes);
  const std::size_t cls = class_of(bytes);
  Chunk* chunk = g_pool.classes[cls].current;
  if (chunk != nullptr && chunk->free != nullptr) {
    ++g_pool.stats.reuses;
  } else {
    chunk = next_chunk(cls);
  }
  FreeBlock* const block = chunk->free;
  chunk->free = block->next;
  ++chunk->live;
  PoolStats& st = g_pool.stats;
  st.live_bytes += block_bytes(cls);
  ++st.live_blocks;
  ++st.classes[cls].live_blocks;
  if (st.live_bytes > st.peak_live_bytes) raise_peak(st);
  return block;
}

void pool_free(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (!kFreelists || bytes > kMaxBlock) {
    ::operator delete(p, bytes);
    return;
  }
  Chunk* const chunk = chunk_of(p);
  const bool was_full = chunk->free == nullptr;
  chunk->free = ::new (p) FreeBlock{chunk->free};
  --chunk->live;
  PoolStats& st = g_pool.stats;
  st.live_bytes -= block_bytes(chunk->cls);
  --st.live_blocks;
  --st.classes[chunk->cls].live_blocks;
  if ((was_full || chunk->live == 0) &&
      chunk != g_pool.classes[chunk->cls].current) {
    settle(chunk, was_full);
  }
}

void pool_trim() noexcept {
  if (!kFreelists) return;
  spare_empty_currents();
  if (g_pool.stats.live_blocks == 0 && g_pool.slab_count != 0) unmap_slabs();
}

const PoolStats& pool_stats() noexcept { return g_pool.stats; }

}  // namespace xlupc::sim
