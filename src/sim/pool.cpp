#include "sim/pool.h"

#include <algorithm>
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

// Constant-initialized and trivially destructible, so it needs no init
// guard and stays valid for frames freed by static destructors after
// main() returns.
struct Pool {
  SizeClass classes[kClasses];
  PoolStats stats;
  Chunk* spare;     ///< chunks no class holds, every block free
  char* slab_next;  ///< the next uncarved chunk of the current slab
  char* slab_end;
  std::uint64_t census_mark;  ///< live bytes that take the next census
};
constinit Pool g_pool{};

std::size_t class_of(std::size_t bytes) {
  return bytes == 0 ? 0 : (bytes - 1) / kGranularity;
}

std::size_t block_bytes(std::size_t cls) { return (cls + 1) * kGranularity; }

Chunk* chunk_of(void* p) {
  return reinterpret_cast<Chunk*>(reinterpret_cast<std::uintptr_t>(p) &
                                  ~std::uintptr_t{kChunkBytes - 1});
}

// A chunk never handed out before, the next one of the current 2 MiB
// slab. A slab is 64 KiB-aligned, and its uncarved chunks are never
// touched, so they cost no resident memory.
Chunk* fresh_chunk() {
  if (g_pool.slab_next == g_pool.slab_end) {
    g_pool.slab_next = static_cast<char*>(
        ::operator new(kSlabBytes, std::align_val_t{kChunkBytes}));
    g_pool.slab_end = g_pool.slab_next + kSlabBytes;
  }
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
  if (kFreelists) spare_empty_currents();
}

const PoolStats& pool_stats() noexcept { return g_pool.stats; }

}  // namespace xlupc::sim
