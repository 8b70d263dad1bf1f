#include "sim/pool.h"

#include <algorithm>
#include <new>

namespace xlupc::sim {

namespace {

// 32-byte class granularity up to 2 KiB covers every coroutine frame and
// callback spill the runtime produces (measured distribution peaks at
// 64-1024 bytes); anything larger is rare enough to leave to malloc.
constexpr std::size_t kGranularity = 32;
constexpr std::size_t kMaxBlock = 2048;
constexpr std::size_t kClasses = kMaxBlock / kGranularity;
constexpr std::size_t kChunkBytes = 64 * 1024;

// ASan cannot see a use-after-free inside a recycled block, so its
// builds give every block to operator new instead (see pool.h).
#ifdef __SANITIZE_ADDRESS__
constexpr bool kFreelists = false;
#else
constexpr bool kFreelists = true;
#endif

// A free block's first word links it to the next free block of its class.
struct FreeBlock {
  FreeBlock* next;
};

// The first granule of every chunk links it into its class's chunk list
// or into the spare list; the blocks follow it.
struct Chunk {
  Chunk* next;
};

// A class's live count sits beside its freelist head, in one 16-byte
// record, so counting costs the hot path no extra cache line.
struct SizeClass {
  FreeBlock* head;
  std::uint64_t live;  ///< blocks handed out and not yet freed
};

// Constant-initialized and trivially destructible, so it needs no init
// guard and stays valid for frames freed by static destructors after
// main() returns.
struct Pool {
  SizeClass classes[kClasses];
  PoolStats stats;
  Chunk* chunks[kClasses];  ///< the chunks carved into each class
  Chunk* spare;             ///< chunks no class holds
};
constinit Pool g_pool{};

std::size_t class_of(std::size_t bytes) {
  return bytes == 0 ? 0 : (bytes - 1) / kGranularity;
}

std::size_t block_bytes(std::size_t cls) { return (cls + 1) * kGranularity; }

// Carve one chunk, a spare one if there is any, wholesale into the
// (empty) freelist of `cls`.
FreeBlock* carve(std::size_t cls) {
  Chunk* chunk = g_pool.spare;
  if (chunk != nullptr) {
    g_pool.spare = chunk->next;
  } else {
    chunk = ::new (::operator new(kChunkBytes)) Chunk{};
    ++g_pool.stats.chunks;
    g_pool.stats.chunk_bytes += kChunkBytes;
  }
  chunk->next = g_pool.chunks[cls];
  g_pool.chunks[cls] = chunk;
  char* const base = reinterpret_cast<char*>(chunk);
  const std::size_t block = block_bytes(cls);
  FreeBlock* head = nullptr;
  for (std::size_t off = kGranularity; off + block <= kChunkBytes;
       off += block) {
    head = ::new (base + off) FreeBlock{head};
  }
  return head;
}

}  // namespace

void* pool_alloc(std::size_t bytes) {
  if (bytes > kMaxBlock) ++g_pool.stats.oversize;
  if (!kFreelists || bytes > kMaxBlock) return ::operator new(bytes);
  const std::size_t cls = class_of(bytes);
  SizeClass& c = g_pool.classes[cls];
  FreeBlock* head = c.head;
  if (head != nullptr) {
    ++g_pool.stats.reuses;
  } else {
    head = carve(cls);
  }
  c.head = head->next;
  ++c.live;
  PoolStats& st = g_pool.stats;
  st.live_bytes += block_bytes(cls);
  st.peak_live_bytes = std::max(st.peak_live_bytes, st.live_bytes);
  return head;
}

void pool_free(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (!kFreelists || bytes > kMaxBlock) {
    ::operator delete(p, bytes);
    return;
  }
  const std::size_t cls = class_of(bytes);
  SizeClass& c = g_pool.classes[cls];
  c.head = ::new (p) FreeBlock{c.head};
  --c.live;
  g_pool.stats.live_bytes -= block_bytes(cls);
}

void pool_trim() noexcept {
  if (!kFreelists) return;
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    Chunk*& chunks = g_pool.chunks[cls];
    if (chunks == nullptr || g_pool.classes[cls].live != 0) continue;
    // With no block out, the freelist holds every block of these chunks:
    // drop it and splice the whole chunk list onto the spare list.
    Chunk* last = chunks;
    while (last->next != nullptr) last = last->next;
    last->next = g_pool.spare;
    g_pool.spare = chunks;
    chunks = nullptr;
    g_pool.classes[cls].head = nullptr;
  }
}

const PoolStats& pool_stats() noexcept { return g_pool.stats; }

}  // namespace xlupc::sim
