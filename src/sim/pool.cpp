#include "sim/pool.h"

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

// Constant-initialized and trivially destructible, so it needs no init
// guard and stays valid for frames freed by static destructors after
// main() returns.
struct Pool {
  FreeBlock* freelist[kClasses];
  PoolStats stats;
};
constinit Pool g_pool{};

std::size_t class_of(std::size_t bytes) {
  return bytes == 0 ? 0 : (bytes - 1) / kGranularity;
}

// Carve one 64 KiB chunk wholesale into the (empty) freelist of `cls`.
FreeBlock* carve(std::size_t cls) {
  const std::size_t block = (cls + 1) * kGranularity;
  char* base = static_cast<char*>(::operator new(kChunkBytes));
  ++g_pool.stats.chunks;
  g_pool.stats.chunk_bytes += kChunkBytes;
  FreeBlock* head = nullptr;
  for (std::size_t off = 0; off + block <= kChunkBytes; off += block) {
    head = ::new (base + off) FreeBlock{head};
  }
  return head;
}

}  // namespace

void* pool_alloc(std::size_t bytes) {
  if (bytes > kMaxBlock) ++g_pool.stats.oversize;
  if (!kFreelists || bytes > kMaxBlock) return ::operator new(bytes);
  const std::size_t cls = class_of(bytes);
  FreeBlock* head = g_pool.freelist[cls];
  if (head != nullptr) {
    ++g_pool.stats.reuses;
  } else {
    head = carve(cls);
  }
  g_pool.freelist[cls] = head->next;
  return head;
}

void pool_free(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (!kFreelists || bytes > kMaxBlock) {
    ::operator delete(p, bytes);
    return;
  }
  FreeBlock*& head = g_pool.freelist[class_of(bytes)];
  head = ::new (p) FreeBlock{head};
}

const PoolStats& pool_stats() noexcept { return g_pool.stats; }

}  // namespace xlupc::sim
