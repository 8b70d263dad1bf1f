#include "sim/pool.h"

#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

namespace xlupc::sim {

namespace {

// 32-byte class granularity up to 2 KiB covers every coroutine frame and
// callback spill the runtime produces (measured distribution peaks at
// 64-1024 bytes); anything larger is rare enough to leave to malloc.
constexpr std::size_t kGranularity = 32;
constexpr std::size_t kMaxBlock = 2048;
constexpr std::size_t kClasses = kMaxBlock / kGranularity;
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::uint32_t kMallocTag = 0xffffffffu;
constexpr std::uint32_t kMagic = 0x51700000u;  // "SIm POol" tag bits

// Prefixed to every block. 16 bytes keeps the returned pointer aligned
// for std::max_align_t (coroutine frames require it).
struct alignas(std::max_align_t) Header {
  std::uint32_t tag;  // kMagic | class index, or kMallocTag
  std::uint32_t pad;
  void* next;  // freelist link while the block is free
};
static_assert(sizeof(Header) == 16);

struct Pool {
  void* freelist[kClasses] = {};
  std::vector<void*> chunks;
  PoolStats stats;
  bool bypass = false;

  void* carve(std::size_t cls) {
    // Carve one 64 KiB chunk wholesale into this class's freelist.
    const std::size_t block = sizeof(Header) + (cls + 1) * kGranularity;
    const std::size_t count = kChunkBytes / block;
    char* base = static_cast<char*>(::operator new(kChunkBytes));
    chunks.push_back(base);
    ++stats.chunks;
    stats.chunk_bytes += kChunkBytes;
    for (std::size_t i = 0; i < count; ++i) {
      auto* h = reinterpret_cast<Header*>(base + i * block);
      h->next = freelist[cls];
      freelist[cls] = h;
    }
    return freelist[cls];
  }
};

// Never destroyed (function-local static pointer): coroutine frames held
// by static-duration objects may be freed after main() returns, so the
// pool must outlive every destructor. The pointer keeps the chunks
// reachable, which also keeps leak checkers quiet.
Pool& pool() {
  static Pool* p = [] {
    auto* created = new Pool;
    // XLUPC_SIM_POOL=malloc starts the process in bypass mode — the
    // whole-process counterpart of pool_set_bypass(true), so sanitizers
    // see every block as its own allocation (docs/PERFORMANCE.md).
    const char* env = std::getenv("XLUPC_SIM_POOL");
    if (env != nullptr && std::strcmp(env, "malloc") == 0) {
      created->bypass = true;
    }
    return created;
  }();
  return *p;
}

}  // namespace

void* pool_alloc(std::size_t bytes) {
  Pool& p = pool();
  ++p.stats.allocations;
  if (bytes == 0) bytes = 1;
  if (p.bypass || bytes > kMaxBlock) {
    if (bytes > kMaxBlock) ++p.stats.oversize;
    auto* h = static_cast<Header*>(::operator new(sizeof(Header) + bytes));
    h->tag = kMallocTag;
    return h + 1;
  }
  const std::size_t cls = (bytes - 1) / kGranularity;
  void* head = p.freelist[cls];
  if (head != nullptr) {
    ++p.stats.reuses;
  } else {
    head = p.carve(cls);
  }
  auto* h = static_cast<Header*>(head);
  p.freelist[cls] = h->next;
  h->tag = kMagic | static_cast<std::uint32_t>(cls);
  return h + 1;
}

void pool_free(void* ptr) noexcept {
  if (ptr == nullptr) return;
  Pool& p = pool();
  ++p.stats.frees;
  auto* h = static_cast<Header*>(ptr) - 1;
  if (h->tag == kMallocTag) {
    ::operator delete(h);
    return;
  }
  const std::size_t cls = h->tag & 0xffffu;
  h->next = p.freelist[cls];
  p.freelist[cls] = h;
}

const PoolStats& pool_stats() noexcept { return pool().stats; }

void pool_set_bypass(bool on) noexcept { pool().bypass = on; }

bool pool_bypass() noexcept { return pool().bypass; }

}  // namespace xlupc::sim
