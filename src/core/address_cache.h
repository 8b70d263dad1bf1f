// The remote address cache — the paper's core contribution (Sec. 3).
//
// A bounded hash table per node. Each entry correlates an SVD handle and
// a node identifier with the physical base address (and RDMA key) of the
// shared variable's piece on that remote node. A hit lets the initiator
// compute the final remote address (base + offset) locally and execute
// the transfer as an RDMA operation; a miss routes the operation through
// the default messaging path, which piggybacks the base address back to
// populate the cache for the next access.
//
// "The Address Cache is currently implemented as a dynamic hash table.
// Its size is allowed to increase on demand to a fixed limit of 100
// entries." (Sec. 4.5) — eviction beyond the limit is LRU. Entries are
// eagerly invalidated when the shared object is deallocated (Sec. 3.1).
//
// Under the chunked pinning strategy ([10]) entries are tagged per chunk,
// because a cache hit must imply the addressed memory is pinned at the
// target; under the paper's greedy strategy chunk is always 0 and "the
// cache tags can simply be the SVD handles".
//
// Layout: each key is stored once, in an entry array whose LRU list runs
// through the entries by 32-bit indices; an open-addressing index of
// 4-byte entry numbers (FlatIndex, common/flat_map.h) finds them. The
// entry array grows on demand up to the limit. A bounded cache sizes its
// index once, at the first insert, for the whole limit (256 slots, 1 KiB,
// at the paper's 100 entries), so it never rehashes; an unbounded one
// doubles its index on demand. A full cache allocates nothing to insert
// or evict, and one that is never used (cache off) costs nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "net/message.h"
#include "sim/metrics.h"

namespace xlupc::core {

struct CacheKey {
  std::uint64_t handle = 0;  ///< packed SVD handle
  NodeId node = 0;           ///< remote node the address lives on
  std::uint32_t chunk = 0;   ///< pin chunk index (0 under greedy pinning)

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    const std::uint64_t where =
        (static_cast<std::uint64_t>(k.node) << 32) | k.chunk;
    return static_cast<std::size_t>(
        mix64(k.handle + 0x9e3779b97f4a7c15ull * where));
  }
};

struct AddressCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Report keys of AddressCacheStats, summed over nodes.
inline constexpr sim::MetricRow<AddressCacheStats> kAddressCacheRows[] = {
    {"cache.hits", &AddressCacheStats::hits},
    {"cache.misses", &AddressCacheStats::misses},
    {"cache.insertions", &AddressCacheStats::insertions},
    {"cache.evictions", &AddressCacheStats::evictions},
    {"cache.invalidations", &AddressCacheStats::invalidations},
};

class AddressCache {
 public:
  /// `max_entries` = growth limit of the dynamic hash table (paper: 100);
  /// 0 = unbounded.
  explicit AddressCache(std::size_t max_entries) : max_entries_(max_entries) {}

  /// Probe for a remote base address; counts a hit or a miss and
  /// refreshes LRU order on hit.
  std::optional<net::BaseInfo> lookup(const CacheKey& key);

  /// Insert/refresh an entry (piggybacked base address arrived); evicts
  /// the least-recently-used entry when full.
  void insert(const CacheKey& key, net::BaseInfo info);

  /// Eagerly drop all entries of a shared object (it was deallocated).
  void invalidate_handle(std::uint64_t handle);

  /// Drop all entries pointing at `node` (it was declared dead by the
  /// failure detector: its base addresses are meaningless now and an
  /// RDMA tier hit against them must never happen again).
  void invalidate_node(NodeId node);

  /// Drop one entry (e.g. an RDMA NAK revealed the target unpinned it).
  void invalidate(const CacheKey& key);

  std::size_t size() const noexcept { return index_.size(); }
  std::size_t max_entries() const noexcept { return max_entries_; }
  /// Bytes of the index's slot array (0 before the first insert).
  std::size_t index_bytes() const noexcept { return index_.slot_bytes(); }
  const AddressCacheStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    CacheKey key;
    net::BaseInfo info;
    std::uint32_t newer = kNil;  ///< toward the most recently used end
    std::uint32_t older = kNil;  ///< toward the LRU end; free-list link
  };

  void unlink(std::uint32_t e) noexcept;
  void push_front(std::uint32_t e) noexcept;
  /// Make `e` the most recently used entry.
  void touch(std::uint32_t e) noexcept;
  /// Drop entry `e` as an invalidation: out of the index and the LRU
  /// list, onto the free list.
  void drop(std::uint32_t e);
  /// An entry for a new key: the LRU victim when full, else a freed or
  /// appended one.
  std::uint32_t take_entry();
  template <class Pred>
  void drop_if(Pred pred);
  /// The index's view of the entries: entry number -> its key.
  auto key_of() const noexcept {
    return [this](std::uint32_t e) -> const CacheKey& {
      return entries_[e].key;
    };
  }

  using Index = FlatIndex<CacheKey, CacheKeyHash>;

  std::size_t max_entries_;
  Index index_;
  std::vector<Entry> entries_;
  std::uint32_t mru_ = kNil;
  std::uint32_t lru_ = kNil;
  std::uint32_t free_ = kNil;
  AddressCacheStats stats_;
};

}  // namespace xlupc::core
