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
// Layout: the (key, base, rkey) values are stored once per Runtime, in
// a shared RemoteBases table that counts the caches holding each one:
// every initiator that caches a piece caches the same value. A cache
// entry is 12 bytes, {value id, newer, older}: an LRU list runs through
// the entry array by 32-bit indices, and an open-addressing index of
// 4-byte entry numbers (FlatIndex, common/flat_map.h) finds entries by
// the key of their value. The entry array grows on demand up to the
// limit. A bounded cache sizes its index once, at the first insert, for
// the whole limit at a load of at most 0.8 (128 slots, 512 B, at the
// paper's 100 entries), so it never rehashes; an unbounded one doubles
// its index on demand, keeping it at most half full. A full
// cache allocates nothing to insert or evict, and one that is never
// used (cache off) costs nothing. Values are immutable: re-inserting a
// key with a new base (the piece was re-pinned) moves that cache to
// another value and leaves the other caches on the old one.
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

/// A cached remote base: the piece `key` names lives at `info.base` on
/// `key.node`, registered under `info.key`.
struct RemoteBase {
  CacheKey key;
  net::BaseInfo info;

  friend bool operator==(const RemoteBase& a, const RemoteBase& b) noexcept {
    return a.key == b.key && a.info.base == b.info.base &&
           a.info.key == b.info.key;
  }
};

struct RemoteBaseHash {
  std::size_t operator()(const RemoteBase& v) const noexcept {
    return CacheKeyHash{}(v.key) ^
           static_cast<std::size_t>(
               mix64(v.info.base + 0x9e3779b97f4a7c15ull * v.info.key));
  }
};

/// The remote bases of every address cache of one Runtime, each stored
/// once with a count of the references the caches hold to it. Values
/// are immutable; the last release frees a value's slot for reuse. The
/// Runtime declares it before its nodes, so it outlives every cache.
class RemoteBases {
 public:
  using Id = std::uint32_t;

  RemoteBases() = default;
  // Caches name values by id and point at their table.
  RemoteBases(const RemoteBases&) = delete;
  RemoteBases& operator=(const RemoteBases&) = delete;

  /// The id of `value`, interned if it is new, with one more reference.
  Id acquire(RemoteBase value);
  /// One more reference to the held value `id`.
  void retain(Id id) noexcept {
    ++items_[id].refs;
    ++references_;
  }
  /// Drop one reference to `id`; the last one frees the value.
  void release(Id id) noexcept;

  const RemoteBase& value(Id id) const noexcept { return items_[id].value; }

  /// Distinct values held.
  std::size_t size() const noexcept { return index_.size(); }
  /// References held, summed over values.
  std::uint64_t references() const noexcept { return references_; }
  /// The first held value that no reference names, or nullptr (there is
  /// none unless a count went wrong). O(values).
  const RemoteBase* unreferenced() const noexcept;

 private:
  static constexpr Id kNil = 0xffffffffu;

  struct Item {
    RemoteBase value;
    std::uint32_t refs = 0;  ///< 0: free
    Id next_free = kNil;     ///< free-list link while free
  };

  auto key_of() const noexcept {
    return [this](Id id) -> const RemoteBase& { return items_[id].value; };
  }

  using Index = FlatIndex<RemoteBase, RemoteBaseHash>;

  Index index_;
  std::vector<Item> items_;
  Id free_ = kNil;
  std::uint64_t references_ = 0;
};

class AddressCache {
 public:
  /// `max_entries` = growth limit of the dynamic hash table (paper: 100);
  /// 0 = unbounded. `bases` holds the values and must outlive the cache.
  AddressCache(RemoteBases& bases, std::size_t max_entries)
      : max_entries_(max_entries), bases_(&bases) {}
  /// Releases the cache's reference to each value it holds.
  ~AddressCache();
  /// Takes the entries and their references; `other` is left empty.
  AddressCache(AddressCache&& other) noexcept;
  AddressCache(const AddressCache&) = delete;
  AddressCache& operator=(const AddressCache&) = delete;

  /// Probe for a remote base address; counts a hit or a miss and
  /// refreshes LRU order on hit.
  std::optional<net::BaseInfo> lookup(const CacheKey& key);

  /// Insert/refresh an entry (piggybacked base address arrived); evicts
  /// the least-recently-used entry when full.
  void insert(const CacheKey& key, net::BaseInfo info);
  /// insert() of the value `id` of this cache's table, which the caller
  /// holds a reference to: no intern probe (the warm-up's bulk path).
  void insert(RemoteBases::Id id);

  /// Eagerly drop all entries of a shared object (it was deallocated).
  void invalidate_handle(std::uint64_t handle);

  /// Drop all entries pointing at `node` (it was declared dead by the
  /// failure detector: its base addresses are meaningless now and an
  /// RDMA tier hit against them must never happen again).
  void invalidate_node(NodeId node);

  /// Drop one entry (e.g. an RDMA NAK revealed the target unpinned it).
  void invalidate(const CacheKey& key);

  /// Drop every entry in one pass, counting no invalidation; the index
  /// keeps its slots (a warm-up replacing the whole cache).
  void clear() noexcept;

  std::size_t size() const noexcept { return index_.size(); }
  std::size_t max_entries() const noexcept { return max_entries_; }
  /// Bytes of the index's slot array (0 before the first insert).
  std::size_t index_bytes() const noexcept { return index_.slot_bytes(); }
  /// Bytes this cache keeps on the heap: its entry array (12 bytes an
  /// entry) and its index. The values live once in the shared table.
  std::size_t host_bytes() const noexcept {
    return entries_.capacity() * sizeof(Entry) + index_bytes();
  }
  const AddressCacheStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    RemoteBases::Id value = 0;
    std::uint32_t newer = kNil;  ///< toward the most recently used end
    std::uint32_t older = kNil;  ///< toward the LRU end; free-list link
  };

  const RemoteBase& value_of(std::uint32_t e) const noexcept {
    return bases_->value(entries_[e].value);
  }
  /// Release the reference of every entry on the LRU list.
  void release_all() noexcept;
  void unlink(std::uint32_t e) noexcept;
  void push_front(std::uint32_t e) noexcept;
  /// Make `e` the most recently used entry.
  void touch(std::uint32_t e) noexcept;
  /// Make `id`, whose reference the cache now owns, the most recently
  /// used value of its key; `e` is the key's entry, or npos.
  void place(std::uint32_t e, RemoteBases::Id id);
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
      return value_of(e).key;
    };
  }

  using Index = FlatIndex<CacheKey, CacheKeyHash>;

  std::size_t max_entries_;
  RemoteBases* bases_;
  Index index_;
  std::vector<Entry> entries_;
  std::uint32_t mru_ = kNil;
  std::uint32_t lru_ = kNil;
  std::uint32_t free_ = kNil;
  AddressCacheStats stats_;
};

}  // namespace xlupc::core
