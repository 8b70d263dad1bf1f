// Tests for the remote address cache — the paper's core data structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "core/address_cache.h"
#include "sim/rng.h"
#include "svd/handle.h"

namespace xlupc::core {
namespace {

net::BaseInfo info(Addr base) { return net::BaseInfo{base, base ^ 0xabc}; }

TEST(AddressCache, MissThenInsertThenHit) {
  RemoteBases bases;
  AddressCache cache(bases, 100);
  const CacheKey key{42, 3, 0};
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, info(0x1000));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->base, 0x1000u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(AddressCache, KeysDistinguishHandleNodeAndChunk) {
  RemoteBases bases;
  AddressCache cache(bases, 100);
  cache.insert(CacheKey{1, 1, 0}, info(0x10));
  cache.insert(CacheKey{1, 2, 0}, info(0x20));
  cache.insert(CacheKey{2, 1, 0}, info(0x30));
  cache.insert(CacheKey{1, 1, 1}, info(0x40));
  EXPECT_EQ(cache.lookup(CacheKey{1, 1, 0})->base, 0x10u);
  EXPECT_EQ(cache.lookup(CacheKey{1, 2, 0})->base, 0x20u);
  EXPECT_EQ(cache.lookup(CacheKey{2, 1, 0})->base, 0x30u);
  EXPECT_EQ(cache.lookup(CacheKey{1, 1, 1})->base, 0x40u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(AddressCache, GrowsOnDemandUpToLimitThenEvictsLru) {
  // Sec. 4.5: dynamic hash table growing on demand to a fixed limit.
  RemoteBases bases;
  AddressCache cache(bases, 3);
  for (std::uint64_t h = 0; h < 3; ++h) {
    cache.insert(CacheKey{h, 0, 0}, info(h));
  }
  EXPECT_EQ(cache.size(), 3u);
  // Touch key 0 so key 1 is the LRU victim.
  cache.lookup(CacheKey{0, 0, 0});
  cache.insert(CacheKey{9, 0, 0}, info(9));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.lookup(CacheKey{0, 0, 0}).has_value());
  EXPECT_FALSE(cache.lookup(CacheKey{1, 0, 0}).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(CacheKey{9, 0, 0}).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(AddressCache, ReinsertRefreshesValueWithoutGrowth) {
  RemoteBases bases;
  AddressCache cache(bases, 2);
  cache.insert(CacheKey{1, 0, 0}, info(0x10));
  cache.insert(CacheKey{1, 0, 0}, info(0x99));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(CacheKey{1, 0, 0})->base, 0x99u);
}

TEST(AddressCache, InvalidateHandleDropsAllNodes) {
  // Eager invalidation when a shared object is deallocated (Sec. 3.1).
  RemoteBases bases;
  AddressCache cache(bases, 100);
  for (NodeId nd = 0; nd < 5; ++nd) {
    cache.insert(CacheKey{7, nd, 0}, info(nd));
    cache.insert(CacheKey{8, nd, 0}, info(nd));
  }
  cache.invalidate_handle(7);
  for (NodeId nd = 0; nd < 5; ++nd) {
    EXPECT_FALSE(cache.lookup(CacheKey{7, nd, 0}).has_value());
    EXPECT_TRUE(cache.lookup(CacheKey{8, nd, 0}).has_value());
  }
  EXPECT_EQ(cache.stats().invalidations, 5u);
}

TEST(AddressCache, InvalidateSingleEntry) {
  RemoteBases bases;
  AddressCache cache(bases, 100);
  cache.insert(CacheKey{1, 0, 0}, info(1));
  cache.insert(CacheKey{1, 1, 0}, info(2));
  cache.invalidate(CacheKey{1, 0, 0});
  EXPECT_FALSE(cache.lookup(CacheKey{1, 0, 0}).has_value());
  EXPECT_TRUE(cache.lookup(CacheKey{1, 1, 0}).has_value());
  EXPECT_NO_THROW(cache.invalidate(CacheKey{1, 0, 0}));  // idempotent
}

TEST(AddressCache, UnlimitedWhenMaxEntriesIsZero) {
  RemoteBases bases;
  AddressCache cache(bases, 0);
  for (std::uint64_t h = 0; h < 1000; ++h) {
    cache.insert(CacheKey{h, 0, 0}, info(h));
  }
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(AddressCache, PaperSizedIndexIsHalfAKiB) {
  // The index of a 100-entry cache is 128 four-byte slots: allocated at
  // the first insert, at most 0.8 full at the limit, never regrown.
  RemoteBases bases;
  AddressCache cache(bases, 100);
  EXPECT_EQ(cache.index_bytes(), 0u);
  for (std::uint64_t h = 0; h < 300; ++h) {
    cache.insert(CacheKey{h, 0, 0}, info(h));
    ASSERT_EQ(cache.index_bytes(), 512u) << "after " << h + 1 << " inserts";
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.stats().evictions, 200u);
}

TEST(AddressCache, PaperSizedCacheKeepsTwelveBytesAnEntry) {
  // At the paper's limit a cache keeps 100 entries of {value id, newer,
  // older} plus its 512-byte index; the values live in the shared table.
  RemoteBases bases;
  AddressCache cache(bases, 100);
  EXPECT_EQ(cache.host_bytes(), 0u);
  for (std::uint64_t h = 0; h < 300; ++h) {
    cache.insert(CacheKey{h, 0, 0}, info(h));
  }
  EXPECT_EQ(cache.host_bytes(), 100u * 12u + 512u);
  EXPECT_EQ(bases.size(), 100u);
}

TEST(AddressCache, FullPaperSizedCacheStaysCorrectAcrossEvictingInserts) {
  // 10^4 inserts of fresh keys through a full 100-entry cache: every
  // insert evicts, the 128-slot index is never regrown, and the cache
  // holds exactly its 100 most recent keys.
  RemoteBases bases;
  AddressCache cache(bases, 100);
  for (std::uint64_t h = 0; h < 10'000; ++h) {
    cache.insert(CacheKey{h, static_cast<NodeId>(h % 7), 0}, info(h));
    ASSERT_EQ(cache.index_bytes(), 512u);
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.stats().evictions, 9'900u);
  for (std::uint64_t h = 9'900; h < 10'000; ++h) {
    const auto got = cache.lookup(CacheKey{h, static_cast<NodeId>(h % 7), 0});
    ASSERT_TRUE(got.has_value()) << h;
    EXPECT_EQ(got->base, info(h).base);
  }
  EXPECT_FALSE(cache.lookup(CacheKey{9'899, 9'899 % 7, 0}).has_value());
  EXPECT_EQ(bases.size(), 100u);
}

// --- the shared table of remote bases -------------------------------------

TEST(RemoteBases, TwoCachesInsertingOneValueShareIt) {
  RemoteBases bases;
  AddressCache a(bases, 100);
  AddressCache b(bases, 100);
  const CacheKey key{42, 3, 0};
  a.insert(key, info(0x1000));
  b.insert(key, info(0x1000));
  EXPECT_EQ(bases.size(), 1u);
  EXPECT_EQ(bases.references(), 2u);
  const RemoteBases::Id id = bases.acquire({key, info(0x1000)});
  EXPECT_EQ(bases.size(), 1u);
  EXPECT_EQ(bases.references(), 3u);
  EXPECT_EQ(bases.value(id).info.base, 0x1000u);
  bases.release(id);
  // A refresh with the same base takes no second reference.
  a.insert(key, info(0x1000));
  EXPECT_EQ(bases.references(), 2u);
  EXPECT_EQ(a.stats().insertions, 1u);
}

TEST(RemoteBases, EvictingOrInvalidatingInOneCacheLeavesTheOther) {
  RemoteBases bases;
  AddressCache a(bases, 1);
  AddressCache b(bases, 100);
  const CacheKey key{7, 2, 0};
  const auto b_reads_it = [&] {
    const auto hit = b.lookup(key);
    return hit && hit->base == 0x70 && hit->key == info(0x70).key;
  };
  b.insert(key, info(0x70));
  a.insert(key, info(0x70));
  a.insert(CacheKey{8, 2, 0}, info(0x80));  // evicts `key` from a
  EXPECT_EQ(a.stats().evictions, 1u);
  EXPECT_TRUE(b_reads_it());
  a.insert(key, info(0x70));
  a.invalidate(key);
  EXPECT_TRUE(b_reads_it());
  a.insert(key, info(0x70));
  a.invalidate_handle(key.handle);
  EXPECT_TRUE(b_reads_it());
  a.insert(key, info(0x70));
  a.invalidate_node(key.node);
  EXPECT_TRUE(b_reads_it());
  EXPECT_EQ(bases.size(), 1u);
  EXPECT_EQ(bases.references(), 1u);
}

TEST(RemoteBases, ReinsertWithANewRkeyLeavesTheOtherCacheOnTheOldOne) {
  // The piece was re-pinned: one cache learns the new rkey, the other
  // keeps the old one until its RDMA NAKs.
  RemoteBases bases;
  AddressCache a(bases, 100);
  AddressCache b(bases, 100);
  const CacheKey key{5, 1, 0};
  a.insert(key, net::BaseInfo{0x500, 11});
  b.insert(key, net::BaseInfo{0x500, 11});
  a.insert(key, net::BaseInfo{0x500, 12});
  EXPECT_EQ(a.lookup(key)->key, 12u);
  EXPECT_EQ(b.lookup(key)->key, 11u);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(bases.size(), 2u);
  EXPECT_EQ(bases.references(), 2u);
  b.insert(key, net::BaseInfo{0x500, 12});
  EXPECT_EQ(bases.size(), 1u);
  EXPECT_EQ(bases.references(), 2u);
}

TEST(RemoteBases, InsertByIdTakesOneReferencePerCache) {
  // The warm-up path: the value is interned once and every cache takes
  // a reference to its id.
  RemoteBases bases;
  AddressCache a(bases, 2);
  AddressCache b(bases, 2);
  const CacheKey key{9, 4, 1};
  const RemoteBases::Id id = bases.acquire({key, info(0x90)});
  a.insert(id);
  b.insert(id);
  a.insert(id);
  EXPECT_EQ(bases.references(), 3u);
  bases.release(id);
  EXPECT_EQ(bases.references(), 2u);
  EXPECT_EQ(a.lookup(key)->base, 0x90u);
  EXPECT_EQ(a.stats().insertions, 1u);
  // A key's entry moves to the newer value, by id as by value.
  const RemoteBases::Id newer = bases.acquire({key, info(0x91)});
  a.insert(newer);
  bases.release(newer);
  EXPECT_EQ(a.lookup(key)->base, 0x91u);
  EXPECT_EQ(b.lookup(key)->base, 0x90u);
  EXPECT_EQ(bases.size(), 2u);
  EXPECT_EQ(bases.references(), 2u);
}

TEST(RemoteBases, MovedAndDestroyedCachesReleaseEachReferenceOnce) {
  RemoteBases bases;
  {
    // Growing the vector moves every cache, as Runtime's nodes_ would.
    std::vector<AddressCache> caches;
    for (std::uint32_t n = 0; n < 9; ++n) {
      caches.emplace_back(bases, 4);
      for (std::uint32_t i = 0; i <= n; ++i) {
        caches.back().insert(CacheKey{1, i, 0}, info(i));
      }
    }
    EXPECT_EQ(bases.size(), 9u);
    EXPECT_EQ(bases.references(), 1u + 2 + 3 + 4 + 4 + 4 + 4 + 4 + 4);
    AddressCache moved(std::move(caches[8]));
    EXPECT_EQ(caches[8].size(), 0u);
    EXPECT_EQ(moved.lookup(CacheKey{1, 8, 0})->base, 8u);
    caches[8].insert(CacheKey{1, 0, 0}, info(0));  // moved-from still works
    while (caches.size() > 2) caches.pop_back();
    EXPECT_EQ(bases.references(), 1u + 2 + 4);
    EXPECT_EQ(bases.unreferenced(), nullptr);
  }
  EXPECT_EQ(bases.size(), 0u);
  EXPECT_EQ(bases.references(), 0u);
  EXPECT_EQ(bases.unreferenced(), nullptr);
}

// FlatIndex keeps a 24-bit entry number in each slot: entry number
// 2^24 - 2 is the last that fits, and insert refuses the next one
// instead of wrapping into the tag.
TEST(FlatIndex, EntryNumbersPastTwentyFourBitsThrow) {
  using Index = FlatIndex<std::uint64_t>;
  auto key_of = [](std::uint32_t n) { return std::uint64_t{n} * 7; };
  constexpr std::uint32_t kLast = (1u << 24) - 2;
  Index index;
  index.insert(kLast, key_of);
  EXPECT_EQ(index.find(std::uint64_t{kLast} * 7, key_of), kLast);
  EXPECT_THROW(index.insert(kLast + 1, key_of), std::length_error);
  EXPECT_THROW(index.insert(Index::npos - 1, key_of), std::length_error);
  EXPECT_EQ(index.size(), 1u);
  index.erase(kLast, key_of);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find(std::uint64_t{kLast} * 7, key_of), Index::npos);
}

// The identity hash: a key's low bits pick its home slot and its top
// byte is its tag.
struct IdentityHash {
  std::size_t operator()(std::uint64_t k) const noexcept { return k; }
};

TEST(FlatIndex, MissInALongProbeRunReadsOnlyTagMatchingKeys) {
  // Twelve keys share home slot 5 of a 64-slot index, with tags 1 to 12,
  // so they form one probe run. A miss whose tag no member has reads no
  // key; a miss that shares member 7's tag reads that key alone; a hit
  // on the run's last member reads only its own key.
  using Index = FlatIndex<std::uint64_t, IdentityHash>;
  std::vector<std::uint64_t> keys;
  std::size_t reads = 0;
  auto key_of = [&keys, &reads](std::uint32_t n) {
    ++reads;
    return keys[n];
  };
  Index index;
  index.reserve_bounded(32, key_of);
  for (std::uint64_t tag = 1; tag <= 12; ++tag) {
    keys.push_back(tag << 56 | 5);
    index.insert(static_cast<std::uint32_t>(keys.size() - 1), key_of);
  }
  auto reads_to_find = [&](std::uint64_t key) {
    reads = 0;
    const std::uint32_t n = index.find(key, key_of);
    return std::pair(n, reads);
  };
  EXPECT_EQ(reads_to_find(std::uint64_t{200} << 56 | 5),
            std::pair(Index::npos, std::size_t{0}));
  EXPECT_EQ(reads_to_find(std::uint64_t{7} << 56 | 1 << 20 | 5),
            std::pair(Index::npos, std::size_t{1}));
  EXPECT_EQ(reads_to_find(keys.back()), std::pair(11u, std::size_t{1}));
}

TEST(FlatIndex, BoundedIndexAtLoadPointEightReadsOnlyTagMatchingKeys) {
  // reserve_bounded(100) gives the paper's cache its 128 slots (load
  // 0.78 when full) and fixes them: 10^4 evicting inserts (erase the
  // oldest member, insert a new one) never rehash, so each insert reads
  // only the keys its backward shift and probe move past, never all 100.
  // A miss whose tag no member carries reads no key at all, however long
  // its probe run at this load.
  using Index = FlatIndex<std::uint64_t>;
  std::vector<std::uint64_t> keys(100);
  std::size_t reads = 0;
  auto key_of = [&keys, &reads](std::uint32_t n) {
    ++reads;
    return keys[n];
  };
  const auto tag = [](std::uint64_t k) {
    return FlatHash<std::uint64_t>{}(k) >> 56;
  };
  Index index;
  index.reserve_bounded(100, key_of);
  EXPECT_EQ(index.slot_bytes(), 128u * 4u);
  std::uint64_t next = 1;
  for (std::uint32_t n = 0; n < 100; ++n) {
    keys[n] = next++;
    index.insert(n, key_of);
  }
  std::size_t most_reads = 0;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint32_t n = static_cast<std::uint32_t>(i % 100);
    reads = 0;
    index.erase(n, key_of);
    keys[n] = next++;
    index.insert(n, key_of);
    most_reads = std::max(most_reads, reads);
    ASSERT_EQ(index.slot_bytes(), 128u * 4u);
    ASSERT_EQ(index.size(), 100u);
  }
  EXPECT_LT(most_reads, 100u);
  // Every member is still found, reading its own key.
  for (std::uint32_t n = 0; n < 100; ++n) {
    ASSERT_EQ(index.find(keys[n], key_of), n);
  }
  // Misses whose hash tag no member carries.
  std::vector<bool> used(256, false);
  for (std::uint64_t k : keys) used[tag(k)] = true;
  int misses = 0;
  for (std::uint64_t k = next + 1'000'000; misses < 1'000; ++k) {
    if (used[tag(k)]) continue;
    reads = 0;
    ASSERT_EQ(index.find(k, key_of), Index::npos);
    ASSERT_EQ(reads, 0u) << k;
    ++misses;
  }
}

TEST(AddressCache, ResetStatsKeepsEntries) {
  RemoteBases bases;
  AddressCache cache(bases, 10);
  cache.insert(CacheKey{1, 0, 0}, info(1));
  cache.lookup(CacheKey{1, 0, 0});
  cache.reset_stats();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

// --- differential test against the node-based implementation -------------

// The address cache over node-based containers: an unordered_map of
// entries plus a std::list of keys in LRU order. It is the reference the
// random op streams below are checked against.
class ReferenceCache {
 public:
  explicit ReferenceCache(std::size_t max_entries)
      : max_entries_(max_entries) {}

  std::optional<net::BaseInfo> lookup(const CacheKey& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.info;
  }

  void insert(const CacheKey& key, net::BaseInfo info) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.info = info;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return;
    }
    if (max_entries_ != 0 && map_.size() >= max_entries_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{info, lru_.begin()});
    ++stats_.insertions;
  }

  void invalidate_handle(std::uint64_t handle) {
    drop_if([&](const CacheKey& k) { return k.handle == handle; });
  }
  void invalidate_node(NodeId node) {
    drop_if([&](const CacheKey& k) { return k.node == node; });
  }
  void invalidate(const CacheKey& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return;
    lru_.erase(it->second.lru_pos);
    map_.erase(it);
    ++stats_.invalidations;
  }

  std::size_t size() const { return map_.size(); }
  const AddressCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    net::BaseInfo info;
    std::list<CacheKey>::iterator lru_pos;
  };

  template <class Pred>
  void drop_if(Pred pred) {
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(it->first)) {
        lru_.erase(it->second.lru_pos);
        it = map_.erase(it);
        ++stats_.invalidations;
      } else {
        ++it;
      }
    }
  }

  std::size_t max_entries_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> map_;
  std::list<CacheKey> lru_;  // front = most recently used
  AddressCacheStats stats_;
};

// The key universe: 4 handles x 12 nodes x 3 chunks, so keys share
// handles, nodes and chunks and every invalidation form drops several
// entries.
constexpr std::uint32_t kKeys = 4 * 12 * 3;
CacheKey key_at(std::uint32_t i) {
  static const std::uint64_t handles[] = {
      svd::Handle{svd::kAllPartition, 0}.pack(),
      svd::Handle{svd::kAllPartition, 1}.pack(), svd::Handle{3, 0}.pack(),
      svd::Handle{7, 2}.pack()};
  return CacheKey{handles[i % 4], (i / 4) % 12, i / 48};
}

void expect_same_stats(const AddressCacheStats& got,
                       const AddressCacheStats& want, const std::string& at) {
  EXPECT_EQ(got.hits, want.hits) << at;
  EXPECT_EQ(got.misses, want.misses) << at;
  EXPECT_EQ(got.insertions, want.insertions) << at;
  EXPECT_EQ(got.evictions, want.evictions) << at;
  EXPECT_EQ(got.invalidations, want.invalidations) << at;
}

struct CachePair {
  AddressCache cache;
  ReferenceCache ref;
};

// Run `ops` seeded random operations over `keys` on both caches,
// comparing every result, size() and every statistic after each one.
void run_stream(CachePair& p, std::uint64_t seed, int ops,
                const std::vector<CacheKey>& keys) {
  sim::Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const std::string at = "seed " + std::to_string(seed) + " op " +
                           std::to_string(i);
    const CacheKey key = keys[rng.below(keys.size())];
    const std::uint64_t op = rng.below(100);
    if (op < 45) {
      const auto got = p.cache.lookup(key);
      const auto want = p.ref.lookup(key);
      ASSERT_EQ(got.has_value(), want.has_value()) << at;
      if (want) {
        EXPECT_EQ(got->base, want->base) << at;
        EXPECT_EQ(got->key, want->key) << at;
      }
    } else if (op < 85) {
      const net::BaseInfo info{0x1000 + rng.below(1u << 20), rng.next_u64()};
      p.cache.insert(key, info);
      p.ref.insert(key, info);
    } else if (op < 93) {
      p.cache.invalidate(key);
      p.ref.invalidate(key);
    } else if (op < 97) {
      p.cache.invalidate_handle(key.handle);
      p.ref.invalidate_handle(key.handle);
    } else {
      p.cache.invalidate_node(key.node);
      p.ref.invalidate_node(key.node);
    }
    ASSERT_EQ(p.cache.size(), p.ref.size()) << at;
    expect_same_stats(p.cache.stats(), p.ref.stats(), at);
    if (::testing::Test::HasFailure()) return;
  }
}

/// run_stream over the whole key universe.
void run_stream(CachePair& p, std::uint64_t seed, int ops) {
  std::vector<CacheKey> keys;
  for (std::uint32_t i = 0; i < kKeys; ++i) keys.push_back(key_at(i));
  run_stream(p, seed, ops, keys);
}

/// Expect both caches to agree on the presence of every key in `keys`.
void expect_same_members(CachePair& p, const std::vector<CacheKey>& keys) {
  for (const CacheKey& k : keys) {
    const auto got = p.cache.lookup(k);
    const auto want = p.ref.lookup(k);
    ASSERT_EQ(got.has_value(), want.has_value())
        << "handle " << k.handle << " node " << k.node << " chunk "
        << k.chunk;
    if (want) {
      EXPECT_EQ(got->base, want->base);
    }
  }
}

TEST(AddressCacheDifferential, MatchesListAndMapReference) {
  constexpr int kOps = 4000;
  for (const std::size_t capacity : {0u, 1u, 3u, 100u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                   std::to_string(seed));
      const std::uint64_t stream = seed * 1000 + capacity;
      std::size_t final_size = 0;
      {
        RemoteBases bases;
        CachePair p{AddressCache(bases, capacity), ReferenceCache(capacity)};
        run_stream(p, stream, kOps);
        if (HasFailure()) return;
        final_size = p.ref.size();
      }
      // Pin the final LRU order without reading it: replay the stream,
      // insert m fresh keys (each evicts the oldest entry when full), and
      // see which keys survive. The survivors for m = 0, 1, 2, ... fix the
      // whole order; a lookup pass reorders the cache, hence the replay.
      for (std::size_t m = 0; m <= final_size; ++m) {
        RemoteBases bases;
        CachePair p{AddressCache(bases, capacity), ReferenceCache(capacity)};
        run_stream(p, stream, kOps);
        for (std::uint32_t i = 0; i < m; ++i) {
          const CacheKey fresh{0xf00dull << 32, 0, i};
          p.cache.insert(fresh, net::BaseInfo{});
          p.ref.insert(fresh, net::BaseInfo{});
        }
        for (std::uint32_t i = 0; i < kKeys; ++i) {
          const CacheKey k = key_at(i);
          ASSERT_EQ(p.cache.lookup(k).has_value(), p.ref.lookup(k).has_value())
              << "after " << m << " fresh keys: handle " << k.handle
              << " node " << k.node << " chunk " << k.chunk;
        }
        expect_same_stats(p.cache.stats(), p.ref.stats(),
                          "after " + std::to_string(m) + " fresh keys");
      }
    }
  }
}

// Full-table resolution (max_entries 0) over 6,000 distinct keys: the
// index doubles from 8 to 16,384 slots while lookups, refreshes and all
// three invalidation forms run against the reference.
TEST(AddressCacheDifferential, UnboundedIndexGrowsThroughManyDoublings) {
  RemoteBases bases;
  CachePair p{AddressCache(bases, 0), ReferenceCache(0)};
  sim::Rng rng(17);
  std::vector<CacheKey> keys;
  for (std::uint32_t i = 0; i < 6000; ++i) {
    const std::string at = "key " + std::to_string(i);
    keys.push_back(CacheKey{(0x5eedull << 32) + i / 16, i % 16, 0});
    p.cache.insert(keys.back(), info(i));
    p.ref.insert(keys.back(), info(i));
    const CacheKey& old = keys[rng.below(keys.size())];
    const std::uint64_t op = rng.below(1000);
    if (op < 500) {
      ASSERT_EQ(p.cache.lookup(old).has_value(), p.ref.lookup(old).has_value())
          << at;
    } else if (op < 650) {
      p.cache.insert(old, info(op));
      p.ref.insert(old, info(op));
    } else if (op < 700) {
      p.cache.invalidate(old);
      p.ref.invalidate(old);
    } else if (op < 701) {
      p.cache.invalidate_node(old.node);
      p.ref.invalidate_node(old.node);
    } else if (op < 703) {
      p.cache.invalidate_handle(old.handle);
      p.ref.invalidate_handle(old.handle);
    }
    ASSERT_EQ(p.cache.size(), p.ref.size()) << at;
    expect_same_stats(p.cache.stats(), p.ref.stats(), at);
    if (HasFailure()) return;
  }
  EXPECT_GT(p.cache.size(), 4096u);
  EXPECT_EQ(p.cache.index_bytes(), 16384 * sizeof(std::uint32_t));
  expect_same_members(p, keys);
}

// Keys whose hash sends them to the last two or first two slots of a
// 256-slot index (a 100-entry cache's) or of a 128-slot one (a 64-entry
// cache's): their probe runs are long and wrap around the table's end.
std::vector<CacheKey> colliding_keys(std::size_t n) {
  std::vector<CacheKey> keys;
  for (std::uint32_t i = 0; keys.size() < n; ++i) {
    const CacheKey k{key_at(i % 4).handle, (i / 4) % 64, i / 256};
    if (((CacheKeyHash{}(k) + 2) & 255) < 4) keys.push_back(k);
  }
  return keys;
}

TEST(AddressCacheDifferential, InvalidationInsideLongProbeRuns) {
  // 80 keys share four home slots, so the index holds them in one run;
  // every invalidation (and, at 64 entries, every eviction) opens a hole
  // inside it that the backward shift must close, across the wrap.
  const std::vector<CacheKey> keys = colliding_keys(80);
  for (const std::size_t capacity : {100u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                   std::to_string(seed));
      RemoteBases bases;
      CachePair p{AddressCache(bases, capacity), ReferenceCache(capacity)};
      run_stream(p, seed * 7919 + capacity, 6000, keys);
      if (HasFailure()) return;
      expect_same_members(p, keys);
    }
  }
}

// The paper's key working-set property (Fig. 8a): with uniform random
// accesses over k distinct keys and an LRU cache of S entries, the
// steady-state hit rate is ~ S/k when S < k and ~1 when S >= k.
struct HitRateCase {
  std::size_t cache_size;
  std::uint64_t working_set;
};

class LruHitRateProperty : public ::testing::TestWithParam<HitRateCase> {};

TEST_P(LruHitRateProperty, UniformRandomHitRateTracksSizeRatio) {
  const auto& c = GetParam();
  RemoteBases bases;
  AddressCache cache(bases, c.cache_size);
  sim::Rng rng(c.cache_size * 977 + c.working_set);
  // Warm.
  for (std::uint64_t k = 0; k < c.working_set; ++k) {
    cache.insert(CacheKey{k, 0, 0}, info(k));
  }
  cache.reset_stats();
  for (int i = 0; i < 20000; ++i) {
    const CacheKey key{rng.below(c.working_set), 0, 0};
    if (!cache.lookup(key)) cache.insert(key, info(key.handle));
  }
  const double expected =
      c.cache_size >= c.working_set
          ? 1.0
          : static_cast<double>(c.cache_size) /
                static_cast<double>(c.working_set);
  EXPECT_NEAR(cache.stats().hit_rate(), expected, 0.06);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LruHitRateProperty,
    ::testing::Values(HitRateCase{4, 32}, HitRateCase{10, 32},
                      HitRateCase{100, 32}, HitRateCase{4, 512},
                      HitRateCase{10, 512}, HitRateCase{100, 512},
                      HitRateCase{100, 64}, HitRateCase{100, 100}));

}  // namespace
}  // namespace xlupc::core
