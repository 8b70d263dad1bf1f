// Differential test of Runtime::warm_address_cache. The runtime inserts
// only the keys that survive LRU eviction; this file keeps the original
// O(nodes²) loop, which inserts every (home, chunk) key into every other
// node's cache, as the reference. Two twin runtimes run the same program,
// one warmed each way, and must end with caches that hold the same keys
// with the same base addresses in the same LRU order.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/runtime.h"
#include "mem/pinned_table.h"
#include "net/machine_registry.h"

namespace xlupc::core {
namespace {

using sim::Task;

// The original warm-up, driven through the public accessors.
void reference_warm(Runtime& rt, const ArrayDesc& a) {
  if (!rt.config().cache.enabled) return;
  const std::uint64_t handle = a.handle.pack();
  for (NodeId target = 0; target < rt.nodes(); ++target) {
    const svd::ControlBlock* cb = rt.directory(target).find(a.handle);
    if (cb == nullptr || cb->local_base == kNullAddr || cb->local_bytes == 0) {
      continue;
    }
    const mem::PinResult pr =
        rt.pinned(target).pin(cb->local_base, cb->local_bytes);
    if (!pr.ok) continue;
    const std::uint32_t chunks =
        rt.config().pin_strategy == mem::PinStrategy::kChunked
            ? static_cast<std::uint32_t>(
                  (cb->local_bytes + mem::kPinChunkBytes - 1) /
                  mem::kPinChunkBytes)
            : 1;
    for (NodeId init = 0; init < rt.nodes(); ++init) {
      if (init == target) continue;
      for (std::uint32_t c = 0; c < chunks; ++c) {
        rt.cache(init).insert(CacheKey{handle, target, c},
                              net::BaseInfo{cb->local_base, pr.key});
      }
    }
  }
  for (NodeId n = 0; n < rt.nodes(); ++n) rt.cache(n).reset_stats();
}

struct Scenario {
  std::uint32_t nodes = 8;
  std::uint32_t threads_per_node = 1;
  std::size_t max_entries = 100;
  bool full_table = false;
  mem::PinStrategy pin = mem::PinStrategy::kGreedy;
  std::uint64_t bytes_per_thread = 64;
  bool small_second_array = false;  // homed on three threads only
  bool traffic = false;  // remote reads of the first array fill the caches
  bool warm_first_array = true;  // false: warm only the second array
};

struct Warmed {
  std::unique_ptr<Runtime> rt;
  std::vector<ArrayDesc> arrays;
};

Warmed build(const Scenario& sc, bool reference) {
  RuntimeConfig cfg;
  cfg.platform = net::make_machine("gm");
  cfg.nodes = sc.nodes;
  cfg.threads_per_node = sc.threads_per_node;
  cfg.cache.max_entries = sc.max_entries;
  cfg.cache.full_table = sc.full_table;
  cfg.pin_strategy = sc.pin;
  Warmed w{std::make_unique<Runtime>(std::move(cfg)), {}};
  Runtime& rt = *w.rt;
  rt.run([&](UpcThread& th) -> Task<void> {
    const std::uint64_t block = sc.bytes_per_thread / 8;
    const std::uint64_t elems = block * rt.threads();
    const ArrayDesc a = co_await th.all_alloc(elems, 8, block);
    ArrayDesc b;
    if (sc.small_second_array) b = co_await th.all_alloc(3, 8, 1);
    co_await th.barrier();
    if (sc.traffic) {
      for (int i = 0; i < 16; ++i) {
        (void)co_await th.read<std::uint64_t>(a, th.rng().below(elems));
      }
    }
    co_await th.barrier();
    if (th.id() == 0) {
      w.arrays.push_back(a);
      if (b.valid()) w.arrays.push_back(b);
    }
  });
  for (const ArrayDesc& a : w.arrays) {
    if (&a == &w.arrays.front() && !sc.warm_first_array) continue;
    if (reference) {
      reference_warm(rt, a);
    } else {
      rt.warm_address_cache(a);
    }
  }
  return w;
}

// Every key warm-up or traffic could have cached, plus one chunk beyond
// the largest piece.
std::vector<CacheKey> candidate_keys(const Scenario& sc,
                                     const std::vector<ArrayDesc>& arrays) {
  const std::uint64_t piece = sc.bytes_per_thread * sc.threads_per_node;
  const auto chunks = static_cast<std::uint32_t>(
      (piece + mem::kPinChunkBytes - 1) / mem::kPinChunkBytes);
  std::vector<CacheKey> keys;
  for (const ArrayDesc& a : arrays) {
    for (NodeId n = 0; n < sc.nodes; ++n) {
      for (std::uint32_t c = 0; c <= chunks; ++c) {
        keys.push_back(CacheKey{a.handle.pack(), n, c});
      }
    }
  }
  return keys;
}

CacheKey fresh_key(std::uint32_t i) {
  return CacheKey{0xf00dull << 32, 0, i};
}

// For every m up to the largest cache, warm a fresh pair of twins, insert
// m fresh keys into every cache, and compare what survives. The surviving
// sets for m = 0, 1, 2, ... pin the whole LRU order, not only the
// membership; a lookup pass would reorder the cache, hence the rebuild.
void expect_twins_agree(const Scenario& sc) {
  std::size_t largest = 0;
  {
    const Warmed fast = build(sc, false);
    const Warmed ref = build(sc, true);
    for (NodeId n = 0; n < sc.nodes; ++n) {
      ASSERT_EQ(fast.rt->cache(n).size(), ref.rt->cache(n).size())
          << "node " << n;
      EXPECT_GT(fast.rt->cache(n).size(), 0u) << "node " << n;
      largest = std::max(largest, ref.rt->cache(n).size());
    }
  }
  for (std::uint32_t m = 0; m <= largest; ++m) {
    Warmed fast = build(sc, false);
    Warmed ref = build(sc, true);
    const std::vector<CacheKey> keys = candidate_keys(sc, ref.arrays);
    for (NodeId n = 0; n < sc.nodes; ++n) {
      AddressCache& fc = fast.rt->cache(n);
      AddressCache& rc = ref.rt->cache(n);
      EXPECT_EQ(fc.stats().insertions, 0u);  // warm-up resets the stats
      for (std::uint32_t i = 0; i < m; ++i) {
        fc.insert(fresh_key(i), net::BaseInfo{});
        rc.insert(fresh_key(i), net::BaseInfo{});
      }
      EXPECT_EQ(fc.stats().evictions, rc.stats().evictions)
          << "node " << n << " after " << m << " fresh keys";
      for (const CacheKey& k : keys) {
        const auto f = fc.lookup(k);
        const auto r = rc.lookup(k);
        ASSERT_EQ(f.has_value(), r.has_value())
            << "node " << n << " after " << m << " fresh keys: key (node "
            << k.node << ", chunk " << k.chunk << ")";
        if (r) {
          EXPECT_EQ(f->base, r->base);
          EXPECT_EQ(f->key, r->key);
        }
      }
    }
  }
}

TEST(WarmAddressCache, GreedyCapacityBelowPeerCount) {
  Scenario sc;
  sc.nodes = 8;
  sc.max_entries = 3;
  expect_twins_agree(sc);
}

TEST(WarmAddressCache, GreedyCapacityAbovePeerCount) {
  Scenario sc;
  sc.nodes = 5;
  sc.threads_per_node = 2;
  sc.max_entries = 10;
  expect_twins_agree(sc);
}

TEST(WarmAddressCache, ChunkedPinningWithMultiChunkPieces) {
  // 2.5 MB pieces pin as three 1 MB chunks, and a 5-entry cache keeps
  // the last home's three chunks plus two of the previous home's.
  Scenario sc;
  sc.nodes = 5;
  sc.max_entries = 5;
  sc.pin = mem::PinStrategy::kChunked;
  sc.bytes_per_thread = 5 * mem::kPinChunkBytes / 2;
  expect_twins_agree(sc);
}

TEST(WarmAddressCache, FullTableGetsEveryKey) {
  Scenario sc;
  sc.nodes = 6;
  sc.threads_per_node = 2;
  sc.full_table = true;  // unbounded: every initiator keeps every key
  sc.small_second_array = true;
  expect_twins_agree(sc);
}

TEST(WarmAddressCache, TwoArraysWarmedBackToBack) {
  // The second array is homed on three nodes only, so its key sequence
  // is shorter than the cache and the first array's newest keys survive.
  Scenario sc;
  sc.nodes = 8;
  sc.max_entries = 5;
  sc.small_second_array = true;
  expect_twins_agree(sc);
}

TEST(WarmAddressCache, WarmUpAfterTrafficFilledTheCache) {
  Scenario sc;
  sc.nodes = 8;
  sc.threads_per_node = 2;
  sc.max_entries = 4;
  sc.traffic = true;
  sc.small_second_array = true;
  // The first array's seven keys replace whatever the reads cached.
  expect_twins_agree(sc);
  // The second array's keys are fewer than the capacity, so the newest
  // keys the reads cached survive, in their LRU order.
  sc.warm_first_array = false;
  expect_twins_agree(sc);
}

}  // namespace
}  // namespace xlupc::core
