// End-to-end tests of the XLUPC-style runtime: allocation, data movement
// over every path (local / shared-memory / AM / RDMA), address-cache
// population and invalidation, fences, barriers, locks, NAK fallback and
// determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/runtime.h"
#include "core/shared_array.h"

namespace xlupc::core {
namespace {

using sim::Task;

RuntimeConfig gm_config(std::uint32_t nodes, std::uint32_t tpn,
                        bool cache = true) {
  RuntimeConfig cfg;
  cfg.platform = net::mare_nostrum_gm();
  cfg.nodes = nodes;
  cfg.threads_per_node = tpn;
  cfg.cache.enabled = cache;
  return cfg;
}

RuntimeConfig lapi_config(std::uint32_t nodes, std::uint32_t tpn,
                          bool cache = true) {
  RuntimeConfig cfg;
  cfg.platform = net::power5_lapi();
  cfg.nodes = nodes;
  cfg.threads_per_node = tpn;
  cfg.cache.enabled = cache;
  return cfg;
}

TEST(Runtime, ConfigValidation) {
  EXPECT_THROW(Runtime(gm_config(0, 1)), std::invalid_argument);
  auto cfg = gm_config(2, 5);  // MareNostrum blades have 4 cores
  EXPECT_THROW(Runtime rt(std::move(cfg)), std::invalid_argument);
}

TEST(Runtime, AllAllocGivesSameHandleEverywhere) {
  Runtime rt(gm_config(4, 2));
  std::vector<svd::Handle> handles(rt.threads());
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(64, 8);
    handles[th.id()] = a.handle;
    co_await th.barrier();
  });
  for (const auto& h : handles) {
    EXPECT_EQ(h, handles[0]);
    EXPECT_TRUE(h.is_all());
  }
  // Every node replica holds the control block with a local address.
  for (NodeId n = 0; n < 4; ++n) {
    const auto* cb = rt.directory(n).find(handles[0]);
    ASSERT_NE(cb, nullptr);
    EXPECT_NE(cb->local_base, kNullAddr);
  }
}

TEST(Runtime, SameArrayHasDifferentLocalAddressPerNode) {
  // The Fig. 2 property that motivates the whole design.
  Runtime rt(gm_config(4, 1));
  svd::Handle handle;
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(64, 8);
    handle = a.handle;
    co_await th.barrier();
  });
  std::set<Addr> bases;
  for (NodeId n = 0; n < 4; ++n) {
    bases.insert(rt.directory(n).find(handle)->local_base);
  }
  EXPECT_EQ(bases.size(), 4u);
}

TEST(Runtime, GetPutRoundTripAllPaths) {
  Runtime rt(gm_config(2, 2));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(64, 8);  // default block: 8 per thread
    co_await th.barrier();
    // Each thread writes every element it can reach: same-thread, same
    // node and remote slots all get distinct values from thread 0.
    if (th.id() == 0) {
      for (std::uint64_t i = 0; i < 64; ++i) {
        co_await th.write<std::uint64_t>(a, i, 1000 + i);
      }
      for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(co_await th.read<std::uint64_t>(a, i), 1000 + i);
      }
    }
    co_await th.barrier();
    // Every thread verifies every element (reads over all paths).
    for (std::uint64_t i = 0; i < 64; ++i) {
      EXPECT_EQ(co_await th.read<std::uint64_t>(a, i), 1000 + i);
    }
    co_await th.barrier();
  });
  const auto& c = rt.counters();
  EXPECT_GT(c.local_gets + c.shm_gets, 0u);
  EXPECT_GT(c.am_gets + c.rdma_gets, 0u);
  EXPECT_EQ(c.rdma_naks, 0u);  // greedy pinning: a hit is always valid
}

TEST(Runtime, CachePopulatesViaGetPiggyback) {
  Runtime rt(gm_config(2, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      (void)co_await th.read<std::uint64_t>(a, 8);   // miss -> AM + piggyback
      (void)co_await th.read<std::uint64_t>(a, 9);   // hit -> RDMA
      (void)co_await th.read<std::uint64_t>(a, 10);  // hit -> RDMA
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().am_gets, 1u);
  EXPECT_EQ(rt.counters().rdma_gets, 2u);
  EXPECT_EQ(rt.cache(0).stats().hits, 2u);
  EXPECT_EQ(rt.cache(0).stats().misses, 1u);
  // The target node pinned the whole piece (greedy, Sec. 3.1).
  EXPECT_GT(rt.pinned(1).pinned_bytes(), 0u);
}

TEST(Runtime, CacheDisabledAlwaysUsesAmPath) {
  Runtime rt(gm_config(2, 1, /*cache=*/false));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      for (int i = 0; i < 5; ++i) {
        (void)co_await th.read<std::uint64_t>(a, 8 + i);
      }
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().am_gets, 5u);
  EXPECT_EQ(rt.counters().rdma_gets, 0u);
  EXPECT_EQ(rt.pinned(1).pinned_bytes(), 0u);  // no want_base, no pinning
}

TEST(Runtime, PutAckPopulatesCacheOnGm) {
  Runtime rt(gm_config(2, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      co_await th.write<std::uint64_t>(a, 8, 1);
      co_await th.fence();  // wait for the ACK that carries the base
      co_await th.write<std::uint64_t>(a, 9, 2);
      co_await th.fence();
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().am_puts, 1u);
  EXPECT_EQ(rt.counters().rdma_puts, 1u);
}

TEST(Runtime, LapiPutCacheDisabledByDefault) {
  // Sec. 4.3: the authors disabled the address cache for PUT on LAPI.
  Runtime rt(lapi_config(2, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      for (int i = 0; i < 4; ++i) {
        co_await th.write<std::uint64_t>(a, 8 + i, i);
        co_await th.fence();
      }
      // GETs still use the cache on LAPI.
      (void)co_await th.read<std::uint64_t>(a, 8);
      (void)co_await th.read<std::uint64_t>(a, 9);
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().rdma_puts, 0u);
  EXPECT_EQ(rt.counters().am_puts, 4u);
  EXPECT_GT(rt.counters().rdma_gets, 0u);
}

TEST(Runtime, PutCacheOverrideEnablesLapiRdmaPut) {
  auto cfg = lapi_config(2, 1);
  cfg.cache.put_enabled = true;
  Runtime rt(std::move(cfg));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      co_await th.write<std::uint64_t>(a, 8, 1);
      co_await th.fence();
      co_await th.write<std::uint64_t>(a, 9, 2);
      co_await th.fence();
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().rdma_puts, 1u);
}

TEST(Runtime, MemgetSpansOwnershipBoundaries) {
  Runtime rt(gm_config(2, 2));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(40, 4, 3);  // block 3, wraps threads
    co_await th.barrier();
    if (th.id() == 0) {
      for (std::uint64_t i = 0; i < 40; ++i) {
        co_await th.write<std::uint32_t>(a, i, 100 + i);
      }
      co_await th.fence();
      std::vector<std::uint32_t> out(17);
      co_await th.memget(
          a, 5, std::as_writable_bytes(std::span(out.data(), out.size())));
      for (std::uint64_t k = 0; k < out.size(); ++k) {
        EXPECT_EQ(out[k], 105 + k);
      }
    }
    co_await th.barrier();
  });
}

TEST(Runtime, MemputSpansOwnershipBoundaries) {
  Runtime rt(gm_config(2, 2));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(40, 4, 3);
    co_await th.barrier();
    if (th.id() == 3) {
      std::vector<std::uint32_t> in(23);
      for (std::uint64_t k = 0; k < in.size(); ++k) {
        in[k] = 7000 + k;
      }
      co_await th.memput(a, 10,
                         std::as_bytes(std::span(in.data(), in.size())));
      co_await th.fence();
      for (std::uint64_t k = 0; k < in.size(); ++k) {
        EXPECT_EQ(co_await th.read<std::uint32_t>(a, 10 + k), 7000 + k);
      }
    }
    co_await th.barrier();
  });
}

TEST(Runtime, SpanCrossingBoundaryIsRejected) {
  Runtime rt(gm_config(2, 1));
  EXPECT_THROW(
      rt.run([&](UpcThread& th) -> Task<void> {
        auto a = co_await th.all_alloc(16, 8, 4);
        std::vector<std::byte> buf(8 * 8);  // 8 elements > block of 4
        co_await th.get(a, 0, buf);
      }),
      std::invalid_argument);
}

TEST(Runtime, LargeTransfersUseRendezvousAndStayCorrect) {
  Runtime rt(gm_config(2, 1));
  constexpr std::size_t kBig = 200 * 1024;  // above the 16 KB eager limit
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(2 * kBig, 1, kBig);
    co_await th.barrier();
    if (th.id() == 0) {
      std::vector<std::byte> out(kBig);
      std::vector<std::byte> pattern(kBig);
      for (std::size_t i = 0; i < kBig; ++i) {
        pattern[i] = static_cast<std::byte>(i * 31 + 7);
      }
      co_await th.put(a, kBig, pattern);
      co_await th.fence();
      co_await th.get(a, kBig, out);
      EXPECT_EQ(std::memcmp(out.data(), pattern.data(), kBig), 0);
    }
    co_await th.barrier();
  });
  EXPECT_GE(rt.transport().stats().rendezvous_puts, 1u);
}

TEST(Runtime, FreeInvalidatesCachesEverywhere) {
  Runtime rt(gm_config(3, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(30, 8, 10);
    co_await th.barrier();
    // Everyone reads a remote slot -> caches populated.
    (void)co_await th.read<std::uint64_t>(
        a, ((th.id() + 1) % 3) * 10);
    co_await th.barrier();
    if (th.id() == 0) {
      EXPECT_EQ(rt.cache(th.node()).size(), 1u);
      co_await th.free_array(a);  // eager invalidation (Sec. 3.1)
    }
    co_await th.barrier();
  });
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(rt.cache(n).size(), 0u) << "node " << n;
    EXPECT_EQ(rt.pinned(n).pinned_bytes(), 0u) << "node " << n;
    EXPECT_EQ(rt.memory(n).live_allocations(), 0u) << "node " << n;
  }
}

TEST(Runtime, GlobalAllocMaterializesPiecesEverywhere) {
  Runtime rt(gm_config(3, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    if (th.id() == 1) {
      auto a = co_await th.global_alloc(30, 8, 10);
      EXPECT_EQ(a.handle.partition, 1u);  // caller's partition
      // All remote pieces exist: write/read each piece.
      for (std::uint64_t i = 0; i < 30; i += 10) {
        co_await th.write<std::uint64_t>(a, i, 400 + i);
        EXPECT_EQ(co_await th.read<std::uint64_t>(a, i), 400 + i);
      }
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.memory(0).live_allocations(), 1u);
  EXPECT_EQ(rt.memory(2).live_allocations(), 1u);
}

TEST(Runtime, NakTriggersFallbackAndReinsertion) {
  Runtime rt(gm_config(2, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      (void)co_await th.read<std::uint64_t>(a, 8);  // populate cache + pin
      // Failure injection: the target silently unpins its piece (in the
      // real system this cannot happen under greedy pinning; the runtime
      // must recover via the NAK path).
      const auto* cb = rt.directory(1).find(a.handle);
      rt.pinned(1).unpin(cb->local_base, cb->local_bytes);
      const auto v = co_await th.read<std::uint64_t>(a, 8);  // NAK -> AM
      EXPECT_EQ(v, 0u);
      EXPECT_EQ(rt.counters().rdma_naks, 1u);
      // The fallback re-pinned and re-populated: next access is RDMA.
      (void)co_await th.read<std::uint64_t>(a, 8);
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().rdma_gets, 1u);  // the post-recovery access
  EXPECT_EQ(rt.counters().am_gets, 2u);    // initial miss + NAK fallback
}

TEST(Runtime, FenceWaitsForRemoteCompletion) {
  Runtime rt(gm_config(2, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      const sim::Time before = th.now();
      co_await th.write<std::uint64_t>(a, 8, 7);  // local completion only
      const sim::Time local = th.now();
      co_await th.fence();
      const sim::Time remote = th.now();
      EXPECT_GT(remote - before, local - before);
    }
    co_await th.barrier();
  });
}

TEST(Runtime, BarrierSynchronizesAllThreads) {
  Runtime rt(gm_config(2, 4));
  std::vector<sim::Time> release(8);
  rt.run([&](UpcThread& th) -> Task<void> {
    co_await th.compute(sim::us(static_cast<double>(th.id()) * 10));
    co_await th.barrier();
    release[th.id()] = th.now();
  });
  for (std::uint32_t t = 1; t < 8; ++t) {
    EXPECT_EQ(release[t], release[0]);
  }
}

TEST(Runtime, DeadlockIsDetected) {
  Runtime rt(gm_config(2, 1));
  EXPECT_THROW(rt.run([&](UpcThread& th) -> Task<void> {
                 if (th.id() == 0) co_await th.barrier();  // thread 1 skips
               }),
               std::runtime_error);
}

TEST(Runtime, DeadlockErrorCountsTheBlockedThreads) {
  // Threads 0 and 2 wait at a barrier that threads 1 and 3 never reach:
  // the queue drains with two thread bodies unfinished.
  Runtime rt(gm_config(2, 2));
  try {
    rt.run([&](UpcThread& th) -> Task<void> {
      if (th.id() % 2 == 0) co_await th.barrier();
    });
    FAIL() << "run() returned";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2 UPC thread(s) blocked"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(rt.live_threads(), 2u);
}

TEST(Runtime, ThreadThatReturnsHoldingACoreBreaksTheIdleResourceLaw) {
  // Thread 1 (node 0, core 1) acquires its core and returns without
  // releasing it: the queue drains with no thread blocked, and the
  // end-of-run check names the held core.
  Runtime rt(gm_config(2, 2));
  try {
    rt.run([&](UpcThread& th) -> Task<void> {
      if (th.id() == 1) {
        co_await rt.machine().core(th.node(), th.core()).acquire();
      }
    });
    FAIL() << "run() returned";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(b)"), std::string::npos) << what;
    EXPECT_NE(what.find("n0.core1 has 1 unit(s) in use"), std::string::npos)
        << what;
  }
}

TEST(Runtime, LeakedRemoteBaseReferenceBreaksTheCacheLaw) {
  // Remote reads fill the caches and the run ends clean; one reference
  // taken outside any cache then breaks the count at the next run's end.
  Runtime rt(gm_config(3, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(30, 8, 10);
    co_await th.barrier();
    (void)co_await th.read<std::uint64_t>(a, ((th.id() + 1) % 3) * 10);
    co_await th.barrier();
  });
  std::uint64_t entries = 0;
  for (NodeId n = 0; n < 3; ++n) entries += rt.cache(n).size();
  EXPECT_EQ(entries, 3u);
  EXPECT_EQ(rt.remote_bases().references(), entries);
  EXPECT_EQ(rt.remote_bases().size(), 3u);
  rt.remote_bases().acquire({CacheKey{1, 0, 0}, net::BaseInfo{0x10, 1}});
  try {
    rt.run([](UpcThread&) -> Task<void> { co_return; });
    FAIL() << "run() returned";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(a) the address caches hold 3 entries but the "
                        "remote-base table counts 4 references"),
              std::string::npos)
        << what;
  }
}

TEST(Runtime, OpLeftStagedBreaksTheInFlightOpLaw) {
  // A process thread 0 leaves behind issues a coalescible GET after every
  // body has ended and flushed its staging buffers: the queue drains with
  // the op still staged, no resource held, and the end-of-run check
  // names the thread.
  RuntimeConfig cfg = gm_config(2, 1);
  cfg.coalesce.threshold = 64;
  Runtime rt(cfg);
  std::uint64_t out = 0;
  try {
    rt.run([&](UpcThread& th) -> Task<void> {
      auto a = co_await th.all_alloc(2, 8, 1);
      co_await th.barrier();
      if (th.id() != 0) co_return;
      rt.simulator().spawn([](UpcThread& t, ArrayDesc arr,
                              std::uint64_t* dst) -> Task<void> {
        co_await t.simulator().delay(sim::us(100));
        (void)t.get_nb(arr, 1, std::as_writable_bytes(std::span(dst, 1)));
      }(th, a, &out));
    });
    FAIL() << "run() returned";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(c) UPC thread 0 has 1 nonblocking op(s) in flight "
                        "and 0 PUT remote completion(s) outstanding"),
              std::string::npos)
        << what;
  }
}

TEST(Runtime, FrameLeftSuspendedBreaksThePoolLaw) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // A process a thread body spawns parks on a trigger nobody fires: no
  // thread is blocked, so the run ends, but its frames outlive it.
  Runtime rt(gm_config(2, 1));
  sim::Trigger never(rt.simulator());
  try {
    rt.run([&](UpcThread& th) -> Task<void> {
      if (th.id() == 1) {
        rt.simulator().spawn(
            [](sim::Trigger& t) -> Task<void> { co_await t.wait(); }(never));
      }
      co_return;
    });
    FAIL() << "run() returned";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(d) the sim pool holds"), std::string::npos) << what;
    EXPECT_NE(what.find("when run() began"), std::string::npos) << what;
  }
}

TEST(Runtime, AbortedRunDestroysItsFramesBeforeWhatTheyPointTo) {
  // Thread 0 returns from a PUT to node 1 at local completion, leaving
  // the detached remote half in flight, and throws. By then thread 1
  // holds node 0's core 1 for a millisecond and threads 2 and 3 queue on
  // that core. The abort leaves every one of those frames suspended; the
  // Runtime's destructor destroys them while the threads, nodes,
  // transport and machine their waiters, hooks and locals point into
  // still exist: each suspended body's scope guard reads its thread and
  // the machine as it is destroyed (a use after free in the sanitizer
  // build otherwise), and no pool block outlives the Runtime.
  struct Guard {
    UpcThread* th;
    std::vector<std::uint64_t>* seen;
    ~Guard() {
      seen->push_back(th->id() * 100 +
                      th->runtime().machine().core(0, 1).queue_length() * 10 +
                      th->comm_stats().issued);
    }
  };
  std::vector<std::uint64_t> seen;
  const std::uint64_t blocks = sim::pool_stats().live_blocks;
  auto rt = std::make_unique<Runtime>(gm_config(2, 2));
  std::uint64_t v = 7;
  try {
    rt->run([&](UpcThread& th) -> Task<void> {
      auto a = co_await th.all_alloc(4, 8, 1);
      co_await th.barrier();
      if (th.id() == 0) {
        co_await th.put(a, 2, std::as_bytes(std::span(&v, 1)));
        throw std::runtime_error("abort");
      }
      const Guard guard{&th, &seen};
      co_await rt->machine().core(0, 1).use(th.id() == 1 ? sim::ms(1)
                                                         : sim::us(1));
    });
    FAIL() << "run() returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "abort");
  }
  EXPECT_EQ(rt->machine().core(0, 1).queue_length(), 2u);
  EXPECT_EQ(rt->thread(0).comm_stats().issued, 1u);
  // Three thread processes and the PUT's detached half are left.
  EXPECT_GE(rt->simulator().live_processes(), 4u);
  EXPECT_TRUE(seen.empty());
  rt.reset();
  // Threads 1-3 were destroyed in spawn order, with the queue as it was.
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{120, 220, 320}));
#ifndef __SANITIZE_ADDRESS__
  EXPECT_EQ(sim::pool_stats().live_blocks, blocks);
#endif
  (void)blocks;
}

// Live sim pool blocks 1 us into a scan in which every UPC thread of a
// 2 x 4 machine memgets 16 elements from the other node, through the
// throwing memget or through memget_status.
std::uint64_t blocks_during_remote_memget(bool throwing) {
  Runtime rt(gm_config(2, 4));
  std::uint64_t probed = 0;
  sim::Time probe_at = 0;
  std::vector<sim::Time> done(rt.threads());
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(128, 8, 8);
    std::vector<std::uint64_t> buf(16);
    co_await th.barrier();
    if (th.id() == 0) {
      probe_at = th.now() + sim::us(1);
      rt.simulator().spawn([](sim::Simulator& s, sim::Time at,
                              std::uint64_t& out) -> Task<void> {
        co_await s.delay(at - s.now());
        out = sim::pool_stats().live_blocks;
      }(rt.simulator(), probe_at, probed));
    }
    const std::uint64_t first = (th.id() + 4) % 8 * 8;
    const auto dst = std::as_writable_bytes(std::span(buf));
    if (throwing) {
      co_await th.memget(a, first, dst);
    } else {
      EXPECT_EQ(co_await th.memget_status(a, first, dst), OpStatus::kOk);
    }
    done[th.id()] = th.now();
    co_await th.barrier();
  });
  for (const sim::Time t : done) EXPECT_GT(t, probe_at);
  return probed;
}

TEST(Runtime, ThrowingMemgetHoldsAsManyBlocksAsItsStatusForm) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // The throwing form is a frameless Raising over the status form's
  // task, so a thread suspended in it keeps no adapter frame.
  const std::uint64_t status_form = blocks_during_remote_memget(false);
  EXPECT_EQ(blocks_during_remote_memget(true), status_form);
}

TEST(Runtime, BodyParkedOnATriggerHoldsItsDriverAndItsBody) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // A UPC thread parked on a frameless awaitable keeps two pool blocks:
  // the process frame Runtime::run starts for it and its body's frame.
  Runtime rt(gm_config(1, 1));
  sim::Trigger go(rt.simulator());
  std::uint64_t parked = 0;
  rt.simulator().spawn([](sim::Simulator& s, sim::Trigger& t,
                          std::uint64_t& out) -> Task<void> {
    co_await s.delay(sim::us(1));
    out = sim::pool_stats().live_blocks;
    t.fire();
  }(rt.simulator(), go, parked));
  const std::uint64_t before = sim::pool_stats().live_blocks;
  rt.run([&](UpcThread&) -> Task<void> { co_await go.wait(); });
  EXPECT_EQ(parked - before, 2u);
}

// Live sim pool blocks 1 ns into the remote GET that `op` makes from
// thread 0 of a 2 x 2 GM machine with the address cache off, while the
// GET's first request is on thread 0's core; every other thread has
// returned. Element t of the array lives on thread t, so elements 2 and
// 3 are on the other node, one piece each. The array comes from an
// earlier run, so none of its allocation's messages is in flight.
template <class Op>
std::uint64_t blocks_during_remote_get(Op op) {
  Runtime rt(gm_config(2, 2, /*cache=*/false));
  ArrayDesc a;
  rt.run([&](UpcThread& th) -> Task<void> {
    ArrayDesc d = co_await th.all_alloc(4, 8, 1);
    if (th.id() == 0) a = d;
  });
  const std::uint64_t before = sim::pool_stats().live_blocks;
  std::uint64_t during = 0;
  rt.run([&](UpcThread& th) -> Task<void> {
    if (th.id() != 0) co_return;
    rt.simulator().schedule_after(
        1, [&during] { during = sim::pool_stats().live_blocks; });
    co_await op(th, a);
  });
  return during - before;
}

TEST(Runtime, ThreadWaitingOnARemoteReadHoldsFourBlocks) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // Its driver, its body, the GET's span frame and its transport leg:
  // the typed read keeps no frame of its own.
  EXPECT_EQ(blocks_during_remote_get([](UpcThread& th, const ArrayDesc& a) {
              return th.read<std::uint64_t>(a, 2);
            }),
            4u);
}

TEST(Runtime, ThreadWaitingOnATwoPieceMemgetHoldsFourBlocks) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // The span frame walks the pieces itself, so a memget keeps the same
  // blocks as a one-element read: no splitter frame above the span.
  std::vector<std::uint64_t> buf(2);
  EXPECT_EQ(
      blocks_during_remote_get([&buf](UpcThread& th, const ArrayDesc& a) {
        return th.memget(a, 2, std::as_writable_bytes(std::span(buf)));
      }),
      4u);
}

// The words memget or memget_nb reads from elements 4..15 of a 4 x 1 GM
// machine's array, one 4-element piece on each of nodes 1, 2 and 3,
// after the failure detector has declared node 2 dead; `st` gets the
// op's status. Element i holds 1000 + i; unread words keep kUntouched.
constexpr std::uint64_t kUntouched = 0xdeadbeefull;

std::vector<std::uint64_t> memget_past_a_dead_owner(bool nonblocking,
                                                    OpStatus& st) {
  RuntimeConfig cfg = gm_config(4, 1);
  cfg.faults.seed = 13;
  cfg.faults.crashes = {{2, sim::us(800.0)}};
  Runtime rt(std::move(cfg));
  std::vector<std::uint64_t> buf(12, kUntouched);
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 4);
    for (std::uint64_t i = 4 * th.id(); i < 4 * th.id() + 4; ++i) {
      const std::uint64_t v = 1000 + i;
      rt.debug_write(a, i, std::as_bytes(std::span(&v, 1)));
    }
    co_await th.barrier();  // before the crash: the only barrier
    if (th.id() != 0) co_return;
    for (int i = 0; i < 200 && !rt.peer_failed(2); ++i) {
      co_await th.compute(sim::us(100.0));
    }
    EXPECT_TRUE(rt.peer_failed(2));
    const auto dst = std::as_writable_bytes(std::span(buf));
    if (nonblocking) {
      st = co_await th.wait_status(th.memget_nb(a, 4, dst));
    } else {
      st = co_await th.memget_status(a, 4, dst);
    }
  });
  return buf;
}

TEST(Runtime, MemgetStopsAtThePieceOfADeadOwner) {
  // The first piece is read, the dead owner's piece fails up front with
  // kPeerFailed (the circuit breaker), and the third is never asked for.
  for (const bool nonblocking : {false, true}) {
    OpStatus st = OpStatus::kOk;
    const std::vector<std::uint64_t> got =
        memget_past_a_dead_owner(nonblocking, st);
    EXPECT_EQ(st, OpStatus::kPeerFailed) << "nonblocking " << nonblocking;
    for (std::uint64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(got[i], 1004 + i) << "nonblocking " << nonblocking;
    }
    for (std::uint64_t i = 4; i < 12; ++i) {
      EXPECT_EQ(got[i], kUntouched) << "nonblocking " << nonblocking;
    }
  }
}

// The typed read and write are frameless awaitables that the op writes
// into or reads from, so they stay where they are made.
static_assert(!std::is_copy_constructible_v<Reading<std::uint64_t>>);
static_assert(!std::is_move_constructible_v<Reading<std::uint64_t>>);
static_assert(!std::is_copy_assignable_v<Reading<std::uint64_t>>);
static_assert(!std::is_move_assignable_v<Reading<std::uint64_t>>);
static_assert(!std::is_copy_constructible_v<Writing<std::uint64_t>>);
static_assert(!std::is_move_constructible_v<Writing<std::uint64_t>>);

TEST(Runtime, LocksProvideMutualExclusionAcrossNodes) {
  Runtime rt(gm_config(2, 2));
  int in_critical = 0;
  int max_in_critical = 0;
  std::vector<ThreadId> order;
  rt.run([&](UpcThread& th) -> Task<void> {
    static LockDesc lock;
    if (th.id() == 0) lock = co_await th.lock_alloc();
    co_await th.barrier();
    for (int round = 0; round < 3; ++round) {
      co_await th.lock(lock);
      max_in_critical = std::max(max_in_critical, ++in_critical);
      order.push_back(th.id());
      co_await th.compute(sim::us(5));
      --in_critical;
      co_await th.unlock(lock);
    }
    co_await th.barrier();
  });
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_EQ(order.size(), 12u);
}

TEST(Runtime, UnlockByNonHolderThrows) {
  Runtime rt(gm_config(1, 2));
  EXPECT_THROW(rt.run([&](UpcThread& th) -> Task<void> {
                 static LockDesc lock;
                 if (th.id() == 0) lock = co_await th.lock_alloc();
                 co_await th.barrier();
                 if (th.id() == 0) co_await th.lock(lock);
                 co_await th.barrier();
                 if (th.id() == 1) co_await th.unlock(lock);
                 co_await th.barrier();
               }),
               std::logic_error);
}

TEST(Runtime, TwoDArraysRoundTrip) {
  Runtime rt(gm_config(2, 2));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto grid = co_await SharedArray2D<double>::all_alloc(th, 8, 8, 4, 4);
    co_await th.barrier();
    if (th.id() == 0) {
      for (std::uint64_t r = 0; r < 8; ++r) {
        for (std::uint64_t c = 0; c < 8; ++c) {
          co_await grid.write(th, r, c, r * 10.0 + c);
        }
      }
      for (std::uint64_t r = 0; r < 8; ++r) {
        for (std::uint64_t c = 0; c < 8; ++c) {
          EXPECT_DOUBLE_EQ(co_await grid.read(th, r, c), r * 10.0 + c);
        }
      }
    }
    co_await th.barrier();
  });
}

TEST(Runtime, ChunkedPinningWorksEndToEnd) {
  auto cfg = gm_config(2, 1);
  cfg.pin_strategy = mem::PinStrategy::kChunked;
  Runtime rt(std::move(cfg));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(1 << 16, 8, 1 << 15);
    co_await th.barrier();
    if (th.id() == 0) {
      for (int i = 0; i < 8; ++i) {
        co_await th.write<std::uint64_t>(a, (1 << 15) + i * 100, i);
      }
      co_await th.fence();
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(co_await th.read<std::uint64_t>(a, (1 << 15) + i * 100),
                  static_cast<std::uint64_t>(i));
      }
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().rdma_naks, 0u);
  EXPECT_GT(rt.counters().rdma_gets, 0u);
}

TEST(Runtime, WarmCacheMakesFirstAccessRdma) {
  Runtime rt(gm_config(2, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      rt.warm_address_cache(a);
      (void)co_await th.read<std::uint64_t>(a, 8);
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().am_gets, 0u);
  EXPECT_EQ(rt.counters().rdma_gets, 1u);
}

TEST(Runtime, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Runtime rt(gm_config(2, 4));
    rt.run([&](UpcThread& th) -> Task<void> {
      auto a = co_await th.all_alloc(256, 8);
      co_await th.barrier();
      for (int i = 0; i < 20; ++i) {
        const auto idx = th.rng().below(256);
        co_await th.write<std::uint64_t>(a, idx, th.id());
        (void)co_await th.read<std::uint64_t>(a, th.rng().below(256));
      }
      co_await th.barrier();
    });
    return std::pair(rt.elapsed(), rt.simulator().events_executed());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Runtime, IntrinsicsMatchLayout) {
  Runtime rt(gm_config(2, 2));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(24, 4, 3);
    EXPECT_EQ(th.threadof(a, 0), 0u);
    EXPECT_EQ(th.threadof(a, 3), 1u);
    EXPECT_EQ(th.threadof(a, 12), 0u);
    EXPECT_EQ(th.phaseof(a, 4), 1u);
    EXPECT_EQ(th.nodeof(a, 6), 1u);  // thread 2 -> node 1
    co_await th.barrier();
  });
}

TEST(Runtime, SingleNodeHasNoNetworkTraffic) {
  Runtime rt(gm_config(1, 4));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(64, 8);
    co_await th.barrier();
    for (std::uint64_t i = 0; i < 64; ++i) {
      co_await th.write<std::uint64_t>(a, i, i);
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().am_puts + rt.counters().rdma_puts, 0u);
  EXPECT_EQ(rt.transport().stats().wire_bytes, 0u);
}

}  // namespace
}  // namespace xlupc::core
