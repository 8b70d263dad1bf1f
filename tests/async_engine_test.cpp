// Regression tests for the asynchronous communication engine
// (docs/COMM_ENGINE.md): the nonblocking surface (get_nb/put_nb/
// memget_nb/memput_nb + wait/wait_all), the CompletionEngine's handle
// lifecycle, and — most importantly — that the blocking calls, now thin
// issue+wait wrappers over the same CommOp path, are byte-identical in
// simulated time and tier counters to what they replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/runtime.h"
#include "net/params.h"

namespace xlupc::core {
namespace {

core::RuntimeConfig config(net::TransportKind kind, std::uint32_t nodes,
                           std::uint32_t tpn) {
  core::RuntimeConfig cfg;
  cfg.platform = net::preset(kind);
  cfg.nodes = nodes;
  cfg.threads_per_node = tpn;
  return cfg;
}

enum class Mode { kBlocking, kNonblocking };

struct OneOp {
  sim::Time done = 0;  ///< sim time when thread 0's access completed
  OpCounters counters;
  std::uint64_t value = 0;  ///< what the GET landed
};

// One 8-byte GET of `elem` by thread 0, either blocking or as
// get_nb+wait, from an otherwise identical run. Each thread's piece
// holds 8 elements pre-filled so the landed value checks data movement,
// not just completion.
OneOp run_one(core::RuntimeConfig cfg, Mode mode, std::uint64_t elem,
              bool warm) {
  core::Runtime rt(std::move(cfg));
  OneOp r;
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(8 * rt.threads(), 8, 8);
    const std::uint64_t fill = 1000 + th.id();
    std::vector<std::uint64_t> init(8, fill);
    rt.debug_write(a, th.id() * 8,
                   std::as_bytes(std::span(init.data(), init.size())));
    co_await th.barrier();
    if (th.id() == 0 && warm) rt.warm_address_cache(a);
    co_await th.barrier();
    if (th.id() == 0) {
      std::uint64_t v = 0;
      auto dst = std::as_writable_bytes(std::span(&v, 1));
      if (mode == Mode::kBlocking) {
        co_await th.get(a, elem, dst);
      } else {
        const OpHandle h = th.get_nb(a, elem, dst);
        co_await th.wait(h);
      }
      r.done = th.now();
      r.value = v;
    }
    co_await th.barrier();
  });
  r.counters = rt.counters();
  return r;
}

void expect_same_counters(const OpCounters& a, const OpCounters& b) {
  EXPECT_EQ(a.local_gets, b.local_gets);
  EXPECT_EQ(a.shm_gets, b.shm_gets);
  EXPECT_EQ(a.am_gets, b.am_gets);
  EXPECT_EQ(a.rdma_gets, b.rdma_gets);
  EXPECT_EQ(a.local_puts, b.local_puts);
  EXPECT_EQ(a.shm_puts, b.shm_puts);
  EXPECT_EQ(a.am_puts, b.am_puts);
  EXPECT_EQ(a.rdma_puts, b.rdma_puts);
  EXPECT_EQ(a.rdma_naks, b.rdma_naks);
}

// ------------------------------- blocking == get_nb + wait, per tier ---

TEST(AsyncEquivalence, LocalTier) {
  // elem 0 lives in thread 0's own piece.
  const OneOp b = run_one(config(net::TransportKind::kGm, 2, 1),
                          Mode::kBlocking, 0, false);
  const OneOp n = run_one(config(net::TransportKind::kGm, 2, 1),
                          Mode::kNonblocking, 0, false);
  EXPECT_EQ(b.done, n.done);
  EXPECT_EQ(b.value, 1000u);
  EXPECT_EQ(n.value, 1000u);
  EXPECT_EQ(n.counters.local_gets, 1u);
  expect_same_counters(b.counters, n.counters);
}

TEST(AsyncEquivalence, ShmTier) {
  // 1 node x 2 threads: elem 8 is thread 1's, reached via shared memory.
  const OneOp b = run_one(config(net::TransportKind::kGm, 1, 2),
                          Mode::kBlocking, 8, false);
  const OneOp n = run_one(config(net::TransportKind::kGm, 1, 2),
                          Mode::kNonblocking, 8, false);
  EXPECT_EQ(b.done, n.done);
  EXPECT_EQ(n.value, 1001u);
  EXPECT_EQ(n.counters.shm_gets, 1u);
  expect_same_counters(b.counters, n.counters);
}

TEST(AsyncEquivalence, AmTier) {
  // Remote access with the address cache disabled: default SVD/AM path.
  auto cfg = [] {
    auto c = config(net::TransportKind::kGm, 2, 1);
    c.cache.enabled = false;
    return c;
  };
  const OneOp b = run_one(cfg(), Mode::kBlocking, 8, false);
  const OneOp n = run_one(cfg(), Mode::kNonblocking, 8, false);
  EXPECT_EQ(b.done, n.done);
  EXPECT_EQ(n.value, 1001u);
  EXPECT_EQ(n.counters.am_gets, 1u);
  expect_same_counters(b.counters, n.counters);
}

TEST(AsyncEquivalence, RdmaTier) {
  // Warm cache: the remote base is known and pinned, so the GET goes
  // one-sided.
  const OneOp b = run_one(config(net::TransportKind::kGm, 2, 1),
                          Mode::kBlocking, 8, true);
  const OneOp n = run_one(config(net::TransportKind::kGm, 2, 1),
                          Mode::kNonblocking, 8, true);
  EXPECT_EQ(b.done, n.done);
  EXPECT_EQ(n.value, 1001u);
  EXPECT_EQ(n.counters.rdma_gets, 1u);
  expect_same_counters(b.counters, n.counters);
}

TEST(AsyncEquivalence, HoldsOnLapiToo) {
  for (const bool warm : {false, true}) {
    const OneOp b = run_one(config(net::TransportKind::kLapi, 2, 1),
                            Mode::kBlocking, 8, warm);
    const OneOp n = run_one(config(net::TransportKind::kLapi, 2, 1),
                            Mode::kNonblocking, 8, warm);
    EXPECT_EQ(b.done, n.done) << "warm=" << warm;
    expect_same_counters(b.counters, n.counters);
  }
}

TEST(AsyncEquivalence, MemgetNbMatchesMemget) {
  auto run = [](Mode mode) {
    core::Runtime rt(config(net::TransportKind::kGm, 2, 1));
    sim::Time done = 0;
    rt.run([&](UpcThread& th) -> sim::Task<void> {
      ArrayDesc a = co_await th.all_alloc(16, 8, 8);
      co_await th.barrier();
      if (th.id() == 0) {
        std::uint64_t v[4] = {};
        auto dst = std::as_writable_bytes(std::span(v));
        if (mode == Mode::kBlocking) {
          co_await th.memget(a, 8, dst);
        } else {
          co_await th.wait(th.memget_nb(a, 8, dst));
        }
        done = th.now();
      }
      co_await th.barrier();
    });
    return std::pair(done, rt.counters());
  };
  const auto [bt, bc] = run(Mode::kBlocking);
  const auto [nt, nc] = run(Mode::kNonblocking);
  EXPECT_EQ(bt, nt);
  expect_same_counters(bc, nc);
}

// ----------------------------------------- pipelining & the window ---

// Batch of `ops` remote warm-cache GETs with a bounded window; returns
// the batch's simulated duration and the run's comm.* report.
std::pair<double, RunReport> run_batch(std::uint32_t depth,
                                       std::uint32_t ops) {
  core::Runtime rt(config(net::TransportKind::kGm, 2, 1));
  sim::Time t0 = 0, t1 = 0;
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(2048, 8, 1024);
    co_await th.barrier();
    if (th.id() == 0) rt.warm_address_cache(a);
    co_await th.barrier();
    if (th.id() == 0) {
      rt.reset_metrics();
      t0 = th.now();
      struct Pending {
        OpHandle h;
        std::uint64_t v = 0;
      };
      std::deque<Pending> pend;
      for (std::uint32_t i = 0; i < ops; ++i) {
        if (pend.size() >= depth) {
          co_await th.wait(pend.front().h);
          pend.pop_front();
        }
        pend.emplace_back();
        Pending& p = pend.back();
        p.h = th.get_nb(a, 1024 + i,
                        std::as_writable_bytes(std::span(&p.v, 1)));
      }
      while (!pend.empty()) {
        co_await th.wait(pend.front().h);
        pend.pop_front();
      }
      t1 = th.now();
    }
    co_await th.barrier();
  });
  return {sim::to_us(t1 - t0), rt.metrics()};
}

TEST(Pipelining, DeeperWindowsOverlapLatency) {
  const auto [t1, r1] = run_batch(1, 32);
  const auto [t2, r2] = run_batch(2, 32);
  const auto [t4, r4] = run_batch(4, 32);
  const auto [t8, r8] = run_batch(8, 32);
  EXPECT_LT(t2, t1);
  EXPECT_LT(t4, t2);
  EXPECT_LE(t8, t4);
  // Pipelining must actually pay: depth 8 at least halves the blocking
  // loop's batch time on GM (the bench shows ~2.8x).
  EXPECT_LT(t8, 0.5 * t1);
}

TEST(Pipelining, CommMetricsTrackIssueWindowAndStalls) {
  const auto [t4, r4] = run_batch(4, 32);
  (void)t4;
  EXPECT_EQ(r4.counter("comm.issued"), 32u);
  EXPECT_EQ(r4.counter("comm.outstanding_hwm"), 4u);
  // A full window forces the issuing thread to suspend in wait().
  EXPECT_GT(r4.counter("comm.wait_stalls"), 0u);
}

TEST(Pipelining, BatchesAreDeterministicAcrossRuns) {
  const auto [a, ra] = run_batch(8, 32);
  const auto [b, rb] = run_batch(8, 32);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_EQ(ra.counter("comm.wait_stalls"), rb.counter("comm.wait_stalls"));
}

// --------------------------------------------- handle lifecycle ---

TEST(CompletionEngine, WaitAllRetiresEveryOutstandingHandle) {
  core::Runtime rt(config(net::TransportKind::kGm, 2, 1));
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(16, 8, 8);
    std::uint64_t fill = 7;
    rt.debug_write(a, th.id() * 8,
                   std::as_bytes(std::span(&fill, 1)));
    co_await th.barrier();
    if (th.id() == 0) {
      std::uint64_t v[4] = {};
      OpHandle hs[4];
      for (int i = 0; i < 4; ++i) {
        hs[i] = th.get_nb(a, 8, std::as_writable_bytes(std::span(&v[i], 1)));
      }
      EXPECT_EQ(th.outstanding(), 4u);
      co_await th.wait_all();
      EXPECT_EQ(th.outstanding(), 0u);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(v[i], 7u) << i;
      // All four handles are now spent: waiting again is a no-op.
      for (int i = 0; i < 4; ++i) co_await th.wait(hs[i]);
    }
    co_await th.barrier();
  });
}

TEST(CompletionEngine, WaitOnInvalidOrSpentHandleIsANoOp) {
  core::Runtime rt(config(net::TransportKind::kGm, 2, 1));
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      co_await th.wait(OpHandle{});  // never issued
      std::uint64_t v = 0;
      const OpHandle h =
          th.get_nb(a, 8, std::as_writable_bytes(std::span(&v, 1)));
      const sim::Time before = th.now();
      co_await th.wait(h);
      const sim::Time after_first = th.now();
      EXPECT_GT(after_first, before);  // the op took wire time
      co_await th.wait(h);             // spent: returns immediately
      EXPECT_EQ(th.now(), after_first);
      // Slot reuse mints a new generation, so the old handle stays dead.
      std::uint64_t w = 0;
      const OpHandle h2 =
          th.get_nb(a, 8, std::as_writable_bytes(std::span(&w, 1)));
      EXPECT_NE(h.gen, h2.gen);
      const sim::Time t2 = th.now();
      co_await th.wait(h);  // old handle: still a no-op
      EXPECT_EQ(th.now(), t2);
      co_await th.wait(h2);
    }
    co_await th.barrier();
  });
}

TEST(CompletionEngine, FenceRetiresNonblockingPuts) {
  core::Runtime rt(config(net::TransportKind::kGm, 2, 1));
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      const std::uint64_t v = 42;
      (void)th.put_nb(a, 8, std::as_bytes(std::span(&v, 1)));
      // fence() must retire the in-flight handle AND drain the remote
      // completion, exactly like a blocking put + fence.
      co_await th.fence();
      EXPECT_EQ(th.outstanding(), 0u);
    }
    co_await th.barrier();
    if (th.id() == 1) {
      EXPECT_EQ((co_await th.read<std::uint64_t>(a, 8)), 42u);
    }
    co_await th.barrier();
  });
}

// A thread's completion slots are allocated by its first issue(). Thread
// 0 makes blocking calls first and thread 1 none before both issue one
// get_nb and one put_nb at the other's piece: the handles must be the
// first slots, and the statuses the same on both threads.
struct NbAfterBlocking {
  OpStatus blocking_get = OpStatus::kOk;
  OpStatus blocking_put = OpStatus::kOk;
  OpStatus nb_get[2] = {};
  OpStatus nb_put[2] = {};
};

NbAfterBlocking run_nb_after_blocking(core::RuntimeConfig cfg) {
  core::Runtime rt(std::move(cfg));
  NbAfterBlocking r;
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(32, 8, 16);
    co_await th.barrier();
    const std::uint64_t remote = th.id() == 0 ? 16 : 0;
    if (th.id() == 0) {
      // Nothing issued yet: wait_all retires nothing and returns at once.
      const sim::Time t0 = th.now();
      const std::uint64_t events = rt.simulator().events_executed();
      co_await th.wait_all();
      EXPECT_EQ(th.now(), t0);
      EXPECT_EQ(rt.simulator().events_executed(), events);
      std::uint64_t v = 0;
      r.blocking_get = co_await th.read_status<std::uint64_t>(a, remote, &v);
      r.blocking_put =
          co_await th.write_status<std::uint64_t>(a, remote + 1, 9);
    }
    std::uint64_t got = 0;
    const std::uint64_t put = 5;
    const OpHandle g =
        th.get_nb(a, remote + 2, std::as_writable_bytes(std::span(&got, 1)));
    const OpHandle p =
        th.put_nb(a, remote + 3, std::as_bytes(std::span(&put, 1)));
    EXPECT_TRUE(g.valid());
    EXPECT_TRUE(p.valid());
    EXPECT_EQ(g.slot, 0u);
    EXPECT_EQ(p.slot, 1u);
    EXPECT_NE(g.gen, p.gen);
    EXPECT_EQ(th.outstanding(), 2u);
    r.nb_get[th.id()] = co_await th.wait_status(g);
    r.nb_put[th.id()] = co_await th.wait_status(p);
    EXPECT_EQ(co_await th.fence_status(), OpStatus::kOk);
    EXPECT_EQ(th.outstanding(), 0u);
  });
  return r;
}

TEST(CompletionEngine, NonblockingOpsAfterBlockingOnesGetFreshSlots) {
  const NbAfterBlocking r =
      run_nb_after_blocking(config(net::TransportKind::kGm, 2, 1));
  EXPECT_EQ(r.blocking_get, OpStatus::kOk);
  EXPECT_EQ(r.blocking_put, OpStatus::kOk);
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(r.nb_get[t], OpStatus::kOk) << "thread " << t;
    EXPECT_EQ(r.nb_put[t], OpStatus::kOk) << "thread " << t;
  }
}

TEST(CompletionEngine, NonblockingStatusesAfterBlockingOnesUnderTotalLoss) {
  // Every leg is lost: GETs time out at their handles, PUTs complete
  // locally by the one-sided contract, with or without earlier blocking
  // calls on the thread.
  core::RuntimeConfig cfg = config(net::TransportKind::kGm, 2, 1);
  cfg.faults.seed = 5;
  cfg.faults.drop_prob = 1.0;
  cfg.faults.max_retransmits = 2;
  const NbAfterBlocking r = run_nb_after_blocking(std::move(cfg));
  EXPECT_EQ(r.blocking_get, OpStatus::kTimeout);
  EXPECT_EQ(r.blocking_put, OpStatus::kOk);
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(r.nb_get[t], OpStatus::kTimeout) << "thread " << t;
    EXPECT_EQ(r.nb_put[t], OpStatus::kOk) << "thread " << t;
  }
}

TEST(CompletionEngine, ArgumentsAreValidatedAtIssueTime) {
  core::Runtime rt(config(net::TransportKind::kGm, 2, 1));
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      std::byte partial[3];  // not a whole 8-byte element
      EXPECT_THROW((void)th.get_nb(a, 0, std::span(partial)),
                   std::invalid_argument);
      std::uint64_t v[2];
      // Crossing the ownership boundary at elem 7 -> 8.
      EXPECT_THROW(
          (void)th.get_nb(a, 7, std::as_writable_bytes(std::span(v))),
          std::invalid_argument);
      EXPECT_EQ(th.outstanding(), 0u);  // nothing was issued
    }
    co_await th.barrier();
  });
}

}  // namespace
}  // namespace xlupc::core
