// Regression tests for the small-message coalescing engine
// (docs/COALESCING.md): batch-vs-individual memory-state equality on
// every transport tier, the flush triggers (watermark / wait / fence /
// explicit), eligibility gating, batch retransmission under injected
// faults (apply-once), and the coalesce_threshold=0 contract — off
// means byte-identical timings and no coalescing keys in the report.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
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

core::CoalesceConfig batching(std::uint32_t max_ops = 4,
                              std::uint32_t threshold = 64) {
  core::CoalesceConfig cc;
  cc.threshold = threshold;
  cc.max_ops = max_ops;
  cc.max_bytes = 4096;
  return cc;
}

constexpr std::uint64_t kPer = 8;  ///< elements per thread piece

struct WorkloadResult {
  std::vector<std::uint64_t> memory;  ///< full array after the run
  std::vector<std::uint64_t> landed;  ///< values GETs brought back
  sim::Time elapsed = 0;
  RunReport report;
  net::TransportStats transport;
  CoalesceStats coalesce;  ///< thread 0's engine stats
};

// Thread 0 PUTs a distinct value into the first four elements of every
// thread's piece (local, same-node shm, and remote destinations), then
// GETs them all back. With coalescing on, the small remote ops ride
// aggregated batches; either way the final memory state and the landed
// values must be identical.
WorkloadResult run_workload(core::RuntimeConfig cfg) {
  core::Runtime rt(std::move(cfg));
  WorkloadResult r;
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(kPer * rt.threads(), 8, kPer);
    co_await th.barrier();
    if (th.id() == 0) {
      const std::size_t n = 4 * rt.threads();
      std::vector<std::uint64_t> vals(n);
      std::size_t k = 0;
      for (ThreadId t = 0; t < rt.threads(); ++t) {
        for (std::uint64_t i = 0; i < 4; ++i, ++k) {
          vals[k] = 1000 * (t + 1) + i;
          th.put_nb(a, t * kPer + i,
                    std::as_bytes(std::span(&vals[k], 1)));
        }
      }
      co_await th.wait_all();
      co_await th.fence();
      r.landed.assign(n, 0);
      for (k = 0; k < n; ++k) {
        th.get_nb(a, (k / 4) * kPer + (k % 4),
                  std::as_writable_bytes(std::span(&r.landed[k], 1)));
      }
      co_await th.wait_all();
      r.coalesce = th.coalesce_stats();
    }
    co_await th.barrier();
    if (th.id() == 0) {
      r.memory.resize(kPer * rt.threads());
      for (ThreadId t = 0; t < rt.threads(); ++t) {
        rt.debug_read(a, t * kPer,
                      std::as_writable_bytes(
                          std::span(r.memory.data() + t * kPer, kPer)));
      }
    }
    co_await th.barrier();
  });
  r.elapsed = rt.elapsed();
  r.report = rt.metrics();
  r.transport = rt.transport().stats();
  return r;
}

bool has_key(const RunReport& rep, std::string_view prefix) {
  for (const auto& [name, v] : rep.counters) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// --- batch-vs-individual equality, per transport tier --------------------

class CoalescingEquality
    : public ::testing::TestWithParam<net::TransportKind> {};

TEST_P(CoalescingEquality, MemoryStateMatchesIndividualOps) {
  // nodes=2 x tpn=2 covers all three tiers: thread 0's PUT/GET set hits
  // itself (local), thread 1 (shared memory), and threads 2/3 (remote).
  const auto off = run_workload(config(GetParam(), 2, 2));
  auto cfg = config(GetParam(), 2, 2);
  cfg.coalesce = batching();
  const auto on = run_workload(std::move(cfg));

  EXPECT_EQ(off.memory, on.memory);
  EXPECT_EQ(off.landed, on.landed);
  // The coalesced run actually coalesced: remote small ops were staged
  // and shipped in aggregated messages.
  EXPECT_GT(on.coalesce.staged_ops, 0u);
  EXPECT_GT(on.transport.batch_msgs, 0u);
  EXPECT_EQ(off.transport.batch_msgs, 0u);
  // Values are what thread 0 wrote.
  for (std::size_t k = 0; k < on.landed.size(); ++k) {
    EXPECT_EQ(on.landed[k], 1000 * (k / 4 + 1) + k % 4) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, CoalescingEquality,
                         ::testing::Values(net::TransportKind::kGm,
                                           net::TransportKind::kLapi));

// --- flush triggers ------------------------------------------------------

TEST(CoalescingFlush, WatermarkByOpsShipsFullBatches) {
  auto cfg = config(net::TransportKind::kGm, 2, 1);
  cfg.coalesce = batching(/*max_ops=*/4);
  core::Runtime rt(std::move(cfg));
  CoalesceStats cs;
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(kPer * rt.threads(), 8, kPer);
    co_await th.barrier();
    if (th.id() == 0) {
      std::vector<std::uint64_t> vals(8);
      for (std::uint64_t i = 0; i < 8; ++i) {
        th.get_nb(a, kPer + i % kPer,
                  std::as_writable_bytes(std::span(&vals[i], 1)));
      }
      // 8 staged ops at max_ops=4: both batches already shipped on the
      // watermark before any wait.
      cs = th.coalesce_stats();
      co_await th.wait_all();
    }
    co_await th.barrier();
  });
  EXPECT_EQ(cs.staged_ops, 8u);
  EXPECT_EQ(cs.batches, 2u);
  EXPECT_EQ(cs.flush_watermark, 2u);
  EXPECT_EQ(cs.max_batch_ops, 4u);
  EXPECT_EQ(rt.metrics().counter("comm.coalesce.flush.watermark"), 2u);
  EXPECT_EQ(rt.metrics().counter("transport.batch_msgs"), 2u);
}

TEST(CoalescingFlush, WatermarkByBytesShipsEarly) {
  auto cfg = config(net::TransportKind::kGm, 2, 1);
  // Each staged 8B GET costs kBatchMemberBytes + reply bytes = 32 of
  // buffer budget, so a 64-byte watermark trips after two ops even
  // though max_ops is far away.
  cfg.coalesce = batching(/*max_ops=*/16);
  cfg.coalesce.max_bytes = 64;
  core::Runtime rt(std::move(cfg));
  CoalesceStats cs;
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(kPer * rt.threads(), 8, kPer);
    co_await th.barrier();
    if (th.id() == 0) {
      std::vector<std::uint64_t> vals(4);
      for (std::uint64_t i = 0; i < 4; ++i) {
        th.get_nb(a, kPer + i,
                  std::as_writable_bytes(std::span(&vals[i], 1)));
      }
      cs = th.coalesce_stats();
      co_await th.wait_all();
    }
    co_await th.barrier();
  });
  EXPECT_EQ(cs.flush_watermark, 2u);
  EXPECT_EQ(cs.max_batch_ops, 2u);
}

TEST(CoalescingFlush, WaitOnStagedHandleFlushesItsBuffer) {
  auto cfg = config(net::TransportKind::kGm, 2, 1);
  cfg.coalesce = batching(/*max_ops=*/16);
  core::Runtime rt(std::move(cfg));
  CoalesceStats cs;
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(kPer * rt.threads(), 8, kPer);
    co_await th.barrier();
    if (th.id() == 0) {
      std::uint64_t v0 = 0, v1 = 0, v2 = 0;
      th.get_nb(a, kPer, std::as_writable_bytes(std::span(&v0, 1)));
      OpHandle mid =
          th.get_nb(a, kPer + 1, std::as_writable_bytes(std::span(&v1, 1)));
      th.get_nb(a, kPer + 2, std::as_writable_bytes(std::span(&v2, 1)));
      // Waiting on one staged member ships the whole buffer it sits in.
      co_await th.wait(mid);
      cs = th.coalesce_stats();
      co_await th.wait_all();
    }
    co_await th.barrier();
  });
  EXPECT_EQ(cs.flush_wait, 1u);
  EXPECT_EQ(cs.batches, 1u);
  EXPECT_EQ(cs.max_batch_ops, 3u);
}

TEST(CoalescingFlush, FenceFlushesAllBuffers) {
  // tpn=1 on 3 nodes: thread 0 stages toward two distinct destinations,
  // and the fence must ship both partial buffers.
  auto cfg = config(net::TransportKind::kGm, 3, 1);
  cfg.coalesce = batching(/*max_ops=*/16);
  core::Runtime rt(std::move(cfg));
  CoalesceStats cs;
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(kPer * rt.threads(), 8, kPer);
    co_await th.barrier();
    if (th.id() == 0) {
      std::vector<std::uint64_t> vals(4, 7);
      th.put_nb(a, kPer, std::as_bytes(std::span(&vals[0], 1)));
      th.put_nb(a, kPer + 1, std::as_bytes(std::span(&vals[1], 1)));
      th.put_nb(a, 2 * kPer, std::as_bytes(std::span(&vals[2], 1)));
      th.put_nb(a, 2 * kPer + 1, std::as_bytes(std::span(&vals[3], 1)));
      co_await th.fence();
      cs = th.coalesce_stats();
    }
    co_await th.barrier();
  });
  EXPECT_EQ(cs.flush_fence, 2u);
  EXPECT_EQ(cs.batches, 2u);
  EXPECT_EQ(cs.staged_ops, 4u);
}

TEST(CoalescingFlush, ExplicitFlushShipsWithoutWaiting) {
  auto cfg = config(net::TransportKind::kGm, 2, 1);
  cfg.coalesce = batching(/*max_ops=*/16);
  core::Runtime rt(std::move(cfg));
  CoalesceStats cs;
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(kPer * rt.threads(), 8, kPer);
    co_await th.barrier();
    if (th.id() == 0) {
      std::vector<std::uint64_t> vals(2);
      th.get_nb(a, kPer, std::as_writable_bytes(std::span(&vals[0], 1)));
      th.get_nb(a, kPer + 1,
                std::as_writable_bytes(std::span(&vals[1], 1)));
      th.flush(/*dest=*/1);
      cs = th.coalesce_stats();
      co_await th.wait_all();
    }
    co_await th.barrier();
  });
  EXPECT_EQ(cs.flush_explicit, 1u);
  EXPECT_EQ(cs.batches, 1u);
  // wait_all found nothing left to flush.
  EXPECT_EQ(cs.flush_fence, 0u);
}

// --- eligibility ---------------------------------------------------------

TEST(CoalescingEligibility, LargeAndMultiElementOpsBypassStaging) {
  auto cfg = config(net::TransportKind::kGm, 2, 1);
  cfg.coalesce = batching(/*max_ops=*/16, /*threshold=*/16);
  core::Runtime rt(std::move(cfg));
  CoalesceStats cs;
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(kPer * rt.threads(), 8, kPer);
    co_await th.barrier();
    if (th.id() == 0) {
      // 32B contiguous GET: over the 16B threshold, individual path.
      std::vector<std::uint64_t> big(4);
      th.get_nb(a, kPer,
                std::as_writable_bytes(std::span(big.data(), big.size())));
      // memget_nb may span pieces; never staged regardless of size.
      std::vector<std::uint64_t> multi(2);
      th.memget_nb(a, kPer + 4,
                   std::as_writable_bytes(
                       std::span(multi.data(), multi.size())));
      // Local 8B PUT: small, but its destination is this thread's own
      // piece, so it is not a remote op and is not staged.
      const std::uint64_t v = 42;
      th.put_nb(a, 0, std::as_bytes(std::span(&v, 1)));
      co_await th.wait_all();
      cs = th.coalesce_stats();
    }
    co_await th.barrier();
  });
  EXPECT_EQ(cs.staged_ops, 0u);
  EXPECT_EQ(cs.batches, 0u);
  EXPECT_EQ(rt.metrics().counter("transport.batch_msgs"), 0u);
}

// --- faults: batch retransmission must apply once ------------------------

TEST(CoalescingFaults, RetransmittedBatchesApplyOnce) {
  // Rounds of PUTs to the same remote elements, a wait between rounds
  // (each wait flushes that round's batch). Dropped legs force
  // retransmits and injected late duplicates arrive after newer rounds;
  // if a stale batch re-applied, an old value would clobber a newer one.
  auto cfg = config(net::TransportKind::kGm, 2, 1);
  cfg.coalesce = batching(/*max_ops=*/4);
  cfg.faults.seed = 11;
  cfg.faults.drop_prob = 0.2;
  cfg.faults.dup_prob = 0.2;
  core::Runtime rt(std::move(cfg));
  constexpr std::uint64_t kRounds = 24;
  std::vector<std::uint64_t> final_mem(4, 0);
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(kPer * rt.threads(), 8, kPer);
    co_await th.barrier();
    if (th.id() == 0) {
      for (std::uint64_t round = 1; round <= kRounds; ++round) {
        std::vector<std::uint64_t> vals(4, round);
        OpHandle last{};
        for (std::uint64_t i = 0; i < 4; ++i) {
          last = th.put_nb(a, kPer + i,
                           std::as_bytes(std::span(&vals[i], 1)));
        }
        co_await th.wait(last);  // ships this round's batch
        co_await th.fence();     // remote applied before the next round
      }
    }
    co_await th.barrier();
    if (th.id() == 0) {
      rt.debug_read(a, kPer,
                    std::as_writable_bytes(
                        std::span(final_mem.data(), final_mem.size())));
    }
    co_await th.barrier();
  });
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(final_mem[i], kRounds) << "elem " << i;
  }
  const auto ts = rt.transport().stats();
  // The fault plan actually engaged: batches were re-sent and late
  // duplicates were suppressed by the protocol engine, not re-applied.
  EXPECT_GT(ts.retransmits, 0u);
  EXPECT_GT(ts.batch_msgs, 0u);
}

TEST(CoalescingFaults, GetsUnderFaultsMatchUncoalescedRun) {
  auto base = config(net::TransportKind::kGm, 2, 1);
  base.faults.seed = 7;
  base.faults.drop_prob = 0.15;
  base.faults.dup_prob = 0.1;
  auto off = base;
  const auto r_off = run_workload(std::move(off));
  auto on = base;
  on.coalesce = batching();
  const auto r_on = run_workload(std::move(on));
  EXPECT_EQ(r_off.memory, r_on.memory);
  EXPECT_EQ(r_off.landed, r_on.landed);
  EXPECT_GT(r_on.transport.batch_msgs, 0u);
}

// --- threshold=0: coalescing fully off -----------------------------------

TEST(CoalescingOff, ThresholdZeroIsByteIdenticalAndUnreported) {
  const auto plain = run_workload(config(net::TransportKind::kGm, 2, 2));

  auto zero = config(net::TransportKind::kGm, 2, 2);
  zero.coalesce.threshold = 0;  // off; other knobs must be inert
  zero.coalesce.max_ops = 2;
  zero.coalesce.max_bytes = 64;
  const auto r = run_workload(std::move(zero));

  EXPECT_EQ(r.elapsed, plain.elapsed);  // same simulated timeline
  EXPECT_EQ(r.memory, plain.memory);
  EXPECT_EQ(r.landed, plain.landed);
  EXPECT_EQ(r.coalesce.staged_ops, 0u);
  EXPECT_EQ(r.transport.batch_msgs, 0u);
  // Off means *absent*, not zero: no coalescing keys leak into reports.
  EXPECT_FALSE(has_key(r.report, "comm.coalesce."));
  EXPECT_FALSE(has_key(r.report, "transport.batch"));
  EXPECT_FALSE(has_key(plain.report, "comm.coalesce."));
}

// --- a thread that never stages -------------------------------------------

TEST(CoalescingLazy, ThreadThatNeverStagesHasNoStagingState) {
  // The staging buffers are made by a thread's first staged op. Thread 1
  // only makes blocking calls, which are never staged: its statistics
  // read zero, and its flushes schedule nothing, before and after thread
  // 0's batches and a metrics reset.
  EXPECT_LE(sizeof(UpcThread), 160u);
  auto cfg = config(net::TransportKind::kGm, 2, 1);
  cfg.coalesce = batching();
  core::Runtime rt(std::move(cfg));
  std::size_t pending_before = 0;
  std::size_t pending_after = 0;
  rt.run([&](UpcThread& th) -> sim::Task<void> {
    ArrayDesc a = co_await th.all_alloc(kPer * rt.threads(), 8, kPer);
    co_await th.barrier();
    std::uint64_t v = th.id() + 1;
    if (th.id() == 0) {
      th.put_nb(a, kPer, std::as_bytes(std::span(&v, 1)));
      co_await th.wait_all();
    } else {
      co_await th.put(a, 0, std::as_bytes(std::span(&v, 1)));
      pending_before = rt.simulator().queue().size();
      th.flush(0);
      th.flush_all();
      pending_after = rt.simulator().queue().size();
    }
    co_await th.barrier();
  });
  EXPECT_EQ(pending_after, pending_before);
  EXPECT_GT(rt.thread(0).coalesce_stats().staged_ops, 0u);
  const CoalesceStats& idle = rt.thread(1).coalesce_stats();
  EXPECT_EQ(idle.staged_ops, 0u);
  EXPECT_EQ(idle.batches, 0u);
  EXPECT_EQ(idle.flush_explicit, 0u);
  EXPECT_EQ(idle.max_batch_ops, 0u);
  EXPECT_EQ(rt.metrics().counter("comm.coalesce.staged_ops"),
            rt.thread(0).coalesce_stats().staged_ops);
  rt.reset_metrics();
  EXPECT_EQ(rt.thread(0).coalesce_stats().staged_ops, 0u);
  EXPECT_EQ(rt.thread(1).coalesce_stats().staged_ops, 0u);
  EXPECT_EQ(rt.thread(1).coalesce_stats().flush_explicit, 0u);
}

// --- stats plumbing ------------------------------------------------------

TEST(CoalescingStats, RegistryAgreesWithEngineAndTransport) {
  auto cfg = config(net::TransportKind::kGm, 2, 1);
  cfg.coalesce = batching(/*max_ops=*/4);
  const auto r = run_workload(std::move(cfg));

  EXPECT_EQ(r.report.counter("comm.coalesce.staged_ops"),
            r.coalesce.staged_ops);
  EXPECT_EQ(r.report.counter("comm.coalesce.batches"), r.coalesce.batches);
  EXPECT_EQ(r.report.counter("comm.coalesce.batched_bytes"),
            r.coalesce.batched_bytes);
  EXPECT_EQ(r.report.counter("comm.coalesce.flush.watermark"),
            r.coalesce.flush_watermark);
  EXPECT_EQ(r.report.counter("comm.coalesce.flush.fence"),
            r.coalesce.flush_fence);
  EXPECT_EQ(r.report.counter("comm.coalesce.flush.wait"),
            r.coalesce.flush_wait);
  EXPECT_EQ(r.report.counter("comm.coalesce.max_batch_ops"),
            r.coalesce.max_batch_ops);
  EXPECT_EQ(r.report.counter("transport.batch_msgs"),
            r.transport.batch_msgs);
  EXPECT_EQ(r.report.counter("transport.batched_gets"),
            r.transport.batched_gets);
  EXPECT_EQ(r.report.counter("transport.batched_puts"),
            r.transport.batched_puts);
}

}  // namespace
}  // namespace xlupc::core
