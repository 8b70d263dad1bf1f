// Protocol-detail tests of the transports: platform-specific thresholds,
// wire accounting, handler placement (application core vs communication
// processor) and registration-cache interactions.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "net/machine.h"
#include "net/transport.h"

namespace xlupc::net {
namespace {

// Passive target backed by one big buffer per node; counts which CPU
// context its handlers would need by observing resource usage instead.
class Target : public AmTarget {
 public:
  explicit Target(std::size_t bytes) : bytes_(bytes) {
    for (int n = 0; n < 4; ++n) store_[n].assign(bytes, std::byte{0});
  }
  Addr base(NodeId n) const { return 0x1000u + (static_cast<Addr>(n) << 32); }

  GetServe serve_get(NodeId target, const GetRequest& req) override {
    GetServe out;
    out.data.assign(store_[target].begin() + req.offset,
                    store_[target].begin() + req.offset + req.len);
    out.src_addr = base(target) + req.offset;
    if (req.want_base) out.base = BaseInfo{base(target), 9};
    return out;
  }
  PutServe serve_put(NodeId target, PutRequest&& req) override {
    std::memcpy(store_[target].data() + req.offset, req.data.data(),
                req.data.size());
    PutServe out;
    out.dst_addr = base(target) + req.offset;
    if (req.want_base) out.base = BaseInfo{base(target), 9};
    return out;
  }
  PutServe serve_put_rendezvous(NodeId target, const PutRequest& req,
                                std::size_t) override {
    PutServe out;
    out.dst_addr = base(target) + req.offset;
    return out;
  }
  void deliver_put_payload(NodeId target, std::uint64_t, std::uint64_t offset,
                           Bytes&& data) override {
    std::memcpy(store_[target].data() + offset, data.data(), data.size());
  }
  void serve_control(NodeId, NodeId, const ControlMsg&) override {}
  RdmaWindow rdma_memory(NodeId target, Addr addr, std::size_t len) override {
    if (addr < base(target) || addr + len > base(target) + bytes_) {
      throw RdmaProtocolError("bad address");
    }
    if (!pinned_) return RdmaWindow{nullptr, RdmaNak::kNotPinned};
    return RdmaWindow{store_[target].data() + (addr - base(target)),
                      RdmaNak::kNone};
  }
  void set_pinned(bool v) { pinned_ = v; }

 private:
  std::size_t bytes_;
  bool pinned_ = true;
  std::map<NodeId, std::vector<std::byte>> store_;
};

struct Rig {
  explicit Rig(PlatformParams p, std::uint32_t cores = 2,
               sim::FaultParams faults = {})
      : target(8 << 20), machine(sim, std::move(p), [cores, &faults] {
          MachineConfig c;
          c.nodes = 2;
          c.cores_per_node = cores;
          c.faults = faults;
          return c;
        }()) {}
  sim::Simulator sim;
  Target target;
  Machine machine;
  Transport transport{machine, target};
};

sim::Duration run_get(Rig& rig, std::uint32_t len,
                      std::uint32_t target_core = 0) {
  sim::Time t0 = 0, t1 = 0;
  rig.sim.spawn([](Rig& r, std::uint32_t l, std::uint32_t tc, sim::Time& a,
                   sim::Time& b) -> sim::Task<> {
    GetRequest req;
    req.len = l;
    req.target_core = tc;
    a = r.sim.now();
    GetReply reply;
    (void)co_await r.transport.get({0, 0}, 1, req, reply);
    b = r.sim.now();
  }(rig, len, target_core, t0, t1));
  rig.sim.run();
  return t1 - t0;
}

TEST(Protocol, LapiEagerRegionExtendsTo2MB) {
  Rig rig(power5_lapi());
  run_get(rig, 2 * 1024 * 1024);  // at the limit: still eager
  EXPECT_EQ(rig.transport.stats().am_gets, 1u);
  EXPECT_EQ(rig.transport.stats().rendezvous_gets, 0u);
  run_get(rig, 2 * 1024 * 1024 + 1);
  EXPECT_EQ(rig.transport.stats().rendezvous_gets, 1u);
}

TEST(Protocol, GmHandlerBlocksBehindBusyTargetCore) {
  Rig rig(mare_nostrum_gm());
  // Occupy target core 0 for 200us starting now.
  rig.sim.spawn([](Rig& r) -> sim::Task<> {
    co_await r.machine.core(1, 0).use(sim::us(200));
  }(rig));
  const auto blocked = run_get(rig, 8, /*target_core=*/0);
  EXPECT_GT(sim::to_us(blocked), 150.0);  // waited for the busy core

  Rig free_rig(mare_nostrum_gm());
  const auto free_time = run_get(free_rig, 8, 0);
  EXPECT_LT(sim::to_us(free_time), 10.0);
}

TEST(Protocol, GmHandlerOnOtherCoreUnaffected) {
  Rig rig(mare_nostrum_gm());
  rig.sim.spawn([](Rig& r) -> sim::Task<> {
    co_await r.machine.core(1, 0).use(sim::us(200));
  }(rig));
  // Data owned by the thread on core 1: its core is idle.
  const auto t = run_get(rig, 8, /*target_core=*/1);
  EXPECT_LT(sim::to_us(t), 10.0);
}

TEST(Protocol, LapiHandlerIgnoresBusyApplicationCores) {
  Rig rig(power5_lapi());
  rig.sim.spawn([](Rig& r) -> sim::Task<> {
    co_await r.machine.core(1, 0).use(sim::us(200));
  }(rig));
  const auto t = run_get(rig, 8, /*target_core=*/0);
  EXPECT_LT(sim::to_us(t), 10.0);  // comm processor serves it
}

TEST(Protocol, PutWireBytesIncludePayloadAndAck) {
  Rig rig(mare_nostrum_gm());
  rig.sim.spawn([](Rig& r) -> sim::Task<> {
    PutRequest req;
    req.data.assign(100, std::byte{1});
    co_await r.transport.put({0, 0}, 1, std::move(req), {});
  }(rig));
  rig.sim.run();
  const auto& p = rig.machine.params();
  // Data message (header + 100) + ACK (header).
  EXPECT_EQ(rig.transport.stats().wire_bytes, 2 * p.header_bytes + 100);
}

TEST(Protocol, RendezvousPutWireBytesIncludeControlRoundtrip) {
  Rig rig(mare_nostrum_gm());
  const std::size_t big = 64 * 1024;
  rig.sim.spawn([](Rig& r, std::size_t n) -> sim::Task<> {
    PutRequest req;
    req.data.assign(n, std::byte{1});
    co_await r.transport.put({0, 0}, 1, std::move(req), {});
  }(rig, big));
  rig.sim.run();
  const auto& p = rig.machine.params();
  // RTS + CTS + payload message.
  EXPECT_EQ(rig.transport.stats().wire_bytes, 3 * p.header_bytes + big);
}

TEST(Protocol, EagerThresholdIsPerPlatform) {
  Rig gm(mare_nostrum_gm());
  run_get(gm, 32 * 1024);  // > 16 KB: rendezvous on GM
  EXPECT_EQ(gm.transport.stats().rendezvous_gets, 1u);

  Rig lapi(power5_lapi());
  run_get(lapi, 32 * 1024);  // well inside LAPI's eager region
  EXPECT_EQ(lapi.transport.stats().am_gets, 1u);
}

TEST(Protocol, RegistrationCacheInvalidationForcesReRegistration) {
  Rig rig(mare_nostrum_gm());
  const std::uint32_t big = 128 * 1024;
  run_get(rig, big);
  const auto misses_before = rig.transport.reg_cache(1).misses();
  rig.transport.reg_cache_mut(1).invalidate(rig.target.base(1), big);
  run_get(rig, big);
  EXPECT_EQ(rig.transport.reg_cache(1).misses(), misses_before + 1);
}

TEST(Protocol, RdmaNakIsDistinctFromProtocolError) {
  // An unpinned-but-valid window is a recoverable NAK carried in the
  // result type; a bogus address is a protocol violation and throws.
  // Callers must never be able to confuse the two.
  Rig rig(mare_nostrum_gm());
  rig.target.set_pinned(false);
  RdmaGetResult get_res;
  RdmaPutResult put_res;
  rig.sim.spawn([](Rig& r, RdmaGetResult& g, RdmaPutResult& p) -> sim::Task<> {
    (void)co_await r.transport.rdma_get({0, 0}, 1, r.target.base(1), 64, g);
    Bytes data(64, std::byte{0x2a});
    p = co_await r.transport.rdma_put({0, 0}, 1, r.target.base(1),
                                      std::move(data), {});
  }(rig, get_res, put_res));
  rig.sim.run();
  EXPECT_FALSE(get_res.ok());
  EXPECT_EQ(get_res.nak, RdmaNak::kNotPinned);
  EXPECT_TRUE(get_res.data.empty());
  EXPECT_FALSE(put_res.ok());
  EXPECT_EQ(put_res.nak, RdmaNak::kNotPinned);
  EXPECT_EQ(rig.transport.stats().rdma_naks, 2u);

  // Bogus address: throws regardless of pin state — not reported as NAK.
  Rig bad(mare_nostrum_gm());
  bad.sim.spawn([](Rig& r) -> sim::Task<> {
    RdmaGetResult g;
    (void)co_await r.transport.rdma_get({0, 0}, 1, 0x2, 8, g);
  }(bad));
  EXPECT_THROW(bad.sim.run(), RdmaProtocolError);
  EXPECT_EQ(bad.transport.stats().rdma_naks, 0u);
}

TEST(Protocol, ConcurrentGetsToOneLapiNodeOverlapOnCommPool) {
  // Two simultaneous GETs to the same node: the comm-processor pool
  // (capacity >= 2) serves both handlers concurrently.
  auto elapsed_for = [](PlatformParams p) {
    Rig rig(std::move(p));
    for (int i = 0; i < 2; ++i) {
      rig.sim.spawn([](Rig& r, int k) -> sim::Task<> {
        GetRequest req;
        req.len = 8192;
        req.target_core = static_cast<std::uint32_t>(k);
        GetReply reply;
        (void)co_await r.transport.get({0, 0}, 1, req, reply);
      }(rig, i));
    }
    return rig.sim.run();
  };
  // On GM the two handlers run on different target cores anyway; make
  // them collide by targeting the same core.
  auto gm_same_core = [] {
    Rig rig(mare_nostrum_gm());
    for (int i = 0; i < 2; ++i) {
      rig.sim.spawn([](Rig& r) -> sim::Task<> {
        GetRequest req;
        req.len = 8192;
        req.target_core = 0;
        GetReply reply;
        (void)co_await r.transport.get({0, 0}, 1, req, reply);
      }(rig));
    }
    return rig.sim.run();
  };
  const auto lapi = elapsed_for(power5_lapi());
  Rig solo_rig(power5_lapi());
  const auto solo = run_get(solo_rig, 8192);
  // Handler overlap: two concurrent ops cost much less than 2x solo.
  EXPECT_LT(lapi, solo + solo / 2);
  (void)gm_same_core;
}

// ---------------------------------------------------------------------
// 16-bit sequence numbers: serial arithmetic and wraparound behaviour.

TEST(ProtocolSeqno, SerialArithmeticProperties) {
  using PE = ProtocolEngine;
  // Reflexivity and adjacency.
  static_assert(PE::seq_at_or_after(0, 0));
  static_assert(PE::seq_at_or_after(1, 0));
  static_assert(!PE::seq_at_or_after(0, 1));
  // Across the wrap: 5 is "after" 65530 (modular distance 11).
  static_assert(PE::seq_at_or_after(5, 65530));
  static_assert(!PE::seq_at_or_after(65530, 5));
  // Half-space boundary: distances up to 0x7fff count as "at or after",
  // 0x8000 and beyond flip to "before" — for every base, including ones
  // that straddle the wrap.
  for (std::uint32_t base : {0u, 1u, 0x7fffu, 0x8000u, 0xfff0u, 0xffffu}) {
    const auto b = static_cast<std::uint16_t>(base);
    EXPECT_TRUE(PE::seq_at_or_after(
        static_cast<std::uint16_t>(b + 0x7fffu), b));
    EXPECT_FALSE(PE::seq_at_or_after(
        static_cast<std::uint16_t>(b + 0x8000u), b));
    EXPECT_FALSE(PE::seq_at_or_after(static_cast<std::uint16_t>(b - 1), b));
  }
}

TEST(ProtocolSeqno, DeliveryAndDuplicateSuppressionAcrossWrap) {
  // Seed a link right below the 16-bit wrap and push enough lossy legs
  // through it to cross: every leg must still retire exactly once, the
  // high-water mark must follow the stamps through the wrap, and late
  // duplicates of retransmitted legs must still be suppressed.
  sim::FaultParams fp;
  fp.seed = 9;
  fp.drop_prob = 0.2;
  fp.dup_prob = 1.0;  // every recovered loss also arrives late
  Rig rig(mare_nostrum_gm(), 2, fp);
  ProtocolStats stats;
  ProtocolEngine pe(rig.machine, stats);
  constexpr std::uint16_t kStart = 65520;
  constexpr int kLegs = 64;
  pe.seed_link_for_test(0, 1, kStart, kStart);

  int done = 0;
  for (int i = 0; i < kLegs; ++i) {
    rig.sim.spawn([](ProtocolEngine& e, int& d) -> sim::Task<> {
      co_await e.deliver(0, 1, nullptr, 0, 0);
      ++d;
    }(pe, done));
  }
  rig.sim.run();

  EXPECT_EQ(done, kLegs);
  const auto [next, hwm] = pe.link_state_for_test(0, 1);
  EXPECT_EQ(next, static_cast<std::uint16_t>(kStart + kLegs));
  EXPECT_LT(next, kStart);  // the counter really wrapped through 0
  EXPECT_EQ(hwm, next);     // everything up to the last stamp delivered
  EXPECT_GT(pe.stats().retransmits, 0u);
  EXPECT_GT(pe.stats().duplicate_msgs, 0u);
  EXPECT_EQ(pe.stats().timeouts, 0u);
}

TEST(ProtocolSeqno, ResyncRebasesOntoDeliveredHighWaterMark) {
  Rig rig(mare_nostrum_gm());
  ProtocolStats stats;
  ProtocolEngine pe(rig.machine, stats);
  // A reconnect forgets in-flight stamps [37, 100): the sender restarts
  // at the receiver's high-water mark so replay can't double-apply.
  pe.seed_link_for_test(0, 1, 100, 37);
  pe.resync_link(0, 1);
  const auto [next, hwm] = pe.link_state_for_test(0, 1);
  EXPECT_EQ(next, 37);
  EXPECT_EQ(hwm, 37);
  EXPECT_EQ(pe.stats().link_resyncs, 1u);
  // Resyncing a link that never carried traffic is a no-op.
  pe.resync_link(1, 0);
  EXPECT_EQ(pe.stats().link_resyncs, 1u);
}

// ---------------------------------------------------------------------
// Retransmission-budget exhaustion: a returned typed status, never a
// hang. Every awaited transport leg is checked the same way in
// FaultTransport.EveryAwaitedLegReturnsTimeoutAfterMaxRetries.

TEST(ProtocolBudget, ExhaustionReturnsTimeout) {
  sim::FaultParams fp;
  fp.seed = 3;
  fp.drop_prob = 1.0;  // the link never delivers
  fp.max_retransmits = 3;
  Rig rig(mare_nostrum_gm(), 2, fp);
  ProtocolStats stats;
  ProtocolEngine pe(rig.machine, stats);
  OpStatus status = OpStatus::kOk;
  rig.sim.spawn([](ProtocolEngine& e, OpStatus& st) -> sim::Task<> {
    st = co_await e.deliver(0, 1, nullptr, 0, 0);
  }(pe, status));
  rig.sim.run();
  EXPECT_EQ(status, OpStatus::kTimeout);
  EXPECT_EQ(pe.stats().timeouts, 1u);
  EXPECT_EQ(pe.stats().retransmits, 3u);
  EXPECT_EQ(pe.stats().dropped_msgs, 4u);  // initial send + 3 retries
}

TEST(ProtocolBudget, TransportGetSurfacesTimeoutNotHang) {
  // End-to-end through a real transport: with a fully dark link the GET
  // must come back as kTimeout once the budget is spent — the simulation
  // drains instead of wedging on a lost completion.
  sim::FaultParams fp;
  fp.seed = 3;
  fp.drop_prob = 1.0;
  fp.max_retransmits = 2;
  Rig rig(mare_nostrum_gm(), 2, fp);
  OpStatus status = OpStatus::kOk;
  rig.sim.spawn([](Rig& r, OpStatus& st) -> sim::Task<> {
    GetRequest req;
    req.len = 8;
    GetReply reply;
    st = co_await r.transport.get({0, 0}, 1, req, reply);
  }(rig, status));
  rig.sim.run();
  EXPECT_EQ(status, OpStatus::kTimeout);
  EXPECT_GE(rig.transport.stats().timeouts, 1u);
}

}  // namespace
}  // namespace xlupc::net
