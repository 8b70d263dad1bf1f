// Tests for the network layer: topology, parameters, machine resources
// and the GM/LAPI transport protocols (timing properties, piggybacking,
// protocol selection, RDMA semantics and NAKs).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "net/machine.h"
#include "net/params.h"
#include "net/topology.h"
#include "net/transport.h"

namespace xlupc::net {
namespace {

// MachineConfig with the null fault plan; spelled as a function so the
// partial aggregate init does not trip -Wmissing-field-initializers.
MachineConfig mc(std::uint32_t nodes, std::uint32_t cores_per_node) {
  MachineConfig c;
  c.nodes = nodes;
  c.cores_per_node = cores_per_node;
  return c;
}

// ------------------------------------------------------------ topology ---

TEST(Topology, MyrinetThreeRouteLengths) {
  using enum TopologyKind;
  EXPECT_EQ(hops_between(kMyrinetCrossbar, 3, 3), 0u);
  EXPECT_EQ(hops_between(kMyrinetCrossbar, 0, 15), 1u);    // same linecard
  EXPECT_EQ(hops_between(kMyrinetCrossbar, 0, 16), 3u);    // same group
  EXPECT_EQ(hops_between(kMyrinetCrossbar, 0, 127), 3u);
  EXPECT_EQ(hops_between(kMyrinetCrossbar, 0, 128), 5u);   // across groups
  EXPECT_EQ(hops_between(kMyrinetCrossbar, 17, 300), 5u);
}

TEST(Topology, FlatSwitchIsOneHop) {
  EXPECT_EQ(hops_between(TopologyKind::kFlatSwitch, 0, 511), 1u);
  EXPECT_EQ(hops_between(TopologyKind::kFlatSwitch, 5, 5), 0u);
}

TEST(Topology, FatTreeBoundaryHops) {
  using enum TopologyKind;
  // Same node, same leaf, leaf boundary, pod interior, pod boundary.
  EXPECT_EQ(hops_between(kFatTree, 100, 100), 0u);
  EXPECT_EQ(hops_between(kFatTree, 0, kFatTreeLeaf - 1), 1u);
  EXPECT_EQ(hops_between(kFatTree, kFatTreeLeaf - 1, kFatTreeLeaf), 3u);
  EXPECT_EQ(hops_between(kFatTree, 0, kFatTreePod - 1), 3u);
  EXPECT_EQ(hops_between(kFatTree, kFatTreePod - 1, kFatTreePod), 5u);
  EXPECT_EQ(hops_between(kFatTree, 0, 3 * kFatTreePod + 7), 5u);
}

TEST(Topology, RedundantPathsOnlyOnMultiPathFatTreePairs) {
  using enum TopologyKind;
  // Single-path topologies and sub-3-hop fat-tree pairs offer none.
  EXPECT_EQ(redundant_paths(kFlatSwitch, 0, 511), 0u);
  EXPECT_EQ(redundant_paths(kMyrinetCrossbar, 0, 128), 0u);
  EXPECT_EQ(redundant_paths(kFatTree, 9, 9), 0u);
  EXPECT_EQ(redundant_paths(kFatTree, 0, kFatTreeLeaf - 1), 0u);
  // Any >=3-hop fat-tree pair can pick among the pod's other spines.
  EXPECT_EQ(redundant_paths(kFatTree, kFatTreeLeaf - 1, kFatTreeLeaf),
            kFatTreeLeaf - 1);
  EXPECT_EQ(redundant_paths(kFatTree, kFatTreePod - 1, kFatTreePod),
            kFatTreeLeaf - 1);
}

TEST(Topology, FailoverLatencyAddsTwoHopDetour) {
  // The rerouted path costs the normal wire latency plus two extra
  // switch traversals, on every topology.
  for (const PlatformParams& p :
       {mare_nostrum_gm(), power5_lapi(), infiniband_verbs()}) {
    EXPECT_EQ(failover_latency(p, 0, 1), wire_latency(p, 0, 1) +
        2 * p.hop_latency) << p.name;
    EXPECT_EQ(failover_latency(p, 0, 200), wire_latency(p, 0, 200) +
        2 * p.hop_latency) << p.name;
  }
}

TEST(Topology, LatencyGrowsWithHops) {
  const auto p = mare_nostrum_gm();
  const auto near = wire_latency(p, 0, 1);
  const auto mid = wire_latency(p, 0, 20);
  const auto far = wire_latency(p, 0, 200);
  EXPECT_LT(near, mid);
  EXPECT_LT(mid, far);
  EXPECT_EQ(wire_latency(p, 4, 4), 0u);
}

TEST(Params, PresetsMatchPaperEnvironments) {
  const auto gm = mare_nostrum_gm();
  const auto lapi = power5_lapi();
  // HPS rated bandwidth is 8x Myrinet (Sec. 4.3).
  EXPECT_NEAR(lapi.link_bw / gm.link_bw, 8.0, 1e-9);
  EXPECT_FALSE(gm.comm_comp_overlap);
  EXPECT_TRUE(lapi.comm_comp_overlap);
  EXPECT_TRUE(gm.put_cache_default);
  EXPECT_FALSE(lapi.put_cache_default);  // disabled after Fig. 6
  EXPECT_EQ(lapi.max_bytes_per_handle, std::size_t{32} << 20);  // 32 MB
  EXPECT_EQ(gm.max_dmaable_bytes, std::size_t{1} << 30);        // 1 GB
  EXPECT_EQ(gm.max_cores_per_node, 4u);
  EXPECT_EQ(lapi.max_cores_per_node, 16u);
}

// ------------------------------------------------------------ machine ---

TEST(Machine, ProvidesPerNodeResources) {
  sim::Simulator sim;
  Machine m(sim, mare_nostrum_gm(), mc(4, 2));
  EXPECT_EQ(m.nodes(), 4u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(m.core(n, 0).capacity(), 1u);
    EXPECT_EQ(m.core(n, 1).capacity(), 1u);
    EXPECT_GE(m.comm_cpu(n).capacity(), 2u);
    EXPECT_EQ(m.nic_tx(n).capacity(), 1u);
    EXPECT_EQ(m.nic_dma(n).capacity(), 2u);
  }
  EXPECT_THROW(m.core(0, 2), std::out_of_range);
  EXPECT_THROW(m.core(4, 0), std::out_of_range);
  EXPECT_THROW(m.comm_cpu(4), std::out_of_range);
  EXPECT_THROW(m.nic_tx(4), std::out_of_range);
  EXPECT_THROW(m.nic_dma(4), std::out_of_range);
}

TEST(Machine, RejectsZeroConfig) {
  sim::Simulator sim;
  EXPECT_THROW(Machine(sim, mare_nostrum_gm(), mc(0, 1)),
               std::invalid_argument);
}

// ------------------------------------------------------- fake AM target ---

// Minimal AmTarget exposing one "shared object" of fixed size per node.
class FakeTarget : public AmTarget {
 public:
  explicit FakeTarget(std::size_t bytes_per_node)
      : bytes_(bytes_per_node) {
    for (int n = 0; n < 8; ++n) {
      store_[n].assign(bytes_per_node, std::byte{0});
    }
  }

  Addr base(NodeId n) const { return 0x1000u + (static_cast<Addr>(n) << 32); }
  std::byte* data(NodeId n) { return store_[n].data(); }
  void set_pinned(bool v) { pinned_ = v; }

  GetServe serve_get(NodeId target, const GetRequest& req) override {
    GetServe out;
    out.data.assign(store_[target].begin() + req.offset,
                    store_[target].begin() + req.offset + req.len);
    out.src_addr = base(target) + req.offset;
    if (req.want_base) {
      out.base = BaseInfo{base(target), 7};
      if (!pinned_once_[target]) {
        pinned_once_[target] = true;
        out.reg_new_bytes = bytes_;
        out.reg_new_handles = 1;
      }
    }
    ++gets_served;
    return out;
  }

  PutServe serve_put(NodeId target, PutRequest&& req) override {
    std::memcpy(store_[target].data() + req.offset, req.data.data(),
                req.data.size());
    PutServe out;
    out.dst_addr = base(target) + req.offset;
    if (req.want_base) out.base = BaseInfo{base(target), 7};
    ++puts_served;
    return out;
  }

  PutServe serve_put_rendezvous(NodeId target, const PutRequest& req,
                                std::size_t) override {
    PutServe out;
    out.dst_addr = base(target) + req.offset;
    if (req.want_base) out.base = BaseInfo{base(target), 7};
    return out;
  }

  std::uint64_t serve_amo(NodeId target, const AmoRequest& req) override {
    std::uint64_t old = 0;
    std::memcpy(&old, store_[target].data() + req.offset, sizeof(old));
    const std::uint64_t next = old + req.operand;  // FAA only
    std::memcpy(store_[target].data() + req.offset, &next, sizeof(next));
    ++amos_served;
    return old;
  }

  void deliver_put_payload(NodeId target, std::uint64_t, std::uint64_t offset,
                           net::Bytes&& data) override {
    std::memcpy(store_[target].data() + offset, data.data(), data.size());
    ++payloads_delivered;
  }

  void serve_control(NodeId, NodeId, const ControlMsg&) override {
    ++controls_served;
  }

  RdmaWindow rdma_memory(NodeId target, Addr addr, std::size_t len) override {
    if (addr < base(target) || addr + len > base(target) + bytes_) {
      throw RdmaProtocolError("bad address");
    }
    if (!pinned_) return RdmaWindow{nullptr, RdmaNak::kNotPinned};
    return RdmaWindow{store_[target].data() + (addr - base(target)),
                      RdmaNak::kNone};
  }

  int gets_served = 0;
  int puts_served = 0;
  int controls_served = 0;
  int payloads_delivered = 0;
  int amos_served = 0;

 private:
  std::size_t bytes_;
  bool pinned_ = true;
  bool pinned_once_[8] = {};
  std::map<NodeId, std::vector<std::byte>> store_;
};

struct Fixture {
  explicit Fixture(PlatformParams params, std::size_t bytes = 1 << 22)
      : target(bytes), machine(sim, std::move(params), mc(2, 1)) {}
  sim::Simulator sim;
  FakeTarget target;
  Machine machine;
  Transport transport{machine, target};
};

sim::Duration timed_get(Fixture& f, std::uint32_t len, bool want_base = false,
                        GetReply* out = nullptr) {
  sim::Time t0 = 0, t1 = 0;
  f.sim.spawn([](Fixture& fx, std::uint32_t l, bool wb, GetReply* o,
                 sim::Time& a, sim::Time& b) -> sim::Task<> {
    a = fx.sim.now();
    GetRequest req;
    req.len = l;
    req.want_base = wb;
    GetReply reply;
    (void)co_await fx.transport.get({0, 0}, 1, req, reply);
    b = fx.sim.now();
    if (o != nullptr) *o = std::move(reply);
  }(f, len, want_base, out, t0, t1));
  f.sim.run();
  return t1 - t0;
}

TEST(Transport, GetLatencyIsMonotonicInSize) {
  for (auto kind : {TransportKind::kGm, TransportKind::kLapi}) {
    Fixture f(preset(kind));
    sim::Duration prev = 0;
    for (std::uint32_t len : {1u, 64u, 4096u, 65536u, 1u << 20}) {
      const auto d = timed_get(f, len);
      EXPECT_GT(d, prev) << "size " << len;
      prev = d;
    }
  }
}

TEST(Transport, SmallGetRoundtripInPaperRange) {
  // Sec. 4.3: roundtrip latencies of both networks in the 4-8 us range
  // (uncached path; ours includes the SVD translation).
  for (auto kind : {TransportKind::kGm, TransportKind::kLapi}) {
    Fixture f(preset(kind));
    const double us = sim::to_us(timed_get(f, 1));
    EXPECT_GT(us, 4.0);
    EXPECT_LT(us, 10.0);
  }
}

TEST(Transport, GetReturnsTheTargetBytes) {
  Fixture f(mare_nostrum_gm());
  for (int i = 0; i < 64; ++i) {
    f.target.data(1)[i] = static_cast<std::byte>(i * 3);
  }
  GetReply reply;
  timed_get(f, 64, false, &reply);
  ASSERT_EQ(reply.data.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(reply.data[i], static_cast<std::byte>(i * 3));
  }
  EXPECT_FALSE(reply.base.has_value());
}

TEST(Transport, WantBasePiggybacksBaseAddress) {
  Fixture f(mare_nostrum_gm());
  GetReply reply;
  timed_get(f, 8, true, &reply);
  ASSERT_TRUE(reply.base.has_value());
  EXPECT_EQ(reply.base->base, f.target.base(1));
}

TEST(Transport, EagerVsRendezvousSelection) {
  Fixture f(mare_nostrum_gm());
  timed_get(f, 16 * 1024);  // at the limit -> eager
  EXPECT_EQ(f.transport.stats().am_gets, 1u);
  EXPECT_EQ(f.transport.stats().rendezvous_gets, 0u);
  timed_get(f, 16 * 1024 + 1);  // above -> rendezvous
  EXPECT_EQ(f.transport.stats().rendezvous_gets, 1u);
}

TEST(Transport, FirstWantBaseGetChargesPinningTime) {
  Fixture f(mare_nostrum_gm());
  const auto first = timed_get(f, 8, true);
  const auto second = timed_get(f, 8, true);
  EXPECT_GT(first, second);  // pinning charged once
}

TEST(Transport, RdmaGetBypassesTargetCpuAndIsFaster) {
  Fixture f(mare_nostrum_gm());
  const auto am = timed_get(f, 8);
  sim::Time t0 = 0, t1 = 0;
  net::Bytes got;
  f.target.data(1)[5] = std::byte{0x7f};
  f.sim.spawn([](Fixture& fx, net::Bytes& o, sim::Time& a,
                 sim::Time& b) -> sim::Task<> {
    a = fx.sim.now();
    RdmaGetResult r;
    (void)co_await fx.transport.rdma_get({0, 0}, 1, fx.target.base(1), 8,
                                         r);
    b = fx.sim.now();
    o = std::move(r.data);
  }(f, got, t0, t1));
  f.sim.run();
  EXPECT_LT(t1 - t0, am);
  EXPECT_EQ(f.target.gets_served, 1);  // only the AM get touched the CPU
  EXPECT_EQ(got[5], std::byte{0x7f});
}

TEST(Transport, RdmaGetNakWhenUnpinned) {
  Fixture f(mare_nostrum_gm());
  f.target.set_pinned(false);
  bool naked = false;
  f.sim.spawn([](Fixture& fx, bool& nak) -> sim::Task<> {
    RdmaGetResult r;
    (void)co_await fx.transport.rdma_get({0, 0}, 1, fx.target.base(1), 8, r);
    nak = !r.ok() && r.nak == RdmaNak::kNotPinned;
  }(f, naked));
  f.sim.run();
  EXPECT_TRUE(naked);
  EXPECT_EQ(f.transport.stats().rdma_naks, 1u);
}

TEST(Transport, RdmaToInvalidAddressThrows) {
  Fixture f(mare_nostrum_gm());
  f.sim.spawn([](Fixture& fx) -> sim::Task<> {
    RdmaGetResult r;
    (void)co_await fx.transport.rdma_get({0, 0}, 1, 0x1, 8, r);
  }(f));
  EXPECT_THROW(f.sim.run(), RdmaProtocolError);
}

TEST(Transport, PutCompletesLocallyBeforeRemoteDelivery) {
  Fixture f(mare_nostrum_gm());
  sim::Time local_done = 0;
  sim::Time ack_done = 0;
  f.sim.spawn([](Fixture& fx, sim::Time& ld, sim::Time& ad) -> sim::Task<> {
    PutRequest req;
    req.data.assign(64, std::byte{0x55});
    co_await fx.transport.put({0, 0}, 1, std::move(req),
                              [&fx, &ad](const PutAck&) { ad = fx.sim.now(); });
    ld = fx.sim.now();
  }(f, local_done, ack_done));
  f.sim.run();
  EXPECT_GT(local_done, 0u);
  EXPECT_GT(ack_done, local_done);  // remote completion strictly later
  EXPECT_EQ(f.target.puts_served, 1);
  EXPECT_EQ(f.target.data(1)[0], std::byte{0x55});
}

TEST(Transport, LargePutUsesRendezvousAndDeliversPayload) {
  Fixture f(mare_nostrum_gm());
  bool acked = false;
  f.sim.spawn([](Fixture& fx, bool& a) -> sim::Task<> {
    PutRequest req;
    req.data.assign(64 * 1024, std::byte{0x11});
    co_await fx.transport.put({0, 0}, 1, std::move(req),
                              [&a](const PutAck&) { a = true; });
  }(f, acked));
  f.sim.run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(f.transport.stats().rendezvous_puts, 1u);
  EXPECT_EQ(f.target.payloads_delivered, 1);
  EXPECT_EQ(f.target.data(1)[1000], std::byte{0x11});
}

TEST(Transport, RdmaPutWritesMemoryAndSignalsDone) {
  Fixture f(mare_nostrum_gm());
  bool done = false;
  bool ok = false;
  f.sim.spawn([](Fixture& fx, bool& d, bool& o) -> sim::Task<> {
    net::Bytes data(16, std::byte{0x77});
    o = (co_await fx.transport.rdma_put({0, 0}, 1, fx.target.base(1) + 8,
                                        std::move(data), [&d] { d = true; }))
            .ok();
  }(f, done, ok));
  f.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(done);
  EXPECT_EQ(f.target.data(1)[8], std::byte{0x77});
  EXPECT_EQ(f.target.puts_served, 0);  // no CPU involvement
}

TEST(Transport, RdmaPutNakWhenUnpinned) {
  Fixture f(mare_nostrum_gm());
  f.target.set_pinned(false);
  bool done = false;
  bool ok = true;
  f.sim.spawn([](Fixture& fx, bool& d, bool& o) -> sim::Task<> {
    net::Bytes data(16, std::byte{0x77});
    const auto r = co_await fx.transport.rdma_put({0, 0}, 1, fx.target.base(1),
                                                  std::move(data),
                                                  [&d] { d = true; });
    o = r.ok();
    EXPECT_EQ(r.nak, RdmaNak::kNotPinned);
  }(f, done, ok));
  f.sim.run();
  EXPECT_FALSE(ok);
  EXPECT_FALSE(done);
}

TEST(Transport, ControlReachesHandler) {
  Fixture f(power5_lapi());
  f.sim.spawn([](Fixture& fx) -> sim::Task<> {
    co_await fx.transport.control({0, 0}, 1, SvdFreeNotice{42});
  }(f));
  f.sim.run();
  EXPECT_EQ(f.target.controls_served, 1);
  EXPECT_EQ(f.transport.stats().control_msgs, 1u);
}

TEST(Transport, PlatformSelectsHandlerCpuAndVerbsSteps) {
  // AM handlers run where the platform's comm_comp_overlap puts them: on
  // the target's application core for GM, on its communication
  // processor for LAPI and IB.
  for (const TransportKind kind :
       {TransportKind::kGm, TransportKind::kLapi, TransportKind::kIb}) {
    Fixture f(preset(kind));
    timed_get(f, 64);
    const bool on_comm_cpu = kind != TransportKind::kGm;
    EXPECT_EQ(f.machine.core(1, 0).acquisitions() > 0, !on_comm_cpu)
        << static_cast<int>(kind);
    EXPECT_EQ(f.machine.comm_cpu(1).acquisitions() > 0, on_comm_cpu)
        << static_cast<int>(kind);
  }
  // The verbs steps live in the shared protocol legs, keyed on the IB
  // platform: on GM and LAPI a GET, a PUT, an rdma_get and an FAA must
  // leave the queue-pair state untouched.
  for (const TransportKind kind : {TransportKind::kGm, TransportKind::kLapi}) {
    Fixture f(preset(kind));
    timed_get(f, 64);
    f.sim.spawn([](Fixture& fx) -> sim::Task<> {
      PutRequest put;
      put.data.assign(8, std::byte{1});
      co_await fx.transport.put({0, 0}, 1, std::move(put), {});
      RdmaGetResult read;
      (void)co_await fx.transport.rdma_get({0, 0}, 1, fx.target.base(1), 8,
                                           read);
      AmoRequest faa;
      faa.operand = 1;
      faa.raddr = fx.target.base(1);
      AmoResult old;
      (void)co_await fx.transport.amo({0, 0}, 1, faa, old);
    }(f));
    f.sim.run();
    const auto& s = f.transport.stats();
    EXPECT_EQ(s.am_gets, 1u) << static_cast<int>(kind);
    EXPECT_EQ(s.am_puts, 1u) << static_cast<int>(kind);
    EXPECT_EQ(s.rdma_gets, 1u) << static_cast<int>(kind);
    EXPECT_EQ(s.amo_msgs, 1u) << static_cast<int>(kind);
    EXPECT_EQ(s.nic_atomics, 0u) << static_cast<int>(kind);
    EXPECT_EQ(f.target.amos_served, 1) << static_cast<int>(kind);
    EXPECT_EQ(f.transport.queue_pair(0, 1), nullptr) << static_cast<int>(kind);
    EXPECT_EQ(s.qp_posts, 0u) << static_cast<int>(kind);
    EXPECT_EQ(s.inline_sends, 0u) << static_cast<int>(kind);
  }
}

TEST(Transport, RendezvousRegistrationIsCachedAcrossGets) {
  Fixture f(mare_nostrum_gm());
  const auto first = timed_get(f, 128 * 1024);
  const auto second = timed_get(f, 128 * 1024);
  EXPECT_GT(first, second);  // registration cache hit on the second
  EXPECT_GE(f.transport.reg_cache(1).hits(), 1u);
}

TEST(Transport, WireBytesAccumulate) {
  Fixture f(mare_nostrum_gm());
  timed_get(f, 1000);
  const auto& s = f.transport.stats();
  // Request header + reply header + 1000 payload bytes.
  EXPECT_EQ(s.wire_bytes, 2 * f.machine.params().header_bytes + 1000);
}

}  // namespace
}  // namespace xlupc::net
