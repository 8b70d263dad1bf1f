// Congestion-aware fabric (docs/FABRIC.md): finite switch buffers,
// credit flow control, ECMP vs adaptive routing, the port table's key
// order, and the byte-identity and apply-once guarantees the subsystem
// must preserve.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "core/runtime.h"
#include "net/fabric.h"
#include "net/machine.h"
#include "net/machine_registry.h"
#include "net/topology.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace xlupc::net {
namespace {

using sim::Task;
using sim::Time;

FabricParams finite(std::uint32_t credits,
                    RoutePolicy policy = RoutePolicy::kEcmp) {
  FabricParams fp;
  fp.port_credits = credits;
  fp.routing = policy;
  fp.route_seed = 7;
  return fp;
}

// --- transit timing ------------------------------------------------------

// Uncontended store-and-forward transit: wire_base up front, then one
// serialization + one hop latency per switch port.
TEST(FabricTransit, UncontendedTimeIsStoreAndForward) {
  struct Case {
    PlatformParams p;
    NodeId src, dst;
    std::uint32_t hops;
  };
  const std::vector<Case> cases = {
      {power5_lapi(), 0, 3, 1},         // flat switch
      {mare_nostrum_gm(), 0, 1, 1},     // same linecard
      {mare_nostrum_gm(), 0, 17, 3},    // same group
      {mare_nostrum_gm(), 0, 129, 5},   // across the top level
      {infiniband_verbs(), 0, 1, 1},    // same leaf
      {infiniband_verbs(), 0, 19, 3},   // same pod
      {infiniband_verbs(), 0, 325, 5},  // through the core
  };
  const std::uint64_t bytes = 4096;
  for (const Case& c : cases) {
    sim::Simulator sim;
    Fabric fab(sim, c.p, finite(4));
    Time done = 0;
    sim.spawn([](sim::Simulator& s, Fabric& f, const Case& cs,
                 std::uint64_t b, Time& out) -> Task<> {
      co_await f.transit(cs.src, cs.dst, b);
      out = s.now();
    }(sim, fab, c, bytes, done));
    sim.run();
    EXPECT_EQ(hops_between(c.p.topology, c.src, c.dst), c.hops);
    const sim::Duration expect =
        c.p.wire_base + c.hops * (c.p.serialize(bytes) + c.p.hop_latency);
    EXPECT_EQ(done, expect) << c.p.name << " " << c.src << "->" << c.dst;
    EXPECT_EQ(fab.stats().msgs, 1u);
    EXPECT_EQ(fab.stats().hops, c.hops);
    EXPECT_EQ(fab.stats().credit_waits, 0u);
  }
}

// Two messages racing for the same egress wire serialize; the fabric's
// contention shows up as added latency for the loser.
TEST(FabricTransit, SharedPortSerializes) {
  const PlatformParams p = infiniband_verbs();
  sim::Simulator sim;
  Fabric fab(sim, p, finite(8));
  std::vector<Time> done(2);
  for (int i = 0; i < 2; ++i) {
    // Two sources under one leaf, one destination: the leaf's down-port
    // toward the destination is shared.
    sim.spawn([](sim::Simulator& s, Fabric& f, NodeId src,
                 Time& out) -> Task<> {
      co_await f.transit(src, 2, 1 << 20);
      out = s.now();
    }(sim, fab, static_cast<NodeId>(i), done[i]));
  }
  sim.run();
  const sim::Duration solo =
      p.wire_base + p.serialize(1 << 20) + p.hop_latency;
  EXPECT_EQ(std::min(done[0], done[1]), solo);
  // The loser waits out the winner's full serialization on the wire.
  EXPECT_EQ(std::max(done[0], done[1]), solo + p.serialize(1 << 20));
}

// Credit exhaustion: with 1-credit buffers, a third message cannot even
// enter the switch until a slot frees — backpressure reaches the source.
TEST(FabricTransit, FiniteCreditsApplyBackpressure) {
  const PlatformParams p = infiniband_verbs();
  sim::Simulator sim;
  Fabric fab(sim, p, finite(1));
  int finished = 0;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Fabric& f, NodeId src, int& n) -> Task<> {
      co_await f.transit(src, 5, 1 << 16);
      ++n;
    }(fab, static_cast<NodeId>(i), finished));
  }
  sim.run();
  EXPECT_EQ(finished, 4);
  EXPECT_GT(fab.stats().credit_waits, 0u);
  EXPECT_GT(fab.stats().credit_wait_ns, 0u);
}

// --- routing -------------------------------------------------------------

TEST(FabricRouting, RouteCountsFollowTopology) {
  const PlatformParams ib = infiniband_verbs();
  sim::Simulator sim;
  Fabric fab(sim, ib, finite(4));
  EXPECT_EQ(fab.route_count(0, 1), 1u);     // same leaf: single path
  EXPECT_EQ(fab.route_count(0, 19), 18u);   // pod spines
  EXPECT_EQ(fab.route_count(0, 400), 18u);  // core planes

  const PlatformParams gm = mare_nostrum_gm();
  Fabric crossbar(sim, gm, finite(4));
  EXPECT_EQ(crossbar.route_count(0, 129), 1u);  // Myrinet: single route
}

TEST(FabricRouting, EcmpIsStableAndSeeded) {
  const PlatformParams ib = infiniband_verbs();
  sim::Simulator sim;
  Fabric fab(sim, ib, finite(4));
  const std::uint32_t r = fab.primary_route(3, 40);
  EXPECT_EQ(fab.primary_route(3, 40), r);  // pure hash, no state consumed
  EXPECT_LT(r, fab.route_count(3, 40));

  // A different route seed re-places at least one of a spread of pairs.
  FabricParams other = finite(4);
  other.route_seed = 12345;
  Fabric fab2(sim, ib, other);
  bool moved = false;
  for (NodeId dst = 19; dst < 19 + 32 && !moved; ++dst) {
    moved = fab.primary_route(0, dst) != fab2.primary_route(0, dst);
  }
  EXPECT_TRUE(moved);
}

// Adaptive routing equals ECMP on an idle fabric (strict-improvement
// tie-break) and diverts once the primary route carries load.
TEST(FabricRouting, AdaptiveDivertsOnlyUnderLoad) {
  const PlatformParams ib = infiniband_verbs();
  {
    sim::Simulator sim;
    Fabric idle(sim, ib, finite(2, RoutePolicy::kAdaptive));
    EXPECT_EQ(idle.select_route(0, 19), idle.primary_route(0, 19));
  }

  // Destinations across the pod whose ECMP hashes collide on one route:
  // from one source leaf they share the primary's leaf-up port, while
  // their spine-down and leaf-down ports differ — exactly the hash
  // collision multipath exists to break. Under ECMP the burst
  // serializes through the one 2-credit leaf-up port; adaptive sees the
  // occupied buffers at injection and spreads across the other routes.
  const NodeId src = 0;
  std::vector<NodeId> dsts;
  {
    sim::Simulator sim;
    Fabric probe(sim, ib, finite(2));
    const std::uint32_t prim = probe.primary_route(src, 19);
    for (NodeId d = 19; d < kFatTreePod && dsts.size() < 4; ++d) {
      if (probe.primary_route(src, d) == prim) dsts.push_back(d);
    }
  }
  ASSERT_EQ(dsts.size(), 4u);

  const auto burst = [&](RoutePolicy policy) {
    sim::Simulator sim;
    Fabric fab(sim, ib, finite(2, policy));
    for (const NodeId d : dsts) {
      sim.spawn([](Fabric& f, NodeId s, NodeId dd) -> Task<> {
        co_await f.transit(s, dd, 1 << 18);
      }(fab, src, d));
    }
    sim.run();
    return fab.stats();
  };
  const FabricStats adaptive = burst(RoutePolicy::kAdaptive);
  const FabricStats ecmp = burst(RoutePolicy::kEcmp);
  EXPECT_GT(adaptive.adaptive_diverts, 0u);
  EXPECT_EQ(ecmp.adaptive_diverts, 0u);
  EXPECT_GT(ecmp.credit_wait_ns, adaptive.credit_wait_ns);
}

// --- the port table ------------------------------------------------------

// A value that can be neither copied nor moved: StableMap must build it
// in place and never relocate it.
struct Pinned {
  explicit Pinned(std::uint64_t v) : value(v) {}
  Pinned(const Pinned&) = delete;
  Pinned& operator=(const Pinned&) = delete;
  std::uint64_t value;
};

// Seeded insert/find streams against std::map, across several growths
// of the index (8 -> 8192 slots): every value keeps the address it got
// at insert, a find of an absent key inserts nothing, a second insert
// of a key keeps the first value, and the visit order is std::map's.
TEST(StableMap, MatchesStdMapAcrossGrowths) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    StableMap<std::uint64_t, Pinned> table;
    std::map<std::uint64_t, std::pair<std::uint64_t, const Pinned*>> ref;
    sim::Rng rng(seed);
    const auto check_all = [&](int op) {
      std::vector<std::uint64_t> visited;
      table.for_each([&](std::uint64_t k, const Pinned& v) {
        visited.push_back(k);
        const auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "seed " << seed << " op " << op;
        EXPECT_EQ(&v, it->second.second) << "moved: key " << k;
        EXPECT_EQ(v.value, it->second.first) << "key " << k;
      });
      std::vector<std::uint64_t> want;
      for (const auto& [k, v] : ref) want.push_back(k);
      EXPECT_EQ(visited, want) << "seed " << seed << " op " << op;
    };
    for (int op = 0; op < 6000; ++op) {
      // Wide keys (the fabric packs a level into the top byte) and a
      // dense low range, so ascending order is not insertion order.
      std::uint64_t key = rng.below(3000);
      if (rng.below(2) == 0) {
        const std::uint64_t wide = rng.next_u64();
        key = wide >> rng.below(64);
      }
      if (rng.below(100) < 60) {
        const std::uint64_t value = rng.next_u64();
        Pinned& got = table.try_emplace(key, value);
        const auto it = ref.try_emplace(key, value, &got).first;
        EXPECT_EQ(&got, it->second.second) << "seed " << seed << " op " << op;
        EXPECT_EQ(got.value, it->second.first) << "key " << key;
      } else {
        const std::size_t before = table.size();
        const Pinned* got = table.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << key;
        if (got != nullptr) {
          EXPECT_EQ(got, it->second.second);
        }
        EXPECT_EQ(table.size(), before) << "find inserted key " << key;
      }
      ASSERT_EQ(table.size(), ref.size()) << "seed " << seed << " op " << op;
      if (op % 500 == 499) check_all(op);
      if (HasFailure()) return;
    }
    EXPECT_GT(ref.size(), 2048u);  // the index grew past 4096 slots
    check_all(-1);
  }
}

// The report lists fabric ports by key (stage, switch, port), whatever
// order traffic materialized them in: here leaf 2's down-port comes first
// and leaf 0's next, but the listing starts with leaf 0.
TEST(FabricPorts, ListedInKeyOrderThroughMachine) {
  const PlatformParams ib = infiniband_verbs();
  sim::Simulator sim;
  MachineConfig mc;
  mc.nodes = 40;
  mc.fabric = finite(4);
  Machine m(sim, ib, mc);
  sim.spawn([](Fabric& f) -> Task<> {
    co_await f.transit(37, 36, 64);  // leaf 2 -> its node 0
    co_await f.transit(1, 0, 64);    // leaf 0 -> its node 0
    co_await f.transit(0, 19, 64);   // leaf 0 up, spine down, leaf 1 down
  }(m.fabric()));
  sim.run();

  const std::string r = std::to_string(m.fabric().primary_route(0, 19));
  std::vector<std::string> want;
  const std::vector<std::string> ports = {
      "fab.leaf0.dn0", "fab.leaf1.dn1", "fab.leaf2.dn0", "fab.leaf0.up" + r,
      "fab.spine" + r + ".dn1"};
  for (const std::string& port : ports) {
    want.push_back(port + ".buf");
    want.push_back(port + ".wire");
  }
  std::vector<std::string> got;
  m.for_each_resource([&got, &m](const sim::Resource&,
                                  const net::ResourceId& id) {
    const std::string name = m.resource_name(id);
    if (name.rfind("fab.", 0) == 0) got.push_back(name);
  });
  EXPECT_EQ(got, want);
  EXPECT_EQ(m.fabric().port_count(), 5u);
}

// A port first touched inside a metrics window reports its utilization
// over that window, as the ports the reset found do: a wire busy from the
// reset on reads 1.0, not diluted by the time before the reset.
TEST(FabricPorts, PortFirstTouchedInsideAWindowReportsUtilizationOverIt) {
  const PlatformParams p = power5_lapi();  // flat switch: 0 -> 3 is one port
  sim::Simulator sim;
  Fabric fab(sim, p, finite(4));
  const std::uint64_t bytes = 1 << 16;
  const Time t0 = p.wire_base;  // when the message reaches its port
  ASSERT_GT(t0, 0u);
  double util = -1.0;
  // Spawned first, so at t0 the reset runs before the transit takes the
  // port; the reading comes while the wire still serializes the message.
  sim.spawn([](sim::Simulator& s, Fabric& f, Time at) -> Task<> {
    co_await s.delay(at);
    f.reset_port_usage();
  }(sim, fab, t0));
  sim.spawn([](Fabric& f, std::uint64_t b) -> Task<> {
    co_await f.transit(0, 3, b);
  }(fab, bytes));
  sim.spawn([](sim::Simulator& s, Fabric& f, Time at,
               double& out) -> Task<> {
    co_await s.delay(at);
    f.for_each_port([&out](std::uint64_t, const sim::Resource&,
                           const sim::Resource& wire) {
      out = wire.utilization();
    });
  }(sim, fab, t0 + p.serialize(bytes), util));
  sim.run();
  EXPECT_EQ(fab.port_count(), 1u);
  EXPECT_DOUBLE_EQ(util, 1.0);
}

// --- runtime integration -------------------------------------------------

core::RuntimeConfig rt_config(const char* machine, std::uint32_t nodes) {
  core::RuntimeConfig cfg;
  cfg.platform = make_machine(machine);
  cfg.nodes = nodes;
  cfg.threads_per_node = 1;
  return cfg;
}

core::RunReport pingpong_report(core::RuntimeConfig cfg) {
  core::Runtime rt(std::move(cfg));
  rt.run([&](core::UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(64, 8, 8);
    co_await th.barrier();
    for (int rep = 0; rep < 4; ++rep) {
      const std::uint64_t peer = (th.id() + 1) % rt.threads();
      co_await th.write<std::uint64_t>(a, peer * 8, rep);
      (void)co_await th.read<std::uint64_t>(a, peer * 8 + 1);
    }
    co_await th.barrier();
  });
  return rt.metrics();
}

// Infinite buffers (the default) leave the report without a single
// fabric artifact: no fabric.* keys, no fab.* port resources.
TEST(FabricRuntime, DisabledFabricLeavesNoTrace) {
  const core::RunReport r = pingpong_report(rt_config("ib", 4));
  for (const auto& [k, v] : r.counters) {
    EXPECT_EQ(k.rfind("fabric.", 0), std::string::npos) << k;
  }
  for (const auto& u : r.resources) {
    EXPECT_EQ(u.name.rfind("fab.", 0), std::string::npos) << u.name;
  }
}

// Same-seed determinism with finite buffers: two identical runs fold
// identical counters, port lists and timings.
TEST(FabricRuntime, FiniteBuffersAreDeterministic) {
  for (const char* m : {"gm", "lapi", "ib"}) {
    auto cfg = rt_config(m, 4);
    cfg.fabric = finite(2, RoutePolicy::kAdaptive);
    const core::RunReport a = pingpong_report(cfg);
    const core::RunReport b = pingpong_report(cfg);
    EXPECT_EQ(a.counters, b.counters) << m;
    EXPECT_GT(a.counter("fabric.msgs"), 0u) << m;
    ASSERT_EQ(a.resources.size(), b.resources.size()) << m;
    for (std::size_t i = 0; i < a.resources.size(); ++i) {
      EXPECT_EQ(a.resources[i].name, b.resources[i].name);
      EXPECT_EQ(a.resources[i].busy_us, b.resources[i].busy_us);
    }
    // Port resources made it into the report.
    EXPECT_TRUE(std::any_of(a.resources.begin(), a.resources.end(),
                            [](const core::ResourceUsage& u) {
                              return u.name.rfind("fab.", 0) == 0;
                            }))
        << m;
  }
}

// --- satellite: retransmits under sustained backpressure ----------------
//
// Finite buffers stretch delivery far past the base RTT, so the RTO
// fires while the original is still queued in the fabric: retransmitted
// copies then arrive behind it. Apply-once must survive — a remote
// counter incremented N times must read exactly N, with real
// retransmission work recorded.
TEST(FabricBackpressure, RetransmitsNeverDoubleApply) {
  auto cfg = rt_config("gm", 8);
  cfg.fabric = finite(1);
  cfg.faults.seed = 11;
  cfg.faults.drop_prob = 0.05;
  cfg.faults.dup_prob = 0.5;
  // An RTO short enough that fabric queueing delays beat it: spurious
  // timeouts retransmit legs that were merely stuck behind a full
  // buffer, and the seqno window must suppress every late copy.
  cfg.faults.rto = sim::us(30.0);
  cfg.faults.max_retransmits = 64;

  constexpr std::uint64_t kAddsPerThread = 24;
  core::Runtime rt(std::move(cfg));
  rt.run([&](core::UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(8, 8, 1);  // one hot counter on thread 0
    co_await th.barrier();
    for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
      (void)co_await th.fetch_add(a, 0, 1);
    }
    co_await th.barrier();
    if (th.id() == 0) {
      EXPECT_EQ(co_await th.read<std::uint64_t>(a, 0),
                kAddsPerThread * rt.threads());
    }
    co_await th.barrier();
  });
  const core::RunReport r = rt.metrics();
  // The scenario actually exercised recovery under congestion: messages
  // were dropped and retransmitted while the fabric carried real load.
  EXPECT_GT(r.counter("reliability.retransmits"), 0u);
  EXPECT_GT(r.counter("fabric.credit_waits"), 0u);
}

// Link-down failover composes with the fabric: the detour traverses the
// alternate route's buffers and is counted.
TEST(FabricFailover, LinkDownDetoursThroughAlternateBuffers) {
  auto cfg = rt_config("ib", 24);  // spans two leaves: redundant paths
  cfg.fabric = finite(4);
  sim::LinkDownWindow w;
  w.a = 0;
  w.b = 20;  // cross-leaf pair with 17 alternates
  w.start = 0;
  w.length = sim::us(100000.0);  // dark for the whole run
  cfg.faults.seed = 5;
  cfg.faults.link_downs.push_back(w);

  core::Runtime rt(std::move(cfg));
  rt.run([&](core::UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(48, 8, 2);
    co_await th.barrier();
    if (th.id() == 0) {
      for (int i = 0; i < 6; ++i) {
        co_await th.write<std::uint64_t>(a, 40, i);  // element homed on 20
        (void)co_await th.read<std::uint64_t>(a, 41);
      }
    }
    co_await th.barrier();
  });
  const core::RunReport r = rt.metrics();
  EXPECT_GT(r.counter("fault.fabric.failover_routes"), 0u);
  EXPECT_GT(r.counter("fabric.failover_transits"), 0u);
}

}  // namespace
}  // namespace xlupc::net
