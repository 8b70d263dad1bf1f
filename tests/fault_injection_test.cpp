// Deterministic fault injection and the transports' reliability layer
// (docs/FAULTS.md): FaultPlan stream semantics, drop/retransmit recovery
// on the eager and rendezvous paths, duplicate suppression, timeout
// escalation, NIC stalls, node slowdowns, pin-pressure degradation, and
// byte-for-byte replayability of whole runs from one seed.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "benchsupport/report.h"
#include "core/runtime.h"
#include "net/machine.h"
#include "net/machine_registry.h"
#include "net/transport.h"
#include "sim/fault_plan.h"

namespace xlupc {
namespace {

using sim::FaultParams;
using sim::FaultPlan;

// ------------------------------------------------------ FaultPlan unit ---

TEST(FaultPlan, NullAndZeroProbabilityPlansAreDisabled) {
  EXPECT_FALSE(FaultPlan().enabled());
  FaultParams p;
  p.seed = 1234;  // a bare seed is still a no-fault plan
  EXPECT_FALSE(p.any());
  EXPECT_FALSE(FaultPlan(p).enabled());
  p.drop_prob = 0.01;
  EXPECT_TRUE(p.any());
  EXPECT_TRUE(FaultPlan(p).enabled());
}

TEST(FaultPlan, SameSeedReplaysTheSameVerdictSequence) {
  FaultParams p;
  p.seed = 7;
  p.drop_prob = 0.2;
  p.corrupt_prob = 0.1;
  p.pin_fail_prob = 0.3;
  FaultPlan a(p), b(p);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.transmit(0, 1), b.transmit(0, 1)) << "draw " << i;
    EXPECT_EQ(a.pin_fails(1), b.pin_fails(1)) << "draw " << i;
  }
}

TEST(FaultPlan, LinksHaveIndependentStreams) {
  FaultParams p;
  p.seed = 11;
  p.drop_prob = 0.5;
  FaultPlan a(p), b(p);
  // Interleaving traffic on an unrelated link must not perturb the
  // verdicts another link sees — per-link streams, not one global one.
  for (int i = 0; i < 100; ++i) {
    (void)b.transmit(2, 3);
    EXPECT_EQ(a.transmit(0, 1), b.transmit(0, 1)) << "draw " << i;
  }
}

TEST(FaultPlan, RtoBackoffIsExponentialAndCapped) {
  FaultParams p;
  p.drop_prob = 1.0;
  p.rto = sim::us(40.0);
  p.rto_backoff = 2.0;
  p.rto_cap = sim::us(640.0);
  FaultPlan plan(p);
  EXPECT_EQ(plan.rto_after(0), sim::us(40.0));
  EXPECT_EQ(plan.rto_after(1), sim::us(80.0));
  EXPECT_EQ(plan.rto_after(2), sim::us(160.0));
  EXPECT_EQ(plan.rto_after(4), sim::us(640.0));
  EXPECT_EQ(plan.rto_after(30), sim::us(640.0));  // capped, no overflow
}

TEST(FaultPlan, StallWindowsAndSlowdownsAreTimeScoped) {
  FaultParams p;
  p.nic_stalls.push_back({1, sim::us(100.0), sim::us(50.0)});
  p.slowdowns.push_back({0, sim::us(10.0), sim::us(20.0), 4.0});
  FaultPlan plan(p);
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.stall_remaining(1, sim::us(90.0)), 0u);   // before window
  EXPECT_EQ(plan.stall_remaining(1, sim::us(120.0)), sim::us(30.0));
  EXPECT_EQ(plan.stall_remaining(1, sim::us(160.0)), 0u);  // after window
  EXPECT_EQ(plan.stall_remaining(0, sim::us(120.0)), 0u);  // other node
  EXPECT_EQ(plan.slowdown(0, sim::us(15.0)), 4.0);
  EXPECT_EQ(plan.slowdown(0, sim::us(40.0)), 1.0);
  EXPECT_EQ(plan.slowdown(1, sim::us(15.0)), 1.0);
}

// ------------------------------------------------- transport-level rig ---

using namespace xlupc::net;

class EchoTarget : public AmTarget {
 public:
  explicit EchoTarget(std::size_t bytes) : bytes_(bytes) {
    for (int n = 0; n < 4; ++n) store_[n].assign(bytes, std::byte{0});
  }
  Addr base(NodeId n) const { return 0x1000u + (static_cast<Addr>(n) << 32); }
  std::byte* data(NodeId n) { return store_[n].data(); }
  void set_pinned(bool v) { pinned_ = v; }

  GetServe serve_get(NodeId target, const GetRequest& req) override {
    GetServe out;
    out.data.assign(store_[target].begin() + req.offset,
                    store_[target].begin() + req.offset + req.len);
    out.src_addr = base(target) + req.offset;
    ++gets_served;
    return out;
  }
  PutServe serve_put(NodeId target, PutRequest&& req) override {
    std::memcpy(store_[target].data() + req.offset, req.data.data(),
                req.data.size());
    ++puts_served;
    return PutServe{base(target) + req.offset, {}, 0, 0, 0};
  }
  PutServe serve_put_rendezvous(NodeId target, const PutRequest& req,
                                std::size_t) override {
    ++rendezvous_served;
    return PutServe{base(target) + req.offset, {}, 0, 0, 0};
  }
  void deliver_put_payload(NodeId target, std::uint64_t, std::uint64_t offset,
                           net::Bytes&& data) override {
    std::memcpy(store_[target].data() + offset, data.data(), data.size());
    ++payloads_delivered;
  }
  void serve_control(NodeId, NodeId, const ControlMsg&) override {
    ++controls_served;
  }
  std::uint64_t serve_amo(NodeId target, const AmoRequest& req) override {
    ++amos_served;  // FAA only
    std::uint64_t old = 0;
    std::memcpy(&old, store_[target].data() + req.offset, sizeof(old));
    const std::uint64_t next = old + req.operand;
    std::memcpy(store_[target].data() + req.offset, &next, sizeof(next));
    return old;
  }
  RdmaWindow rdma_memory(NodeId target, Addr addr, std::size_t len) override {
    ++windows_served;
    if (addr < base(target) || addr + len > base(target) + bytes_) {
      throw RdmaProtocolError("bad address");
    }
    if (!pinned_) return RdmaWindow{nullptr, RdmaNak::kNotPinned};
    return RdmaWindow{store_[target].data() + (addr - base(target)),
                      RdmaNak::kNone};
  }

  int gets_served = 0;
  int puts_served = 0;
  int payloads_delivered = 0;
  int rendezvous_served = 0;
  int controls_served = 0;
  int amos_served = 0;
  int windows_served = 0;  ///< rdma_memory lookups (RDMA and NIC AMO)

 private:
  std::size_t bytes_;
  bool pinned_ = true;
  std::map<NodeId, std::vector<std::byte>> store_;
};

struct Rig {
  explicit Rig(PlatformParams p, FaultParams fp = {},
               std::size_t bytes = 1 << 20)
      : target(bytes), machine(sim, std::move(p), {2, 1, std::move(fp), {}}) {}
  sim::Simulator sim;
  EchoTarget target;
  Machine machine;
  Transport transport{machine, target};
};

sim::Duration timed_get(Rig& rig, std::uint32_t len, GetReply* out = nullptr) {
  sim::Time t0 = 0, t1 = 0;
  rig.sim.spawn([](Rig& r, std::uint32_t l, GetReply* o, sim::Time& a,
                   sim::Time& b) -> sim::Task<> {
    a = r.sim.now();
    GetRequest req;
    req.len = l;
    GetReply reply;
    (void)co_await r.transport.get({0, 0}, 1, req, reply);
    b = r.sim.now();
    if (o != nullptr) *o = std::move(reply);
  }(rig, len, out, t0, t1));
  rig.sim.run();
  return t1 - t0;
}

TEST(FaultTransport, EagerGetRecoversFromDropsWithRetransmits) {
  FaultParams fp;
  fp.seed = 9;
  fp.drop_prob = 0.25;
  fp.corrupt_prob = 0.05;
  Rig rig(mare_nostrum_gm(), fp);
  for (int i = 0; i < 64; ++i) {
    rig.target.data(1)[i] = static_cast<std::byte>(i + 1);
  }
  Rig clean(mare_nostrum_gm());
  for (int i = 0; i < 8; ++i) {
    GetReply reply;
    timed_get(rig, 64, &reply);
    ASSERT_EQ(reply.data.size(), 64u);  // recovered losses, data intact
    for (int b = 0; b < 64; ++b) {
      EXPECT_EQ(reply.data[b], static_cast<std::byte>(b + 1));
    }
    timed_get(clean, 64);
  }
  const auto& s = rig.transport.stats();
  EXPECT_GT(s.retransmits, 0u);
  EXPECT_GT(s.dropped_msgs + s.corrupt_msgs, 0u);
  EXPECT_EQ(s.retransmits, s.dropped_msgs + s.corrupt_msgs);  // all recovered
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_GT(s.backoff_ns, 0u);
  // Every retransmission re-sends the message: more wire traffic than
  // the fault-free rig moving the same payloads.
  EXPECT_GT(s.wire_bytes, clean.transport.stats().wire_bytes);
  EXPECT_EQ(rig.target.gets_served, 8);
}

TEST(FaultTransport, RendezvousGetRecoversFromDrops) {
  FaultParams fp;
  fp.seed = 21;
  fp.drop_prob = 0.3;
  Rig rig(mare_nostrum_gm(), fp);
  const std::uint32_t len = 128 * 1024;  // > GM eager limit
  rig.target.data(1)[1000] = std::byte{0x5a};
  GetReply reply;
  for (int i = 0; i < 4; ++i) timed_get(rig, len, &reply);
  EXPECT_EQ(rig.transport.stats().rendezvous_gets, 4u);
  ASSERT_EQ(reply.data.size(), len);
  EXPECT_EQ(reply.data[1000], std::byte{0x5a});
  EXPECT_GT(rig.transport.stats().retransmits, 0u);
  EXPECT_EQ(rig.transport.stats().timeouts, 0u);
}

TEST(FaultTransport, LateDuplicatesAreSuppressedAndCounted) {
  FaultParams fp;
  fp.seed = 3;
  fp.drop_prob = 0.4;
  fp.dup_prob = 1.0;  // every recovered loss resurfaces as a duplicate
  Rig rig(mare_nostrum_gm(), fp);
  for (int i = 0; i < 12; ++i) timed_get(rig, 32);
  const auto& s = rig.transport.stats();
  EXPECT_GT(s.retransmits, 0u);
  // One late duplicate per *recovered message* (dup_prob = 1), however
  // many times that message was dropped along the way.
  EXPECT_GT(s.duplicate_msgs, 0u);
  EXPECT_LE(s.duplicate_msgs, s.retransmits);
  EXPECT_EQ(rig.target.gets_served, 12);  // duplicates never re-served
}

TEST(FaultTransport, AwaitedGetThrowsTransportTimeoutAfterMaxRetries) {
  // The awaited GET returns kTimeout once the budget is spent; the
  // throwing surface raises it through raise_if_failed as TransportTimeout.
  FaultParams fp;
  fp.seed = 5;
  fp.drop_prob = 1.0;
  fp.max_retransmits = 2;
  Rig rig(mare_nostrum_gm(), fp);
  OpStatus status = OpStatus::kOk;
  rig.sim.spawn([](Rig& r, OpStatus& st) -> sim::Task<> {
    GetRequest req;
    req.len = 8;
    GetReply reply;
    st = co_await r.transport.get({0, 0}, 1, req, reply);
    raise_if_failed(st);
  }(rig, status));
  EXPECT_THROW(rig.sim.run(), TransportTimeout);
  EXPECT_EQ(status, OpStatus::kTimeout);
  EXPECT_EQ(rig.transport.stats().timeouts, 1u);
  EXPECT_EQ(rig.transport.stats().retransmits, 2u);
  EXPECT_EQ(rig.target.gets_served, 0);
}

// One awaited transport leg under total loss. `hooks` counts the PUT
// completion hook (on_ack / on_done) firings.
struct AwaitedLeg {
  const char* name;
  bool ib_only;
  OpStatus expected;  ///< what the awaited call returns
  int hooks;          ///< completion hook firings expected
  sim::Task<OpStatus> (*run)(Rig& r, int& hooks);
};

Bytes payload(std::size_t n) { return Bytes(n, std::byte{1}); }

const AwaitedLeg kAwaitedLegs[] = {
    {"eager GET", false, OpStatus::kTimeout, 0,
     [](Rig& r, int&) -> sim::Task<OpStatus> {
       GetRequest req;
       req.len = 8;
       GetReply reply;
       co_return co_await r.transport.get({0, 0}, 1, req, reply);
     }},
    {"rendezvous GET", false, OpStatus::kTimeout, 0,
     [](Rig& r, int&) -> sim::Task<OpStatus> {
       GetRequest req;
       req.len = static_cast<std::uint32_t>(r.machine.params().eager_limit + 8);
       GetReply reply;
       co_return co_await r.transport.get({0, 0}, 1, req, reply);
     }},
    // An eager PUT completes locally before its wire leg: the call
    // succeeds and the failed detached half still fires the hook once.
    {"eager PUT", false, OpStatus::kOk, 1,
     [](Rig& r, int& hooks) -> sim::Task<OpStatus> {
       PutRequest req;
       req.data = payload(8);
       co_return co_await r.transport.put(
           {0, 0}, 1, std::move(req), [&hooks](const PutAck&) { ++hooks; });
     }},
    {"rendezvous PUT", false, OpStatus::kTimeout, 0,
     [](Rig& r, int& hooks) -> sim::Task<OpStatus> {
       PutRequest req;
       req.data = payload(r.machine.params().eager_limit + 8);
       co_return co_await r.transport.put(
           {0, 0}, 1, std::move(req), [&hooks](const PutAck&) { ++hooks; });
     }},
    {"rdma_get", false, OpStatus::kTimeout, 0,
     [](Rig& r, int&) -> sim::Task<OpStatus> {
       RdmaGetResult result;
       co_return co_await r.transport.rdma_get({0, 0}, 1, r.target.base(1),
                                               64, result);
     }},
    // Accepted one-sided write: local completion, like the eager PUT.
    {"rdma_put", false, OpStatus::kOk, 1,
     [](Rig& r, int& hooks) -> sim::Task<OpStatus> {
       co_return (co_await r.transport.rdma_put({0, 0}, 1, r.target.base(1),
                                                payload(64),
                                                [&hooks] { ++hooks; }))
           .status;
     }},
    // Unpinned window: the NAK's descriptor round trip is awaited.
    {"rdma_put NAK", false, OpStatus::kTimeout, 0,
     [](Rig& r, int& hooks) -> sim::Task<OpStatus> {
       r.target.set_pinned(false);
       co_return (co_await r.transport.rdma_put({0, 0}, 1, r.target.base(1),
                                                payload(64),
                                                [&hooks] { ++hooks; }))
           .status;
     }},
    {"AM AMO", false, OpStatus::kTimeout, 0,
     [](Rig& r, int&) -> sim::Task<OpStatus> {
       AmoRequest req;
       req.operand = 1;
       AmoResult result;
       co_return co_await r.transport.amo({0, 0}, 1, req, result);
     }},
    {"NIC AMO", true, OpStatus::kTimeout, 0,
     [](Rig& r, int&) -> sim::Task<OpStatus> {
       AmoRequest req;
       req.operand = 1;
       req.raddr = r.target.base(1);
       AmoResult result;
       co_return co_await r.transport.amo({0, 0}, 1, req, result);
     }},
    {"rdma_batch", false, OpStatus::kTimeout, 0,
     [](Rig& r, int&) -> sim::Task<OpStatus> {
       RdmaBatch batch;
       batch.ops.push_back(RdmaBatchOp{true, 0, 0, 8, 0, {}});
       batch.ops.push_back(RdmaBatchOp{false, 0, 8, 8, 0, payload(8)});
       co_return (co_await r.transport.rdma_batch({0, 0}, 1, std::move(batch)))
           .status;
     }},
    {"control", false, OpStatus::kTimeout, 0,
     [](Rig& r, int&) -> sim::Task<OpStatus> {
       co_return co_await r.transport.control({0, 0}, 1, SvdFreeNotice{7});
     }},
};

TEST(FaultTransport, EveryAwaitedLegReturnsTimeoutAfterMaxRetries) {
  // Total loss on every machine: each awaited leg must come back as
  // kTimeout once the (shortened) budget is spent — the simulation drains
  // instead of wedging on a lost completion — with the loss counted and
  // no target handler run. A discarded status would let the op continue
  // silently, so every call's result is checked.
  FaultParams fp;
  fp.seed = 5;
  fp.drop_prob = 1.0;
  fp.max_retransmits = 2;
  for (const char* machine : {"gm", "lapi", "ib"}) {
    const PlatformParams p = make_machine(machine);
    for (const AwaitedLeg& leg : kAwaitedLegs) {
      if (leg.ib_only && p.kind != TransportKind::kIb) continue;
      SCOPED_TRACE(std::string(machine) + " " + leg.name);
      Rig rig(p, fp, 2 * p.eager_limit + 64);
      OpStatus status = OpStatus::kPeerFailed;
      int hooks = 0;
      rig.sim.spawn([](Rig& r, const AwaitedLeg& l, OpStatus& st,
                       int& h) -> sim::Task<> {
        st = co_await l.run(r, h);
      }(rig, leg, status, hooks));
      rig.sim.run();
      EXPECT_EQ(status, leg.expected);
      EXPECT_EQ(hooks, leg.hooks);
      const auto& s = rig.transport.stats();
      EXPECT_EQ(s.timeouts, 1u);
      EXPECT_EQ(s.retransmits, 2u);
      const EchoTarget& t = rig.target;
      EXPECT_EQ(t.gets_served + t.puts_served + t.payloads_delivered +
                    t.rendezvous_served + t.controls_served + t.amos_served,
                0);
      if (std::string(leg.name) != "rdma_put" &&
          std::string(leg.name) != "rdma_put NAK") {
        // The one-sided write validates its window before any wire leg.
        EXPECT_EQ(t.windows_served, 0);
      }
    }
  }
}

TEST(FaultTransport, DetachedPutStillAcksUnderTotalLoss) {
  // The PUT's remote half is detached; a timeout there must complete the
  // operation (empty ack) rather than deadlock any waiting fence.
  FaultParams fp;
  fp.seed = 5;
  fp.drop_prob = 1.0;
  fp.max_retransmits = 2;
  Rig rig(mare_nostrum_gm(), fp);
  bool acked = false;
  rig.sim.spawn([](Rig& r, bool& a) -> sim::Task<> {
    PutRequest req;
    req.data.assign(64, std::byte{0x33});
    co_await r.transport.put({0, 0}, 1, std::move(req),
                             [&a](const PutAck&) { a = true; });
  }(rig, acked));
  rig.sim.run();  // must terminate: no deadlock, no escaped exception
  EXPECT_TRUE(acked);
  EXPECT_EQ(rig.transport.stats().timeouts, 1u);
  EXPECT_EQ(rig.target.puts_served, 0);  // the data really was lost
}

TEST(FaultTransport, NicStallWindowDelaysInjection) {
  FaultParams fp;
  fp.nic_stalls.push_back({0, 0, sim::us(300.0)});
  Rig rig(mare_nostrum_gm(), fp);
  const auto stalled = timed_get(rig, 8);
  EXPECT_GT(stalled, sim::us(300.0));
  EXPECT_GE(rig.transport.stats().nic_stall_waits, 1u);

  Rig clean(mare_nostrum_gm());
  EXPECT_LT(timed_get(clean, 8), sim::us(20.0));
}

TEST(FaultTransport, NodeSlowdownInflatesHandlerServiceTime) {
  FaultParams fp;
  fp.slowdowns.push_back({1, 0, sim::us(1e6), 8.0});
  Rig slow(mare_nostrum_gm(), fp);
  Rig clean(mare_nostrum_gm());
  EXPECT_GT(timed_get(slow, 4096), timed_get(clean, 4096));
}

TEST(FaultTransport, PinCapExhaustionDegradesToBounceBuffers) {
  // A transfer wider than the whole DMAable budget cannot be registered;
  // it must degrade to staging through bounce buffers and still finish.
  auto p = mare_nostrum_gm();
  p.max_dmaable_bytes = 16 * 1024;
  Rig rig(std::move(p), {}, 1 << 20);
  const std::uint32_t len = 128 * 1024;
  rig.target.data(1)[77] = std::byte{0x42};
  GetReply reply;
  const auto elapsed = timed_get(rig, len, &reply);  // returns: no deadlock
  EXPECT_GT(elapsed, 0u);
  ASSERT_EQ(reply.data.size(), len);
  EXPECT_EQ(reply.data[77], std::byte{0x42});
  EXPECT_GT(rig.transport.stats().bounce_fallbacks, 0u);
  EXPECT_EQ(rig.transport.reg_cache(1).resident_bytes(), 0u);  // never over
  EXPECT_GT(rig.transport.reg_cache(1).bounces(), 0u);
}

// ------------------------------------------------------- runtime level ---

core::RuntimeConfig faulty_config(FaultParams fp) {
  core::RuntimeConfig cfg;
  cfg.platform = net::mare_nostrum_gm();
  cfg.nodes = 2;
  cfg.threads_per_node = 1;
  cfg.faults = std::move(fp);
  return cfg;
}

/// Mixed GET/PUT workload over the remote piece: eager, rendezvous and
/// RDMA paths all see traffic. Returns the full RunReport.
core::RunReport run_workload(core::RuntimeConfig cfg) {
  core::Runtime rt(std::move(cfg));
  rt.run([&](core::UpcThread& th) -> sim::Task<void> {
    auto a = co_await th.all_alloc(8192, 8, 4096);
    co_await th.barrier();
    if (th.id() == 0) {
      for (std::uint64_t i = 0; i < 16; ++i) {
        co_await th.write<std::uint64_t>(a, 4096 + i, 5000 + i);
      }
      co_await th.fence();
      for (std::uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(co_await th.read<std::uint64_t>(a, 4096 + i), 5000 + i);
      }
      std::vector<std::byte> buf(3072 * 8);  // rendezvous-sized GET
      co_await th.get(a, 4096, buf);
    }
    co_await th.barrier();
  });
  return rt.metrics();
}

std::string report_json(const core::RunReport& r) {
  return bench::to_json(r).dump_string();
}

// One 24 KB memget (a rendezvous GET on GM) under a DMAable budget of
// `max_dmaable_bytes`, with no fault plan. Returns the report and the
// transport's bounce counter.
std::pair<core::RunReport, std::uint64_t> run_fault_free_memget(
    std::size_t max_dmaable_bytes) {
  core::RuntimeConfig cfg = faulty_config({});
  cfg.platform.max_dmaable_bytes = max_dmaable_bytes;
  core::Runtime rt(std::move(cfg));
  rt.run([&](core::UpcThread& th) -> sim::Task<void> {
    auto a = co_await th.all_alloc(8192, 8, 4096);
    co_await th.barrier();
    if (th.id() == 0) {
      std::vector<std::byte> buf(3072 * 8);
      co_await th.memget(a, 4096, buf);
    }
    co_await th.barrier();
  });
  return {rt.metrics(), rt.transport().stats().bounce_fallbacks};
}

bool reports_key(const core::RunReport& r, std::string_view name) {
  for (const auto& [k, v] : r.counters) {
    if (k == name) return true;
  }
  return false;
}

TEST(BounceReport, FaultFreeRunThatBouncesReportsIt) {
  // A budget below one memget's size: the registration can never fit, so
  // the transfer stages through bounce buffers with no fault plan, and
  // the report says so.
  const auto [r, bounces] = run_fault_free_memget(16 * 1024);
  EXPECT_GT(bounces, 0u);
  ASSERT_TRUE(reports_key(r, "reliability.bounce_fallbacks"));
  EXPECT_EQ(r.counter("reliability.bounce_fallbacks"), bounces);
  EXPECT_FALSE(reports_key(r, "reliability.retransmits"));  // still no plan
}

TEST(BounceReport, FaultFreeRunThatNeverBouncesHasNoKey) {
  const auto [r, bounces] = run_fault_free_memget(0);  // unlimited budget
  EXPECT_EQ(bounces, 0u);
  EXPECT_FALSE(reports_key(r, "reliability.bounce_fallbacks"));
}

TEST(FaultRuntime, SameSeedYieldsByteIdenticalReports) {
  FaultParams fp;
  fp.seed = 7;
  fp.drop_prob = 0.05;
  fp.dup_prob = 0.5;
  const core::RunReport r1 = run_workload(faulty_config(fp));
  const core::RunReport r2 = run_workload(faulty_config(fp));
  EXPECT_GT(r1.counter("reliability.retransmits"), 0u);
  EXPECT_EQ(report_json(r1), report_json(r2));
}

TEST(FaultRuntime, ZeroFaultPlanIsByteIdenticalToBaseline) {
  // A plan with a nonzero seed but no fault sources must not change a
  // single byte of the report relative to no plan at all.
  FaultParams noop;
  noop.seed = 99;
  const core::RunReport baseline = run_workload(faulty_config({}));
  const core::RunReport with_noop = run_workload(faulty_config(noop));
  const std::string a = report_json(baseline);
  EXPECT_EQ(a, report_json(with_noop));
  EXPECT_EQ(a.find("fault."), std::string::npos);
  EXPECT_EQ(a.find("reliability."), std::string::npos);
}

TEST(FaultRuntime, EnabledNeutralPlanKeepsTimingButFoldsMetrics) {
  // Enabled (a far-future stall window) but behaviorally neutral: the
  // run must cost exactly the same events and time; the report now
  // carries the fault/reliability counters, all zero recovery work.
  FaultParams neutral;
  neutral.seed = 4;
  neutral.nic_stalls.push_back({0, sim::us(1e12), sim::us(1.0)});
  const core::RunReport baseline = run_workload(faulty_config({}));
  const core::RunReport r = run_workload(faulty_config(neutral));
  EXPECT_EQ(r.elapsed_us, baseline.elapsed_us);
  EXPECT_EQ(r.events, baseline.events);
  EXPECT_EQ(r.counter("reliability.retransmits"), 0u);
  EXPECT_EQ(r.counter("reliability.timeouts"), 0u);
  EXPECT_NE(report_json(r).find("fault.dropped_msgs"), std::string::npos);
}

TEST(FaultRuntime, NakFallbackRepopulatesCacheUnderActivePlan) {
  // Same NAK -> AM -> re-pin recovery as the fault-free runtime test,
  // but with the fault layer active: the recovery is visible under
  // reliability.rdma_nak_fallbacks and the post-recovery access is RDMA.
  FaultParams fp;
  fp.seed = 4;
  fp.nic_stalls.push_back({0, sim::us(1e12), sim::us(1.0)});  // neutral
  core::Runtime rt(faulty_config(fp));
  rt.run([&](core::UpcThread& th) -> sim::Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      (void)co_await th.read<std::uint64_t>(a, 8);  // populate cache + pin
      const auto* cb = rt.directory(1).find(a.handle);
      rt.pinned(1).unpin(cb->local_base, cb->local_bytes);
      (void)co_await th.read<std::uint64_t>(a, 8);  // NAK -> AM fallback
      (void)co_await th.read<std::uint64_t>(a, 8);  // repopulated -> RDMA
    }
    co_await th.barrier();
  });
  const core::RunReport r = rt.metrics();
  EXPECT_EQ(r.counter("reliability.rdma_nak_fallbacks"), 1u);
  EXPECT_EQ(rt.counters().rdma_gets, 1u);  // the post-recovery access
  EXPECT_EQ(rt.counters().am_gets, 2u);    // initial miss + NAK fallback
}

TEST(FaultRuntime, PinFailuresSuppressPiggybackWithoutBreakingAccess) {
  FaultParams fp;
  fp.seed = 13;
  fp.pin_fail_prob = 1.0;  // every pin attempt fails transiently
  core::Runtime rt(faulty_config(fp));
  rt.run([&](core::UpcThread& th) -> sim::Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      for (std::uint64_t i = 0; i < 4; ++i) {
        co_await th.write<std::uint64_t>(a, 8 + i, 70 + i);
      }
      co_await th.fence();
      for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(co_await th.read<std::uint64_t>(a, 8 + i), 70 + i);
      }
    }
    co_await th.barrier();
  });
  // The AM path kept working, but no base was ever piggybacked: the
  // address cache stayed empty and nothing was served over RDMA.
  EXPECT_GT(rt.counters().pin_failures, 0u);
  EXPECT_EQ(rt.counters().rdma_gets, 0u);
  EXPECT_EQ(rt.counters().rdma_puts, 0u);
  EXPECT_GT(rt.counters().am_gets, 0u);
  const core::RunReport r = rt.metrics();
  EXPECT_EQ(r.counter("fault.pin_failures"), rt.counters().pin_failures);
}

}  // namespace
}  // namespace xlupc
