// The InfiniBand verbs backend (src/net/ib, docs/MACHINES.md): machine
// registry lookup, fat-tree routing, the eager/rendezvous crossover,
// inline sends, send-queue backpressure, RNR-NAK retry under fault
// injection (with apply-once handler semantics), true zero-target-CPU
// one-sided transfers, WQE retirement on every exit (timeouts too), the
// nic_dma trace marker, and blocking == nonblocking+wait equivalence on
// the IB tier.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "benchsupport/report.h"
#include "core/runtime.h"
#include "net/machine.h"
#include "net/machine_registry.h"
#include "net/topology.h"
#include "net/transport.h"
#include "sim/fault_plan.h"

namespace xlupc::net {
namespace {

using sim::FaultParams;

// ------------------------------------------------------------ registry ---

TEST(MachineRegistry, ListsAllThreeCalibratedModels) {
  const auto models = machine_models();
  ASSERT_EQ(models.size(), 3u);
  EXPECT_EQ(models[0].name, "gm");
  EXPECT_EQ(models[1].name, "lapi");
  EXPECT_EQ(models[2].name, "ib");
  for (const MachineModel& m : models) {
    EXPECT_FALSE(m.description.empty());
    EXPECT_EQ(m.make().name, make_machine(m.name).name);
  }
  EXPECT_EQ(machine_names(), "gm, lapi, ib");
}

TEST(MachineRegistry, ResolvesAliasesCaseInsensitively) {
  EXPECT_EQ(make_machine("ib").kind, TransportKind::kIb);
  EXPECT_EQ(make_machine("InfiniBand").kind, TransportKind::kIb);
  EXPECT_EQ(make_machine("VERBS").kind, TransportKind::kIb);
  EXPECT_EQ(make_machine("myrinet").kind, TransportKind::kGm);
  EXPECT_EQ(make_machine("Marenostrum").kind, TransportKind::kGm);
  EXPECT_EQ(make_machine("hps").kind, TransportKind::kLapi);
  EXPECT_EQ(make_machine("power5").kind, TransportKind::kLapi);
}

TEST(MachineRegistry, UnknownNameThrowsListingKnownNames) {
  try {
    (void)make_machine("ethernet");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("gm, lapi, ib"), std::string::npos);
  }
}

TEST(MachineRegistry, IbPresetEnablesTheVerbsModel) {
  const PlatformParams p = make_machine("ib");
  EXPECT_EQ(p.topology, TopologyKind::kFatTree);
  EXPECT_TRUE(p.comm_comp_overlap);
  EXPECT_TRUE(p.rdma_offload);
  EXPECT_GT(p.inline_limit, 0u);
  EXPECT_GT(p.sq_depth, 0u);
  EXPECT_GT(p.rnr_retry_limit, 0u);
  EXPECT_GT(p.max_dmaable_bytes, 0u);  // the tight pin budget is the point
  // GM/LAPI must keep the verbs knobs inert (byte-identity discipline).
  for (const char* name : {"gm", "lapi"}) {
    const PlatformParams q = make_machine(name);
    EXPECT_EQ(q.inline_limit, 0u) << name;
    EXPECT_EQ(q.sq_depth, 0u) << name;
    EXPECT_FALSE(q.rdma_offload) << name;
  }
}

// ------------------------------------------------------------ topology ---

TEST(Topology, FatTreeHopsFollowLeafPodCoreTiers) {
  EXPECT_EQ(hops_between(TopologyKind::kFatTree, 4, 4), 0u);
  // Same leaf switch: 1 hop.
  EXPECT_EQ(hops_between(TopologyKind::kFatTree, 0, 1), 1u);
  EXPECT_EQ(hops_between(TopologyKind::kFatTree, 0, kFatTreeLeaf - 1), 1u);
  // Same pod, different leaves: up to the pod spine and back (3 hops).
  EXPECT_EQ(hops_between(TopologyKind::kFatTree, 0, kFatTreeLeaf), 3u);
  EXPECT_EQ(hops_between(TopologyKind::kFatTree, 0, kFatTreePod - 1), 3u);
  // Cross-pod: through the core layer (5 hops).
  EXPECT_EQ(hops_between(TopologyKind::kFatTree, 0, kFatTreePod), 5u);
  EXPECT_EQ(hops_between(TopologyKind::kFatTree, kFatTreePod, 0), 5u);
}

// --------------------------------------------------- transport-level rig ---

// Passive target with apply-once accounting: every serve_* bump is one
// actual application of the request, so a retried rendezvous op that
// double-applied would be caught immediately.
class CountingTarget : public AmTarget {
 public:
  explicit CountingTarget(std::size_t bytes) : bytes_(bytes) {
    for (int n = 0; n < 4; ++n) store_[n].assign(bytes, std::byte{0});
  }
  Addr base(NodeId n) const { return 0x1000u + (static_cast<Addr>(n) << 32); }
  std::byte* data(NodeId n) { return store_[n].data(); }

  GetServe serve_get(NodeId target, const GetRequest& req) override {
    ++gets_served;
    GetServe out;
    out.data.assign(store_[target].begin() + req.offset,
                    store_[target].begin() + req.offset + req.len);
    out.src_addr = base(target) + req.offset;
    return out;
  }
  PutServe serve_put(NodeId target, PutRequest&& req) override {
    ++puts_served;
    std::memcpy(store_[target].data() + req.offset, req.data.data(),
                req.data.size());
    return PutServe{base(target) + req.offset, {}, 0, 0, 0};
  }
  PutServe serve_put_rendezvous(NodeId target, const PutRequest& req,
                                std::size_t) override {
    ++rendezvous_puts_served;
    return PutServe{base(target) + req.offset, {}, 0, 0, 0};
  }
  void deliver_put_payload(NodeId target, std::uint64_t, std::uint64_t offset,
                           net::Bytes&& data) override {
    ++payloads_delivered;
    std::memcpy(store_[target].data() + offset, data.data(), data.size());
  }
  void serve_control(NodeId, NodeId, const ControlMsg&) override {}
  RdmaWindow rdma_memory(NodeId target, Addr addr, std::size_t len) override {
    if (addr < base(target) || addr + len > base(target) + bytes_) {
      throw RdmaProtocolError("bad address");
    }
    return RdmaWindow{store_[target].data() + (addr - base(target)),
                      RdmaNak::kNone};
  }

  int gets_served = 0;
  int puts_served = 0;
  int rendezvous_puts_served = 0;
  int payloads_delivered = 0;

 private:
  std::size_t bytes_;
  std::map<NodeId, std::vector<std::byte>> store_;
};

struct Rig {
  explicit Rig(PlatformParams p = infiniband_verbs(), FaultParams fp = {})
      : target(1 << 20), machine(sim, std::move(p), {2, 2, std::move(fp), {}}) {}
  sim::Simulator sim;
  CountingTarget target;
  Machine machine;
  Transport transport{machine, target};
};

GetReply run_get(Rig& rig, std::uint32_t len, Addr local_buf = kNullAddr) {
  GetReply out;
  rig.sim.spawn([](Rig& r, std::uint32_t l, Addr b, GetReply& o) -> sim::Task<> {
    GetRequest req;
    req.len = l;
    req.local_buf = b;
    (void)co_await r.transport.get({0, 0}, 1, req, o);
  }(rig, len, local_buf, out));
  rig.sim.run();
  return out;
}

void run_put(Rig& rig, std::size_t len, std::uint64_t offset = 0) {
  rig.sim.spawn([](Rig& r, std::size_t l, std::uint64_t off) -> sim::Task<> {
    PutRequest req;
    req.offset = off;
    req.data.assign(l, std::byte{0x5a});
    co_await r.transport.put({0, 0}, 1, std::move(req), {});
  }(rig, len, offset));
  rig.sim.run();
}

// ----------------------------------------------------- protocol splits ---

TEST(IbProtocol, NoConnectionExistsBeforeFirstUse) {
  Rig rig;
  // No connection exists until first use; the CQ is empty.
  EXPECT_EQ(rig.transport.queue_pair(0, 1), nullptr);
  EXPECT_EQ(rig.transport.completion_queue(0).cqes(), 0u);
}

TEST(IbProtocol, EagerRendezvousCrossoverAtEagerLimit) {
  Rig rig;
  const auto limit =
      static_cast<std::uint32_t>(rig.machine.params().eager_limit);
  run_get(rig, limit);  // at the limit: still eager
  EXPECT_EQ(rig.transport.stats().am_gets, 1u);
  EXPECT_EQ(rig.transport.stats().rendezvous_gets, 0u);
  run_get(rig, limit + 1);
  EXPECT_EQ(rig.transport.stats().rendezvous_gets, 1u);

  run_put(rig, limit);
  EXPECT_EQ(rig.transport.stats().am_puts, 1u);
  run_put(rig, limit + 1);
  EXPECT_EQ(rig.transport.stats().rendezvous_puts, 1u);
  EXPECT_EQ(rig.target.rendezvous_puts_served, 1);
  EXPECT_EQ(rig.target.payloads_delivered, 1);
}

TEST(IbProtocol, TinyPutsTravelInlineInTheWqe) {
  Rig rig;
  const std::size_t inline_limit = rig.machine.params().inline_limit;
  run_put(rig, inline_limit);  // at the limit: inline
  EXPECT_EQ(rig.transport.stats().inline_sends, 1u);
  run_put(rig, inline_limit + 1);  // still eager, but via the bounce copy
  EXPECT_EQ(rig.transport.stats().inline_sends, 1u);
  EXPECT_EQ(rig.transport.stats().am_puts, 2u);
  // The inline send is cheaper on the initiator: no send-side copy.
  Rig a, b;
  sim::Time ta = 0, tb = 0;
  a.sim.spawn([](Rig& r, sim::Time& t) -> sim::Task<> {
    PutRequest req;
    req.data.assign(r.machine.params().inline_limit, std::byte{1});
    co_await r.transport.put({0, 0}, 1, std::move(req), {});
    t = r.sim.now();
  }(a, ta));
  a.sim.run();
  b.sim.spawn([](Rig& r, sim::Time& t) -> sim::Task<> {
    PutRequest req;
    req.data.assign(r.machine.params().inline_limit + 1, std::byte{1});
    co_await r.transport.put({0, 0}, 1, std::move(req), {});
    t = r.sim.now();
  }(b, tb));
  b.sim.run();
  EXPECT_LT(ta, tb);
}

TEST(IbProtocol, DataMovesIntactOnEveryPath) {
  Rig rig;
  for (int i = 0; i < 64; ++i) {
    rig.target.data(1)[i] = static_cast<std::byte>(i + 1);
    rig.target.data(1)[16384 + i] = static_cast<std::byte>(64 - i);
  }
  const GetReply eager = run_get(rig, 64);
  ASSERT_EQ(eager.data.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(eager.data[i], static_cast<std::byte>(i + 1));
  }
  GetReply rz;
  rig.sim.spawn([](Rig& r, GetReply& o) -> sim::Task<> {
    GetRequest req;
    req.offset = 16384;
    req.len = 16384;  // > eager_limit: rendezvous
    (void)co_await r.transport.get({0, 0}, 1, req, o);
  }(rig, rz));
  rig.sim.run();
  ASSERT_EQ(rz.data.size(), 16384u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(rz.data[i], static_cast<std::byte>(64 - i));
  }
  run_put(rig, 100, 512);
  EXPECT_EQ(rig.target.data(1)[512], std::byte{0x5a});
  EXPECT_EQ(rig.target.data(1)[611], std::byte{0x5a});
}

// --------------------------------------------- comm/comp overlap model ---

TEST(IbProtocol, HandlersRunOnTheProgressEngineNotAppCores) {
  Rig rig;
  // Occupy the target's application core: on GM this stalls the handler
  // (net_protocol_test); on IB the comm CPU serves it regardless.
  rig.sim.spawn([](Rig& r) -> sim::Task<> {
    co_await r.machine.core(1, 0).use(sim::us(200));
  }(rig));
  sim::Time t0 = 0, t1 = 0;
  rig.sim.spawn([](Rig& r, sim::Time& a, sim::Time& b) -> sim::Task<> {
    GetRequest req;
    req.len = 8;
    req.target_core = 0;
    a = r.sim.now();
    GetReply reply;
    (void)co_await r.transport.get({0, 0}, 1, req, reply);
    b = r.sim.now();
  }(rig, t0, t1));
  rig.sim.run();
  EXPECT_LT(sim::to_us(t1 - t0), 10.0);
  EXPECT_GT(rig.machine.comm_cpu(1).busy_time(), 0u);
}

TEST(IbProtocol, OneSidedOpsCostZeroTargetCpu) {
  Rig rig;
  rig.target.data(1)[3] = std::byte{0x7f};
  RdmaGetResult get_res;
  RdmaPutResult put_res;
  rig.sim.spawn([](Rig& r, RdmaGetResult& g, RdmaPutResult& p) -> sim::Task<> {
    (void)co_await r.transport.rdma_get({0, 0}, 1, r.target.base(1), 64, g);
    net::Bytes data(256, std::byte{0x2a});
    p = co_await r.transport.rdma_put({0, 0}, 1, r.target.base(1) + 1024,
                                      std::move(data), {});
  }(rig, get_res, put_res));
  rig.sim.run();
  ASSERT_TRUE(get_res.ok());
  EXPECT_EQ(get_res.data[3], std::byte{0x7f});
  ASSERT_TRUE(put_res.ok());
  EXPECT_EQ(rig.target.data(1)[1024], std::byte{0x2a});
  // The defining property of the offloaded path: no target CPU — neither
  // an application core nor the progress engine — spent a single cycle.
  EXPECT_EQ(rig.machine.core(1, 0).busy_time(), 0u);
  EXPECT_EQ(rig.machine.core(1, 1).busy_time(), 0u);
  EXPECT_EQ(rig.machine.comm_cpu(1).busy_time(), 0u);
  EXPECT_GT(rig.machine.nic_dma(1).busy_time(), 0u);  // the DMA engine did
  EXPECT_EQ(rig.transport.stats().rdma_gets, 1u);
  EXPECT_EQ(rig.transport.stats().rdma_puts, 1u);
}

// ------------------------------------------------------ QP accounting ---

TEST(IbProtocol, EveryWqePostedRetiresThroughTheCq) {
  Rig rig;
  run_get(rig, 64);                 // eager GET: 1 WQE
  run_get(rig, 16384);              // rendezvous GET: 1 WQE
  run_put(rig, 64);                 // inline PUT: 1 WQE
  run_put(rig, 16384);              // rendezvous PUT: RTS + payload, 2 WQEs
  const auto& s = rig.transport.stats();
  EXPECT_EQ(s.qp_posts, 5u);
  EXPECT_EQ(rig.transport.completion_queue(0).cqes(), 5u);
  const ib::QueuePair* q = rig.transport.queue_pair(0, 1);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->outstanding(), 0u);  // nothing leaked
  EXPECT_GT(q->hwm(), 0u);
  EXPECT_EQ(rig.transport.queue_pair(1, 0), nullptr);  // replies need no QP slot
}

TEST(IbProtocol, FullSendQueueBackpressuresPosters) {
  auto p = infiniband_verbs();
  p.sq_depth = 2;  // tiny SQ so a small burst trips the stall path
  Rig rig(std::move(p));
  for (int i = 0; i < 6; ++i) {
    rig.sim.spawn([](Rig& r) -> sim::Task<> {
      RdmaGetResult g;
      (void)co_await r.transport.rdma_get({0, 0}, 1, r.target.base(1), 4096,
                                          g);
    }(rig));
  }
  rig.sim.run();
  const auto& s = rig.transport.stats();
  EXPECT_EQ(s.qp_posts, 6u);
  EXPECT_GT(s.sq_stalls, 0u);
  const ib::QueuePair* q = rig.transport.queue_pair(0, 1);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->hwm(), 2u);  // never exceeded the configured depth
  EXPECT_EQ(q->outstanding(), 0u);
  EXPECT_EQ(rig.transport.completion_queue(0).cqes(), 6u);

  // An unbounded (or deep enough) queue never stalls the same burst.
  Rig deep;
  for (int i = 0; i < 6; ++i) {
    deep.sim.spawn([](Rig& r) -> sim::Task<> {
      RdmaGetResult g;
      (void)co_await r.transport.rdma_get({0, 0}, 1, r.target.base(1), 4096,
                                          g);
    }(deep));
  }
  deep.sim.run();
  EXPECT_EQ(deep.transport.stats().sq_stalls, 0u);
}

TEST(IbProtocol, TimedOutLegRetiresItsWqe) {
  // A leg that exhausts its retransmission budget must still retire the
  // WQE its op posted. With a one-slot send queue a leaked slot would
  // leave the next post on the connection waiting forever, so each kind
  // runs twice and both runs must surface the timeout.
  auto p = infiniband_verbs();
  p.sq_depth = 1;
  FaultParams fp;
  fp.seed = 9;
  fp.drop_prob = 1.0;
  fp.max_retransmits = 0;
  using Op = sim::Task<OpStatus> (*)(Rig&);
  const std::pair<const char*, Op> kinds[] = {
      {"eager GET",
       [](Rig& r) -> sim::Task<OpStatus> {
         GetRequest req;
         req.len = 64;
         GetReply reply;
         co_return co_await r.transport.get({0, 0}, 1, req, reply);
       }},
      {"rendezvous GET",
       [](Rig& r) -> sim::Task<OpStatus> {
         GetRequest req;
         req.len = 16384;
         GetReply reply;
         co_return co_await r.transport.get({0, 0}, 1, req, reply);
       }},
      {"rdma_get",
       [](Rig& r) -> sim::Task<OpStatus> {
         RdmaGetResult result;
         co_return co_await r.transport.rdma_get({0, 0}, 1, r.target.base(1),
                                                 64, result);
       }},
      {"NIC FAA",
       [](Rig& r) -> sim::Task<OpStatus> {
         AmoRequest req;
         req.operand = 1;
         req.raddr = r.target.base(1);
         AmoResult result;
         co_return co_await r.transport.amo({0, 0}, 1, req, result);
       }},
      {"rendezvous PUT",
       [](Rig& r) -> sim::Task<OpStatus> {
         PutRequest req;
         req.data.assign(16384, std::byte{1});
         co_return co_await r.transport.put({0, 0}, 1, std::move(req), {});
       }},
  };
  for (const auto& [name, op] : kinds) {
    Rig rig(p, fp);
    int timeouts = 0;
    for (int i = 0; i < 2; ++i) {
      rig.sim.spawn([](Rig& r, Op o, int& n) -> sim::Task<> {
        if (co_await o(r) == OpStatus::kTimeout) ++n;
      }(rig, op, timeouts));
      rig.sim.run();
    }
    EXPECT_EQ(timeouts, 2) << name;
    const ib::QueuePair* q = rig.transport.queue_pair(0, 1);
    ASSERT_NE(q, nullptr) << name;
    EXPECT_EQ(q->outstanding(), 0u) << name;
    EXPECT_EQ(rig.transport.stats().qp_posts, 2u) << name;
    EXPECT_EQ(rig.transport.completion_queue(0).cqes(), 2u) << name;
  }
}

TEST(IbProtocol, TeardownWithAWqeInFlightIsSafe) {
  // A process still in flight when its rig goes away holds a posted WQE.
  // The simulator destroys that frame after the transport and its queue
  // pairs are gone, so the guard must not touch them then (the sanitizer
  // build checks this).
  Rig rig;
  rig.sim.spawn([](Rig& r) -> sim::Task<> {
    GetRequest req;
    req.len = 64;
    GetReply reply;
    (void)co_await r.transport.get({0, 0}, 1, req, reply);
  }(rig));
  rig.sim.run_until(sim::us(1));  // request posted, reply not back yet
  const ib::QueuePair* q = rig.transport.queue_pair(0, 1);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->outstanding(), 1u);
}

// -------------------------------------------------- RNR-NAK semantics ---

TEST(IbProtocol, RnrRetryExhaustsBudgetThenDegradesToBounce) {
  FaultParams fp;
  fp.seed = 5;
  fp.pin_fail_prob = 1.0;  // every pin attempt fails transiently
  Rig rig(infiniband_verbs(), fp);
  const auto& p = rig.machine.params();
  const GetReply reply = run_get(rig, 16384);
  ASSERT_EQ(reply.data.size(), 16384u);  // the op still completed
  const auto& s = rig.transport.stats();
  // The responder NAKed once per retry round, the full 3-bit budget.
  EXPECT_EQ(s.rnr_naks, p.rnr_retry_limit);
  EXPECT_EQ(s.rnr_retries, p.rnr_retry_limit);
  EXPECT_EQ(s.bounce_fallbacks, 1u);  // then staged instead of NAKing forever
  // Apply-once: 7 NAKed rounds + 1 admitted round, but the handler ran
  // exactly once.
  EXPECT_EQ(rig.target.gets_served, 1);
  // Every retry re-posted a WQE and retired it through the CQ.
  EXPECT_EQ(s.qp_posts, 1u + p.rnr_retry_limit);
  EXPECT_EQ(rig.transport.completion_queue(0).cqes(), 1u + p.rnr_retry_limit);
  EXPECT_EQ(rig.transport.queue_pair(0, 1)->outstanding(), 0u);
}

TEST(IbProtocol, RnrRetryOnRendezvousPutAppliesPayloadOnce) {
  FaultParams fp;
  fp.seed = 5;
  fp.pin_fail_prob = 1.0;
  Rig rig(infiniband_verbs(), fp);
  run_put(rig, 16384, 2048);
  EXPECT_EQ(rig.target.data(1)[2048], std::byte{0x5a});
  const auto& p = rig.machine.params();
  const auto& s = rig.transport.stats();
  EXPECT_EQ(s.rnr_naks, p.rnr_retry_limit);
  EXPECT_EQ(s.rnr_retries, p.rnr_retry_limit);
  EXPECT_EQ(rig.target.rendezvous_puts_served, 1);  // apply-once
  EXPECT_EQ(rig.target.payloads_delivered, 1);
  EXPECT_EQ(rig.transport.queue_pair(0, 1)->outstanding(), 0u);
}

TEST(IbProtocol, TransientRnrRecoversWithoutBounceDegradation) {
  FaultParams fp;
  fp.seed = 11;
  fp.pin_fail_prob = 0.5;  // some rounds NAK, some admit
  Rig rig(infiniband_verbs(), fp);
  const auto& p = rig.machine.params();
  for (int i = 0; i < 8; ++i) {
    const GetReply r = run_get(rig, 16384);
    ASSERT_EQ(r.data.size(), 16384u);
  }
  const auto& s = rig.transport.stats();
  EXPECT_GT(s.rnr_naks, 0u);  // the lossy path was actually exercised
  EXPECT_EQ(s.rnr_naks, s.rnr_retries);
  EXPECT_LT(s.rnr_naks, 8u * p.rnr_retry_limit);  // budget never exhausted...
  EXPECT_EQ(s.bounce_fallbacks, 0u);              // ...so no degradation
  EXPECT_EQ(rig.target.gets_served, 8);           // apply-once throughout
}

TEST(IbProtocol, RnrRetriesAreSeedDeterministic) {
  auto run_once = [] {
    FaultParams fp;
    fp.seed = 23;
    fp.pin_fail_prob = 0.4;
    Rig rig(infiniband_verbs(), fp);
    sim::Time end = 0;
    for (int i = 0; i < 6; ++i) {
      run_get(rig, 16384);
      end = rig.sim.now();
    }
    return std::make_pair(rig.transport.stats().rnr_retries, end);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_GT(a.first, 0u);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);  // same simulated finish instant
}

// ------------------------------------------------------- runtime level ---

core::RuntimeConfig ib_config(std::uint32_t nodes = 2, std::uint32_t tpn = 1) {
  core::RuntimeConfig cfg;
  cfg.platform = make_machine("ib");
  cfg.nodes = nodes;
  cfg.threads_per_node = tpn;
  return cfg;
}

enum class Mode { kBlocking, kNonblocking };

struct OneOp {
  sim::Time done = 0;
  core::OpCounters counters;
  std::uint64_t value = 0;
};

OneOp run_one(core::RuntimeConfig cfg, Mode mode, std::uint64_t elem,
              bool warm) {
  core::Runtime rt(std::move(cfg));
  OneOp r;
  rt.run([&](core::UpcThread& th) -> sim::Task<void> {
    core::ArrayDesc a = co_await th.all_alloc(8 * rt.threads(), 8, 8);
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
        const core::OpHandle h = th.get_nb(a, elem, dst);
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

TEST(IbRuntime, BlockingEqualsNonblockingPlusWaitOnAmTier) {
  const OneOp b = run_one(ib_config(), Mode::kBlocking, 8, false);
  const OneOp n = run_one(ib_config(), Mode::kNonblocking, 8, false);
  EXPECT_EQ(b.done, n.done);
  EXPECT_EQ(b.value, 1001u);
  EXPECT_EQ(n.value, 1001u);
  EXPECT_EQ(n.counters.am_gets, 1u);
  EXPECT_EQ(b.counters.am_gets, n.counters.am_gets);
  EXPECT_EQ(b.counters.rdma_gets, n.counters.rdma_gets);
}

TEST(IbRuntime, BlockingEqualsNonblockingPlusWaitOnRdmaTier) {
  const OneOp b = run_one(ib_config(), Mode::kBlocking, 8, true);
  const OneOp n = run_one(ib_config(), Mode::kNonblocking, 8, true);
  EXPECT_EQ(b.done, n.done);
  EXPECT_EQ(b.value, 1001u);
  EXPECT_EQ(n.counters.rdma_gets, 1u);  // the warm cache routed it one-sided
  EXPECT_EQ(b.counters.rdma_gets, n.counters.rdma_gets);
  EXPECT_EQ(b.counters.am_gets, n.counters.am_gets);
}

/// Mixed workload crossing the eager, rendezvous, and one-sided paths.
core::RunReport run_ib_workload(std::uint64_t seed) {
  core::RuntimeConfig cfg = ib_config();
  cfg.seed = seed;
  core::Runtime rt(std::move(cfg));
  rt.run([&](core::UpcThread& th) -> sim::Task<void> {
    auto a = co_await th.all_alloc(8192, 8, 4096);
    co_await th.barrier();
    if (th.id() == 0) {
      rt.warm_address_cache(a);
      for (std::uint64_t i = 0; i < 8; ++i) {
        co_await th.write<std::uint64_t>(a, 4096 + i, 300 + i);
      }
      co_await th.fence();
      for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(co_await th.read<std::uint64_t>(a, 4096 + i), 300 + i);
      }
      std::vector<std::byte> big(2048 * 8);
      co_await th.get(a, 4096, big);  // rendezvous-sized
    }
    co_await th.barrier();
  });
  return rt.metrics();
}

TEST(IbRuntime, SameSeedYieldsByteIdenticalReports) {
  const core::RunReport r1 = run_ib_workload(7);
  const core::RunReport r2 = run_ib_workload(7);
  EXPECT_EQ(bench::to_json(r1).dump_string(), bench::to_json(r2).dump_string());
}

TEST(IbRuntime, VerbsCountersFoldIntoTheRegistryOnlyOnIb) {
  const core::RunReport ib = run_ib_workload(7);
  EXPECT_GT(ib.counter("transport.ib.qp_posts"), 0u);
  EXPECT_EQ(ib.counter("transport.ib.sq_stalls"), 0u);  // key present
  // GM reports must not grow the new keys (byte-identity discipline).
  core::RuntimeConfig cfg;
  cfg.platform = make_machine("gm");
  cfg.nodes = 2;
  cfg.threads_per_node = 1;
  core::Runtime rt(std::move(cfg));
  rt.run([](core::UpcThread& th) -> sim::Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) (void)co_await th.read<std::uint64_t>(a, 8);
    co_await th.barrier();
  });
  const std::string gm_json = bench::to_json(rt.metrics()).dump_string();
  EXPECT_EQ(gm_json.find("transport.ib."), std::string::npos);
}

TEST(IbRuntime, OffloadedRdmaTracesAsNicDmaOnIbOnly) {
  auto traced_paths = [](core::RuntimeConfig cfg) {
    cfg.trace = true;
    core::Runtime rt(std::move(cfg));
    rt.run([&](core::UpcThread& th) -> sim::Task<void> {
      auto a = co_await th.all_alloc(16, 8, 8);
      co_await th.barrier();
      if (th.id() == 0) {
        rt.warm_address_cache(a);
        (void)co_await th.read<std::uint64_t>(a, 8);  // one-sided GET
      }
      co_await th.barrier();
    });
    return rt.tracer().summarize();
  };
  const auto ib = traced_paths(ib_config());
  EXPECT_NE(ib.find(core::TraceOp::kGet, core::TracePath::kRdmaOffload),
            nullptr);
  EXPECT_EQ(ib.find(core::TraceOp::kGet, core::TracePath::kRdma), nullptr);
  // GM keeps the handler-CPU marker — pre-IB traces are unchanged.
  core::RuntimeConfig gm;
  gm.platform = make_machine("gm");
  gm.nodes = 2;
  gm.threads_per_node = 1;
  const auto g = traced_paths(std::move(gm));
  EXPECT_NE(g.find(core::TraceOp::kGet, core::TracePath::kRdma), nullptr);
  EXPECT_EQ(g.find(core::TraceOp::kGet, core::TracePath::kRdmaOffload),
            nullptr);
  EXPECT_STREQ(to_string(core::TracePath::kRdmaOffload), "nic_dma");
}

}  // namespace
}  // namespace xlupc::net
