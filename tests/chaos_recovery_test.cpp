// End-to-end tests of the whole-fabric failure model and recovery layer
// (docs/FAULTS.md): crash-stop node failures detected by the lease-based
// failure detector, typed OpStatus errors instead of hangs, circuit
// breaking and cache invalidation against dead nodes, link flaps with
// path failover (ib) and retransmission recovery (gm), IB queue-pair
// error/reconnect with sequence resync, same-seed determinism of a full
// chaos run, and the API edge: the throwing calls raise the typed
// exception of the status their *_status twins return.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "dis/counter.h"
#include "dis/ticket_lock.h"
#include "net/machine_registry.h"

namespace xlupc::core {
namespace {

using sim::Task;

// Four gm nodes, one thread each; node 3 crash-stops at 800us while a
// ring workload keeps issuing nonblocking PUT/GET rounds. Threads poll
// crashed() and never re-enter a barrier after the initial one, so the
// run must always drain.
struct CrashRun {
  std::vector<std::vector<OpStatus>> statuses;  // per thread, per round
  RunReport report;
  bool corpse_declared = false;
};

CrashRun run_crash_scenario(std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.platform = net::mare_nostrum_gm();
  cfg.nodes = 4;
  cfg.threads_per_node = 1;
  cfg.faults.seed = seed;
  cfg.faults.crashes = {{3, sim::us(800.0)}};
  Runtime rt(std::move(cfg));

  CrashRun out;
  out.statuses.resize(4);
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(4 * 32, 8, 32);
    co_await th.barrier();  // before the crash: the only barrier
    const ThreadId peer = (th.id() + 1) % 4;
    std::uint64_t src = th.id(), dst = 0;
    for (int round = 0; round < 24; ++round) {
      if (th.crashed()) co_return;
      const std::uint64_t elem = static_cast<std::uint64_t>(peer) * 32;
      (void)th.put_nb(a, elem, std::as_bytes(std::span(&src, 1)));
      (void)th.get_nb(a, elem + 1,
                      std::as_writable_bytes(std::span(&dst, 1)));
      out.statuses[th.id()].push_back(co_await th.fence_status());
      co_await th.compute(sim::us(100.0));
    }
  });
  out.corpse_declared = rt.peer_failed(3);
  out.report = rt.metrics();
  return out;
}

TEST(ChaosRecovery, DetectorDeclaresCrashAndOpsFailTyped) {
  const CrashRun r = run_crash_scenario(42);

  // The detector declared exactly the one corpse, bumping the epoch.
  EXPECT_TRUE(r.corpse_declared);
  EXPECT_EQ(r.report.counter("fault.detector.deaths"), 1u);
  EXPECT_EQ(r.report.counter("fault.detector.epoch"), 1u);
  EXPECT_GT(r.report.counter("fault.detector.heartbeats"), 0u);
  EXPECT_GT(r.report.counter("fault.detector.suspicions"), 0u);

  // Thread 2 targets the corpse: its rounds surface typed errors, never
  // hang. Before declaration the legs are silently lost on the wire.
  bool saw_peer_failed = false;
  for (const OpStatus st : r.statuses[2]) {
    if (st == OpStatus::kPeerFailed) saw_peer_failed = true;
  }
  EXPECT_TRUE(saw_peer_failed);
  EXPECT_GT(r.report.counter("fault.fabric.peer_dead_drops"), 0u);

  // Once declared, the circuit breaker refuses ops up front...
  EXPECT_GT(r.report.counter("fault.breaker.fast_fails"), 0u);
  // ...and the corpse's cached addresses were invalidated everywhere.
  EXPECT_GT(r.report.counter("cache.invalidations"), 0u);

  // Threads not talking to the corpse stay clean.
  for (const OpStatus st : r.statuses[0]) EXPECT_EQ(st, OpStatus::kOk);
  // The crashed thread retired at the crash instant: ~8 rounds done.
  EXPECT_LT(r.statuses[3].size(), r.statuses[0].size());
}

TEST(ChaosRecovery, SameSeedChaosRunIsDeterministic) {
  const CrashRun a = run_crash_scenario(42);
  const CrashRun b = run_crash_scenario(42);
  ASSERT_EQ(a.statuses.size(), b.statuses.size());
  for (std::size_t t = 0; t < a.statuses.size(); ++t) {
    EXPECT_EQ(a.statuses[t], b.statuses[t]) << "thread " << t;
  }
  EXPECT_EQ(a.report.counters, b.report.counters);
}

TEST(ChaosRecovery, BudgetExhaustionSurfacesTimeoutAndReleasesSlot) {
  // A long link-down window on a path-diversity-free pair. The GET's
  // initiator awaits the full roundtrip, so burning the (shortened)
  // retransmission budget surfaces as a hard kTimeout at its handle.
  // The PUT completes locally by the one-sided contract — its detached
  // wire half swallows the timeout (the loss shows in the stats) — but
  // it must leak neither a handle slot nor a PUT remote-completion
  // count: the closing fence has to drain instead of hanging.
  RuntimeConfig cfg;
  cfg.platform = net::mare_nostrum_gm();
  cfg.nodes = 2;
  cfg.threads_per_node = 1;
  cfg.faults.seed = 5;
  cfg.faults.max_retransmits = 3;  // 40+80+160us of RTO, inside the window
  cfg.faults.link_downs = {{0, 1, sim::us(500.0), sim::ms(50.0)}};
  Runtime rt(std::move(cfg));

  OpStatus get_status = OpStatus::kOk;
  OpStatus put_status = OpStatus::kTimeout;
  OpStatus fence_after = OpStatus::kPeerFailed;
  std::uint64_t outstanding_after = 99;
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(64, 8, 32);
    co_await th.barrier();
    if (th.id() == 0) {
      co_await th.compute(sim::us(600.0));  // the window is now open
      std::uint64_t w = 7, r = 0;
      OpHandle hg =
          th.get_nb(a, 32, std::as_writable_bytes(std::span(&r, 1)));
      get_status = co_await th.wait_status(hg);
      OpHandle hp = th.put_nb(a, 33, std::as_bytes(std::span(&w, 1)));
      put_status = co_await th.wait_status(hp);
      fence_after = co_await th.fence_status();
      outstanding_after = th.outstanding();
    }
  });
  EXPECT_EQ(get_status, OpStatus::kTimeout);
  EXPECT_EQ(put_status, OpStatus::kOk);   // local completion contract
  EXPECT_EQ(fence_after, OpStatus::kOk);  // nothing left to wait for
  EXPECT_EQ(outstanding_after, 0u);
  EXPECT_GT(rt.metrics().counter("reliability.timeouts"), 0u);
}

TEST(ChaosRecovery, FailedRendezvousPutReleasesItsRemoteCompletion) {
  // A 32 KB PUT is above GM's 16 KB eager limit, so its RTS leg is
  // awaited by the initiator. Under total message loss that leg runs out
  // of budget after note_put_issued: the op must surface kTimeout and
  // give its PUT remote-completion count back, or the fence below waits
  // forever. The plan drops messages only — a link-down plan would keep
  // the failure detector ticking, so a leaked count would spin instead
  // of ending in Runtime::run's deadlock error.
  RuntimeConfig cfg;
  cfg.platform = net::mare_nostrum_gm();
  cfg.nodes = 2;
  cfg.threads_per_node = 1;
  cfg.faults.seed = 5;
  cfg.faults.drop_prob = 1.0;
  cfg.faults.max_retransmits = 2;
  Runtime rt(std::move(cfg));

  constexpr std::uint64_t kWords = 4096;  // 32 KB in thread 1's block
  OpStatus put_status = OpStatus::kOk;
  OpStatus fence_after = OpStatus::kPeerFailed;
  std::uint64_t outstanding_after = 99;
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(2 * kWords, 8, kWords);
    co_await th.barrier();
    if (th.id() == 0) {
      std::vector<std::uint64_t> src(kWords, 7);
      OpHandle h = th.put_nb(a, kWords, std::as_bytes(std::span(src)));
      put_status = co_await th.wait_status(h);
      fence_after = co_await th.fence_status();
      outstanding_after = th.outstanding();
    }
  });
  EXPECT_EQ(put_status, OpStatus::kTimeout);
  EXPECT_EQ(fence_after, OpStatus::kOk);
  EXPECT_EQ(outstanding_after, 0u);
  EXPECT_EQ(rt.transport().stats().rendezvous_puts, 1u);
}

TEST(ChaosRecovery, IbLinkFlapFailsOverAcrossLeaves) {
  // 20 nodes span two fat-tree leaves; the (0, 19) pair climbs to the
  // pod-spine layer, so a flap on it reroutes instead of dropping and
  // the workload never even sees an error.
  RuntimeConfig cfg;
  cfg.platform = net::make_machine("ib");
  cfg.nodes = 20;
  cfg.threads_per_node = 1;
  cfg.faults.seed = 11;
  cfg.faults.link_downs = {{0, 19, sim::us(500.0), sim::us(400.0)}};
  Runtime rt(std::move(cfg));

  std::vector<OpStatus> statuses;
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(20 * 32, 8, 32);
    co_await th.barrier();
    if (th.id() == 0) {
      std::uint64_t w = 1;
      for (int round = 0; round < 12; ++round) {
        (void)th.put_nb(a, 19 * 32, std::as_bytes(std::span(&w, 1)));
        statuses.push_back(co_await th.fence_status());
        co_await th.compute(sim::us(100.0));
      }
    }
  });
  for (const OpStatus st : statuses) EXPECT_EQ(st, OpStatus::kOk);
  const RunReport rep = rt.metrics();
  EXPECT_GT(rep.counter("fault.fabric.failover_routes"), 0u);
  EXPECT_EQ(rep.counter("fault.fabric.link_down_drops"), 0u);
  EXPECT_EQ(rep.counter("fault.detector.deaths"), 0u);
}

TEST(ChaosRecovery, IbSameLeafFlapFencesAndReconnectsQp) {
  // Two nodes under one leaf switch have no alternate path: the flap
  // error-fences the queue pairs, and the first post after the fence
  // tears the QP down and re-establishes it with a sequence resync —
  // apply-once survives the reconnect and the ops still retire kOk.
  RuntimeConfig cfg;
  cfg.platform = net::make_machine("ib");
  cfg.nodes = 2;
  cfg.threads_per_node = 1;
  cfg.faults.seed = 13;
  cfg.faults.link_downs = {{0, 1, sim::us(500.0), sim::us(200.0)}};
  Runtime rt(std::move(cfg));

  std::vector<OpStatus> statuses;
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(64, 8, 32);
    co_await th.barrier();
    if (th.id() == 0) {
      std::uint64_t w = 1;
      for (int round = 0; round < 10; ++round) {
        (void)th.put_nb(a, 32, std::as_bytes(std::span(&w, 1)));
        statuses.push_back(co_await th.fence_status());
        co_await th.compute(sim::us(100.0));
      }
    }
  });
  for (const OpStatus st : statuses) EXPECT_EQ(st, OpStatus::kOk);
  const RunReport rep = rt.metrics();
  EXPECT_GT(rep.counter("fault.fabric.qp_errors"), 0u);
  EXPECT_GT(rep.counter("fault.fabric.qp_reconnects"), 0u);
  EXPECT_GT(rep.counter("fault.fabric.link_resyncs"), 0u);
  EXPECT_EQ(rep.counter("fault.detector.deaths"), 0u);
}

// ------------------------------------------------------------ API edge ---
// Inside the runtime failures are returned OpStatus values; only the
// throwing calls turn them into exceptions. These runs pin that edge:
// one thread of a 4-node GM run acts on another node's data. Under kCrash
// node `corpse` crash-stops at 800us and the actor first waits until the
// failure detector has declared it; under kLoss every message is dropped
// and no node crashes.
enum class Failure { kCrash, kLoss };

RuntimeConfig edge_config(Failure f, NodeId corpse) {
  RuntimeConfig cfg;
  cfg.platform = net::mare_nostrum_gm();
  cfg.nodes = 4;
  cfg.threads_per_node = 1;
  if (f == Failure::kCrash) {
    cfg.faults.seed = 42;
    cfg.faults.crashes = {{corpse, sim::us(800.0)}};
  } else {
    cfg.faults.seed = 5;
    cfg.faults.drop_prob = 1.0;
    cfg.faults.max_retransmits = 2;
  }
  return cfg;
}

// No-op without a detector (kLoss plans schedule no fabric faults).
Task<void> await_declared(UpcThread& th, NodeId corpse) {
  while (th.runtime().detector() != nullptr &&
         !th.runtime().peer_failed(corpse)) {
    co_await th.compute(sim::us(100.0));
  }
}

// The typed failure that aborted Runtime::run: PeerDeadError is told
// apart from its base class TransportTimeout.
std::string raised_by(Runtime& rt, Runtime::ThreadBody body) {
  try {
    rt.run(std::move(body));
  } catch (const net::PeerDeadError&) {
    return "PeerDeadError";
  } catch (const net::TransportTimeout&) {
    return "TransportTimeout";
  }
  return "nothing";
}

// What net::raise_if_failed turns `st` into.
std::string raise_of(OpStatus st) {
  switch (st) {
    case OpStatus::kOk: return "nothing";
    case OpStatus::kTimeout: return "TransportTimeout";
    case OpStatus::kPeerFailed: return "PeerDeadError";
  }
  return "?";
}

TEST(ApiEdge, CallsAgainstADeclaredCorpseRaisePeerDeadError) {
  for (const bool faa : {false, true}) {
    Runtime rt(edge_config(Failure::kCrash, 3));
    EXPECT_EQ(raised_by(rt,
                        [faa](UpcThread& th) -> Task<void> {
                          auto a = co_await th.all_alloc(4 * 32, 8, 32);
                          co_await th.barrier();
                          if (th.id() != 0) co_return;
                          co_await await_declared(th, 3);
                          std::uint64_t v = 0;
                          if (faa) {
                            v = co_await th.fetch_add(a, 3 * 32, 1);
                          } else {
                            co_await th.get(
                                a, 3 * 32,
                                std::as_writable_bytes(std::span(&v, 1)));
                          }
                        }),
              "PeerDeadError")
        << (faa ? "fetch_add" : "get");
    EXPECT_TRUE(rt.peer_failed(3));
  }
}

TEST(ApiEdge, ExhaustedRetriesRaiseTransportTimeoutNotPeerDeadError) {
  for (const bool fence : {false, true}) {
    Runtime rt(edge_config(Failure::kLoss, 0));
    EXPECT_EQ(raised_by(rt,
                        [fence](UpcThread& th) -> Task<void> {
                          auto a = co_await th.all_alloc(4 * 32, 8, 32);
                          co_await th.barrier();
                          if (th.id() != 0) co_return;
                          std::uint64_t v = 0;
                          const OpHandle h = th.get_nb(
                              a, 32, std::as_writable_bytes(std::span(&v, 1)));
                          if (fence) {
                            co_await th.fence();
                          } else {
                            co_await th.wait(h);
                          }
                        }),
              "TransportTimeout")
        << (fence ? "fence" : "wait");
    EXPECT_GT(rt.transport().stats().timeouts, 0u);
  }
}

// The TicketLock homes at thread 0 (node 0); thread 1 is the client.
Runtime::ThreadBody lock_client(bool throwing, OpStatus* status) {
  return [throwing, status](UpcThread& th) -> Task<void> {
    dis::TicketLock lk = co_await dis::TicketLock::create(th);
    co_await th.barrier();
    if (th.id() != 1) co_return;
    co_await await_declared(th, 0);
    if (throwing) {
      co_await lk.acquire(th);
    } else {
      *status = co_await lk.acquire_status(th);
    }
  };
}

// Stripe i of the counter homes at thread i; thread 0 reads them all.
Runtime::ThreadBody counter_reader(bool throwing, OpStatus* status) {
  return [throwing, status](UpcThread& th) -> Task<void> {
    dis::DistCounter c = co_await dis::DistCounter::create(th, 4);
    co_await th.barrier();
    if (th.id() != 0) co_return;
    co_await await_declared(th, 3);
    std::uint64_t sum = 0;
    if (throwing) {
      sum = co_await c.read(th);
    } else {
      *status = co_await c.read_status(th, &sum);
    }
  };
}

TEST(ApiEdge, LockAndCounterRaiseWhatTheirStatusFormsReturn) {
  struct Case {
    const char* name;
    Runtime::ThreadBody (*body)(bool throwing, OpStatus* status);
    NodeId corpse;
  };
  const Case cases[] = {{"TicketLock::acquire", lock_client, 0},
                        {"DistCounter::read", counter_reader, 3}};
  for (const Failure f : {Failure::kLoss, Failure::kCrash}) {
    const OpStatus expected =
        f == Failure::kLoss ? OpStatus::kTimeout : OpStatus::kPeerFailed;
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) +
                   (f == Failure::kLoss ? " under loss" : " after a crash"));
      OpStatus st = OpStatus::kOk;
      Runtime status_rt(edge_config(f, c.corpse));
      status_rt.run(c.body(false, &st));
      EXPECT_EQ(st, expected);
      Runtime throwing_rt(edge_config(f, c.corpse));
      EXPECT_EQ(raised_by(throwing_rt, c.body(true, nullptr)), raise_of(st));
    }
  }
}

}  // namespace
}  // namespace xlupc::core
