// Tests for the KV serving workload (docs/WORKLOADS.md): the seeded
// Zipfian generator against its analytic distribution, the HDR-style
// latency histogram (exact percentiles, merge associativity), the
// dis::KvStore CAS-claim semantics on both the lock-free and the
// TicketLock-fallback paths, the gated kv.* report keys, same-seed
// workload determinism, and the crash-stop regression: a bucket / lock /
// stripe homed on a dead node surfaces kPeerFailed to the client instead
// of wedging the open-loop generator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "dis/counter.h"
#include "dis/kvstore.h"
#include "dis/latency_histogram.h"
#include "dis/ticket_lock.h"
#include "dis/zipf.h"
#include "net/machine_registry.h"

namespace xlupc::dis {
namespace {

using core::OpStatus;
using core::Runtime;
using core::RuntimeConfig;
using core::UpcThread;
using sim::Task;

RuntimeConfig config(const std::string& machine, std::uint32_t nodes,
                     std::uint32_t tpn) {
  RuntimeConfig cfg;
  cfg.platform = net::make_machine(machine);
  cfg.nodes = nodes;
  cfg.threads_per_node = tpn;
  return cfg;
}

// ------------------------------------------------ Zipf generator --------

TEST(Zipf, RankFrequencyMatchesAnalyticDistribution) {
  // Empirical rank frequencies from a long draw must match the analytic
  // mass for both a skewed and a mildly skewed exponent.
  for (const double skew : {1.2, 0.5}) {
    ZipfGenerator gen(1000, skew, 42);
    constexpr std::uint64_t kDraws = 200000;
    std::vector<std::uint64_t> freq(gen.keyspace(), 0);
    for (std::uint64_t i = 0; i < kDraws; ++i) ++freq[gen.next()];
    for (std::uint64_t r = 0; r < 10; ++r) {
      const double expected = gen.probability(r);
      const double observed =
          static_cast<double>(freq[r]) / static_cast<double>(kDraws);
      // 5% relative + small absolute slack for the colder ranks.
      EXPECT_NEAR(observed, expected, 0.05 * expected + 0.002)
          << "skew " << skew << " rank " << r;
    }
  }
}

TEST(Zipf, ZeroSkewIsUniform) {
  ZipfGenerator gen(100, 0.0, 7);
  for (std::uint64_t r = 0; r < 100; ++r) {
    EXPECT_DOUBLE_EQ(gen.probability(r), 0.01);
  }
  constexpr std::uint64_t kDraws = 100000;
  std::vector<std::uint64_t> freq(100, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i) ++freq[gen.next()];
  for (std::uint64_t r = 0; r < 100; ++r) {
    EXPECT_NEAR(static_cast<double>(freq[r]) / kDraws, 0.01, 0.005);
  }
}

TEST(Zipf, ProbabilitiesSumToOne) {
  ZipfGenerator gen(500, 0.99, 1);
  double sum = 0.0;
  for (std::uint64_t r = 0; r < 500; ++r) sum += gen.probability(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(gen.probability(500), 0.0);
}

TEST(Zipf, SameSeedSameStreamDifferentSeedDiverges) {
  ZipfGenerator a(256, 0.99, 11);
  ZipfGenerator b(256, 0.99, 11);
  ZipfGenerator c(256, 0.99, 12);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t ra = a.next();
    EXPECT_EQ(ra, b.next());
    if (ra != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Zipf, RejectsDegenerateParameters) {
  EXPECT_THROW(ZipfGenerator(0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(10, -0.1, 1), std::invalid_argument);
}

// The sampler before the CDF was shared: each generator builds its own
// CDF and binary-searches it with its own stream.
class PrivateCdfZipf {
 public:
  PrivateCdfZipf(std::uint64_t n, double skew, std::uint64_t seed)
      : rng_(seed) {
    double h = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
      h += std::pow(static_cast<double>(k), -skew);
      cdf_.push_back(h);
    }
    for (double& c : cdf_) c /= h;
    cdf_.back() = 1.0;
  }

  std::uint64_t next() {
    const double u = rng_.uniform();
    std::uint64_t lo = 0;
    std::uint64_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] <= u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
  sim::Rng rng_;
};

TEST(Zipf, SharedCdfDrawsMatchAPrivateCdfBitForBit) {
  struct Case {
    std::uint64_t n;
    double skew;
  };
  for (const Case c : {Case{1, 0.99}, Case{1, 0.0}, Case{100, 0.0},
                       Case{4096, 0.99}, Case{1000, 1.2}, Case{257, 0.5}}) {
    // A second generator on the same table draws its own stream.
    const ZipfGenerator other(c.n, c.skew, 99);
    ZipfGenerator gen(c.n, c.skew, 5);
    PrivateCdfZipf ref(c.n, c.skew, 5);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(gen.next(), ref.next())
          << "n " << c.n << " skew " << c.skew << " draw " << i;
    }
  }
}

TEST(Zipf, SameParametersShareOneTable) {
  const ZipfGenerator a(4096, 0.99, 1);
  const ZipfGenerator b(4096, 0.99, 2);
  const ZipfGenerator other_skew(4096, 0.5, 1);
  const ZipfGenerator other_keyspace(4095, 0.99, 1);
  EXPECT_EQ(&a.cdf(), &b.cdf());
  EXPECT_NE(&a.cdf(), &other_skew.cdf());
  EXPECT_NE(&a.cdf(), &other_keyspace.cdf());
  EXPECT_EQ(a.cdf().size(), 4096u);
  // Generators built on several host threads at once share one table.
  constexpr std::uint64_t kThreads = 4;
  std::latch built(kThreads);
  std::vector<const std::vector<double>*> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&built, &seen, t] {
      const ZipfGenerator g(2048, 1.1, t);
      built.arrive_and_wait();  // every thread's generator is alive
      seen[t] = &g.cdf();
    });
  }
  for (std::thread& th : threads) th.join();
  for (const auto* cdf : seen) EXPECT_EQ(cdf, seen[0]);
}

// ------------------------------------------- latency histogram ----------

TEST(LatencyHistogram, ExactPercentilesOnSmallKnownInputs) {
  // Values below 128 ns sit in unit-width buckets, so every percentile
  // is exact: rank ceil(p * n) of the sorted inputs.
  LatencyHistogram h;
  for (sim::Duration v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.percentile(0.50), 50u);
  EXPECT_EQ(h.percentile(0.90), 90u);
  EXPECT_EQ(h.percentile(0.95), 95u);
  EXPECT_EQ(h.percentile(0.99), 99u);
  EXPECT_EQ(h.percentile(1.00), 100u);
  // Rank 1 (everything at or below the smallest sample).
  EXPECT_EQ(h.percentile(0.0), 1u);
}

TEST(LatencyHistogram, BucketedValuesReportTheirBucketLowerBound) {
  LatencyHistogram h;
  h.record(1000);  // 125 * 8: exactly a bucket boundary
  EXPECT_EQ(h.percentile(1.0), 1000u);
  LatencyHistogram h2;
  h2.record(1001);  // rounds down to the same bucket
  EXPECT_EQ(h2.percentile(1.0), 1000u);
  EXPECT_EQ(h2.max(), 1001u);  // max is tracked exactly
  // Relative error of the lower-bound representative stays under 1/64.
  for (const sim::Duration v : {513u, 70000u, 1234567u}) {
    LatencyHistogram hh;
    hh.record(v);
    const sim::Duration rep = hh.percentile(0.5);
    EXPECT_LE(rep, v);
    EXPECT_GT(static_cast<double>(rep), static_cast<double>(v) * (1.0 - 1.0 / 64.0));
  }
}

TEST(LatencyHistogram, MicrosecondHelpersRoundTrip) {
  LatencyHistogram h;
  h.record_us(1.0);  // 1000 ns, bucket-aligned
  EXPECT_DOUBLE_EQ(h.percentile_us(1.0), 1.0);
  EXPECT_DOUBLE_EQ(h.max_us(), 1.0);
}

TEST(LatencyHistogram, MergeIsAssociativeAndCommutative) {
  auto fill = [](LatencyHistogram& h, std::uint64_t seed, int n) {
    sim::Rng rng(seed);
    for (int i = 0; i < n; ++i) h.record(rng.below(1 << 20) + 1);
  };
  LatencyHistogram a, b, c;
  fill(a, 1, 500);
  fill(b, 2, 300);
  fill(c, 3, 700);

  LatencyHistogram ab_c = a;  // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  LatencyHistogram bc = b;  // a + (b + c)
  bc.merge(c);
  LatencyHistogram a_bc = a;
  a_bc.merge(bc);
  EXPECT_TRUE(ab_c == a_bc);

  LatencyHistogram ba = b;  // commutes
  ba.merge(a);
  LatencyHistogram ab = a;
  ab.merge(b);
  EXPECT_TRUE(ab == ba);
  EXPECT_EQ(ab_c.count(), 1500u);
  // Percentiles of the fold match regardless of grouping.
  EXPECT_EQ(ab_c.percentile(0.99), a_bc.percentile(0.99));
}

// ----------------------------------------------- KvStore semantics ------

TEST(KvStore, PutGetRoundTripAndUpdate) {
  Runtime rt(config("gm", 4, 1));
  rt.run([](UpcThread& th) -> Task<void> {
    KvStore kv = co_await KvStore::create(
        th, KvStoreConfig{/*capacity=*/64, /*value_words=*/1,
                          /*block_buckets=*/4});
    co_await th.barrier();
    if (th.id() == 0) {
      EXPECT_EQ(co_await kv.put(th, 42, 4200), KvStatus::kOk);
      std::uint64_t v = 0;
      EXPECT_EQ(co_await kv.get(th, 42, &v), KvStatus::kOk);
      EXPECT_EQ(v, 4200u);
      // Update in place: the claim CAS finds our key and overwrites.
      EXPECT_EQ(co_await kv.put(th, 42, 4300), KvStatus::kOk);
      EXPECT_EQ(co_await kv.get(th, 42, &v), KvStatus::kOk);
      EXPECT_EQ(v, 4300u);
      EXPECT_EQ(co_await kv.get(th, 999, &v), KvStatus::kNotFound);
      EXPECT_EQ(kv.stats().inserts, 1u);
      EXPECT_EQ(kv.stats().updates, 1u);
      EXPECT_EQ(kv.stats().hits, 2u);
      EXPECT_EQ(kv.stats().misses, 1u);
      EXPECT_EQ(kv.stats().lock_fallbacks, 0u);  // single word: lock-free
    }
    co_await th.barrier();
  });
}

TEST(KvStore, CrossThreadVisibilityAndTierCounts) {
  Runtime rt(config("ib", 4, 1));
  rt.run([](UpcThread& th) -> Task<void> {
    KvStore kv = co_await KvStore::create(
        th, KvStoreConfig{/*capacity=*/64, /*value_words=*/1,
                          /*block_buckets=*/2});
    co_await th.barrier();
    // Every thread inserts its own keys...
    for (std::uint64_t k = 0; k < 8; ++k) {
      const std::uint64_t key = th.id() * 100 + k + 1;
      EXPECT_EQ(co_await kv.put(th, key, key * 7), KvStatus::kOk);
    }
    co_await th.barrier();
    // ...and reads every other thread's.
    std::uint64_t resolved = 0;
    for (std::uint32_t t = 0; t < 4; ++t) {
      for (std::uint64_t k = 0; k < 8; ++k) {
        const std::uint64_t key = t * 100 + k + 1;
        std::uint64_t v = 0;
        EXPECT_EQ(co_await kv.get(th, key, &v), KvStatus::kOk);
        EXPECT_EQ(v, key * 7);
        ++resolved;
      }
    }
    const KvStoreStats& s = kv.stats();
    EXPECT_EQ(s.hits, resolved);
    // Every resolved op landed in exactly one tier.
    EXPECT_EQ(s.tier_local + s.tier_shm + s.tier_remote,
              s.hits + s.misses + s.inserts + s.updates);
    EXPECT_GT(s.tier_remote, 0u);  // 1 thread/node: nothing is shm
    EXPECT_EQ(s.tier_shm, 0u);
    co_await th.barrier();
  });
}

TEST(KvStore, MultiWordValuesTakeTheLockFallback) {
  Runtime rt(config("lapi", 2, 1));
  rt.run([](UpcThread& th) -> Task<void> {
    KvStore kv = co_await KvStore::create(
        th, KvStoreConfig{/*capacity=*/32, /*value_words=*/4,
                          /*block_buckets=*/4});
    co_await th.barrier();
    if (th.id() == 0) {
      const std::vector<std::uint64_t> val{10, 20, 30, 40};
      EXPECT_EQ(co_await kv.put(th, 5, std::span<const std::uint64_t>(val)),
                KvStatus::kOk);
      std::vector<std::uint64_t> out(4, 0);
      EXPECT_EQ(co_await kv.get(th, 5, std::span<std::uint64_t>(out)),
                KvStatus::kOk);
      EXPECT_EQ(out, val);
      // Both the PUT and the GET went through the TicketLock.
      EXPECT_EQ(kv.stats().lock_fallbacks, 2u);
    }
    co_await th.barrier();
  });
}

TEST(KvStore, FillsToCapacityThenReportsFull) {
  Runtime rt(config("gm", 2, 1));
  rt.run([](UpcThread& th) -> Task<void> {
    KvStore kv = co_await KvStore::create(
        th, KvStoreConfig{/*capacity=*/4, /*value_words=*/1,
                          /*block_buckets=*/1});
    co_await th.barrier();
    if (th.id() == 0) {
      for (std::uint64_t key = 1; key <= 4; ++key) {
        EXPECT_EQ(co_await kv.put(th, key, key), KvStatus::kOk);
      }
      EXPECT_EQ(co_await kv.put(th, 5, 5), KvStatus::kFull);
      // A missing key on a full table walks every bucket, then misses.
      std::uint64_t v = 0;
      EXPECT_EQ(co_await kv.get(th, 5, &v), KvStatus::kNotFound);
      // The four residents are all still reachable.
      for (std::uint64_t key = 1; key <= 4; ++key) {
        EXPECT_EQ(co_await kv.get(th, key, &v), KvStatus::kOk);
        EXPECT_EQ(v, key);
      }
    }
    co_await th.barrier();
  });
}

// -------------------------------------- workload + report keys ----------

KvWorkloadParams small_workload(KvAccessPath path) {
  KvWorkloadParams p;
  p.store.capacity = 256;
  p.keyspace = 64;
  p.zipf_skew = 0.99;
  p.put_fraction = 0.25;
  p.ops_per_thread = 32;
  p.interarrival = sim::us(60.0);
  p.access_path = path;
  return p;
}

TEST(KvWorkload, FoldsGatedKvKeysAndBalancesCounts) {
  RuntimeConfig cfg = config("ib", 4, 1);
  cfg.seed = 3;
  const KvWorkloadResult r =
      run_kv_workload(cfg, small_workload(KvAccessPath::kRdma));
  const std::uint64_t ops = r.stats.gets + r.stats.puts;
  EXPECT_EQ(ops, 4u * 32u);
  EXPECT_EQ(r.stats.gets, r.get_latency.count());
  EXPECT_EQ(r.stats.puts, r.put_latency.count());
  EXPECT_EQ(r.stats.hits + r.stats.misses, r.stats.gets);
  EXPECT_EQ(r.stats.inserts + r.stats.updates, r.stats.puts);
  EXPECT_GT(r.sustained_ops_per_s, 0.0);
  // The gated keys are present and agree with the merged stats.
  EXPECT_EQ(r.report.counter("kv.gets"), r.stats.gets);
  EXPECT_EQ(r.report.counter("kv.puts"), r.stats.puts);
  EXPECT_EQ(r.report.counter("kv.lat.samples"), ops);
  EXPECT_GT(r.report.gauge("kv.ops_per_s"), 0.0);
  EXPECT_DOUBLE_EQ(r.report.gauge("kv.get.p99_us"),
                   r.get_latency.percentile_us(0.99));
}

TEST(KvWorkload, KvKeysAbsentWhenNoOpsWereIssued) {
  RuntimeConfig cfg = config("gm", 2, 1);
  KvWorkloadParams p = small_workload(KvAccessPath::kAm);
  p.ops_per_thread = 0;  // preload only, no measured ops
  const KvWorkloadResult r = run_kv_workload(cfg, p);
  for (const auto& [name, value] : r.report.counters) {
    EXPECT_NE(name.rfind("kv.", 0), 0u) << "leaked gated key " << name;
  }
  for (const auto& [name, value] : r.report.gauges) {
    EXPECT_NE(name.rfind("kv.", 0), 0u) << "leaked gated key " << name;
  }
}

TEST(KvWorkload, SameSeedRunsAreIdentical) {
  for (const char* machine : {"gm", "lapi", "ib"}) {
    RuntimeConfig cfg = config(machine, 4, 1);
    cfg.seed = 9;
    const KvWorkloadParams p = small_workload(KvAccessPath::kRdma);
    const KvWorkloadResult a = run_kv_workload(cfg, p);
    const KvWorkloadResult b = run_kv_workload(cfg, p);
    EXPECT_TRUE(a.get_latency == b.get_latency) << machine;
    EXPECT_TRUE(a.put_latency == b.put_latency) << machine;
    EXPECT_EQ(a.stats.hits, b.stats.hits) << machine;
    EXPECT_EQ(a.stats.tier_remote, b.stats.tier_remote) << machine;
    EXPECT_DOUBLE_EQ(a.sustained_ops_per_s, b.sustained_ops_per_s)
        << machine;
    EXPECT_EQ(a.report.counters, b.report.counters) << machine;
  }
}

TEST(KvWorkload, AmPathDisablesTheAddressCache) {
  RuntimeConfig cfg = config("ib", 4, 1);
  cfg.seed = 5;
  const KvWorkloadResult am =
      run_kv_workload(cfg, small_workload(KvAccessPath::kAm));
  const KvWorkloadResult rdma =
      run_kv_workload(cfg, small_workload(KvAccessPath::kRdma));
  // AM runs never take the cached one-sided tier; rdma runs (warm
  // caches) serve their remote GETs one-sided.
  EXPECT_EQ(am.report.counter("runtime.gets.rdma"), 0u);
  EXPECT_GT(rdma.report.counter("runtime.gets.rdma"), 0u);
  EXPECT_GT(am.report.counter("runtime.gets.am"), 0u);
}

// ------------------------------------- crash-stop regressions -----------
// The satellite audit: every shared structure a client polls in the open
// loop must surface kPeerFailed when its home dies, never wedge.

TEST(KvStoreFaults, BucketHomeCrashSurfacesPeerFailedToClient) {
  RuntimeConfig cfg = config("gm", 4, 1);
  cfg.faults.seed = 13;
  cfg.faults.crashes = {{3, sim::us(800.0)}};
  Runtime rt(std::move(cfg));
  std::vector<KvStatus> statuses;
  std::uint64_t peer_failed = 0;
  rt.run([&](UpcThread& th) -> Task<void> {
    KvStore kv = co_await KvStore::create(
        th, KvStoreConfig{/*capacity=*/64, /*value_words=*/1,
                          /*block_buckets=*/1});
    co_await th.barrier();  // before the crash: the only barrier
    if (th.id() != 0) co_return;
    // A key whose bucket is homed on the doomed node (1 thread/node).
    std::uint64_t key = 1;
    while (th.threadof(kv.array(), kv.bucket_of(key) * 2) != 3) ++key;
    EXPECT_EQ(co_await kv.put(th, key, 7), KvStatus::kOk);  // pre-crash
    std::uint64_t v = 0;
    for (int round = 0; round < 24; ++round) {
      statuses.push_back(co_await kv.get(th, key, &v));
      co_await th.compute(sim::us(100.0));
    }
    // PUTs against the dead home fail the same way.
    statuses.push_back(co_await kv.put(th, key, 8));
    peer_failed = kv.stats().peer_failed;
  });
  EXPECT_EQ(statuses.front(), KvStatus::kOk);  // pre-crash GET works
  bool saw_peer_failed = false;
  for (const KvStatus st : statuses) {
    if (st == KvStatus::kPeerFailed) saw_peer_failed = true;
  }
  EXPECT_TRUE(saw_peer_failed);
  EXPECT_GT(peer_failed, 0u);
  EXPECT_TRUE(rt.peer_failed(3));
  EXPECT_GT(rt.metrics().counter("fault.breaker.fast_fails"), 0u);
}

TEST(KvStoreFaults, LockHomeCrashSurfacesPeerFailedNotAWedge) {
  // The TicketLock lives on thread 0's node; crash it and a client in
  // the acquire/release loop must get kPeerFailed (or kTimeout while the
  // detector is still deciding), never spin forever on a forfeit ticket.
  RuntimeConfig cfg = config("gm", 4, 1);
  cfg.faults.seed = 13;
  cfg.faults.crashes = {{0, sim::us(800.0)}};
  Runtime rt(std::move(cfg));
  std::vector<OpStatus> statuses;
  rt.run([&](UpcThread& th) -> Task<void> {
    TicketLock lk = co_await TicketLock::create(th);
    co_await th.barrier();
    if (th.id() != 1) co_return;
    for (int round = 0; round < 24; ++round) {
      OpStatus st = co_await lk.acquire_status(th);
      if (st == OpStatus::kOk) st = co_await lk.release_status(th);
      statuses.push_back(st);
      co_await th.compute(sim::us(100.0));
    }
  });
  EXPECT_EQ(statuses.front(), OpStatus::kOk);  // lock worked pre-crash
  bool saw_peer_failed = false;
  for (const OpStatus st : statuses) {
    if (st == OpStatus::kPeerFailed) saw_peer_failed = true;
  }
  EXPECT_TRUE(saw_peer_failed);
  EXPECT_TRUE(rt.peer_failed(0));
}

TEST(KvStoreFaults, DistCounterStatusReadsPartialSumPastDeadStripe) {
  RuntimeConfig cfg = config("gm", 4, 1);
  cfg.faults.seed = 13;
  cfg.faults.crashes = {{3, sim::us(800.0)}};
  Runtime rt(std::move(cfg));
  std::vector<OpStatus> statuses;
  std::uint64_t last_sum = 0;
  rt.run([&](UpcThread& th) -> Task<void> {
    DistCounter c = co_await DistCounter::create(th, 4);
    (void)co_await c.add(th, 1);  // every thread bumps its own stripe
    co_await th.barrier();
    if (th.id() != 0) co_return;
    for (int round = 0; round < 24; ++round) {
      std::uint64_t sum = 0;
      const OpStatus st = co_await c.read_status(th, &sum);
      statuses.push_back(st);
      if (st != OpStatus::kOk) last_sum = sum;
      co_await th.compute(sim::us(100.0));
      // add_status against the own (live) stripe keeps succeeding.
      std::uint64_t old = 0;
      EXPECT_EQ(co_await c.add_status(th, 0, &old), OpStatus::kOk);
    }
  });
  EXPECT_EQ(statuses.front(), OpStatus::kOk);  // all stripes reachable
  bool saw_peer_failed = false;
  for (const OpStatus st : statuses) {
    if (st == OpStatus::kPeerFailed) saw_peer_failed = true;
  }
  EXPECT_TRUE(saw_peer_failed);
  // The partial sum still covers the three reachable stripes.
  EXPECT_EQ(last_sum, 3u);
  EXPECT_TRUE(rt.peer_failed(3));
}

TEST(KvStoreFaults, WorkloadEndsWhenAClientCrashesInTheMeasuredPhase) {
  // The crashed client never reaches the closing barrier; the survivors
  // must finish anyway instead of waiting on it while the failure
  // detector ticks forever.
  RuntimeConfig cfg = config("gm", 4, 1);
  cfg.faults.seed = 13;
  cfg.faults.crashes = {{3, sim::us(800.0)}};
  const KvWorkloadResult r =
      run_kv_workload(cfg, small_workload(KvAccessPath::kAm));
  EXPECT_GT(r.report.counter("kv.errors.peer_failed"), 0u);
  EXPECT_GT(r.elapsed_us, 0.0);
  EXPECT_LT(r.stats.gets + r.stats.puts, 4u * 32u);  // node 3 stopped early
}

}  // namespace
}  // namespace xlupc::dis
