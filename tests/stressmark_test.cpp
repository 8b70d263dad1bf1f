// Integration tests of the DIS Stressmark subset: each benchmark runs to
// completion, its improvement bands match the paper's qualitative claims,
// and the cache-size behaviour of Fig. 8 holds.
#include <gtest/gtest.h>

#include "core/runtime.h"
#include "dis/field.h"
#include "dis/neighborhood.h"
#include "dis/pointer.h"
#include "dis/update.h"

namespace xlupc::dis {
namespace {

core::RuntimeConfig config(net::TransportKind kind, std::uint32_t nodes,
                           std::uint32_t tpn) {
  core::RuntimeConfig cfg;
  cfg.platform = net::preset(kind);
  cfg.nodes = nodes;
  cfg.threads_per_node = tpn;
  return cfg;
}

TEST(Pointer, RunsAndMeasuresTime) {
  PointerParams p;
  p.hops = 16;
  const auto r = run_pointer(config(net::TransportKind::kGm, 2, 2), p);
  EXPECT_GT(r.time_us, 0.0);
  EXPECT_GT(r.counters.rdma_gets + r.counters.am_gets +
                r.counters.shm_gets + r.counters.local_gets,
            0u);
}

TEST(Pointer, ImprovementInPaperBandOnGm) {
  // Sec. 4.6: "between 30% and 60% improvement".
  PointerParams p;
  p.hops = 48;
  const auto imp = pointer_improvement(config(net::TransportKind::kGm, 8, 4), p);
  EXPECT_GE(imp.improvement_pct, 25.0);
  EXPECT_LE(imp.improvement_pct, 65.0);
}

TEST(Pointer, CacheEntriesGrowWithNodeCount) {
  // Sec. 4.5: Pointer's cache grows with the number of nodes.
  PointerParams p;
  p.hops = 48;
  const auto small = run_pointer(config(net::TransportKind::kGm, 2, 2), p);
  const auto large = run_pointer(config(net::TransportKind::kGm, 16, 2), p);
  EXPECT_GT(large.cache_entries, small.cache_entries);
}

TEST(Pointer, HitRateDegradesWhenCacheSmallerThanNodeCount) {
  // Fig. 8a: hit-rate degradation as the machine scales past the cache.
  PointerParams p;
  p.hops = 64;
  auto cfg4 = config(net::TransportKind::kGm, 16, 2);
  cfg4.cache.max_entries = 4;
  auto cfg100 = config(net::TransportKind::kGm, 16, 2);
  cfg100.cache.max_entries = 100;
  const auto small = run_pointer(std::move(cfg4), p);
  const auto large = run_pointer(std::move(cfg100), p);
  EXPECT_LT(small.cache.hit_rate(), 0.6);
  EXPECT_GT(large.cache.hit_rate(), 0.9);
}

TEST(Update, OnlyThreadZeroCommunicates) {
  UpdateParams p;
  p.hops = 16;
  const auto r = run_update(config(net::TransportKind::kGm, 4, 2), p);
  // Thread 0's accesses are the only remote traffic (others idle).
  EXPECT_LE(r.counters.am_gets + r.counters.rdma_gets,
            static_cast<std::uint64_t>(p.hops) * p.reads_per_hop);
  EXPECT_GT(r.time_us, 0.0);
}

TEST(Update, ImprovementInPaperBandOnGm) {
  // Sec. 4.6: 11% to 22%.
  UpdateParams p;
  p.hops = 48;
  const auto imp = update_improvement(config(net::TransportKind::kGm, 8, 4), p);
  EXPECT_GE(imp.improvement_pct, 8.0);
  EXPECT_LE(imp.improvement_pct, 27.0);
}

TEST(Neighborhood, MostAccessesAreLocal) {
  NeighborhoodParams p;
  p.samples_per_thread = 32;
  const auto r = run_neighborhood(config(net::TransportKind::kGm, 4, 4), p);
  const auto remote = r.counters.am_gets + r.counters.rdma_gets;
  const auto local = r.counters.local_gets + r.counters.shm_gets;
  EXPECT_GT(local, remote * 4);  // stencil: most partners in-band
}

TEST(Neighborhood, CacheStaysTinyAndHitRateConstant) {
  // Fig. 8b: "only a few cache entries are used and the hit ratio keeps
  // constant as we scale".
  NeighborhoodParams p;
  p.samples_per_thread = 32;
  for (std::uint32_t nodes : {4u, 16u}) {
    auto cfg = config(net::TransportKind::kGm, nodes, 4);
    cfg.cache.max_entries = 4;  // even the smallest cache suffices
    const auto r = run_neighborhood(std::move(cfg), p);
    EXPECT_LE(r.cache_entries, 4u) << nodes << " nodes";
    EXPECT_GT(r.cache.hit_rate(), 0.9) << nodes << " nodes";
  }
}

TEST(Neighborhood, ImprovementInPaperBandOnGm) {
  // Sec. 4.6: 10% to 20% (we sit at the top of the band).
  NeighborhoodParams p;
  const auto imp =
      neighborhood_improvement(config(net::TransportKind::kGm, 8, 4), p);
  EXPECT_GE(imp.improvement_pct, 8.0);
  EXPECT_LE(imp.improvement_pct, 28.0);
}

TEST(Neighborhood, PipelinedWindowsOverlapRemoteReads) {
  // Batched inner loop (docs/COMM_ENGINE.md): with pipeline_depth > 1 the
  // stencil reads issue nonblocking and the remote round trips overlap,
  // so the run gets faster while doing the same accesses.
  NeighborhoodParams p;
  p.samples_per_thread = 32;
  auto run_at = [&p](std::uint32_t depth) {
    NeighborhoodParams q = p;
    q.pipeline_depth = depth;
    return run_neighborhood(config(net::TransportKind::kGm, 4, 2), q);
  };
  const auto d1 = run_at(1);
  const auto d4 = run_at(4);
  const auto d8 = run_at(8);
  EXPECT_LT(d4.time_us, d1.time_us);
  EXPECT_LE(d8.time_us, d4.time_us);
  // The window was genuinely used...
  EXPECT_GE(d4.report.counter("comm.outstanding_hwm"), 2u);
  EXPECT_EQ(d1.report.counter("comm.outstanding_hwm"), 0u);
  // ...and the pipelined run performed the same accesses.
  auto gets = [](const StressResult& r) {
    return r.counters.local_gets + r.counters.shm_gets +
           r.counters.am_gets + r.counters.rdma_gets;
  };
  EXPECT_EQ(gets(d1), gets(d4));
  EXPECT_EQ(gets(d1), gets(d8));
}

TEST(Field, PipelinedOverhangReadsOverlapTheScan) {
  // With a deeper window a thread keeps scanning while earlier overhang
  // probes are in flight, instead of stalling on each one — on GM that
  // hides both the wire time and the target-CPU wait.
  FieldParams p;
  p.tokens = 2;
  auto run_at = [&p](std::uint32_t depth) {
    FieldParams q = p;
    q.pipeline_depth = depth;
    return run_field(config(net::TransportKind::kGm, 4, 4), q);
  };
  const auto d1 = run_at(1);
  const auto d2 = run_at(2);
  const auto d8 = run_at(8);
  EXPECT_LT(d2.time_us, d1.time_us);
  EXPECT_LE(d8.time_us, d2.time_us);
  EXPECT_GE(d2.report.counter("comm.outstanding_hwm"), 2u);
  auto gets = [](const StressResult& r) {
    return r.counters.local_gets + r.counters.shm_gets +
           r.counters.am_gets + r.counters.rdma_gets;
  };
  EXPECT_EQ(gets(d1), gets(d2));
  EXPECT_EQ(gets(d1), gets(d8));
}

TEST(AllStressmarks, PipelinedRunsAreDeterministic) {
  NeighborhoodParams p;
  p.samples_per_thread = 24;
  p.pipeline_depth = 4;
  const auto a = run_neighborhood(config(net::TransportKind::kGm, 4, 2), p);
  const auto b = run_neighborhood(config(net::TransportKind::kGm, 4, 2), p);
  EXPECT_DOUBLE_EQ(a.time_us, b.time_us);
  EXPECT_EQ(a.report.counter("comm.wait_stalls"),
            b.report.counter("comm.wait_stalls"));
}

TEST(Field, GmBenefitsLapiDoesNot) {
  // Sec. 4.6/4.7: large improvement on GM (no comm/comp overlap);
  // "the effects of the address cache are not measurable" on LAPI.
  FieldParams p;
  p.tokens = 3;
  const auto gm = field_improvement(config(net::TransportKind::kGm, 8, 4), p);
  const auto lapi =
      field_improvement(config(net::TransportKind::kLapi, 8, 4), p);
  EXPECT_GT(gm.improvement_pct, 15.0);
  EXPECT_LT(lapi.improvement_pct, 8.0);
  EXPECT_GT(gm.improvement_pct, lapi.improvement_pct + 10.0);
}

TEST(Field, OverhangTrafficOnlyAtNodeEdges) {
  FieldParams p;
  p.tokens = 2;
  const auto r = run_field(config(net::TransportKind::kGm, 4, 4), p);
  // Inner threads probe via shared memory; only node-edge threads use
  // the network.
  EXPECT_GT(r.counters.shm_gets, 0u);
  EXPECT_GT(r.counters.rdma_gets + r.counters.am_gets, 0u);
}

TEST(AllStressmarks, DeterministicAcrossRuns) {
  PointerParams p;
  p.hops = 24;
  const auto a = run_pointer(config(net::TransportKind::kGm, 4, 2), p);
  const auto b = run_pointer(config(net::TransportKind::kGm, 4, 2), p);
  EXPECT_DOUBLE_EQ(a.time_us, b.time_us);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
}

// Sec. 6: "The overhead of unsuccessful attempts to cache remote
// addresses is relatively small, typically 1.5% and never worse than 2%."
// Reproduce with a pattern that never hits: alternating targets through a
// size-1 cache, against the cache-code-disabled baseline.
TEST(MissOverhead, NeverWorseThanTwoPercent) {
  auto measure = [](bool cache_enabled) {
    core::RuntimeConfig cfg = config(net::TransportKind::kGm, 3, 1);
    cfg.cache.enabled = cache_enabled;
    cfg.cache.max_entries = 1;
    core::Runtime rt(std::move(cfg));
    sim::Time t0 = 0, t1 = 0;
    double hit_rate = 0.0;
    rt.run([&](core::UpcThread& th) -> sim::Task<void> {
      auto a = co_await th.all_alloc(30, 8, 10);
      co_await th.barrier();
      if (th.id() == 0) {
        t0 = th.now();
        for (int i = 0; i < 4000; ++i) {
          // Alternate between nodes 1 and 2: the 1-entry cache always
          // misses, so every access pays lookup + insert for nothing.
          (void)co_await th.read<std::uint64_t>(
              a, 10 + static_cast<std::uint64_t>(i % 2) * 10);
        }
        t1 = th.now();
        hit_rate = rt.cache(0).stats().hit_rate();
      }
      co_await th.barrier();
    });
    return std::pair(sim::to_us(t1 - t0), hit_rate);
  };
  const auto [z, z_hits] = measure(false);
  const auto [w, w_hits] = measure(true);
  EXPECT_EQ(w_hits, 0.0);  // genuinely unsuccessful caching
  const double overhead = 100.0 * (w - z) / z;
  EXPECT_GT(overhead, 0.0);
  EXPECT_LT(overhead, 2.0);
}

// Sec. 3.1: the elaborated (chunked) pinning technique obtains "similar
// results" to pin-everything.
TEST(PinStrategies, GreedyAndChunkedGiveSimilarImprovements) {
  PointerParams p;
  p.hops = 48;
  auto greedy = config(net::TransportKind::kGm, 4, 2);
  greedy.pin_strategy = mem::PinStrategy::kGreedy;
  auto chunked = config(net::TransportKind::kGm, 4, 2);
  chunked.pin_strategy = mem::PinStrategy::kChunked;
  const auto g = pointer_improvement(std::move(greedy), p);
  const auto c = pointer_improvement(std::move(chunked), p);
  EXPECT_NEAR(g.improvement_pct, c.improvement_pct, 8.0);
  EXPECT_GT(c.improvement_pct, 10.0);
}

// gtest names each case by the raw bytes of its parameter, so the bytes
// after the one-byte `kind` are a real, zeroed member rather than
// compiler padding whose contents vary with the surrounding code.
struct ScaleCase {
  constexpr ScaleCase(net::TransportKind k, std::uint32_t n, std::uint32_t t)
      : kind(k), nodes(n), tpn(t) {}
  net::TransportKind kind;
  std::uint8_t zero_pad[3] = {};
  std::uint32_t nodes, tpn;
};
static_assert(sizeof(ScaleCase) == 12, "ScaleCase must have no padding");

class StressmarkScaleProperty : public ::testing::TestWithParam<ScaleCase> {};

TEST_P(StressmarkScaleProperty, AllFourProduceNonNegativeGains) {
  const auto& c = GetParam();
  PointerParams pp;
  pp.hops = 24;
  UpdateParams up;
  up.hops = 24;
  NeighborhoodParams np;
  np.samples_per_thread = 24;
  FieldParams fp;
  fp.tokens = 2;
  EXPECT_GT(pointer_improvement(config(c.kind, c.nodes, c.tpn), pp)
                .improvement_pct,
            0.0);
  EXPECT_GT(update_improvement(config(c.kind, c.nodes, c.tpn), up)
                .improvement_pct,
            0.0);
  EXPECT_GT(neighborhood_improvement(config(c.kind, c.nodes, c.tpn), np)
                .improvement_pct,
            0.0);
  EXPECT_GT(field_improvement(config(c.kind, c.nodes, c.tpn), fp)
                .improvement_pct,
            -5.0);  // Field on LAPI may be ~0
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StressmarkScaleProperty,
    ::testing::Values(ScaleCase{net::TransportKind::kGm, 2, 4},
                      ScaleCase{net::TransportKind::kGm, 8, 4},
                      ScaleCase{net::TransportKind::kGm, 16, 2},
                      ScaleCase{net::TransportKind::kLapi, 2, 2},
                      ScaleCase{net::TransportKind::kLapi, 8, 8}));

}  // namespace
}  // namespace xlupc::dis
