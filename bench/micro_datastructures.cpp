// Wall-clock microbenchmarks (google-benchmark) of the real data
// structures on the critical paths: the remote address cache probe that
// sits in front of every remote access, SVD translation, memory
// registration bookkeeping and the simulator's event queue.
#include <benchmark/benchmark.h>

#include "core/address_cache.h"
#include "mem/address_space.h"
#include "mem/pinned_table.h"
#include "mem/registration_cache.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "svd/directory.h"

namespace {

using namespace xlupc;

void BM_AddressCacheHit(benchmark::State& state) {
  core::RemoteBases bases;
  core::AddressCache cache(bases, 100);
  for (std::uint64_t n = 0; n < 64; ++n) {
    cache.insert(core::CacheKey{1, static_cast<NodeId>(n), 0},
                 net::BaseInfo{0x1000 + n, n});
  }
  sim::Rng rng(42);
  for (auto _ : state) {
    const core::CacheKey key{1, static_cast<NodeId>(rng.below(64)), 0};
    benchmark::DoNotOptimize(cache.lookup(key));
  }
}
BENCHMARK(BM_AddressCacheHit);

void BM_AddressCacheMissAndInsert(benchmark::State& state) {
  core::RemoteBases bases;
  core::AddressCache cache(bases, 100);
  std::uint64_t h = 0;
  for (auto _ : state) {
    const core::CacheKey key{++h, 0, 0};
    if (!cache.lookup(key)) {
      cache.insert(key, net::BaseInfo{h, h});
    }
  }
}
BENCHMARK(BM_AddressCacheMissAndInsert);

void BM_SvdTranslate(benchmark::State& state) {
  svd::Directory dir(64);
  std::vector<svd::Handle> handles;
  for (int i = 0; i < 32; ++i) {
    svd::ControlBlock cb;
    cb.local_base = 0x10000 + i * 0x1000;
    cb.local_bytes = 0x1000;
    handles.push_back(dir.add_local(svd::kAllPartition, 0, cb));
  }
  sim::Rng rng(7);
  for (auto _ : state) {
    const auto& h = handles[rng.below(handles.size())];
    benchmark::DoNotOptimize(dir.translate(h, rng.below(0x1000)));
  }
}
BENCHMARK(BM_SvdTranslate);

void BM_PinnedTableQuery(benchmark::State& state) {
  mem::PinnedAddressTable table(mem::PinStrategy::kChunked, {});
  const Addr base = mem::node_base(0);
  table.pin(base, 64 << 20);
  sim::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.is_pinned(base + rng.below(64 << 20), 64));
  }
}
BENCHMARK(BM_PinnedTableQuery);

void BM_RegistrationCacheEnsure(benchmark::State& state) {
  mem::RegistrationCache rc(1 << 30);
  sim::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rc.ensure(mem::node_base(0) + (rng.below(256) << 20), 4096));
  }
}
BENCHMARK(BM_RegistrationCacheEnsure);

// Schedules a batch of state.range(0) events, then drains it: the
// argument is the pending population at the peak (16 is a small
// machine, 8192 the thousands of blocked threads of perfbench `scale`).
void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto pending = state.range(0);
  sim::EventQueue q;
  sim::Rng rng(13);
  sim::Time now = 0;
  int sink = 0;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < pending; ++i) {
      q.schedule(now + rng.below(1000), [&sink] { ++sink; });
    }
    while (!q.empty()) now = q.pop_and_run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * pending);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(16)->Arg(8192);

void BM_RngBelow(benchmark::State& state) {
  sim::Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(12345));
  }
}
BENCHMARK(BM_RngBelow);

}  // namespace
