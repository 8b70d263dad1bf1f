// The paper's future work, implemented: "measure the benefits of the
// address cache on applications as opposed to benchmarks" (Sec. 6).
//
// Three miniature applications with very different communication
// characters run with and without the cache on both platforms:
//  * stencil  — 2-D Jacobi heat step on a multi-blocked grid: static
//               neighbour pattern, tiny cache working set (like
//               Neighborhood);
//  * spmv     — sparse matrix-vector product: a fixed but scattered
//               gather set that repeats every iteration;
//  * gups     — random read-modify-write updates: the unpredictable
//               pattern whose cache grows with the machine (like
//               Pointer/Update).
#include <cstdio>
#include <string_view>
#include <vector>

#include "benchsupport/jobs.h"
#include "benchsupport/report.h"
#include "benchsupport/table.h"
#include "core/forall.h"
#include "core/runtime.h"
#include "core/shared_array.h"
#include "net/machine_registry.h"

using namespace xlupc;
using bench::fmt;
using core::UpcThread;
using sim::Task;

namespace {

// One app run: the measured phase and the run's report.
struct AppRun {
  double us = 0.0;
  core::RunReport report;
};

core::RuntimeConfig make_config(std::string_view machine, bool cache) {
  core::RuntimeConfig cfg;
  cfg.platform = net::make_machine(machine);
  cfg.nodes = 4;
  cfg.threads_per_node = 4;
  cfg.cache.enabled = cache;
  return cfg;
}

AppRun run_stencil(std::string_view machine, bool cache) {
  core::Runtime rt(make_config(machine, cache));
  sim::Time t0 = 0, t1 = 0;
  rt.run([&](UpcThread& th) -> Task<void> {
    auto grid =
        co_await core::SharedArray2D<double>::all_alloc(th, 64, 64, 16, 16);
    auto next =
        co_await core::SharedArray2D<double>::all_alloc(th, 64, 64, 16, 16);
    co_await th.barrier();
    if (th.id() == 0) t0 = th.now();
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (std::uint64_t r = 1; r < 63; ++r) {
        for (std::uint64_t c = 1; c < 63; ++c) {
          if (grid.threadof(r, c) != th.id()) continue;
          const double v = 0.25 * (co_await grid.read(th, r - 1, c) +
                                   co_await grid.read(th, r + 1, c) +
                                   co_await grid.read(th, r, c - 1) +
                                   co_await grid.read(th, r, c + 1));
          co_await next.write(th, r, c, v);
        }
      }
      co_await th.barrier();
      std::swap(grid, next);
      co_await th.barrier();
    }
    if (th.id() == 0) t1 = th.now();
  });
  return {sim::to_us(t1 - t0), rt.metrics()};
}

AppRun run_spmv(std::string_view machine, bool cache) {
  core::Runtime rt(make_config(machine, cache));
  constexpr std::uint64_t kN = 1024;
  sim::Time t0 = 0, t1 = 0;
  rt.run([&](UpcThread& th) -> Task<void> {
    auto x = co_await core::SharedArray<double>::all_alloc(th, kN);
    auto y = co_await core::SharedArray<double>::all_alloc(th, kN);
    co_await th.barrier();
    if (th.id() == 0) t0 = th.now();
    for (int it = 0; it < 2; ++it) {
      co_await core::forall(th, y.desc(), [&](std::uint64_t r) -> Task<void> {
        sim::Rng row_rng(r);  // fixed sparsity pattern per row
        double acc = 2.0 * co_await x.read(th, r);
        for (int k = 0; k < 3; ++k) {
          acc -= 0.3 * co_await x.read(th, row_rng.below(kN));
        }
        co_await y.write(th, r, acc);
      });
      co_await th.barrier();
      std::swap(x, y);
      co_await th.barrier();
    }
    if (th.id() == 0) t1 = th.now();
  });
  return {sim::to_us(t1 - t0), rt.metrics()};
}

AppRun run_gups(std::string_view machine, bool cache) {
  core::Runtime rt(make_config(machine, cache));
  constexpr std::uint64_t kN = 8192;
  sim::Time t0 = 0, t1 = 0;
  rt.run([&](UpcThread& th) -> Task<void> {
    auto table = co_await core::SharedArray<std::uint64_t>::all_alloc(th, kN);
    co_await th.barrier();
    if (th.id() == 0) t0 = th.now();
    for (int u = 0; u < 48; ++u) {
      const std::uint64_t idx = th.rng().below(kN);
      const auto v = co_await table.read(th, idx);
      co_await table.write(th, idx, v ^ (idx * 0x2545f4914f6cdd1dull));
    }
    co_await th.barrier();
    if (th.id() == 0) t1 = th.now();
  });
  return {sim::to_us(t1 - t0), rt.metrics()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("app_benchmarks", argc, argv);
  std::printf(
      "Application-level evaluation (the paper's Sec. 6 future work):\n"
      "address-cache benefit on three mini-apps, 16 threads / 4 nodes\n\n");
  bench::Table table({"app", "platform", "no-cache (us)", "cached (us)",
                      "improvement %"});
  struct App {
    const char* name;
    AppRun (*fn)(std::string_view, bool);
  };
  const App apps[] = {{"stencil", run_stencil},
                      {"spmv", run_spmv},
                      {"gups", run_gups}};
  const std::string_view machines[] = {"gm", "lapi"};
  // Job (app, machine, cache) at index (app * 2 + machine) * 2 + cache.
  const auto runs = bench::run_jobs(rep.jobs(), 12, [&](std::size_t i) {
    return apps[i / 4].fn(machines[i / 2 % 2], i % 2 == 1);
  });
  for (std::size_t i = 0; i < 12; i += 2) {
    const double z = runs[i].us;
    const double w = runs[i + 1].us;
    table.row({apps[i / 4].name, i / 2 % 2 == 0 ? "GM" : "LAPI", fmt(z, 1),
               fmt(w, 1), fmt(100.0 * (z - w) / z, 1)});
  }
  table.print();
  std::printf(
      "\nexpectation: static-pattern apps (stencil, spmv) keep near-\n"
      "microbenchmark gains because their few cache entries never evict;\n"
      "gups sits lower, like Pointer, because every access is a surprise\n"
      "(yet the piggybacked population still covers the node set).\n");
  // Metrics: the cached GM stencil run (static neighbour pattern).
  rep.config(make_config("gm", true));
  rep.config("metrics_run", bench::Json::str("stencil GM, cached"));
  rep.metrics(runs[1].report);
  rep.results(table);
  return rep.finish();
}
