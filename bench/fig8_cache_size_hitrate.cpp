// Figure 8 — "Address Cache Size Evaluation using DIS Stressmark Suite":
// hit rate of the remote address cache for cache limits of 4, 10 and 100
// entries as the machine scales (threads-nodes pairs on the X axis),
// observed on a representative node.
//
//  (a) Pointer: unpredictable accesses across the whole shared space —
//      entries grow with node count, hit rate degrades once the node
//      count passes the cache size (knee at #nodes ~ cache entries).
//  (b) Neighborhood: a well-defined communication pattern — only a couple
//      of entries are ever needed and the hit rate stays flat.
#include <cstdio>
#include <vector>

#include "benchsupport/jobs.h"
#include "benchsupport/report.h"
#include "benchsupport/table.h"
#include "dis/neighborhood.h"
#include "dis/pointer.h"
#include "net/machine_registry.h"

using namespace xlupc;
using bench::fmt;

namespace {

struct Scale {
  std::uint32_t threads;
  std::uint32_t nodes;
};

// The paper's hybrid-GM scales: 8-2 ... 2048-512 (4 threads per node).
const std::vector<Scale> kScales = {{8, 2},     {16, 4},    {32, 8},
                                    {64, 16},   {128, 32},  {256, 64},
                                    {512, 128}, {1024, 256}, {2048, 512}};
const std::vector<std::size_t> kCacheSizes = {4, 10, 100};

core::RuntimeConfig config(const Scale& s, std::size_t cache_entries) {
  core::RuntimeConfig cfg;
  cfg.platform = net::make_machine("gm");
  cfg.nodes = s.nodes;
  cfg.threads_per_node = s.threads / s.nodes;
  cfg.cache.max_entries = cache_entries;
  return cfg;
}

// Hit-rate run `job`: Pointer (8a) for the first kScales x kCacheSizes
// jobs, then Neighborhood (8b), each scale by scale, cache size by size.
dis::StressResult run_hit_rate(std::size_t job) {
  const std::size_t per_figure = kScales.size() * kCacheSizes.size();
  core::RuntimeConfig cfg =
      config(kScales[job % per_figure / kCacheSizes.size()],
             kCacheSizes[job % kCacheSizes.size()]);
  if (job < per_figure) {
    dis::PointerParams p;
    p.hops = 48;
    return dis::run_pointer(std::move(cfg), p);
  }
  dis::NeighborhoodParams p;
  p.samples_per_thread = 32;
  return dis::run_neighborhood(std::move(cfg), p);
}

// One figure's table from its hit-rate runs.
bench::Table hit_rate_table(const std::vector<dis::StressResult>& runs,
                            std::size_t first) {
  bench::Table table({"threads-nodes", "4 entries", "10 entries",
                      "100 entries"});
  std::size_t next = first;
  for (const Scale& s : kScales) {
    std::vector<std::string> row{std::to_string(s.threads) + "-" +
                                 std::to_string(s.nodes)};
    for (std::size_t k = 0; k < kCacheSizes.size(); ++k) {
      row.push_back(fmt(runs[next++].cache.hit_rate(), 3));
    }
    table.row(std::move(row));
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("fig8_cache_size_hitrate", argc, argv);
  const std::size_t per_figure = kScales.size() * kCacheSizes.size();
  const auto runs =
      bench::run_jobs(rep.jobs(), 2 * per_figure, run_hit_rate);

  // Metrics: representative Pointer run (first scale, 10-entry cache).
  rep.config(config(kScales[0], 10));
  rep.config("metrics_run", bench::Json::str("Pointer 8-2, 10-entry cache"));
  rep.metrics(runs[1].report);

  std::printf("Figure 8a: Pointer hit rate vs cache size (observed node 0)\n\n");
  {
    const bench::Table table = hit_rate_table(runs, 0);
    table.print();
    rep.results(table, "fig8a_pointer");
  }

  std::printf(
      "\nFigure 8b: Neighborhood hit rate vs cache size (observed node 0)\n\n");
  {
    const bench::Table table = hit_rate_table(runs, per_figure);
    table.print();
    rep.results(table, "fig8b_neighborhood");
  }

  std::printf(
      "\npaper reference: Pointer degrades with node count (knee where\n"
      "#nodes ~ cache entries); Neighborhood stays flat and high for every\n"
      "cache size.\n");
  return rep.finish();
}
