// Ablation — the address-resolution design space of paper Sec. 2.1:
//
//   1. default SVD only        translation at the target on every access
//                              (the scalable baseline; no extra state);
//   2. remote address cache    the paper's contribution: bounded state,
//                              populated on demand by piggybacking;
//   3. full distributed table  "a distributed table of size
//                              O(nodes x objects) ... can be prohibitively
//                              expensive" — every allocation broadcasts
//                              base addresses to every node.
//
// All three run the Pointer Stressmark (the worst case for caching). The
// table quantifies what each strategy costs: per-node resolution entries,
// allocation-time control messages (O(nodes^2) for the full table) and
// the resulting runtime.
#include <cstdio>

#include "benchsupport/jobs.h"
#include "benchsupport/report.h"
#include "benchsupport/table.h"
#include "dis/pointer.h"
#include "net/machine_registry.h"

using namespace xlupc;
using bench::fmt;

namespace {

struct Outcome {
  double time_us = 0.0;
  std::size_t entries = 0;         // per-node resolution state
  std::uint64_t control_msgs = 0;  // allocation-time publication traffic
  double hit_rate = 0.0;
  core::RunReport report;
};

Outcome run(std::uint32_t nodes, int mode) {
  core::RuntimeConfig cfg;
  cfg.platform = net::make_machine("gm");
  cfg.nodes = nodes;
  cfg.threads_per_node = 4;
  switch (mode) {
    case 0:  // SVD only
      cfg.cache.enabled = false;
      break;
    case 1:  // address cache (paper default: 100 entries)
      cfg.cache.enabled = true;
      break;
    case 2:  // full table
      cfg.cache.enabled = true;
      cfg.cache.full_table = true;
      break;
  }
  dis::PointerParams p;
  p.hops = 48;
  p.warm_cache = mode == 1;  // the cache warms; the table self-populates
  const auto r = dis::run_pointer(std::move(cfg), p);
  Outcome out;
  out.time_us = r.time_us;
  out.entries = r.cache_entries;
  out.control_msgs = r.transport.control_msgs;
  out.hit_rate = r.cache.hit_rate();
  out.report = r.report;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("ablation_resolution", argc, argv);
  std::printf(
      "Ablation: address-resolution strategies (paper Sec. 2.1), Pointer\n"
      "Stressmark, hybrid GM, 4 threads/node\n\n");
  bench::Table table({"nodes", "strategy", "time (us)", "vs SVD-only",
                      "entries/node", "alloc ctrl msgs", "hit rate"});
  const std::uint32_t scales[] = {4u, 16u, 64u};
  // Job (scale, mode) at index scale * 3 + mode.
  const auto runs = bench::run_jobs(rep.jobs(), 9, [&](std::size_t i) {
    return run(scales[i / 3], static_cast<int>(i % 3));
  });
  for (std::size_t s = 0; s < 3; ++s) {
    const std::uint32_t nodes = scales[s];
    const Outcome& svd = runs[s * 3];
    const Outcome& cache = runs[s * 3 + 1];
    const Outcome& full = runs[s * 3 + 2];
    if (nodes == 16) {
      // Metrics: the paper-default strategy at the middle scale.
      rep.config("metrics_run",
                 bench::Json::str("Pointer GM 16 nodes, addr-cache"));
      rep.metrics(cache.report);
    }
    auto row = [&](const char* name, const Outcome& o) {
      table.row({std::to_string(nodes), name, fmt(o.time_us, 1),
                 fmt(100.0 * (svd.time_us - o.time_us) / svd.time_us, 1) + "%",
                 std::to_string(o.entries), std::to_string(o.control_msgs),
                 fmt(o.hit_rate, 2)});
    };
    row("svd-only", svd);
    row("addr-cache", cache);
    row("full-table", full);
  }
  table.print();
  std::printf(
      "\npaper reference (Sec. 2.1): the full table matches the cache's\n"
      "speed but its state grows O(nodes) per node per object and its\n"
      "allocation traffic O(nodes^2) — 'prohibitively expensive ...\n"
      "directly impacting scalability' — while the cache bounds state at\n"
      "its configured limit and needs no allocation-time broadcast.\n");
  rep.results(table);
  return rep.finish();
}
