// Figure 9 — "Address Cache Evaluation on GM (a) and LAPI (b) using the
// DIS Stressmark Suite": percentage improvement 100 (Z - W) / Z of the
// address cache for the four stressmarks across machine scales.
//
// Expected shape (paper Sec. 4.6/4.7):
//  (a) GM hybrid:  Pointer 30-60% (rising with scale), Update 11-22%,
//      Neighborhood 10-20%, Field 35-40%.
//  (b) LAPI hybrid: Pointer/Update/Neighborhood comparable to GM; Field
//      ~0% because LAPI overlaps communication and computation.
#include <cstdio>
#include <string_view>
#include <vector>

#include "benchsupport/jobs.h"
#include "benchsupport/report.h"
#include "benchsupport/table.h"
#include "dis/field.h"
#include "net/machine_registry.h"
#include "dis/neighborhood.h"
#include "dis/pointer.h"
#include "dis/update.h"
#include "sim/stats.h"

using namespace xlupc;
using bench::fmt;

namespace {

struct Scale {
  std::uint32_t threads;
  std::uint32_t nodes;
};

struct Panel {
  const char* series;
  const char* title;
  std::string_view machine;
  std::vector<Scale> scales;
};

enum Study : std::size_t { kPointer, kUpdate, kNeighborhood, kField, kStudies };

// One half of one stressmark's improvement.
struct Half {
  std::string_view machine;
  Scale scale;
  std::size_t study;
  bool cache;
};

core::RuntimeConfig config(std::string_view machine, const Scale& s) {
  core::RuntimeConfig cfg;
  cfg.platform = net::make_machine(machine);
  cfg.nodes = s.nodes;
  cfg.threads_per_node = s.threads / s.nodes;
  return cfg;
}

dis::StressResult run_half(const Half& h) {
  core::RuntimeConfig cfg = config(h.machine, h.scale);
  cfg.cache.enabled = h.cache;
  switch (h.study) {
    case kPointer: {
      dis::PointerParams pp;
      pp.hops = 48;
      return dis::run_pointer(std::move(cfg), pp);
    }
    case kUpdate: {
      dis::UpdateParams up;
      up.hops = 48;
      return dis::run_update(std::move(cfg), up);
    }
    case kNeighborhood: {
      dis::NeighborhoodParams np;
      np.samples_per_thread = 32;
      return dis::run_neighborhood(std::move(cfg), np);
    }
    default: {
      dis::FieldParams fp;
      fp.tokens = 3;
      return dis::run_field(std::move(cfg), fp);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("fig9_stressmarks", argc, argv);
  const Panel panels[] = {
      // (a) MareNostrum hybrid GM: 4 UPC threads per blade (Sec. 4.6).
      {"fig9a_gm",
       "Figure 9a: DIS improvement, hybrid GM (MareNostrum)",
       "gm",
       {{8, 2},
        {16, 4},
        {32, 8},
        {64, 16},
        {128, 32},
        {256, 64},
        {512, 128},
        {1024, 256},
        {2048, 512}}},
      // (b) Power5 cluster, LAPI: the paper's thread-node pairs (Sec. 4.7).
      {"fig9b_lapi",
       "Figure 9b: DIS improvement, hybrid LAPI (Power5 cluster)",
       "lapi",
       {{4, 2},
        {8, 2},
        {16, 2},
        {32, 2},
        {64, 4},
        {128, 8},
        {256, 16},
        {448, 28}}}};

  // Every half of every cell, in table order: cache off, then on.
  std::vector<Half> halves;
  for (const Panel& p : panels) {
    for (const Scale& s : p.scales) {
      for (std::size_t study = 0; study < kStudies; ++study) {
        halves.push_back({p.machine, s, study, false});
        halves.push_back({p.machine, s, study, true});
      }
    }
  }
  const auto runs = bench::run_jobs(
      rep.jobs(), halves.size(),
      [&](std::size_t i) { return run_half(halves[i]); });

  std::size_t next = 0;
  for (const Panel& p : panels) {
    std::printf("%s\n\n", p.title);
    bench::Table table({"threads-nodes", "Pointer %", "Update %",
                        "Neighborhood %", "Field %"});
    for (const Scale& s : p.scales) {
      std::vector<std::string> row{std::to_string(s.threads) + "-" +
                                   std::to_string(s.nodes)};
      for (std::size_t study = 0; study < kStudies; ++study, next += 2) {
        row.push_back(fmt(sim::improvement_percent(runs[next].time_us,
                                                   runs[next + 1].time_us),
                          1));
      }
      table.row(std::move(row));
    }
    table.print();
    std::printf("\n");
    rep.results(table, p.series);
  }

  std::printf(
      "paper reference: GM Pointer 30-60%%, Update 11-22%%, Neighborhood\n"
      "10-20%%, Field 35-40%%; LAPI comparable except Field ~0%% (LAPI\n"
      "overlaps communication and computation).\n");

  // Metrics from one representative cached run: Pointer at GM 8-2, the
  // second half of the first cell.
  rep.config(config("gm", {8, 2}));
  rep.config("metrics_run", bench::Json::str("Pointer GM 8-2, cached"));
  rep.metrics(runs[1].report);
  return rep.finish();
}
