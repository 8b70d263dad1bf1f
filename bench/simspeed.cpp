// simspeed — simulator-core throughput in simulated events per
// wall-second (docs/PERFORMANCE.md).
//
// Three workloads:
//  * fig9_mix     — a miniature of the DIS stressmark access mix
//                   (pointer hops, read-modify-write updates, field-style
//                   span scans) over the full runtime stack, the event
//                   profile the fig9 benches spend their time in.
//  * churn        — raw sim-layer stress: coroutine frames, resource
//                   holds, triggers and timers churning at high rate with
//                   no runtime logic to dilute the scheduler/allocator.
//  * scale_probe  — (with --scale-probe) a 4096-node InfiniBand fat tree
//                   doing neighbour reads: exercises thousand-node event
//                   queues and per-node state at CI-friendly duration.
//
// Simulations are deterministic, so every workload executes an exact
// event count for a seed; tools/perfcheck.sh gates CI on the committed
// BENCH_simspeed.json event counts staying exact. The --json report's
// metrics hold the host memory of the whole process: its peak resident
// set (perfcheck's memory gate), the sim pool's fresh chunk bytes (a
// chunk carved again after an empty pool unmapped its slabs counts
// again) and live peak, the times the pool unmapped its slabs
// (pool.releases), its chunk switches (a class's current chunk ran dry)
// and partial-list steps, the pool's
// per-class census near its live peak (pool.census: live blocks and
// chunks held by block size, taken when the peak last passed a multiple
// of 64 KiB, at pool.census_live_bytes) and where resident memory last
// grew (pool.fresh_census, the same counts when the last fresh chunk was
// carved, at pool.fresh_census_live_bytes), and queue.far_frac, the
// share of schedules that went to the event queue's far heap.
//
// Usage: simspeed [--machine gm|lapi|ib] [--seed N] [--json <file>]
//                 [--scale-probe]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "benchsupport/machines.h"
#include "benchsupport/report.h"
#include "benchsupport/table.h"
#include "core/runtime.h"
#include "net/machine_registry.h"
#include "sim/pool.h"
#include "sim/rng.h"

using namespace xlupc;
using core::ArrayDesc;
using core::UpcThread;
using sim::Task;

namespace {

struct WorkloadResult {
  std::uint64_t events = 0;  ///< simulator events executed (deterministic)
  std::uint64_t sim_ns = 0;  ///< simulated time covered (deterministic)
  double wall_ms = 0.0;      ///< wall-clock of the run loop (measured)
  std::uint64_t schedules = 0;      ///< events scheduled
  std::uint64_t far_schedules = 0;  ///< ... of them into the far heap

  /// Take the event counts of the run's simulator.
  void count(const sim::Simulator& sim) {
    events = sim.events_executed();
    schedules = sim.queue().executed() + sim.queue().size();
    far_schedules = sim.queue().far_schedules();
  }

  double events_per_sec() const {
    return wall_ms > 0.0 ? events / (wall_ms / 1000.0) : 0.0;
  }
};

/// Peak resident set of this process, in MB: VmHWM, since getrusage's
/// ru_maxrss also carries the high-water mark of the parent process.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// A pool census as JSON: {block bytes: {blocks, chunks}} for each class
/// that holds a block or a chunk.
bench::Json census_json(
    const sim::PoolClassCount (&census)[sim::kPoolClasses]) {
  bench::Json out = bench::Json::object();
  for (std::size_t c = 0; c < sim::kPoolClasses; ++c) {
    const sim::PoolClassCount& n = census[c];
    if (n.live_blocks == 0 && n.chunks == 0) continue;
    bench::Json row = bench::Json::object();
    row.set("blocks", bench::Json::number(std::uint64_t{n.live_blocks}));
    row.set("chunks", bench::Json::number(std::uint64_t{n.chunks}));
    out.set(std::to_string((c + 1) * sim::kPoolGranularity), std::move(row));
  }
  return out;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

// ------------------------------------------------------------------
// fig9_mix: pointer + update + field phases over the full runtime.
// ------------------------------------------------------------------
WorkloadResult run_fig9_mix(const std::string& machine, std::uint64_t seed) {
  core::RuntimeConfig cfg;
  cfg.platform = net::make_machine(machine);
  cfg.nodes = 16;
  cfg.threads_per_node = 4;
  cfg.seed = seed;
  core::Runtime rt(std::move(cfg));
  const std::uint64_t per_thread = 512;
  const std::uint64_t n = per_thread * rt.threads();

  const auto t0 = std::chrono::steady_clock::now();
  rt.run([&rt, n](UpcThread& th) -> Task<void> {
    ArrayDesc arr = co_await th.all_alloc(n, sizeof(std::uint64_t));
    // Deterministic successor graph (setup is zero-cost, like the DIS
    // stressmarks: the measured phases start after the barrier).
    {
      const std::uint64_t block = arr.layout->block_factor();
      const std::uint64_t start = th.id() * block;
      const std::uint64_t count =
          std::min(block, start < n ? n - start : 0);
      std::vector<std::uint64_t> init(count);
      for (auto& v : init) v = th.rng().below(n);
      if (count > 0) {
        rt.debug_write(arr, start,
                       std::as_bytes(std::span(init.data(), init.size())));
      }
    }
    co_await th.barrier();
    if (th.id() == 0) rt.warm_address_cache(arr);
    co_await th.barrier();

    // Pointer phase: serially dependent random hops.
    std::uint64_t pos = th.rng().below(n);
    for (std::uint32_t h = 0; h < 384; ++h) {
      // Standalone initializer: see the gcc-12 co_await note in
      // dis/pointer.cpp.
      const std::uint64_t succ = co_await th.read<std::uint64_t>(arr, pos);
      pos = succ % n;
      co_await th.compute(40);
    }
    co_await th.barrier();

    // Update phase: read-modify-write hops, drained by a fence.
    for (std::uint32_t h = 0; h < 192; ++h) {
      const std::uint64_t v = co_await th.read<std::uint64_t>(arr, pos);
      co_await th.write<std::uint64_t>(arr, pos, v + th.id());
      pos = (v + h) % n;
      co_await th.compute(40);
    }
    co_await th.fence();
    co_await th.barrier();

    // Field phase: span scans with overhang into the next piece.
    std::vector<std::byte> buf(64 * sizeof(std::uint64_t));
    std::uint64_t start = th.rng().below(n - 64);
    for (std::uint32_t s = 0; s < 48; ++s) {
      co_await th.memget(arr, start, buf);
      start = (start + 499) % (n - 64);
      co_await th.compute(120);
    }
    co_await th.barrier();
  });

  WorkloadResult r;
  r.wall_ms = ms_since(t0);
  r.count(rt.simulator());
  r.sim_ns = rt.elapsed();
  return r;
}

// ------------------------------------------------------------------
// churn: raw scheduler/allocator stress (no runtime stack).
// ------------------------------------------------------------------
Task<void> churn_leaf(sim::Simulator& sim, sim::Trigger& t,
                      sim::Duration d) {
  co_await sim.delay(d);
  t.fire();
}

Task<void> churn_child(sim::Simulator& sim, sim::Trigger& t,
                       sim::Duration d) {
  // A two-frame chain with a short-lived payload buffer: the allocation
  // profile of one simulated communication operation (task frames plus a
  // message body), reproduced without the runtime logic around it.
  std::vector<std::byte, sim::PoolAllocator<std::byte>> payload(192);
  payload[0] = std::byte{1};
  sim::Trigger leaf_done(sim);
  sim.spawn(churn_leaf(sim, leaf_done, d));
  co_await leaf_done.wait();
  t.fire();
}

Task<void> churn_actor(sim::Simulator& sim,
                       std::vector<std::unique_ptr<sim::Resource>>& res,
                       std::uint64_t seed) {
  sim::Rng rng(seed);
  const std::size_t nres = res.size();
  for (std::uint32_t i = 0; i < 1500; ++i) {
    co_await res[rng.below(nres)]->use(1 + rng.below(50));
    sim::Trigger done(sim);
    sim.spawn(churn_child(sim, done, 1 + rng.below(120)));
    co_await done.wait();
    co_await sim.delay(rng.below(200));
  }
}

WorkloadResult run_churn(std::uint64_t seed) {
  sim::Simulator sim;
  std::vector<std::unique_ptr<sim::Resource>> res;
  for (int i = 0; i < 32; ++i) {
    res.push_back(std::make_unique<sim::Resource>(sim, 2));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t a = 0; a < 256; ++a) {
    sim.spawn(churn_actor(sim, res, seed * 1000003 + a));
  }
  sim.run();
  WorkloadResult r;
  r.wall_ms = ms_since(t0);
  r.count(sim);
  r.sim_ns = sim.now();
  return r;
}

// ------------------------------------------------------------------
// scale_probe: 4096-node InfiniBand fat tree, neighbour reads.
// ------------------------------------------------------------------
WorkloadResult run_scale_probe(std::uint64_t seed) {
  core::RuntimeConfig cfg;
  cfg.platform = net::make_machine("ib");
  cfg.nodes = 4096;
  cfg.threads_per_node = 1;
  cfg.seed = seed;
  core::Runtime rt(std::move(cfg));
  const std::uint64_t per_thread = 16;
  const std::uint64_t n = per_thread * rt.threads();

  const auto t0 = std::chrono::steady_clock::now();
  rt.run([&rt, n, per_thread](UpcThread& th) -> Task<void> {
    ArrayDesc arr = co_await th.all_alloc(n, sizeof(std::uint64_t));
    co_await th.barrier();
    // Cold caches: first touches go over the AM path and populate the
    // cache from the piggybacked base, later touches take the RDMA path
    // — both tiers exercised at 4096-node scale.
    const std::uint64_t threads = rt.threads();
    std::uint64_t peer = (th.id() + 1) % threads;
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < 24; ++i) {
      const std::uint64_t elem = peer * per_thread + (i % per_thread);
      const std::uint64_t v = co_await th.read<std::uint64_t>(arr, elem);
      acc += v;
      peer = (peer + 37) % threads;
      co_await th.compute(60);
    }
    co_await th.write<std::uint64_t>(arr, th.id() * per_thread, acc);
    co_await th.fence();
    co_await th.barrier();
  });

  WorkloadResult r;
  r.wall_ms = ms_since(t0);
  r.count(rt.simulator());
  r.sim_ns = rt.elapsed();
  return r;
}

struct Options {
  std::string machine = "gm";
  std::uint64_t seed = 1;
  bool scale_probe = false;
};

[[noreturn]] void usage_and_exit() {
  std::fprintf(stderr,
               "usage: simspeed [--machine %s] [--seed N] [--json <file>]\n"
               "                [--scale-probe]\n",
               net::machine_names().c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&](std::string_view flag) -> std::string {
      if (a.size() > flag.size() && a.substr(0, flag.size() + 1) ==
                                        std::string(flag) + "=") {
        return std::string(a.substr(flag.size() + 1));
      }
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    if (a == "--machine" || a.substr(0, 10) == "--machine=") {
      opt.machine = value("--machine");
    } else if (a == "--seed" || a.substr(0, 7) == "--seed=") {
      opt.seed = std::strtoull(value("--seed").c_str(), nullptr, 10);
    } else if (a == "--scale-probe") {
      opt.scale_probe = true;
    } else if (a == "--json" || a.substr(0, 7) == "--json=") {
      value("--json");  // consumed again by the Reporter
    } else if (a == "--help" || a == "-h") {
      usage_and_exit();
    }
    // Unknown arguments are ignored, like every bench binary.
  }
  // Unknown names print the full machine registry and exit(2) instead of
  // throwing out of main (benchsupport/machines.h).
  (void)bench::resolve_machine(opt.machine);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  bench::Reporter rep("simspeed", argc, argv);
  rep.config("machine", bench::Json::str(opt.machine));
  rep.config("seed", bench::Json::number(opt.seed));

  struct Workload {
    const char* name;
    WorkloadResult (*run)(const Options&);
  };
  std::vector<Workload> workloads = {
      {"fig9_mix",
       [](const Options& o) { return run_fig9_mix(o.machine, o.seed); }},
      {"churn", [](const Options& o) { return run_churn(o.seed); }},
  };
  if (opt.scale_probe) {
    workloads.push_back(
        {"scale_probe_4096",
         [](const Options& o) { return run_scale_probe(o.seed); }});
  }

  std::printf("simspeed: machine=%s seed=%llu\n\n", opt.machine.c_str(),
              static_cast<unsigned long long>(opt.seed));
  bench::Table table({"workload", "events", "sim_ms", "wall_ms", "Mev/s"});
  std::uint64_t schedules = 0;
  std::uint64_t far_schedules = 0;
  for (const Workload& w : workloads) {
    const WorkloadResult r = w.run(opt);
    schedules += r.schedules;
    far_schedules += r.far_schedules;
    table.row({w.name, std::to_string(r.events), bench::fmt(r.sim_ns / 1e6, 2),
               bench::fmt(r.wall_ms, 1),
               bench::fmt(r.events_per_sec() / 1e6, 2)});
  }
  table.print();
  const sim::PoolStats& pool = sim::pool_stats();
  const double rss_mb = peak_rss_mb();
  std::printf("\npeak RSS %.1f MB; sim pool chunks %.1f MB, live peak %.1f MB\n",
              rss_mb, static_cast<double>(pool.chunk_bytes) / (1 << 20),
              static_cast<double>(pool.peak_live_bytes) / (1 << 20));
  rep.metric("peak_rss_mb", bench::Json::number(rss_mb));
  rep.metric("pool.chunk_bytes", bench::Json::number(pool.chunk_bytes));
  rep.metric("pool.peak_live_bytes",
             bench::Json::number(pool.peak_live_bytes));
  rep.metric("pool.releases", bench::Json::number(pool.releases));
  rep.metric("pool.chunk_switches", bench::Json::number(pool.chunk_switches));
  rep.metric("pool.partial_steps", bench::Json::number(pool.partial_steps));
  rep.metric("pool.census_live_bytes",
             bench::Json::number(pool.census_live_bytes));
  rep.metric("pool.census", census_json(pool.census));
  rep.metric("pool.fresh_census_live_bytes",
             bench::Json::number(pool.fresh_census_live_bytes));
  rep.metric("pool.fresh_census", census_json(pool.fresh_census));
  rep.metric("queue.far_frac",
             bench::Json::number(schedules == 0
                                     ? 0.0
                                     : static_cast<double>(far_schedules) /
                                           static_cast<double>(schedules)));
  rep.results(table);
  return rep.finish();
}
