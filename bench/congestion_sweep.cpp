// Congestion on the finite-buffer fabric: N->1 incast collapse and
// ECMP-vs-adaptive routing under hotspot load (docs/FABRIC.md).
//
// Three experiments over the KV serving workload (docs/WORKLOADS.md):
//
//  1. N->1 incast — every client draws keys homed on node 0's shard
//     (KvWorkloadParams::incast_home), so the whole cluster's PUT storm
//     converges on one leaf-down port. With infinite buffers the fan-in
//     only queues at the endpoint; with finite credits the congestion
//     tree backs up hop by hop and open-loop latency grows superlinearly
//     with the fan-in.
//
//  2. ECMP vs adaptive — hotspot-Zipf all-to-all on the fat tree across
//     two leaves (36 nodes), where net::redundant_paths offers 18
//     routes per cross-leaf pair. Static ECMP hashing pins each pair to
//     one pod-spine path, so hash collisions on a bursty hotspot stay
//     collided; the adaptive policy diverts to the least-loaded route at
//     injection time and wins the tail.
//
//  3. Credit sweep — the same incast at increasing buffer depth: deeper
//     credit windows absorb the burst and shrink the blocked time.
//
// Usage: congestion_sweep [--seed N] [--json <file>] [--machine NAME]
// Same seed => byte-identical output (deterministic simulation;
// tools/goldencheck.sh gates it against the committed goldens).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchsupport/machines.h"
#include "benchsupport/report.h"
#include "benchsupport/table.h"
#include "core/runtime.h"
#include "dis/kvstore.h"
#include "net/fabric.h"
#include "net/machine_registry.h"

using namespace xlupc;
using bench::fmt;

namespace {

constexpr std::uint32_t kOpsPerClient = 48;

struct RunStats {
  double p50_us = 0.0;  ///< PUT latency percentiles (open loop: queueing
  double p99_us = 0.0;  ///< from falling behind the rate is included)
  std::uint64_t credit_waits = 0;
  double credit_wait_ms = 0.0;  ///< total simulated time blocked on credits
  std::uint64_t diverts = 0;    ///< adaptive picks off the ECMP primary
  core::RunReport report;
};

RunStats run_one(const net::PlatformParams& platform, std::uint32_t nodes,
                 const net::FabricParams& fabric, std::int32_t incast_home,
                 double skew, double interarrival_us, std::uint64_t seed) {
  core::RuntimeConfig cfg;
  cfg.platform = platform;
  cfg.nodes = nodes;
  cfg.threads_per_node = 1;
  cfg.seed = seed;
  cfg.fabric = fabric;

  dis::KvWorkloadParams p;
  p.store.capacity = 1024;
  p.store.value_words = 1;
  p.store.block_buckets = 8;
  p.keyspace = 256;
  p.zipf_skew = skew;
  p.put_fraction = 1.0;
  p.ops_per_thread = kOpsPerClient;
  p.interarrival = sim::us(interarrival_us);
  p.access_path = dis::KvAccessPath::kRdma;
  p.incast_home = incast_home;

  dis::KvWorkloadResult r = dis::run_kv_workload(std::move(cfg), p);
  RunStats s;
  if (r.put_latency.count() > 0) {
    s.p50_us = r.put_latency.percentile_us(0.50);
    s.p99_us = r.put_latency.percentile_us(0.99);
  }
  s.credit_waits = r.report.counter("fabric.credit_waits");
  s.credit_wait_ms =
      static_cast<double>(r.report.counter("fabric.credit_wait_ns")) / 1e6;
  s.diverts = r.report.counter("fabric.adaptive_diverts");
  s.report = std::move(r.report);
  return s;
}

net::FabricParams finite(std::uint32_t credits,
                         net::RoutePolicy routing = net::RoutePolicy::kEcmp) {
  net::FabricParams f;
  f.port_credits = credits;
  f.routing = routing;
  f.route_seed = 42;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("congestion_sweep", argc, argv);
  std::uint64_t seed = 1;
  std::string machine;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--machine") == 0 && i + 1 < argc) {
      machine = argv[++i];
    }
  }
  // Unknown names print the full machine registry and exit(2)
  // instead of throwing out of main (benchsupport/machines.h).
  if (!machine.empty()) (void)bench::resolve_machine(machine);
  const std::vector<std::string> machines =
      machine.empty() ? std::vector<std::string>{"gm", "lapi", "ib"}
                      : std::vector<std::string>{machine};

  std::printf(
      "Congestion sweep (%u open-loop PUTs per client, seed %llu,\n"
      "finite fabric: 2 credits per switch port unless noted)\n\n",
      kOpsPerClient, static_cast<unsigned long long>(seed));

  // --- part 1: N->1 incast fan-in ---
  std::printf(
      "N->1 incast (every client PUTs into node 0's shard, 16 us\n"
      "interarrival), PUT latency, infinite buffers vs 2 credits:\n");
  bench::Table incast_table({"machine", "fan-in", "inf p50us", "inf p99us",
                             "fin p50us", "fin p99us", "waits", "blocked ms"});
  core::RunReport representative;
  for (const std::string& m : machines) {
    for (std::uint32_t nodes : {4u, 8u, 16u, 32u}) {
      const RunStats inf = run_one(net::make_machine(m), nodes, {}, 0,
                                   /*skew=*/0.0, /*interarrival_us=*/16.0, seed);
      RunStats fin = run_one(net::make_machine(m), nodes, finite(2), 0,
                             /*skew=*/0.0, /*interarrival_us=*/16.0, seed);
      if (m == machines.back() && nodes == 32u) {
        representative = fin.report;
      }
      incast_table.row({m, std::to_string(nodes), fmt(inf.p50_us, 2),
                        fmt(inf.p99_us, 2), fmt(fin.p50_us, 2),
                        fmt(fin.p99_us, 2), std::to_string(fin.credit_waits),
                        fmt(fin.credit_wait_ms, 3)});
    }
  }
  incast_table.print();
  std::printf(
      "\nDoubling the fan-in more than doubles the finite-buffer tail:\n"
      "once the hot port's credit window fills, arrivals block upstream\n"
      "while still holding their own slots, so the congestion tree grows\n"
      "hop by hop and queueing compounds (incast collapse). The infinite\n"
      "columns only ever queue at the endpoint NIC.\n");

  // --- part 2: ECMP vs adaptive on the fat tree ---
  std::printf(
      "\nRouting policy, hotspot-Zipf all-to-all (skew 1.2, 8 us\n"
      "interarrival), ib fat tree, 36 nodes (18 routes per cross-leaf\n"
      "pair), 1-credit ports:\n");
  bench::Table route_table({"policy", "p50us", "p99us", "waits", "blocked ms",
                            "diverts"});
  for (const net::RoutePolicy pol :
       {net::RoutePolicy::kEcmp, net::RoutePolicy::kAdaptive}) {
    const RunStats r = run_one(net::make_machine("ib"), 36, finite(1, pol), -1,
                               /*skew=*/1.2, /*interarrival_us=*/8.0, seed);
    route_table.row({net::to_string(pol), fmt(r.p50_us, 2), fmt(r.p99_us, 2),
                     std::to_string(r.credit_waits), fmt(r.credit_wait_ms, 3),
                     std::to_string(r.diverts)});
  }
  route_table.print();
  std::printf(
      "\nECMP pins each (src,dst) pair to one hashed pod-spine path, so a\n"
      "bursty hotspot keeps colliding on the same leaf-up/spine ports.\n"
      "The adaptive policy reads the buffer occupancy at injection time\n"
      "and diverts to the least-loaded of the 18 routes, spending less\n"
      "time blocked on credits and cutting the tail.\n");

  // --- part 3: credit-depth sweep ---
  std::printf(
      "\nCredit depth vs incast (ib, fan-in 8, 16 us interarrival), PUT\n"
      "latency:\n");
  bench::Table credit_table({"credits", "p50us", "p99us", "waits",
                             "blocked ms"});
  for (std::uint32_t credits : {1u, 2u, 4u, 8u}) {
    const RunStats r = run_one(net::make_machine("ib"), 8, finite(credits), 0,
                               /*skew=*/0.0, /*interarrival_us=*/16.0, seed);
    credit_table.row({std::to_string(credits), fmt(r.p50_us, 2),
                      fmt(r.p99_us, 2), std::to_string(r.credit_waits),
                      fmt(r.credit_wait_ms, 3)});
  }
  credit_table.print();
  std::printf(
      "\nDeeper credit windows absorb the burst before it backs up into\n"
      "the tree: blocked time falls as credits grow, converging on the\n"
      "infinite-buffer endpoint-queueing floor.\n");

  core::RuntimeConfig rep_cfg;
  rep_cfg.platform = net::make_machine(machines.back());
  rep_cfg.seed = seed;
  rep.config(rep_cfg);
  if (!machine.empty()) rep.config("machine", bench::Json::str(machine));
  rep.config("ops_per_client",
             bench::Json::number(static_cast<double>(kOpsPerClient)));
  rep.config("port_credits", bench::Json::number(2.0));
  rep.config("metrics_run", bench::Json::str(
      machines.back() + " incast fan-in 16, 2 credits"));
  rep.metrics(representative);
  rep.results(incast_table, "incast");
  rep.results(route_table, "routing_policy");
  rep.results(credit_table, "credit_depth");
  return rep.finish();
}
