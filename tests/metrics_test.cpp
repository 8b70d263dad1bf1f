// Tests for the observability layer: the MetricsRegistry, per-Resource
// instrumentation, Runtime::metrics()/reset_metrics(), the metric schema
// against the docs/OBSERVABILITY.md taxonomy, the JSON report
// serialization (byte-stability against a golden file), and the recovery
// work the committed seed-42 fault and chaos goldens record.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchsupport/json.h"
#include "benchsupport/report.h"
#include "core/runtime.h"
#include "dis/kvstore.h"
#include "net/machine_registry.h"
#include "net/transport.h"
#include "sim/metrics.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace xlupc {
namespace {

using core::Runtime;
using core::RuntimeConfig;
using core::UpcThread;
using sim::Task;

// --- MetricsRegistry ---------------------------------------------------

TEST(MetricsRegistry, CountersAccumulateAndDefaultToZero) {
  sim::MetricsRegistry reg;
  EXPECT_EQ(reg.counter("nope"), 0u);
  reg.add("a.x");
  reg.add("a.x", 4);
  reg.set("a.y", 7);
  EXPECT_EQ(reg.counter("a.x"), 5u);
  EXPECT_EQ(reg.counter("a.y"), 7u);
  reg.set("a.y", 2);  // set overwrites
  EXPECT_EQ(reg.counter("a.y"), 2u);
}

TEST(MetricsRegistry, IterationIsLexicographic) {
  sim::MetricsRegistry reg;
  reg.add("z.last");
  reg.add("a.first");
  reg.add("m.middle");
  std::vector<std::string> names;
  for (const auto& [name, value] : reg.counters()) names.push_back(name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"a.first", "m.middle", "z.last"}));
}

TEST(MetricsRegistry, GaugesAndReset) {
  sim::MetricsRegistry reg;
  reg.set_gauge("util", 42.5);
  EXPECT_DOUBLE_EQ(reg.gauge("util"), 42.5);
  EXPECT_DOUBLE_EQ(reg.gauge("absent"), 0.0);
  reg.add("c");
  reg.reset();
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.counter("c"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("util"), 0.0);
}

// --- Resource instrumentation ------------------------------------------

TEST(ResourceMetrics, CountsAcquisitionsAndBusyTime) {
  sim::Simulator sim;
  sim::Resource res(sim, 1);
  sim.spawn([](sim::Simulator&, sim::Resource& r) -> Task<> {
    co_await r.use(sim::us(10));
    co_await r.use(sim::us(5));
  }(sim, res));
  sim.run();
  EXPECT_EQ(res.acquisitions(), 2u);
  EXPECT_EQ(res.busy_time(), sim::us(15));
  EXPECT_EQ(res.queue_wait_time(), 0u);  // never contended
  EXPECT_DOUBLE_EQ(res.utilization(), 1.0);
}

TEST(ResourceMetrics, ContendedWaitersAccumulateQueueWait) {
  sim::Simulator sim;
  sim::Resource res(sim, 1);
  // Two tasks race for a unit held 10 us at a time: the second queues for
  // the first's full hold.
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](sim::Resource& r) -> Task<> {
      co_await r.use(sim::us(10));
    }(res));
  }
  sim.run();
  EXPECT_EQ(res.acquisitions(), 2u);
  EXPECT_EQ(res.queue_wait_time(), sim::us(10));
  EXPECT_EQ(res.busy_time(), sim::us(20));
  EXPECT_DOUBLE_EQ(res.utilization(), 1.0);  // back-to-back holds
}

TEST(ResourceMetrics, ResetUsageStartsAFreshWindow) {
  sim::Simulator sim;
  sim::Resource res(sim, 1);
  sim.spawn([](sim::Simulator& s, sim::Resource& r) -> Task<> {
    co_await r.use(sim::us(10));
    r.reset_usage();
    co_await s.delay(sim::us(10));  // idle half of the new window
    co_await r.use(sim::us(10));
  }(sim, res));
  sim.run();
  EXPECT_EQ(res.acquisitions(), 1u);
  EXPECT_EQ(res.busy_time(), sim::us(10));
  EXPECT_DOUBLE_EQ(res.utilization(), 0.5);
}

// --- Runtime::metrics() ------------------------------------------------

RuntimeConfig tiny_config() {
  RuntimeConfig cfg;
  cfg.platform = net::mare_nostrum_gm();
  cfg.nodes = 2;
  cfg.threads_per_node = 1;
  return cfg;
}

// Thread 0 reads the remote half a few times: first access misses the
// address cache (AM path), later ones hit (RDMA path).
Task<void> tiny_body(UpcThread& th) {
  auto a = co_await th.all_alloc(16, 8, 8);
  co_await th.barrier();
  if (th.id() == 0) {
    for (int i = 0; i < 4; ++i) {
      (void)co_await th.read<std::uint64_t>(a, 8 + (i % 4));
    }
  }
  co_await th.barrier();
}

TEST(RuntimeMetrics, CountersCoverEveryLayer) {
  Runtime rt(tiny_config());
  rt.run(tiny_body);
  const core::RunReport rep = rt.metrics();

  EXPECT_GT(rep.elapsed_us, 0.0);
  EXPECT_GT(rep.events, 0u);
  // Runtime layer: 1 AM miss, 3 RDMA hits.
  EXPECT_EQ(rep.counter("runtime.gets.am"), 1u);
  EXPECT_EQ(rep.counter("runtime.gets.rdma"), 3u);
  // Cache layer agrees.
  EXPECT_EQ(rep.counter("cache.misses"), 1u);
  EXPECT_EQ(rep.counter("cache.hits"), 3u);
  EXPECT_GT(rep.gauge("cache.hit_rate"), 0.0);
  // Transport layer saw the same traffic.
  EXPECT_EQ(rep.counter("transport.gets.eager"), 1u);
  EXPECT_EQ(rep.counter("transport.rdma.gets"), 3u);
  EXPECT_GT(rep.counter("transport.wire_bytes"), 0u);
  // Memory layer pinned the remote piece.
  EXPECT_GT(rep.counter("pin.calls"), 0u);
  EXPECT_GT(rep.counter("pin.pinned_bytes"), 0u);
  // Resources are reported node-major with stable names.
  ASSERT_FALSE(rep.resources.empty());
  EXPECT_EQ(rep.resources.front().name, "n0.core0");
  bool saw_busy_nic = false;
  for (const auto& r : rep.resources) {
    if (r.name.find("nic") != std::string::npos && r.busy_us > 0.0) {
      saw_busy_nic = true;
    }
  }
  EXPECT_TRUE(saw_busy_nic);
  EXPECT_GT(rep.gauge("util.nic_pct"), 0.0);
}

TEST(RuntimeMetrics, IdenticalRunsProduceIdenticalReports) {
  auto report_json = [] {
    Runtime rt(tiny_config());
    rt.run(tiny_body);
    return bench::to_json(rt.metrics()).dump_string();
  };
  EXPECT_EQ(report_json(), report_json());
}

TEST(RuntimeMetrics, ResetMetricsStartsACleanWindow) {
  Runtime rt(tiny_config());
  rt.run(tiny_body);
  const core::RunReport first = rt.metrics();
  EXPECT_GT(first.counter("runtime.gets.am"), 0u);

  rt.reset_metrics();
  const core::RunReport cleared = rt.metrics();
  EXPECT_EQ(cleared.counter("runtime.gets.am"), 0u);
  EXPECT_EQ(cleared.counter("cache.hits"), 0u);
  EXPECT_EQ(cleared.counter("transport.wire_bytes"), 0u);
  EXPECT_EQ(cleared.events, 0u);
  EXPECT_DOUBLE_EQ(cleared.elapsed_us, 0.0);

  // A second identical run after the reset is measured from the new
  // epoch only, so its window reports exactly the first run's counts
  // (the body allocates a fresh array, so the cold miss repeats too).
  rt.run(tiny_body);
  const core::RunReport second = rt.metrics();
  EXPECT_GT(second.events, 0u);
  EXPECT_EQ(second.counter("runtime.gets.am"),
            first.counter("runtime.gets.am"));
  EXPECT_EQ(second.counter("runtime.gets.rdma"),
            first.counter("runtime.gets.rdma"));
  EXPECT_EQ(second.counter("cache.misses"), first.counter("cache.misses"));
}

// Lossy variant of tiny_config: enough drop probability that the
// reliability layer retransmits, so the fault.*/reliability.* families
// fold into the registry.
RuntimeConfig faulty_config() {
  RuntimeConfig cfg = tiny_config();
  cfg.faults.seed = 42;
  cfg.faults.drop_prob = 0.3;
  cfg.faults.dup_prob = 0.5;
  return cfg;
}

// tiny_body through the nonblocking surface with a window of 2, so the
// comm.* family records async issues, a nonzero high-water mark, and
// suspending waits.
Task<void> tiny_nb_body(UpcThread& th) {
  auto a = co_await th.all_alloc(16, 8, 8);
  co_await th.barrier();
  if (th.id() == 0) {
    std::uint64_t v[4] = {};
    for (int i = 0; i < 4; ++i) {
      (void)th.get_nb(a, 8 + (i % 4),
                      std::as_writable_bytes(std::span(&v[i], 1)));
      if (th.outstanding() >= 2) co_await th.wait_all();
    }
    co_await th.wait_all();
  }
  co_await th.barrier();
}

TEST(RuntimeMetrics, ResetClearsFaultReliabilityAndCommCounters) {
  Runtime rt(faulty_config());
  rt.run(tiny_nb_body);
  const core::RunReport dirty = rt.metrics();
  // The window we are about to clear really had something in it.
  EXPECT_EQ(dirty.counter("comm.issued"), 4u);
  EXPECT_EQ(dirty.counter("comm.outstanding_hwm"), 2u);
  EXPECT_GT(dirty.counter("comm.wait_stalls"), 0u);
  EXPECT_GT(dirty.counter("fault.dropped_msgs") +
                dirty.counter("fault.duplicate_msgs"),
            0u);
  EXPECT_GT(dirty.counter("reliability.retransmits"), 0u);

  rt.reset_metrics();
  const core::RunReport clean = rt.metrics();
  EXPECT_EQ(clean.counter("comm.issued"), 0u);
  EXPECT_EQ(clean.counter("comm.outstanding_hwm"), 0u);
  EXPECT_EQ(clean.counter("comm.wait_stalls"), 0u);
  EXPECT_EQ(clean.counter("fault.dropped_msgs"), 0u);
  EXPECT_EQ(clean.counter("fault.corrupt_msgs"), 0u);
  EXPECT_EQ(clean.counter("fault.duplicate_msgs"), 0u);
  EXPECT_EQ(clean.counter("reliability.retransmits"), 0u);
  EXPECT_EQ(clean.counter("reliability.timeouts"), 0u);
  EXPECT_DOUBLE_EQ(clean.gauge("reliability.backoff_us"), 0.0);
}

// TransportStats (the struct benches read directly) and the registry
// counters (what reports carry) must be two views of the same numbers,
// including the fields the ProtocolEngine counts into directly.
TEST(RuntimeMetrics, TransportStatsAndRegistryCountersAgree) {
  Runtime rt(faulty_config());
  rt.run(tiny_body);
  const net::TransportStats& ts = rt.transport().stats();
  const core::RunReport rep = rt.metrics();
  EXPECT_EQ(rep.counter("transport.gets.eager"), ts.am_gets);
  EXPECT_EQ(rep.counter("transport.gets.rendezvous"), ts.rendezvous_gets);
  EXPECT_EQ(rep.counter("transport.puts.eager"), ts.am_puts);
  EXPECT_EQ(rep.counter("transport.puts.rendezvous"), ts.rendezvous_puts);
  EXPECT_EQ(rep.counter("transport.rdma.gets"), ts.rdma_gets);
  EXPECT_EQ(rep.counter("transport.rdma.puts"), ts.rdma_puts);
  EXPECT_EQ(rep.counter("transport.rdma.naks"), ts.rdma_naks);
  EXPECT_EQ(rep.counter("transport.control_msgs"), ts.control_msgs);
  EXPECT_EQ(rep.counter("transport.wire_bytes"), ts.wire_bytes);
  EXPECT_EQ(rep.counter("fault.dropped_msgs"), ts.dropped_msgs);
  EXPECT_EQ(rep.counter("fault.corrupt_msgs"), ts.corrupt_msgs);
  EXPECT_EQ(rep.counter("fault.duplicate_msgs"), ts.duplicate_msgs);
  EXPECT_EQ(rep.counter("fault.nic_stall_waits"), ts.nic_stall_waits);
  EXPECT_EQ(rep.counter("reliability.retransmits"), ts.retransmits);
  EXPECT_EQ(rep.counter("reliability.timeouts"), ts.timeouts);
  EXPECT_EQ(rep.counter("reliability.bounce_fallbacks"),
            ts.bounce_fallbacks);
  EXPECT_DOUBLE_EQ(rep.gauge("reliability.backoff_us"),
                   sim::to_us(ts.backoff_ns));
  // The run actually exercised the lossy path, so the equalities above
  // compared nonzero numbers.
  EXPECT_GT(ts.retransmits, 0u);
  EXPECT_GT(ts.wire_bytes, 0u);
}

// The whole-fabric recovery families (fault.fabric.*, fault.detector.*,
// fault.breaker.*) are gated on fabric plans: a message-fault-only plan
// must not even mention them (its reports stay byte-identical to builds
// that predate the fabric failure model), while a fabric plan folds them
// as exact views of the TransportStats / DetectorStats fields.
TEST(RuntimeMetrics, FabricCountersFoldOnlyUnderFabricPlans) {
  const auto has_counter = [](const core::RunReport& rep, const char* name) {
    for (const auto& [k, v] : rep.counters) {
      if (k == name) return true;
    }
    return false;
  };

  {
    Runtime rt(faulty_config());  // drops + dups, but no fabric faults
    rt.run(tiny_body);
    const core::RunReport rep = rt.metrics();
    EXPECT_FALSE(has_counter(rep, "fault.fabric.link_down_drops"));
    EXPECT_FALSE(has_counter(rep, "fault.fabric.failover_routes"));
    EXPECT_FALSE(has_counter(rep, "fault.fabric.peer_dead_drops"));
    EXPECT_FALSE(has_counter(rep, "fault.detector.deaths"));
    EXPECT_FALSE(has_counter(rep, "fault.breaker.fast_fails"));
  }
  {
    RuntimeConfig cfg = tiny_config();
    cfg.faults.seed = 42;
    cfg.faults.link_downs = {{0, 1, sim::us(1.0), sim::us(2.0)}};
    Runtime rt(std::move(cfg));
    rt.run(tiny_body);
    const net::TransportStats& ts = rt.transport().stats();
    const core::RunReport rep = rt.metrics();
    EXPECT_EQ(rep.counter("fault.fabric.link_down_drops"),
              ts.link_down_drops);
    EXPECT_EQ(rep.counter("fault.fabric.failover_routes"),
              ts.failover_routes);
    EXPECT_EQ(rep.counter("fault.fabric.peer_dead_drops"),
              ts.peer_dead_drops);
    EXPECT_EQ(rep.counter("fault.fabric.link_resyncs"), ts.link_resyncs);
    // The QP families are IB-only; this run is on GM.
    EXPECT_FALSE(has_counter(rep, "fault.fabric.qp_errors"));
    EXPECT_FALSE(has_counter(rep, "fault.fabric.qp_reconnects"));
    // Detector families are present (zero deaths: nobody crashed).
    EXPECT_TRUE(has_counter(rep, "fault.detector.heartbeats"));
    EXPECT_EQ(rep.counter("fault.detector.deaths"), 0u);
    EXPECT_TRUE(has_counter(rep, "fault.breaker.fast_fails"));
  }
}

TEST(RuntimeMetrics, TraceLinesPresentOnlyWhenTracing) {
  {
    Runtime rt(tiny_config());
    rt.run(tiny_body);
    EXPECT_TRUE(rt.metrics().trace.empty());
  }
  {
    RuntimeConfig cfg = tiny_config();
    cfg.trace = true;
    Runtime rt(std::move(cfg));
    rt.run(tiny_body);
    const core::RunReport rep = rt.metrics();
    ASSERT_FALSE(rep.trace.empty());
    bool saw_rdma_get = false;
    for (const auto& line : rep.trace) {
      if (line.op == "get" && line.path == "rdma" && line.count == 3) {
        saw_rdma_get = true;
      }
    }
    EXPECT_TRUE(saw_rdma_get);
  }
}

// --- Metric schema and the documented taxonomy ---------------------------

// Every name in the docs/OBSERVABILITY.md taxonomy tables. A cell lists
// names as `a.b.c` / `.d`, where `.d` replaces the last component of the
// name before it (`a.b.d`).
std::set<std::string> documented_names() {
  const std::string path =
      std::string(XLUPC_SOURCE_DIR) + "/docs/OBSERVABILITY.md";
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing " << path;
  std::set<std::string> names;
  bool taxonomy = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) taxonomy = line == "## Metric taxonomy";
    if (!taxonomy || line.rfind("| `", 0) != 0) continue;
    const std::string cell = line.substr(0, line.find('|', 1));
    std::string prev;
    for (std::size_t open = cell.find('`'); open != std::string::npos;) {
      const std::size_t close = cell.find('`', open + 1);
      if (close == std::string::npos) break;  // unpaired: not a name
      std::string name = cell.substr(open + 1, close - open - 1);
      if (name.starts_with('.')) {
        name = prev.substr(0, prev.rfind('.')) + name;
      }
      names.insert(name);
      prev = name;
      open = cell.find('`', close + 1);
    }
  }
  return names;
}

template <class S, std::size_t N>
void expect_rows_reported(const core::RunReport& rep,
                          const sim::MetricRow<S> (&rows)[N]) {
  for (const sim::MetricRow<S>& r : rows) {
    bool found = false;
    for (const auto& [k, v] : rep.counters) found = found || k == r.name;
    EXPECT_TRUE(found) << r.name << " missing from the report";
  }
}

// One KV run turns every report family on: the IB machine (verbs, and
// NIC atomics from the store's CAS inserts), a fault plan with drops and
// a crash-stop (faults, fabric faults), coalescing, and finite port
// credits (fabric). Its report must carry every schema row, and its
// names must be exactly the documented taxonomy.
TEST(MetricSchema, EveryFamilyLiveReportMatchesTheDocumentedTaxonomy) {
  RuntimeConfig cfg;
  cfg.platform = net::make_machine("ib");
  cfg.nodes = 4;
  cfg.faults.seed = 13;
  cfg.faults.drop_prob = 0.01;
  cfg.faults.crashes = {{3, sim::us(800.0)}};
  cfg.coalesce.threshold = 64;
  cfg.fabric.port_credits = 2;
  dis::KvWorkloadParams p;
  p.store.capacity = 256;
  p.keyspace = 64;
  p.put_fraction = 0.25;
  p.ops_per_thread = 32;
  p.interarrival = sim::us(60.0);
  const core::RunReport rep = dis::run_kv_workload(cfg, p).report;

  expect_rows_reported(rep, core::kOpCounterRows);
  expect_rows_reported(rep, core::kAddressCacheRows);
  expect_rows_reported(rep, core::kCommRows);
  expect_rows_reported(rep, core::kCoalesceRows);
  expect_rows_reported(rep, core::kDetectorRows);
  expect_rows_reported(rep, net::kTransportRows);
  expect_rows_reported(rep, net::kFabricRows);
  expect_rows_reported(rep, dis::kKvStoreRows);

  std::set<std::string> reported;
  for (const auto& [k, v] : rep.counters) reported.insert(k);
  for (const auto& [k, v] : rep.gauges) reported.insert(k);
  const std::set<std::string> documented = documented_names();
  for (const std::string& k : reported) {
    EXPECT_TRUE(documented.count(k)) << k << " is not documented";
  }
  for (const std::string& k : documented) {
    EXPECT_TRUE(reported.count(k)) << k << " is documented, not reported";
  }
}

// --- JSON serialization ------------------------------------------------

TEST(Json, EscapesAndFormatsCanonically) {
  bench::Json obj = bench::Json::object();
  obj.set("s", bench::Json::str("a\"b\\c\n"));
  obj.set("i", bench::Json::number(std::uint64_t{18446744073709551615ull}));
  obj.set("d", bench::Json::number(1.5));
  obj.set("b", bench::Json::boolean(true));
  obj.set("n", bench::Json());
  EXPECT_EQ(obj.dump_string(0),
            "{\"s\":\"a\\\"b\\\\c\\n\",\"i\":18446744073709551615,"
            "\"d\":1.5,\"b\":true,\"n\":null}");
}

TEST(Json, ObjectKeysKeepInsertionOrder) {
  bench::Json obj = bench::Json::object();
  obj.set("z", bench::Json::number(1));
  obj.set("a", bench::Json::number(2));
  EXPECT_EQ(obj.dump_string(0), "{\"z\":1,\"a\":2}");
}

TEST(BenchArgs, ParsesJsonFlagForms) {
  {
    const char* argv[] = {"bench", "--json", "out.json"};
    const auto args = bench::parse_bench_args(3, const_cast<char**>(argv));
    EXPECT_EQ(args.json_path, "out.json");
  }
  {
    const char* argv[] = {"bench", "--json=x.json"};
    const auto args = bench::parse_bench_args(2, const_cast<char**>(argv));
    EXPECT_EQ(args.json_path, "x.json");
  }
  {
    const char* argv[] = {"bench"};
    const auto args = bench::parse_bench_args(1, const_cast<char**>(argv));
    EXPECT_FALSE(args.json());
  }
  {
    const char* argv[] = {"bench", "--json"};
    EXPECT_THROW(bench::parse_bench_args(2, const_cast<char**>(argv)),
                 std::invalid_argument);
  }
}

TEST(BenchArgs, ParsesJobsFlagForms) {
  {
    const char* argv[] = {"bench", "--seed", "1", "--jobs", "4"};
    EXPECT_EQ(bench::parse_bench_args(5, const_cast<char**>(argv)).jobs, 4u);
  }
  {
    const char* argv[] = {"bench", "--jobs=256"};
    EXPECT_EQ(bench::parse_bench_args(2, const_cast<char**>(argv)).jobs,
              256u);
  }
  {
    const char* argv[] = {"bench"};
    EXPECT_EQ(bench::parse_bench_args(1, const_cast<char**>(argv)).jobs, 0u);
  }
}

TEST(BenchArgs, BadJobsValueExitsWithUsageBeforeAnyRun) {
  // 0, 257, a word and a missing value: the Reporter, the first thing a
  // bench makes, prints the error and a usage line and exits 2, so no
  // job and no thread ever starts.
  for (const char* bad : {"0", "257", "abc", "4x", ""}) {
    const char* argv[] = {"bench", "--jobs", bad};
    const int argc = *bad == '\0' ? 2 : 3;
    EXPECT_THROW(bench::parse_bench_args(argc, const_cast<char**>(argv)),
                 std::invalid_argument)
        << "--jobs '" << bad << "'";
    EXPECT_EXIT(bench::Reporter("bench", argc, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(2),
                "error: --jobs requires a thread count from 1 to 256\n"
                "usage: bench \\[--json <file>\\] \\[--jobs <n>\\]")
        << "--jobs '" << bad << "'";
  }
}

// --- Golden file -------------------------------------------------------

// The serialized report of the tiny fixed-seed run must stay byte-for-
// byte stable. Regenerate intentionally with:
//   XLUPC_REGEN_GOLDEN=1 ./metrics_test --gtest_filter='*GoldenFile*'
TEST(RunReportJson, GoldenFileIsByteStable) {
  Runtime rt(tiny_config());
  rt.run(tiny_body);

  bench::Json doc = bench::Json::object();
  doc.set("benchmark", bench::Json::str("tiny_fixture"));
  doc.set("config", bench::to_json(rt.config()));
  doc.set("metrics", bench::to_json(rt.metrics()));
  const std::string got = doc.dump_string() + "\n";

  const std::string path =
      std::string(XLUPC_SOURCE_DIR) + "/tests/golden/tiny_report.json";
  if (std::getenv("XLUPC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

// The value of the first `"name": <integer>` in a committed golden (a
// report's counters come before its results), 0 when absent.
std::uint64_t golden_counter(const std::string& golden,
                             const std::string& name) {
  const std::string path =
      std::string(XLUPC_SOURCE_DIR) + "/tests/golden/" + golden;
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing golden file " << path;
  std::stringstream text;
  text << in.rdbuf();
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = text.str().find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(text.str().substr(at + key.size()));
}

// tools/goldencheck.sh proves a build reproduces the seed-42 fault and
// chaos goldens byte for byte; this checks that what they pin is real
// recovery work on every machine: retransmits and NAK->AM fallbacks
// under message loss, detector deaths and breaker fast-fails after a
// crash, and on the ib fat tree reroutes around flapping links.
TEST(Goldens, SeedFortyTwoSweepsRecordRecoveryWork) {
  const struct {
    const char* golden;
    std::vector<std::string> counters;
  } rows[] = {
      {"fault_sweep.gm.seed42.json",
       {"reliability.retransmits", "reliability.rdma_nak_fallbacks"}},
      {"fault_sweep.lapi.seed42.json",
       {"reliability.retransmits", "reliability.rdma_nak_fallbacks"}},
      {"fault_sweep.ib.seed42.json",
       {"reliability.retransmits", "reliability.rdma_nak_fallbacks"}},
      {"chaos_sweep.gm.seed42.json",
       {"fault.detector.deaths", "fault.breaker.fast_fails"}},
      {"chaos_sweep.lapi.seed42.json",
       {"fault.detector.deaths", "fault.breaker.fast_fails"}},
      {"chaos_sweep.ib.seed42.json",
       {"fault.detector.deaths", "fault.breaker.fast_fails",
        "fault.fabric.failover_routes"}},
  };
  for (const auto& row : rows) {
    for (const std::string& counter : row.counters) {
      EXPECT_GT(golden_counter(row.golden, counter), 0u)
          << counter << " in tests/golden/" << row.golden;
    }
  }
}

}  // namespace
}  // namespace xlupc
