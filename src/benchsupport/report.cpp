#include "benchsupport/report.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "mem/pinned_table.h"
#include "net/params.h"
#include "sim/time.h"

namespace xlupc::bench {

Json to_json(const core::RunReport& report) {
  Json j = Json::object();
  j.set("platform", Json::str(report.platform));
  j.set("elapsed_us", Json::number(report.elapsed_us));
  j.set("events", Json::number(report.events));

  Json counters = Json::object();
  for (const auto& [name, value] : report.counters) {
    counters.set(name, Json::number(value));
  }
  j.set("counters", std::move(counters));

  Json gauges = Json::object();
  for (const auto& [name, value] : report.gauges) {
    gauges.set(name, Json::number(value));
  }
  j.set("gauges", std::move(gauges));

  Json resources = Json::array();
  for (const core::ResourceUsage& u : report.resources) {
    Json r = Json::object();
    r.set("name", Json::str(u.name));
    r.set("capacity", Json::number(u.capacity));
    r.set("acquisitions", Json::number(u.acquisitions));
    r.set("busy_us", Json::number(u.busy_us));
    r.set("queue_wait_us", Json::number(u.queue_wait_us));
    r.set("utilization_pct", Json::number(u.utilization_pct));
    resources.push(std::move(r));
  }
  j.set("resources", std::move(resources));

  if (!report.trace.empty()) {
    Json trace = Json::array();
    for (const core::TraceReportLine& line : report.trace) {
      Json t = Json::object();
      t.set("op", Json::str(line.op));
      t.set("path", Json::str(line.path));
      t.set("count", Json::number(line.count));
      t.set("total_us", Json::number(line.total_us));
      t.set("mean_us", Json::number(line.mean_us));
      t.set("max_us", Json::number(line.max_us));
      trace.push(std::move(t));
    }
    j.set("trace", std::move(trace));
  }
  return j;
}

Json to_json(const core::RuntimeConfig& cfg) {
  Json j = Json::object();
  j.set("platform", Json::str(cfg.platform.name));
  j.set("nodes", Json::number(static_cast<std::uint64_t>(cfg.nodes)));
  j.set("threads_per_node",
        Json::number(static_cast<std::uint64_t>(cfg.threads_per_node)));

  Json cache = Json::object();
  cache.set("enabled", Json::boolean(cfg.cache.enabled));
  cache.set("max_entries",
            Json::number(static_cast<std::uint64_t>(cfg.cache.max_entries)));
  cache.set("put_enabled", cfg.cache.put_enabled.has_value()
                               ? Json::boolean(*cfg.cache.put_enabled)
                               : Json());
  cache.set("full_table", Json::boolean(cfg.cache.full_table));
  j.set("cache", std::move(cache));

  j.set("pin_strategy",
        Json::str(cfg.pin_strategy == mem::PinStrategy::kGreedy ? "greedy"
                                                                : "chunked"));
  j.set("seed", Json::number(cfg.seed));
  j.set("trace", Json::boolean(cfg.trace));

  // The "faults" key appears only when a fault plan is active, keeping
  // fault-free config sections byte-identical to pre-fault-layer output.
  if (cfg.faults.any()) {
    Json faults = Json::object();
    faults.set("seed", Json::number(cfg.faults.seed));
    faults.set("drop_prob", Json::number(cfg.faults.drop_prob));
    faults.set("corrupt_prob", Json::number(cfg.faults.corrupt_prob));
    faults.set("dup_prob", Json::number(cfg.faults.dup_prob));
    faults.set("pin_fail_prob", Json::number(cfg.faults.pin_fail_prob));
    faults.set("rto_us", Json::number(sim::to_us(cfg.faults.rto)));
    faults.set("rto_backoff", Json::number(cfg.faults.rto_backoff));
    faults.set("rto_cap_us", Json::number(sim::to_us(cfg.faults.rto_cap)));
    faults.set("max_retransmits",
               Json::number(static_cast<std::uint64_t>(
                   cfg.faults.max_retransmits)));
    faults.set("nic_stalls", Json::number(static_cast<std::uint64_t>(
                                 cfg.faults.nic_stalls.size())));
    faults.set("slowdowns", Json::number(static_cast<std::uint64_t>(
                                cfg.faults.slowdowns.size())));
    j.set("faults", std::move(faults));
  }

  // Likewise the "coalesce" key appears only when coalescing is on, so
  // default-config sections keep their pre-coalescing bytes.
  if (cfg.coalesce.enabled()) {
    Json coalesce = Json::object();
    coalesce.set("threshold", Json::number(static_cast<std::uint64_t>(
                                  cfg.coalesce.threshold)));
    coalesce.set("max_bytes", Json::number(static_cast<std::uint64_t>(
                                  cfg.coalesce.max_bytes)));
    coalesce.set("max_ops", Json::number(static_cast<std::uint64_t>(
                                cfg.coalesce.max_ops)));
    j.set("coalesce", std::move(coalesce));
  }
  return j;
}

namespace {

// The value of `flag` at argv[i], given as `flag <value>` (advancing i)
// or `flag=<value>`; nullopt when argv[i] is another argument.
std::optional<std::string_view> flag_value(int argc, char** argv, int& i,
                                           std::string_view flag) {
  const std::string_view arg = argv[i];
  if (arg == flag) {
    if (i + 1 >= argc) return std::string_view{};
    return std::string_view(argv[++i]);
  }
  if (arg.size() > flag.size() && arg.substr(0, flag.size()) == flag &&
      arg[flag.size()] == '=') {
    return arg.substr(flag.size() + 1);
  }
  return std::nullopt;
}

}  // namespace

BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (const auto path = flag_value(argc, argv, i, "--json")) {
      if (path->empty()) {
        throw std::invalid_argument("--json requires an output file path");
      }
      args.json_path = std::string(*path);
    } else if (const auto n = flag_value(argc, argv, i, "--jobs")) {
      unsigned jobs = 0;
      const auto [end, ec] =
          std::from_chars(n->data(), n->data() + n->size(), jobs);
      if (n->empty() || ec != std::errc() || end != n->data() + n->size() ||
          jobs == 0 || jobs > kMaxJobs) {
        throw std::invalid_argument(
            "--jobs requires a thread count from 1 to " +
            std::to_string(kMaxJobs));
      }
      args.jobs = jobs;
    }
  }
  return args;
}

Reporter::Reporter(std::string benchmark, int argc, char** argv)
    : benchmark_(std::move(benchmark)) {
  try {
    args_ = parse_bench_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "error: %s\nusage: %s [--json <file>] [--jobs <n>]\n",
                 e.what(), argc > 0 ? argv[0] : "bench");
    std::exit(2);
  }
}

void Reporter::config(const std::string& key, Json value) {
  config_.set(key, std::move(value));
}

void Reporter::config(const core::RuntimeConfig& cfg) {
  config_.set("runtime", to_json(cfg));
}

void Reporter::metrics(const core::RunReport& report) {
  metrics_ = to_json(report);
}

void Reporter::metric(const std::string& key, Json value) {
  metrics_.set(key, std::move(value));
}

void Reporter::results(const Table& table, const std::string& series) {
  for (const auto& row : table.rows()) {
    Json obj = Json::object();
    if (!series.empty()) obj.set("series", Json::str(series));
    for (std::size_t i = 0; i < row.size() && i < table.headers().size();
         ++i) {
      obj.set(table.headers()[i], Json::str(row[i]));
    }
    results_.push(std::move(obj));
  }
}

int Reporter::finish() {
  if (!args_.json()) return 0;
  Json doc = Json::object();
  doc.set("benchmark", Json::str(benchmark_));
  doc.set("config", std::move(config_));
  doc.set("metrics", std::move(metrics_));
  doc.set("results", std::move(results_));
  std::ofstream out(args_.json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 args_.json_path.c_str());
    return 2;
  }
  doc.dump(out);
  out << '\n';
  if (!out) {
    std::fprintf(stderr, "error: failed writing %s\n",
                 args_.json_path.c_str());
    return 2;
  }
  return 0;
}

}  // namespace xlupc::bench
