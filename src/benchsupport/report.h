// Machine-readable run reports for the bench harness.
//
// Every bench/* binary accepts `--json <file>` (or `--json=<file>`) and,
// when given, writes one JSON document
//
//   { "benchmark": ..., "config": ..., "metrics": ..., "results": [...] }
//
// alongside its usual stdout table — the format the repo's BENCH_*.json
// perf trajectory is built from. The schema is documented with a worked
// example in docs/OBSERVABILITY.md. Two identical-seed runs of a bench
// produce byte-identical files (deterministic simulation + ordered JSON).
#pragma once

#include <string>

#include "benchsupport/json.h"
#include "benchsupport/table.h"
#include "core/api.h"
#include "core/run_report.h"

namespace xlupc::bench {

/// Serialize a RunReport (counters, gauges, resources, trace lines).
Json to_json(const core::RunReport& report);

/// Serialize the interesting fields of a RuntimeConfig.
Json to_json(const core::RuntimeConfig& cfg);

/// Command-line arguments shared by every bench binary.
struct BenchArgs {
  std::string json_path;  ///< empty = no JSON output requested
  /// Host threads for independent runs (run_jobs); 0 = one per hardware
  /// thread.
  unsigned jobs = 0;

  bool json() const noexcept { return !json_path.empty(); }
};

/// The most host threads `--jobs` accepts.
inline constexpr unsigned kMaxJobs = 256;

/// Parse `--json <file>` / `--json=<file>` and `--jobs <n>` /
/// `--jobs=<n>`; unknown arguments are ignored (benches parse their own).
/// Throws std::invalid_argument when `--json` is given without a path or
/// `--jobs` without a whole number from 1 to kMaxJobs.
BenchArgs parse_bench_args(int argc, char** argv);

/// Collects one bench run's config, metrics and result rows, and writes
/// the JSON document at finish() when --json was passed.
class Reporter {
 public:
  /// Parses the command line; a malformed `--json` or `--jobs` prints an
  /// error and a usage line and exits with status 2, before any run.
  Reporter(std::string benchmark, int argc, char** argv);

  bool json_enabled() const noexcept { return args_.json(); }
  /// Host threads for run_jobs (`--jobs`; 0 = one per hardware thread).
  unsigned jobs() const noexcept { return args_.jobs; }

  /// Add a free-form config entry.
  void config(const std::string& key, Json value);
  /// Capture a whole RuntimeConfig under the "runtime" config key.
  void config(const core::RuntimeConfig& cfg);

  /// Attach the metrics of a representative run (last call wins).
  void metrics(const core::RunReport& report);
  /// Add one free-form metric, for benches that report host figures
  /// rather than a RunReport (a later metrics() call replaces it).
  void metric(const std::string& key, Json value);

  /// Append every row of `table` to the results array, one object per
  /// row keyed by the table headers. A non-empty `series` label is added
  /// to each row as {"series": label} — used by benches printing several
  /// tables (fig8a/fig8b) so all rows share one flat results array.
  void results(const Table& table, const std::string& series = {});

  /// Write the document if --json was passed (silent no-op otherwise).
  /// Returns 0 so `return reporter.finish();` closes a main(); returns 2
  /// (after printing to stderr) when the output file cannot be written.
  int finish();

 private:
  std::string benchmark_;
  BenchArgs args_;
  Json config_ = Json::object();
  Json metrics_ = Json::object();
  Json results_ = Json::array();
};

}  // namespace xlupc::bench
