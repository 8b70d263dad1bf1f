// Named counters and gauges — the registry every layer folds its
// statistics into so a run can be reported as one flat, machine-readable
// document (docs/OBSERVABILITY.md) — and the metric schema that maps the
// layers' struct counters onto it.
//
// Hot paths keep their cheap struct counters (OpCounters, TransportStats,
// AddressCacheStats, ...). Each struct declares its report keys once, as
// a table of MetricRow beside it: the dotted name, the field it reads,
// the families the key needs and how copies combine. Runtime::metrics()
// computes the run's live families once and folds every struct through
// its table at report time, so the registry never sits on a
// per-operation fast path; merge() combines per-node and per-thread
// copies through the same table. Only derived values (rates, gauges)
// and totals of classes without a stats struct are set by hand. User
// code may add its own counters at any time; they appear in the same
// report.
//
// Iteration order is the lexicographic name order (std::map), which is
// what makes serialized reports byte-stable across identical runs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace xlupc::sim {

class MetricsRegistry {
 public:
  /// Increment counter `name` by `delta` (creating it at zero first).
  void add(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }

  /// Set counter `name` to an absolute value (used when folding in the
  /// layer-local structs, which already hold totals).
  void set(const std::string& name, std::uint64_t value) {
    counters_[name] = value;
  }

  /// Set gauge `name` (a point-in-time or derived quantity: utilization
  /// percentages, hit rates, resident bytes).
  void set_gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }

  /// Counter value; 0 when the counter was never touched.
  std::uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Gauge value; 0.0 when the gauge was never set.
  double gauge(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }

  const std::map<std::string, std::uint64_t>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const noexcept {
    return gauges_;
  }

  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size();
  }

  /// Drop every counter and gauge (Runtime::reset_metrics).
  void reset() {
    counters_.clear();
    gauges_.clear();
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
};

/// A set of report families (bits of `family::k*`).
using Families = std::uint32_t;

/// The report families. A key whose row needs a family appears only in
/// runs where that family is live, so a run that never exercises it
/// keeps the exact report bytes of builds that predate it.
namespace family {
inline constexpr Families kAmo = 1u << 0;       ///< the run issued FAA/CAS
inline constexpr Families kCoalesce = 1u << 1;  ///< small-op coalescing on
inline constexpr Families kIb = 1u << 2;        ///< InfiniBand verbs machine
inline constexpr Families kFaults = 1u << 3;    ///< a FaultPlan is enabled
/// The plan schedules link-down windows or crash-stops.
inline constexpr Families kFabricFaults = 1u << 4;
inline constexpr Families kFabric = 1u << 5;  ///< finite-buffer switch fabric
/// A FaultPlan is enabled, or the transport staged a transfer through
/// bounce buffers (which a registration larger than the whole DMAable
/// budget does fault-free).
inline constexpr Families kBounce = 1u << 6;
}  // namespace family

/// How per-node or per-thread copies of a counter combine into one.
enum class Combine : std::uint8_t { kSum, kMax };

/// One report key of a stats struct `S`: the counter `name` reads
/// `S::*field`, and is present only when every family in `needs` is live.
/// Two rows may read the same field under different names.
template <class S>
struct MetricRow {
  const char* name;
  std::uint64_t S::*field;
  Families needs = 0;
  Combine combine = Combine::kSum;
};

/// Fold `s` into `reg` through its rows, skipping rows whose families
/// are not all in `live`.
template <class S, std::size_t N>
void fold(MetricsRegistry& reg, const S& s, const MetricRow<S> (&rows)[N],
          Families live) {
  for (const MetricRow<S>& r : rows) {
    if ((r.needs & ~live) == 0) reg.set(r.name, s.*r.field);
  }
}

/// Combine `from` into `into` through the rows. Every row reads the old
/// value of `into`, so a field that two rows read is combined once.
template <class S, std::size_t N>
void merge(S& into, const S& from, const MetricRow<S> (&rows)[N]) {
  const S old = into;
  for (const MetricRow<S>& r : rows) {
    const std::uint64_t a = old.*r.field;
    const std::uint64_t b = from.*r.field;
    into.*r.field = r.combine == Combine::kMax ? std::max(a, b) : a + b;
  }
}

}  // namespace xlupc::sim
