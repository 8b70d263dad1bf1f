// Lease/heartbeat failure detector (docs/FAULTS.md).
//
// One-sided RDMA makes failure *silent*: a GET against a crashed peer
// never completes and no handler ever runs to notice. The runtime
// therefore runs an explicit detector whenever the fault plan schedules
// whole-fabric failures (sim::FaultParams::fabric): every heartbeat
// interval each live node is assumed to heartbeat every other, and an
// observer *suspects* a peer once `lease_misses` consecutive heartbeats
// failed to arrive — because the peer crash-stopped, or because the
// (peer, observer) link sat inside a scheduled down window at every send
// instant. A peer is *declared dead* only when a majority of live
// observers suspect it, so one flapped link can never evict a healthy
// node from the membership; a real crash-stop is declared roughly one
// lease (heartbeat_interval * lease_misses) after the crash instant.
//
// Declaration advances the membership epoch and triggers the runtime's
// recovery chain (Runtime::on_peer_dead): the transport error-fences the
// peer's connections and fails its in-flight legs fast, the address
// caches and the peer's registration cache drop their entries, and every
// subsequent op against the peer surfaces OpStatus::kPeerFailed.
//
// The detector is a single simulator coroutine ticking at the heartbeat
// interval; heartbeat receipt is evaluated analytically against the
// fault-plan schedule (pure lookups, no RNG, no extra messages), so it
// perturbs neither the per-link verdict streams nor the wire timing of
// the traffic under test. It never runs under plans without fabric
// faults, keeping those runs byte-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/metrics.h"
#include "sim/task.h"
#include "sim/time.h"

namespace xlupc::core {

class Runtime;

/// Detector observability (docs/OBSERVABILITY.md).
struct DetectorStats {
  std::uint64_t heartbeats = 0;  ///< heartbeats sent (live nodes x ticks)
  std::uint64_t suspicions = 0;  ///< (observer, peer) lease expiries seen
  std::uint64_t deaths = 0;      ///< peers declared dead (quorum reached)
  std::uint64_t epoch = 0;       ///< membership epoch (bumps per death)
};

/// Report keys of DetectorStats; present only under fabric fault plans.
inline constexpr sim::MetricRow<DetectorStats> kDetectorRows[] = {
    {"fault.detector.heartbeats", &DetectorStats::heartbeats,
     sim::family::kFabricFaults},
    {"fault.detector.suspicions", &DetectorStats::suspicions,
     sim::family::kFabricFaults},
    {"fault.detector.deaths", &DetectorStats::deaths,
     sim::family::kFabricFaults},
    {"fault.detector.epoch", &DetectorStats::epoch,
     sim::family::kFabricFaults},
};

class FailureDetector {
 public:
  explicit FailureDetector(Runtime& rt);
  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// The detector coroutine: spawned by Runtime::run (only when the plan
  /// schedules fabric faults), ticks every heartbeat interval, exits once
  /// every UPC thread has finished so the event queue can drain.
  sim::Task<void> run_loop();

  bool declared_dead(NodeId node) const noexcept {
    return node < dead_.size() && dead_[node] != 0;
  }
  std::uint64_t epoch() const noexcept { return stats_.epoch; }
  const DetectorStats& stats() const noexcept { return stats_; }
  void reset_stats() {
    // Membership (dead_, epoch) survives a metrics-window reset; only the
    // work counters restart.
    const std::uint64_t epoch = stats_.epoch;
    stats_ = DetectorStats{};
    stats_.epoch = epoch;
  }

 private:
  /// One detector round at simulated time `now`.
  void tick(sim::Time now);
  /// Did `observer` receive any of `peer`'s last `lease_misses`
  /// heartbeats, evaluated against the crash/link-down schedule?
  bool heard_from(NodeId observer, NodeId peer, sim::Time now) const;

  Runtime& rt_;
  std::vector<std::uint8_t> dead_;
  std::vector<std::uint8_t> link_signaled_;  ///< per LinkDownWindow index
  DetectorStats stats_;
};

}  // namespace xlupc::core
