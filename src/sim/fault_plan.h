// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan is a seeded, replayable description of everything that can
// go wrong underneath the transports: per-link message drop/corruption,
// late duplicates, transient registration (pin) failures, NIC stall
// windows, scheduled node slowdowns, and — the whole-fabric failure
// model — scheduled link-down/flap windows and crash-stop node failures.
// Every random decision is drawn from a per-link (or per-node) xoshiro
// stream derived from the plan seed, so a run with a given FaultParams
// is byte-for-byte reproducible — the same seed produces the same drops
// at the same simulated instants, and therefore the same RunReport
// (docs/FAULTS.md).
//
// A default-constructed (or all-zero) plan is *disabled*: the transports
// skip every fault check without consuming randomness or scheduling
// extra events, so fault-free runs stay byte-identical to builds that
// predate the fault layer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace xlupc::sim {

/// A window during which a node's NIC makes no progress: messages
/// injected while the window is open wait until it closes.
struct NicStallWindow {
  std::uint32_t node = 0;
  Time start = 0;       ///< window opens (simulated ns)
  Duration length = 0;  ///< window duration
};

/// A window during which a node's CPUs run slow: target-side handler
/// work (dispatch, SVD lookup, copies) is multiplied by `factor`.
struct NodeSlowdown {
  std::uint32_t node = 0;
  Time start = 0;
  Duration length = 0;
  double factor = 1.0;  ///< >= 1; 2.0 doubles handler service time
};

/// A window during which the fabric link between two nodes is dark, in
/// both directions. On a topology with redundant paths between the pair
/// (the IB fat tree's pod-spine/core layers) traffic fails over to an
/// alternate route and pays a detour; otherwise every leg injected while
/// the window is open is lost and must be recovered by retransmission
/// (or times out, if the flap outlasts the budget).
struct LinkDownWindow {
  std::uint32_t a = 0;  ///< one endpoint of the affected pair
  std::uint32_t b = 0;  ///< the other endpoint
  Time start = 0;       ///< window opens (simulated ns)
  Duration length = 0;  ///< window duration (a *flap* is a short window)
};

/// Crash-stop failure: from `at` on, the node is dead forever. Legs to or
/// from it are lost, its heartbeats stop (the failure detector declares
/// it dead one lease later), and operations targeting it surface a typed
/// error — core::OpStatus::kPeerFailed — instead of hanging.
struct NodeCrash {
  std::uint32_t node = 0;
  Time at = 0;  ///< crash instant (simulated ns)
};

/// Schema of a fault plan (docs/FAULTS.md). All probabilities are per
/// message-leg transmission; zero everywhere (the default) disables the
/// plan entirely.
struct FaultParams {
  std::uint64_t seed = 0;  ///< stream seed; same seed => same faults

  // --- message-level faults ---
  double drop_prob = 0.0;     ///< leg silently lost in transit
  double corrupt_prob = 0.0;  ///< leg arrives but fails its checksum
  /// Probability that a message counted as lost was merely delayed: the
  /// retransmission succeeds first and the late original arrives as a
  /// duplicate, which the receiver's sequence-number window suppresses.
  double dup_prob = 0.0;

  // --- memory-registration faults ---
  double pin_fail_prob = 0.0;  ///< transient per-pin registration failure

  // --- recovery policy (ACK/timeout/retransmit) ---
  Duration rto = us(40.0);        ///< base retransmission timeout
  double rto_backoff = 2.0;       ///< exponential backoff factor
  Duration rto_cap = us(640.0);   ///< backoff ceiling
  std::uint32_t max_retransmits = 16;  ///< then the leg returns kTimeout

  // --- scheduled hardware degradation ---
  std::vector<NicStallWindow> nic_stalls;
  std::vector<NodeSlowdown> slowdowns;

  // --- whole-fabric failure model (docs/FAULTS.md) ---
  std::vector<LinkDownWindow> link_downs;  ///< scheduled link-down/flap windows
  std::vector<NodeCrash> crashes;          ///< crash-stop node failures

  // --- failure detector policy (core::FailureDetector) ---
  /// Heartbeat period of the lease-based failure detector. The detector
  /// only runs when the plan schedules fabric faults (fabric() below).
  Duration heartbeat_interval = us(250.0);
  /// Missed-heartbeat budget: a peer's lease expires after
  /// `lease_misses * heartbeat_interval` of silence.
  std::uint32_t lease_misses = 4;

  /// True when the plan schedules whole-fabric faults (link-down windows
  /// or node crashes) — the failure detector and recovery machinery only
  /// activate then, so message-fault-only plans stay byte-identical to
  /// builds that predate the fabric failure model.
  bool fabric() const noexcept {
    return !link_downs.empty() || !crashes.empty();
  }

  /// True when any fault source is configured (a bare nonzero seed with
  /// all probabilities zero and no windows is still a no-fault plan).
  bool any() const noexcept {
    return drop_prob > 0.0 || corrupt_prob > 0.0 || dup_prob > 0.0 ||
           pin_fail_prob > 0.0 || !nic_stalls.empty() || !slowdowns.empty() ||
           fabric();
  }
};

class FaultPlan {
 public:
  /// Null plan: enabled() is false and every query is a cheap constant.
  FaultPlan() = default;
  explicit FaultPlan(FaultParams params)
      : params_(std::move(params)), enabled_(params_.any()) {}

  bool enabled() const noexcept { return enabled_; }
  const FaultParams& params() const noexcept { return params_; }

  /// Fate of one transmission attempt on the src -> dst link. Verdicts
  /// are drawn from the link's private stream, so the sequence each link
  /// sees depends only on the seed and that link's own traffic order.
  enum class Verdict : std::uint8_t { kDeliver, kDrop, kCorrupt };
  Verdict transmit(std::uint32_t src, std::uint32_t dst);

  /// Consulted after a recovered loss: did the "lost" original arrive
  /// late as a duplicate (to be suppressed by the sequence window)?
  bool late_duplicate(std::uint32_t src, std::uint32_t dst);

  /// Transient registration failure on `node` (per pin attempt).
  bool pin_fails(std::uint32_t node);

  /// Retransmission timeout before attempt `attempt` (0-based), with
  /// capped exponential backoff: min(rto * backoff^attempt, rto_cap).
  Duration rto_after(std::uint32_t attempt) const;

  /// Remaining stall time if `node`'s NIC is inside a stall window at
  /// `now` (0 when no window is open).
  Duration stall_remaining(std::uint32_t node, Time now) const;

  /// Handler-service-time multiplier for `node` at `now` (1.0 normally).
  double slowdown(std::uint32_t node, Time now) const;

  // --- whole-fabric failure queries (pure schedule lookups; no RNG) ---

  /// True when the plan schedules any link-down window or node crash.
  /// Gates the failure detector, failover machinery, and every
  /// fault.detector.* / recovery metric, so message-fault-only plans
  /// stay byte-identical to builds without the fabric failure model.
  bool fabric_enabled() const noexcept { return enabled_ && params_.fabric(); }

  /// True once `node` has crash-stopped (crash instants are <= now).
  bool node_crashed(std::uint32_t node, Time now) const;

  /// Scheduled crash instant for `node`, or kNever if it never crashes.
  static constexpr Time kNever = ~Time{0};
  Time crash_time(std::uint32_t node) const;

  /// True while the (a, b) fabric link is inside a scheduled down window
  /// (direction-agnostic: (a, b) and (b, a) are the same link).
  bool link_down(std::uint32_t a, std::uint32_t b, Time now) const;

  /// Deterministic failover route choice for the src -> dst flow among
  /// `nroutes` redundant alternates. A pure seeded hash — no RNG state is
  /// consumed, so route selection never perturbs the per-link verdict
  /// streams. Returns 0 when nroutes == 0.
  std::uint32_t failover_route(std::uint32_t src, std::uint32_t dst,
                               std::uint32_t nroutes) const;

  /// Lease length of the failure detector: silence longer than this (in
  /// simulated time) expires a peer's lease at one observer.
  Duration lease_length() const noexcept {
    return params_.heartbeat_interval * params_.lease_misses;
  }

 private:
  Rng& link_rng(std::uint32_t src, std::uint32_t dst);
  Rng& node_rng(std::uint32_t node);

  FaultParams params_;
  bool enabled_ = false;
  StableMap<std::uint64_t, Rng> links_;  // keyed by link_key(src, dst)
  StableMap<std::uint32_t, Rng> nodes_;
};

}  // namespace xlupc::sim
