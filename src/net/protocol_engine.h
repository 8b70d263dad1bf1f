// Shared per-link transport protocol core (docs/COMM_ENGINE.md).
//
// Every wire traversal — eager AM legs, rendezvous control frames, RDMA
// descriptors and payloads, on GM and on LAPI alike — runs through one
// ProtocolEngine. It owns the whole reliability state machine the two
// transports used to duplicate: per-link sequence stamping, the
// ACK/timeout/retransmission loop with capped exponential backoff,
// duplicate suppression against the delivered high-water mark, and the
// NIC-stall / node-slowdown bookkeeping of the fault plan
// (docs/FAULTS.md). The transports themselves keep only their genuinely
// different policies: which CPU serves AM handlers (GM: the application
// core; LAPI: the communication processor) and the eager/rendezvous
// threshold parameters.
//
// With the null fault plan, deliver() collapses to exactly one latency
// delay — same event count, same timing, byte-identical reports as a
// build without the reliability layer.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "net/machine.h"
#include "sim/task.h"

namespace xlupc::net {

/// The counters the protocol core adds to: the base of TransportStats,
/// whose instance the engine is handed. All but wire_bytes count recovery
/// work and stay zero under the null fault plan.
struct ProtocolStats {
  /// Payload + header bytes on the wire; the engine adds the bytes it
  /// re-serializes on retransmission.
  std::uint64_t wire_bytes = 0;
  std::uint64_t retransmits = 0;      ///< legs re-sent after loss/corruption
  std::uint64_t timeouts = 0;         ///< retransmission budget exhausted
  std::uint64_t dropped_msgs = 0;     ///< legs silently lost in transit
  std::uint64_t corrupt_msgs = 0;     ///< legs discarded by checksum
  std::uint64_t duplicate_msgs = 0;   ///< late copies suppressed by seqno
  std::uint64_t backoff_ns = 0;       ///< simulated time spent in RTO waits
  std::uint64_t nic_stall_waits = 0;  ///< injections delayed by a stall

  // Whole-fabric failure recovery (docs/FAULTS.md); nonzero only when
  // the plan schedules link-down windows or node crashes.
  std::uint64_t link_down_drops = 0;  ///< legs lost to a dark link
  std::uint64_t failover_routes = 0;  ///< legs rerouted over an alternate path
  std::uint64_t peer_dead_drops = 0;  ///< legs abandoned against a dead peer
  std::uint64_t link_resyncs = 0;     ///< seqno resyncs after reconnection
};

/// The per-link protocol state machine shared by every machine model.
/// One instance per Transport; links are keyed by the (src, dst) node
/// pair. It counts into `stats`, which must outlive it.
class ProtocolEngine {
 public:
  ProtocolEngine(Machine& machine, ProtocolStats& stats)
      : machine_(machine), stats_(stats) {}
  ProtocolEngine(const ProtocolEngine&) = delete;
  ProtocolEngine& operator=(const ProtocolEngine&) = delete;

  /// One wire traversal src -> dst under the machine's fault plan: waits
  /// out any NIC stall window at the source, stamps the message with the
  /// link's next sequence number, draws a transmit verdict, and on loss
  /// or corruption waits the capped-exponential RTO and re-injects on
  /// `retx_nic` (re-charging `retx_cost` and counting `retx_bytes` on
  /// the wire again) until delivery. Returns OpStatus::kTimeout once
  /// FaultParams::max_retransmits re-sends are spent (kPeerFailed when
  /// an endpoint has crash-stopped), kOk on delivery. With the null plan
  /// this is exactly one latency delay — no extra events, no extra cost.
  ///
  /// Returned as a frameless awaitable: the null-plan case (every
  /// fault-free run — two traversals per AM operation) schedules the
  /// caller's resumption directly, with no coroutine frame at all. Only
  /// fault-plan runs pay for the reliability coroutine, and only a
  /// congested fabric for its transit.
  ///
  /// A leg that crosses the wire more than once keeps one Delivery and
  /// re-arms it, `d = deliver(...); st = co_await d;`, instead of
  /// giving each co_await site a slot of its frame (sim::Resource::Waiter
  /// has the same idiom). Its fast path is a plain sim::Simulator::Delay,
  /// so the same variable also serves the leg's handler service times:
  /// `d = {sim.delay(t), {}, {}}; co_await d;`. Awaiting it releases the
  /// coroutine it ran.
  struct Delivery {
    sim::Simulator::Delay hop;   ///< fast path: bare link latency
    sim::Task<void> transit;     ///< congested fabric, no fault plan
    sim::Task<OpStatus> faulty;  ///< engaged only under a fault plan

    bool await_ready() const noexcept {
      return !transit.valid() && !faulty.valid() && hop.await_ready();
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      if (faulty.valid()) return faulty.await_suspend(h);
      if (transit.valid()) return transit.await_suspend(h);
      hop.await_suspend(h);
      return std::noop_coroutine();
    }
    OpStatus await_resume() {
      if (faulty.valid()) {
        const OpStatus st = faulty.await_resume();
        faulty = {};
        return st;
      }
      if (transit.valid()) {
        transit.await_resume();
        transit = {};
      }
      return OpStatus::kOk;
    }
  };
  Delivery deliver(NodeId src, NodeId dst, sim::Resource* retx_nic,
                   sim::Duration retx_cost, std::uint64_t retx_bytes) {
    sim::Simulator& sim = machine_.simulator();
    if (!machine_.faults().enabled()) {
      if (!machine_.fabric().enabled()) {
        return Delivery{sim.delay(machine_.latency(src, dst)), {}, {}};
      }
      // Congestion-aware fabric, no fault plan: the single point-to-point
      // delay becomes a hop-by-hop transit through finite switch buffers
      // (docs/FABRIC.md). `retx_bytes` is the message's wire size at
      // every call site, so it doubles as the per-hop serialization size.
      return Delivery{sim.delay(0),
                      machine_.fabric().transit(src, dst, retx_bytes), {}};
    }
    return Delivery{sim.delay(0), {},
                    deliver_faulty(src, dst, retx_nic, retx_cost, retx_bytes)};
  }

  /// Target-side handler service time scaled by any active NodeSlowdown
  /// window (identity when no plan is enabled).
  sim::Duration scaled(NodeId node, sim::Duration d) const;

  const ProtocolStats& stats() const noexcept { return stats_; }

  /// Sequence stamps are 16-bit and wrap; comparisons use serial-number
  /// arithmetic (RFC 1982): `a` is at or after `b` when the modular
  /// distance b -> a is shorter than half the space. Correct as long as
  /// the in-flight window on a link stays below 2^15 stamps, which the
  /// simulator's bounded concurrency guarantees by a wide margin.
  static constexpr bool seq_at_or_after(std::uint16_t a,
                                        std::uint16_t b) noexcept {
    return static_cast<std::uint16_t>(a - b) < 0x8000u;
  }

  /// Membership input from the runtime's failure detector: once `node`
  /// is declared dead, legs against it fail fast with kPeerFailed
  /// instead of burning the full retransmission budget.
  void declare_peer_dead(NodeId node);
  bool peer_declared_dead(NodeId node) const noexcept {
    return node < dead_.size() && dead_[node] != 0;
  }

  /// Connection re-establishment resync (IB QP reconnect): rebase the
  /// sender's stamp counter onto the receiver's delivered high-water
  /// mark so replayed traffic stays inside the duplicate-suppression
  /// window — apply-once is preserved across the reconnect.
  void resync_link(NodeId src, NodeId dst);

  /// Test hooks (tests/net_protocol_test.cpp): place a link's sequence
  /// state near the wrap boundary and read it back.
  void seed_link_for_test(NodeId src, NodeId dst, std::uint16_t next_seq,
                          std::uint16_t delivered_hwm);
  std::pair<std::uint16_t, std::uint16_t> link_state_for_test(
      NodeId src, NodeId dst) const;

 private:
  /// Per-link sequence bookkeeping, used only when a fault plan is
  /// enabled: the sender stamps every message, retransmitted copies reuse
  /// the stamp, and the receiver discards any copy at or below its
  /// delivered high-water mark (duplicate suppression). Stamps are
  /// 16-bit on purpose — real NIC sequence spaces wrap, and so does this
  /// one; every comparison goes through seq_at_or_after.
  struct LinkSeq {
    std::uint16_t next_seq = 0;       ///< sender-side stamp counter
    std::uint16_t delivered_hwm = 0;  ///< one past the newest delivered seq
  };

  /// The full reliability state machine (fault-plan runs only).
  sim::Task<OpStatus> deliver_faulty(NodeId src, NodeId dst,
                                     sim::Resource* retx_nic,
                                     sim::Duration retx_cost,
                                     std::uint64_t retx_bytes);

  Machine& machine_;
  ProtocolStats& stats_;
  /// Keyed by link_key(src, dst). deliver_faulty holds its link's entry
  /// across suspensions, so entries must not move.
  StableMap<std::uint64_t, LinkSeq> link_seq_;
  std::vector<std::uint8_t> dead_;  // detector-declared peers
};

}  // namespace xlupc::net
