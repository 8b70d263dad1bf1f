#include "net/protocol_engine.h"

#include "net/topology.h"

namespace xlupc::net {

using sim::Duration;
using sim::Task;

Duration ProtocolEngine::scaled(NodeId node, Duration d) const {
  const sim::FaultPlan& plan = machine_.faults();
  if (!plan.enabled()) return d;
  const double f = plan.slowdown(node, machine_.simulator().now());
  if (f == 1.0) return d;
  return static_cast<Duration>(static_cast<double>(d) * f);
}

void ProtocolEngine::declare_peer_dead(NodeId node) {
  if (dead_.size() <= node) dead_.resize(node + 1, 0);
  dead_[node] = 1;
}

void ProtocolEngine::resync_link(NodeId src, NodeId dst) {
  LinkSeq* ls = link_seq_.find(link_key(src, dst));
  if (ls == nullptr) return;
  // Rebase the stamp counter onto the receiver's high-water mark: every
  // stamp issued after the reconnect is at or above what the receiver
  // has applied, so replayed traffic can never be applied twice and
  // fresh traffic is never mistaken for a late duplicate.
  ls->next_seq = ls->delivered_hwm;
  ++stats_.link_resyncs;
}

void ProtocolEngine::seed_link_for_test(NodeId src, NodeId dst,
                                        std::uint16_t next_seq,
                                        std::uint16_t delivered_hwm) {
  link_seq_.try_emplace(link_key(src, dst)) = LinkSeq{next_seq, delivered_hwm};
}

std::pair<std::uint16_t, std::uint16_t> ProtocolEngine::link_state_for_test(
    NodeId src, NodeId dst) const {
  const LinkSeq* ls = link_seq_.find(link_key(src, dst));
  if (ls == nullptr) return {0, 0};
  return {ls->next_seq, ls->delivered_hwm};
}

Task<OpStatus> ProtocolEngine::deliver_faulty(NodeId src, NodeId dst,
                                              sim::Resource* retx_nic,
                                              Duration retx_cost,
                                              std::uint64_t retx_bytes) {
  auto& sim = machine_.simulator();
  const Duration lat = machine_.latency(src, dst);
  sim::FaultPlan& plan = machine_.faults();
  const sim::FaultParams& fp = plan.params();
  LinkSeq& ls = link_seq_.try_emplace(link_key(src, dst));
  const std::uint16_t seq = ls.next_seq++;
  const bool fabric = plan.fabric_enabled();
  const bool congested = machine_.fabric().enabled();

  // The source NIC makes no progress while a stall window is open.
  const Duration stall = plan.stall_remaining(src, sim.now());
  if (stall != 0) {
    ++stats_.nic_stall_waits;
    co_await sim.delay(stall);
  }

  for (std::uint32_t attempt = 0;; ++attempt) {
    // --- whole-fabric failures: pure schedule lookups, no RNG, so the
    // per-link verdict streams of message-fault-only plans are never
    // perturbed (fabric is false for them and the block is skipped).
    bool lost_to_fabric = false;
    if (fabric) {
      const auto now = sim.now();
      const bool src_dead = plan.node_crashed(src, now);
      if (src_dead || plan.node_crashed(dst, now)) {
        const NodeId corpse = src_dead ? src : dst;
        ++stats_.peer_dead_drops;
        if (peer_declared_dead(corpse)) {
          // The failure detector already declared this peer: fail fast
          // instead of burning the whole retransmission budget.
          ++stats_.timeouts;
          co_return OpStatus::kPeerFailed;
        }
        // Not yet declared: the leg is silently lost, exactly what a
        // crash-stop looks like from the wire. Fall through to the
        // RTO/retransmit path below.
        lost_to_fabric = true;
      } else if (plan.link_down(src, dst, now)) {
        const std::uint32_t alts =
            redundant_paths(machine_.params().topology, src, dst);
        if (alts > 0) {
          // Path failover: the fat tree has redundant pod-spine/core
          // switches, so the flow detours around the dark link. Route
          // choice is a pure seeded hash (FaultPlan::failover_route);
          // the detour enters the upper layer one switch over and pays
          // two extra hops. Under the congestion-aware fabric the detour
          // traverses that alternate's real switch buffers instead of a
          // fixed latency (the primary's credits simply stop being
          // consumed while the link is dark — they drain on their own).
          const std::uint32_t alt = plan.failover_route(src, dst, alts);
          ++stats_.failover_routes;
          if (congested) {
            co_await machine_.fabric().transit_failover(src, dst, retx_bytes,
                                                        alt);
          } else {
            co_await sim.delay(failover_latency(machine_.params(), src, dst));
          }
          if (seq_at_or_after(seq, ls.delivered_hwm)) {
            ls.delivered_hwm = seq + 1;
          }
          co_return OpStatus::kOk;
        }
        // No redundant path (GM/LAPI, or a same-leaf fat-tree pair):
        // the leg is lost until the window closes or the budget runs out.
        ++stats_.link_down_drops;
        lost_to_fabric = true;
      }
    }
    if (!lost_to_fabric) {
      switch (plan.transmit(src, dst)) {
        case sim::FaultPlan::Verdict::kDeliver: {
          if (congested) {
            co_await machine_.fabric().transit(src, dst, retx_bytes);
          } else {
            co_await sim.delay(lat);
          }
          if (seq_at_or_after(seq, ls.delivered_hwm)) {
            ls.delivered_hwm = seq + 1;
          }
          // A leg recovered by retransmission may also see its "lost"
          // original arrive late. It carries the same stamp `seq`, now
          // below the link's delivered high-water mark, so the receiver
          // discards it after paying dispatch overhead.
          if (attempt > 0 && plan.late_duplicate(src, dst) &&
              !seq_at_or_after(seq, ls.delivered_hwm)) {
            ++stats_.duplicate_msgs;
            co_await sim.delay(machine_.params().recv_overhead);
          }
          co_return OpStatus::kOk;
        }
        case sim::FaultPlan::Verdict::kDrop:
          ++stats_.dropped_msgs;
          break;
        case sim::FaultPlan::Verdict::kCorrupt:
          ++stats_.corrupt_msgs;
          break;
      }
    }
    if (attempt >= fp.max_retransmits) {
      ++stats_.timeouts;
      const bool crashed = fabric && (plan.node_crashed(src, sim.now()) ||
                                      plan.node_crashed(dst, sim.now()));
      co_return crashed ? OpStatus::kPeerFailed : OpStatus::kTimeout;
    }
    // No ACK within the (capped exponential) retransmission timeout:
    // re-inject the same message on the sender NIC.
    const Duration rto = plan.rto_after(attempt);
    stats_.backoff_ns += rto;
    ++stats_.retransmits;
    co_await sim.delay(rto);
    if (retx_nic != nullptr && retx_cost != 0) {
      co_await retx_nic->use(retx_cost);
    }
    stats_.wire_bytes += retx_bytes;
  }
}

}  // namespace xlupc::net
