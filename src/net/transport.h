// Transport interface of the XLUPC low-level messaging API.
//
// The runtime initiates operations through this interface. Two paths
// exist, exactly as in the paper:
//  * the default two-sided Active-Message path (`get`/`put`), in which the
//    target CPU translates SVD handles to addresses and optionally
//    piggybacks the base address back to populate the initiator's remote
//    address cache; and
//  * the one-sided RDMA path (`rdma_get`/`rdma_put`), usable only when the
//    initiator already knows the remote physical address (a cache hit) —
//    it "bypasses the standard messaging system completely" (Sec. 3.2) and
//    involves no CPU on the remote end.
//
// Target-side behaviour (SVD translation, pinning, data movement) is
// delegated to an AmTarget implemented by the runtime; the transport owns
// all *timing* and hardware-resource contention.
//
// One protocol serves every platform; only the per-platform costs differ
// (PlatformParams). The InfiniBand verbs model (docs/MACHINES.md) adds a
// few guarded steps to the same legs: a WQE posted on, and retired from,
// the per-(src, dst) reliable-connection queue pair (ib/verbs.h); a CQ
// poll (`rdma_completion`) instead of an AM receive dispatch for replies;
// PUTs up to `inline_limit` carried inline in the WQE; RNR-NAK rounds in
// the rendezvous handlers; and NIC-offloaded atomics on a warm cache.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "mem/registration_cache.h"
#include "net/ib/verbs.h"
#include "net/machine.h"
#include "net/message.h"
#include "net/protocol_engine.h"
#include "sim/metrics.h"
#include "sim/task.h"

namespace xlupc::net {

/// Thrown when a one-sided operation addresses memory that is not part of
/// the target's address space at all — a correctness violation the runtime
/// must never cause. Contrast with RdmaNak below: a NAK ("valid memory,
/// not currently pinned") is a legitimate runtime event the initiator
/// recovers from; a protocol error is a bug and is never recovered.
class RdmaProtocolError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Raised by raise_if_failed for OpStatus::kTimeout: a leg ran out of
/// its retransmission budget (sim::FaultParams::max_retransmits).
class TransportTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised by raise_if_failed for OpStatus::kPeerFailed: a leg's endpoint
/// crash-stopped (sim::FaultParams::crashes). A timeout handler sees it
/// too.
class PeerDeadError : public TransportTimeout {
 public:
  using TransportTimeout::TransportTimeout;
};

/// The one raise of the error channel: TransportTimeout for kTimeout,
/// PeerDeadError for kPeerFailed, nothing for kOk. Every throwing API
/// call is its status form followed by this.
void raise_if_failed(OpStatus st);

/// Why a one-sided operation was refused by the target. Returned on the
/// transport's RDMA result path so callers cannot confuse "not pinned"
/// (recoverable: invalidate the cache entry and fall back to the AM path)
/// with "bogus address" (RdmaProtocolError, never returned as a value).
enum class RdmaNak : std::uint8_t {
  kNone = 0,   ///< operation accepted
  kNotPinned,  ///< valid memory, but no registration window covers it
};

/// Validated target window handed to the RDMA engine.
struct RdmaWindow {
  std::byte* memory = nullptr;
  RdmaNak nak = RdmaNak::kNone;

  bool ok() const noexcept { return nak == RdmaNak::kNone; }
};

/// Where a one-sided read lands at the initiator: the data, or the NAK
/// reason. ok() means the read was accepted. The caller owns it;
/// Transport::rdma_get fills it and returns the leg's status.
struct RdmaGetResult {
  RdmaNak nak = RdmaNak::kNone;
  Bytes data;

  bool ok() const noexcept { return nak == RdmaNak::kNone; }
};

/// Outcome of a one-sided write (local completion), same shape.
struct RdmaPutResult {
  RdmaNak nak = RdmaNak::kNone;
  OpStatus status = OpStatus::kOk;

  bool ok() const noexcept { return nak == RdmaNak::kNone; }
};

/// Where a remote atomic (FAA/CAS) lands at the initiator: the fetched
/// old value, or the NAK reason when the offloaded lowering found the
/// window unpinned (the caller invalidates its cache entry and retries
/// through the AM lowering, mirroring the rdma_get fallback). The caller
/// owns it; Transport::amo fills it and returns the leg's status.
struct AmoResult {
  RdmaNak nak = RdmaNak::kNone;
  std::uint64_t value = 0;  ///< word value before the update
  /// True when the update was applied by the NIC DMA engine alone (IB
  /// verbs atomics) — zero target-CPU cycles, traced as kRdmaOffload.
  bool offloaded = false;

  bool ok() const noexcept { return nak == RdmaNak::kNone; }
};

/// Target-side services, implemented by the runtime. Handlers are invoked
/// by the transport *after* it has acquired the proper handler CPU and
/// charged dispatch time; any registration work they report is charged on
/// the same CPU afterwards.
class AmTarget {
 public:
  virtual ~AmTarget() = default;

  struct GetServe {
    Bytes data;       ///< bytes read from the object
    Addr src_addr = kNullAddr;         ///< local address of the data
    std::optional<BaseInfo> base;      ///< piggyback when requested
    std::size_t reg_new_bytes = 0;     ///< pinning work performed
    std::size_t reg_new_handles = 0;
    std::size_t reg_evicted_handles = 0;  ///< deregistrations forced
  };
  struct PutServe {
    Addr dst_addr = kNullAddr;
    std::optional<BaseInfo> base;
    std::size_t reg_new_bytes = 0;
    std::size_t reg_new_handles = 0;
    std::size_t reg_evicted_handles = 0;
  };

  /// Result of applying an aggregated batch: the GET members' data, in
  /// batch order (docs/COALESCING.md).
  struct BatchServe {
    std::vector<Bytes> get_data;
  };

  virtual GetServe serve_get(NodeId target, const GetRequest& req) = 0;
  virtual PutServe serve_put(NodeId target, PutRequest&& req) = 0;

  /// Apply every member of an aggregated batch at the target, in batch
  /// order. The default implementation routes each member through
  /// serve_get/serve_put with no base-address piggyback — batch members
  /// never touch the remote address cache.
  virtual BatchServe serve_batch(NodeId target, RdmaBatch&& batch);
  virtual void serve_control(NodeId target, NodeId source,
                             const ControlMsg& msg) = 0;

  /// Apply an atomic verb to the 64-bit word at svd_handle+offset under
  /// the handler CPU's serialization (the transport has already acquired
  /// it) and return the old value. The default implementation throws —
  /// only targets that serve atomics (the runtime) override it.
  virtual std::uint64_t serve_amo(NodeId target, const AmoRequest& req);

  /// Translate + pin for a rendezvous PUT without moving data yet.
  virtual PutServe serve_put_rendezvous(NodeId target, const PutRequest& req,
                                        std::size_t len) = 0;
  /// Deliver rendezvous PUT payload straight into target memory (DMA).
  virtual void deliver_put_payload(NodeId target, std::uint64_t svd_handle,
                                   std::uint64_t offset,
                                   Bytes&& data) = 0;

  /// Validated window for the RDMA engine. Returns RdmaNak::kNotPinned
  /// when [addr, addr+len) is valid memory but not currently pinned (the
  /// operation is NAKed and the initiator must fall back to the AM path);
  /// throws RdmaProtocolError when the address range itself is bogus.
  virtual RdmaWindow rdma_memory(NodeId target, Addr addr,
                                 std::size_t len) = 0;
};

/// Aggregate operation counters (per transport instance). The
/// ProtocolStats base is the part the shared ProtocolEngine counts into
/// directly: wire bytes (retransmissions included) and recovery work.
struct TransportStats : ProtocolStats {
  std::uint64_t am_gets = 0;
  std::uint64_t am_puts = 0;
  std::uint64_t rendezvous_gets = 0;
  std::uint64_t rendezvous_puts = 0;
  std::uint64_t rdma_gets = 0;
  std::uint64_t rdma_puts = 0;
  std::uint64_t rdma_naks = 0;
  std::uint64_t control_msgs = 0;

  // Small-op coalescing (docs/COALESCING.md). All zero unless the
  // CoalescingEngine is enabled.
  std::uint64_t batch_msgs = 0;    ///< aggregated wire messages sent
  std::uint64_t batched_gets = 0;  ///< GET members carried in batches
  std::uint64_t batched_puts = 0;  ///< PUT members carried in batches

  /// Transfers staged via bounce buffers: registrations larger than the
  /// whole DMAable budget (also fault-free), and IB rendezvous whose RNR
  /// retry budget ran out.
  std::uint64_t bounce_fallbacks = 0;

  // Remote atomics (docs/COMM_ENGINE.md). All zero unless the workload
  // issues FAA/CAS.
  std::uint64_t amo_msgs = 0;     ///< AMO requests sent on the wire
  std::uint64_t nic_atomics = 0;  ///< AMOs applied by the NIC DMA engine

  // Verbs queue-pair layer (src/net/ib). All zero on GM/LAPI.
  std::uint64_t qp_posts = 0;      ///< WQEs posted to send queues
  std::uint64_t sq_stalls = 0;     ///< posts that waited for a SQ slot
  std::uint64_t inline_sends = 0;  ///< sends carried inline in the WQE
  std::uint64_t rnr_naks = 0;      ///< receiver-not-ready NAKs received
  std::uint64_t rnr_retries = 0;   ///< rendezvous re-sends after an RNR

  // IB connection recovery under whole-fabric failures (docs/FAULTS.md).
  std::uint64_t qp_errors = 0;        ///< QPs transitioned to the error state
  std::uint64_t qp_reconnects = 0;    ///< QPs torn down and re-established
};

/// Report keys of TransportStats. `reliability.backoff_us` (a gauge of
/// backoff_ns) is derived, so it is set by Runtime::metrics().
inline constexpr sim::MetricRow<TransportStats> kTransportRows[] = {
    {"transport.gets.eager", &TransportStats::am_gets},
    {"transport.gets.rendezvous", &TransportStats::rendezvous_gets},
    {"transport.puts.eager", &TransportStats::am_puts},
    {"transport.puts.rendezvous", &TransportStats::rendezvous_puts},
    {"transport.rdma.gets", &TransportStats::rdma_gets},
    {"transport.rdma.puts", &TransportStats::rdma_puts},
    {"transport.rdma.naks", &TransportStats::rdma_naks},
    {"transport.control_msgs", &TransportStats::control_msgs},
    {"transport.wire_bytes", &TransportStats::wire_bytes},
    {"transport.batch_msgs", &TransportStats::batch_msgs,
     sim::family::kCoalesce},
    {"transport.batched_gets", &TransportStats::batched_gets,
     sim::family::kCoalesce},
    {"transport.batched_puts", &TransportStats::batched_puts,
     sim::family::kCoalesce},
    {"transport.amos", &TransportStats::amo_msgs, sim::family::kAmo},
    {"transport.ib.nic_atomics", &TransportStats::nic_atomics,
     sim::family::kAmo | sim::family::kIb},
    {"transport.ib.qp_posts", &TransportStats::qp_posts, sim::family::kIb},
    {"transport.ib.sq_stalls", &TransportStats::sq_stalls, sim::family::kIb},
    {"transport.ib.inline_sends", &TransportStats::inline_sends,
     sim::family::kIb},
    {"transport.ib.rnr_naks", &TransportStats::rnr_naks, sim::family::kIb},
    {"transport.ib.rnr_retries", &TransportStats::rnr_retries,
     sim::family::kIb},
    {"fault.dropped_msgs", &TransportStats::dropped_msgs,
     sim::family::kFaults},
    {"fault.corrupt_msgs", &TransportStats::corrupt_msgs,
     sim::family::kFaults},
    {"fault.duplicate_msgs", &TransportStats::duplicate_msgs,
     sim::family::kFaults},
    {"fault.nic_stall_waits", &TransportStats::nic_stall_waits,
     sim::family::kFaults},
    {"reliability.retransmits", &TransportStats::retransmits,
     sim::family::kFaults},
    {"reliability.timeouts", &TransportStats::timeouts, sim::family::kFaults},
    {"reliability.bounce_fallbacks", &TransportStats::bounce_fallbacks,
     sim::family::kBounce},
    {"fault.fabric.link_down_drops", &TransportStats::link_down_drops,
     sim::family::kFabricFaults},
    {"fault.fabric.failover_routes", &TransportStats::failover_routes,
     sim::family::kFabricFaults},
    {"fault.fabric.peer_dead_drops", &TransportStats::peer_dead_drops,
     sim::family::kFabricFaults},
    {"fault.fabric.link_resyncs", &TransportStats::link_resyncs,
     sim::family::kFabricFaults},
    {"fault.fabric.qp_errors", &TransportStats::qp_errors,
     sim::family::kFabricFaults | sim::family::kIb},
    {"fault.fabric.qp_reconnects", &TransportStats::qp_reconnects,
     sim::family::kFabricFaults | sim::family::kIb},
};

/// Identifies the initiating UPC thread's seat in the machine.
struct Initiator {
  NodeId node = 0;
  std::uint32_t core = 0;
};

class Transport {
 public:
  /// Called on the initiator when a PUT's acknowledgement arrives (remote
  /// completion); carries the piggybacked base address when present.
  /// SmallFn keeps the runtime's capture (cache key + thread id) inline —
  /// the std::function it replaces heap-allocated it on every remote PUT.
  using PutAckHook = sim::SmallFn<void(const PutAck&)>;
  /// RDMA-write landing hook (remote completion), same inline treatment.
  using DoneHook = sim::SmallFn<void()>;

  Transport(Machine& machine, AmTarget& target);
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Every leg returns its OpStatus; a failed leg stops where it failed.
  // get(), rdma_get() and amo() land their result in a slot the caller
  // passes: on kOk it holds the leg's result, after a failure it is
  // unspecified. get() and amo() read their request from the caller too.
  // The caller keeps both until the task is done (awaiting the task in
  // the statement that makes it is enough), so a leg's frame carries no
  // request and no result.

  /// Two-sided GET via the default SVD path (Fig. 3a / Fig. 5).
  /// Completes when the data, and the piggybacked base when asked for,
  /// have landed in `reply` at the initiator. A plain dispatcher.
  sim::Task<OpStatus> get(Initiator from, NodeId dst, const GetRequest& req,
                          GetReply& reply);

  /// Two-sided PUT. Completes at *local* completion (source buffer
  /// reusable); `on_ack` fires later at remote completion — also when
  /// that half fails (no base) — exactly when put() returned kOk.
  sim::Task<OpStatus> put(Initiator from, NodeId dst, PutRequest req,
                          PutAckHook on_ack);

  /// One-sided RDMA read of [raddr, raddr+len) at `dst` (Fig. 3b) into
  /// `result`. Lands RdmaNak::kNotPinned when the target NAKs the window
  /// (memory no longer pinned); the caller invalidates its cache entry
  /// and falls back to the AM path.
  sim::Task<OpStatus> rdma_get(Initiator from, NodeId dst, Addr raddr,
                               std::uint32_t len, RdmaGetResult& result);

  /// One-sided RDMA write; completes at local completion, `on_done` fires
  /// when the data has landed in target memory (or its landing leg
  /// failed). Returns a NAK when the target window is not pinned;
  /// `on_done` does not fire then, nor when the result's status fails.
  sim::Task<RdmaPutResult> rdma_put(Initiator from, NodeId dst, Addr raddr,
                                    Bytes data, DoneHook on_done);

  /// Remote atomic (FAA/CAS) on the 64-bit word at svd_handle+offset.
  /// The AM-handler lowering: a small request AM serviced on the handler
  /// CPU (whose serialization provides atomicity), riding the
  /// ProtocolEngine's seqno/ACK window so duplicated or retransmitted
  /// requests apply exactly once. On IB, a request that carries a cached
  /// remote address (`req.raddr`) lowers instead to a NIC-offloaded verbs
  /// atomic: the target's DMA engine applies it, zero target-CPU cycles,
  /// counted in `transport.ib.nic_atomics`. Completes when the old value
  /// has landed in `result` at the initiator. A plain dispatcher, like
  /// get(): folding the NIC lowering into the AM coroutine would grow
  /// every AM AMO frame by the NIC path's locals.
  sim::Task<OpStatus> amo(Initiator from, NodeId dst, const AmoRequest& req,
                          AmoResult& result);

  /// Aggregated small-op batch (docs/COALESCING.md): one framed wire
  /// message carrying every member, unpacked per leg on the handler CPU
  /// at the target (so GM's no-overlap effect applies to each member),
  /// applied in batch order, with the GET members' data returned in one
  /// reply. Completes when the reply is available at the initiator.
  sim::Task<RdmaBatchResult> rdma_batch(Initiator from, NodeId dst,
                                        RdmaBatch batch);

  /// Small control AM (SVD maintenance, lock protocol). Completes when the
  /// message has been handled at the target.
  sim::Task<OpStatus> control(Initiator from, NodeId dst, ControlMsg msg);

  /// Ensure an initiator-side private buffer is registered for zero-copy
  /// (charged on the caller's core; cached with lazy deregistration).
  sim::Task<void> ensure_local_registered(Initiator from, Addr key,
                                          std::size_t len);
  /// The same registration, for a caller that charges the returned time
  /// on its core itself (when it is not zero), with no task.
  sim::Duration local_registration(Initiator from, Addr key,
                                   std::size_t len) {
    return reg_cache_cost(from.node, key, len);
  }

  /// Aggregate statistics, the ProtocolEngine's counters included.
  const TransportStats& stats() const noexcept { return stats_; }

  /// Declare `node` dead, called by the runtime's failure detector once
  /// per declared death: in-flight legs against it fail fast with
  /// kPeerFailed, and every IB queue pair touching it moves to the
  /// error state (outstanding WQEs flush, stalled posters wake). A fenced
  /// connection is re-established by its next post unless the peer stays
  /// declared dead. GM/LAPI keep no per-peer connection state.
  void peer_dead(NodeId node);
  /// Recovery notification: the (a, b) fabric link entered a scheduled
  /// down window. On IB the pair's queue pairs are error-fenced only when
  /// the topology offers no redundant path (the fat tree usually does;
  /// the protocol engine then reroutes and the QPs stay RTS).
  void on_link_down(NodeId a, NodeId b);
  /// Zero the message/byte and recovery counters and every node's
  /// registration-cache counters (resident registrations are kept —
  /// only the statistics window restarts).
  void reset_stats();
  const mem::RegistrationCache& reg_cache(NodeId node) const {
    return reg_caches_.at(node);
  }
  mem::RegistrationCache& reg_cache_mut(NodeId node) {
    return reg_caches_.at(node);
  }
  Machine& machine() noexcept { return machine_; }

  /// Test introspection: the IB initiator-side completion queue of `node`.
  const ib::CompletionQueue& completion_queue(NodeId node) const {
    return cqs_.at(node);
  }
  /// Test introspection: the IB queue pair src -> dst, or nullptr when no
  /// operation has used that connection yet (always, off IB).
  const ib::QueuePair* queue_pair(NodeId src, NodeId dst) const;

 private:
  // The legs below are each one implementation for all three machines.
  // get(), put(), rdma_get() and rdma_put() pick the instantiation from
  // ib_; kIb then switches the verbs steps on at compile time, so the
  // GM/LAPI coroutine frames carry no verbs state. Their sim::pool size
  // classes set the memory of every in-flight op (`scale` peak RSS): the
  // GM/LAPI GET, RDMA-read and AM AMO legs, one of which every waiting
  // span frame awaits, share one class. Each keeps one
  // sim::Resource::Waiter and one ProtocolEngine::Delivery, re-armed for
  // every resource wait and for every wire traversal and handler delay.
  struct NoWqe {
    void retire() {}
  };
  template <bool kIb>
  using WqeFor = std::conditional_t<kIb, ib::Wqe, NoWqe>;

  /// The CPU that runs AM handlers at `dst` for data owned by
  /// `target_core`: the dedicated communication processor when the
  /// platform overlaps communication with computation (LAPI, IB's
  /// progress engine), else the application core itself (GM).
  sim::Resource& handler_cpu(NodeId dst, std::uint32_t target_core) {
    return machine_.params().comm_comp_overlap
               ? machine_.comm_cpu(dst)
               : machine_.core(dst, target_core);
  }
  /// Initiator CPU cost of noticing a reply: a CQ poll on IB, an AM
  /// receive dispatch elsewhere.
  template <bool kIb>
  sim::Duration reply_overhead() const {
    const auto& p = machine_.params();
    return kIb ? p.rdma_completion : p.recv_overhead;
  }

  /// Registration-cache bill for [addr, addr+len) at `node`: registration
  /// on a miss, bounce-buffer staging when the region can never be
  /// registered (or `pin_failed`: IB's RNR retry budget ran out), plus
  /// lazy deregistration of whatever the cache evicted.
  sim::Duration reg_cache_cost(NodeId node, Addr addr, std::size_t len,
                               bool pin_failed = false);

  // --- reliability layer: delegated to the shared ProtocolEngine ---
  /// One wire traversal src -> dst; see ProtocolEngine::deliver.
  ProtocolEngine::Delivery deliver(NodeId src, NodeId dst,
                                   sim::Resource* retx_nic,
                                   sim::Duration retx_cost,
                                   std::uint64_t retx_bytes) {
    return protocol_.deliver(src, dst, retx_nic, retx_cost, retx_bytes);
  }
  /// Handler service time under slowdowns; see ProtocolEngine::scaled.
  sim::Duration scaled(NodeId node, sim::Duration d) const {
    return protocol_.scaled(node, d);
  }

  const std::shared_ptr<ib::QueuePair>& qp(NodeId src, NodeId dst);
  /// Post one WQE on the src -> dst queue pair into `wqe` (counting
  /// stalls when the send queue is full), re-establishing an
  /// error-fenced connection first; kPeerFailed, with nothing posted,
  /// when its peer is declared dead.
  sim::Task<OpStatus> post_wqe(NodeId src, NodeId dst, ib::Wqe& wqe);
  /// Target side of a rendezvous request up to its admission: acquire
  /// the handler CPU and dispatch the request. On IB a transient
  /// registration failure is a receiver-not-ready condition: the
  /// responder NAKs, the NAKed WQE completes in error, and the initiator
  /// re-posts the request after the RNR timer, up to the retry budget.
  /// On kOk returns holding `hcpu`, with `pin_failed` telling whether the
  /// admitted round's pin still failed (budget exhausted). The caller's
  /// handler then runs exactly once, so a retried request is never
  /// duplicate-applied. A failed RNR round returns without `hcpu`.
  template <bool kIb>
  sim::Task<OpStatus> admit_rendezvous(Initiator from, NodeId dst,
                                       sim::Resource& hcpu, WqeFor<kIb>& wqe,
                                       bool& pin_failed);

  /// The target's GET handler: serve `req` at `dst`, land the data and
  /// any piggybacked base in `reply`, and return the handler's
  /// registration and deregistration time, unscaled; a non-null
  /// `src_addr` gets the data's local address. A plain function, so its
  /// GetServe stays out of the legs' frames.
  sim::Duration handle_get(NodeId dst, const GetRequest& req,
                           GetReply& reply, Addr* src_addr = nullptr);
  /// The target NIC's read of [raddr, raddr+len): the NAK reason, and on
  /// acceptance the bytes, landed in `result`.
  void read_window(NodeId dst, Addr raddr, std::size_t len,
                   RdmaGetResult& result);

  template <bool kIb>
  sim::Task<OpStatus> get_eager(Initiator from, NodeId dst,
                                const GetRequest& req, GetReply& reply);
  template <bool kIb>
  sim::Task<OpStatus> get_rendezvous(Initiator from, NodeId dst,
                                     const GetRequest& req, GetReply& reply);
  template <bool kIb>
  sim::Task<OpStatus> put_eager(Initiator from, NodeId dst, PutRequest req,
                                PutAckHook on_ack);
  template <bool kIb>
  sim::Task<OpStatus> put_rendezvous(Initiator from, NodeId dst,
                                     PutRequest req, PutAckHook on_ack);
  // Remote half of an eager PUT, detached after local completion.
  template <bool kIb>
  sim::Task<void> put_remote(Initiator from, NodeId dst, PutRequest req,
                             PutAckHook on_ack, WqeFor<kIb> wqe);
  // Payload half of a rendezvous PUT, detached after local completion.
  template <bool kIb>
  sim::Task<void> put_payload_remote(Initiator from, NodeId dst,
                                     PutRequest req, PutAck ack,
                                     PutAckHook on_ack, WqeFor<kIb> wqe);
  template <bool kIb>
  sim::Task<OpStatus> rdma_get_leg(Initiator from, NodeId dst, Addr raddr,
                                   std::uint32_t len, RdmaGetResult& result);
  template <bool kIb>
  sim::Task<RdmaPutResult> rdma_put_leg(Initiator from, NodeId dst,
                                        Addr raddr, Bytes data,
                                        DoneHook on_done);
  // Detached landing half of an accepted rdma_put.
  sim::Task<void> rdma_put_landing(Initiator from, NodeId dst,
                                   std::byte* dst_mem, Bytes data,
                                   DoneHook on_done);
  sim::Task<OpStatus> amo_am(Initiator from, NodeId dst,
                             const AmoRequest& req, AmoResult& result);
  sim::Task<OpStatus> amo_nic(Initiator from, NodeId dst,
                              const AmoRequest& req, AmoResult& result);

  Machine& machine_;
  AmTarget& target_;
  /// PlatformParams::kind == TransportKind::kIb: the verbs steps apply.
  const bool ib_;
  std::vector<mem::RegistrationCache> reg_caches_;
  TransportStats stats_;
  ProtocolEngine protocol_;  // counts into stats_
  /// IB: one RC connection per ordered (initiator, target) node pair,
  /// keyed by link_key(src, dst) and created on first use (peer_dead fences
  /// them in key order), and one initiator-side completion queue per node.
  StableMap<std::uint64_t, std::shared_ptr<ib::QueuePair>> qps_;
  std::vector<ib::CompletionQueue> cqs_;
};

}  // namespace xlupc::net
