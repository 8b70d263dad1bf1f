// InfiniBand verbs transport (docs/MACHINES.md).
//
// The third backend beside GM and LAPI, modelling the fabric of Liu et
// al.'s MPICH2-over-InfiniBand design: reliable-connection queue pairs
// (verbs.h), an eager protocol whose smallest payloads travel inline in
// the work request, a rendezvous protocol that registers the user buffer
// through the shared RegistrationCache and answers transient registration
// failures with RNR-NAK retry, and true one-sided READ/WRITE that runs
// entirely on the NIC DMA engines — zero target-CPU cycles, unlike GM's
// AM-handler path. Two-sided dispatch runs on the node's communication
// processor (the progress engine), so communication overlaps computation
// the way it never can on GM; bench/overlap_sweep measures the contrast.
//
// Everything rides the existing machinery: wire traversals go through the
// shared ProtocolEngine (seqno/ACK/retransmit), registration through
// mem::RegistrationCache under the IB preset's tighter pin budget, and
// timing through the Machine's FIFO resources.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "net/ib/verbs.h"
#include "net/transport.h"

namespace xlupc::net {

class IbTransport final : public Transport {
 public:
  IbTransport(Machine& machine, AmTarget& target);

  sim::Task<GetReply> get(Initiator from, NodeId dst, GetRequest req) override;
  sim::Task<void> put(Initiator from, NodeId dst, PutRequest req,
                      PutAckHook on_ack) override;
  sim::Task<RdmaGetResult> rdma_get(Initiator from, NodeId dst, Addr raddr,
                                    std::uint32_t len) override;
  sim::Task<RdmaPutResult> rdma_put(Initiator from, NodeId dst, Addr raddr,
                                    Bytes data,
                                    DoneHook on_done) override;
  /// Remote atomic. With a cached remote address (`req.raddr`) the verb
  /// lowers to a NIC-offloaded verbs atomic — fetch-modify-write executed
  /// by the target's DMA engine, zero target-CPU cycles, counted in
  /// `transport.ib.nic_atomics`. Cold-cache requests fall back to the
  /// base AM lowering on the progress engine.
  sim::Task<AmoResult> amo(Initiator from, NodeId dst, AmoRequest req)
      override;

  /// Test introspection: the initiator-side completion queue of `node`.
  const ib::CompletionQueue& completion_queue(NodeId node) const {
    return cqs_.at(node);
  }
  /// Test introspection: the RC queue pair src -> dst, or nullptr when no
  /// operation has used that connection yet.
  const ib::QueuePair* queue_pair(NodeId src, NodeId dst) const;

  /// Failure-detector notification: every RC connection touching `node`
  /// transitions to the error state (outstanding WQEs flush, stalled
  /// posters wake). Connections are lazily re-established by the next
  /// post — see qp_post — unless the peer stays declared dead.
  void on_peer_dead(NodeId node) override;
  /// Link-down notification: fences the pair's connections only when the
  /// topology offers no redundant path (the fat tree usually does; the
  /// protocol engine then reroutes and the QPs stay RTS).
  void on_link_down(NodeId a, NodeId b) override;

 private:
  ib::QueuePair& qp(NodeId src, NodeId dst);
  /// Post one WQE on the src -> dst queue pair (counting stalls when the
  /// send queue is full).
  sim::Task<void> qp_post(NodeId src, NodeId dst);
  /// Retire the oldest WQE of src -> dst and raise a CQE on src's CQ.
  void qp_complete(NodeId src, NodeId dst);

  sim::Task<GetReply> get_eager(Initiator from, NodeId dst, GetRequest req);
  sim::Task<GetReply> get_rendezvous(Initiator from, NodeId dst,
                                     GetRequest req);
  sim::Task<void> put_eager(Initiator from, NodeId dst, PutRequest req,
                            PutAckHook on_ack, bool inline_send);
  sim::Task<void> put_remote(Initiator from, NodeId dst, PutRequest req,
                             PutAckHook on_ack);
  sim::Task<void> put_rendezvous(Initiator from, NodeId dst, PutRequest req,
                                 PutAckHook on_ack);
  sim::Task<void> put_payload_remote(Initiator from, NodeId dst,
                                     PutRequest req, PutAck ack,
                                     PutAckHook on_ack);

  /// One RC connection per ordered (initiator node, target node) pair,
  /// created on first use (std::map keeps iteration deterministic).
  std::map<std::pair<NodeId, NodeId>, ib::QueuePair> qps_;
  std::vector<ib::CompletionQueue> cqs_;  ///< one per node (initiator side)
};

}  // namespace xlupc::net
