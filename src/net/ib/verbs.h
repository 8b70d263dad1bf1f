// Verbs-style queue pairs and completion queues on top of the DES.
//
// On the InfiniBand machine (docs/MACHINES.md), net::Transport models the
// host-visible half of the verbs interface that Liu et al. build MPICH2's
// RDMA channel on: work requests are posted to a reliable-connection
// QueuePair's send queue and retire through a per-node CompletionQueue.
// The wire and the hardware engines stay where they are for every
// machine — `net::Machine`'s nic_tx/nic_dma resources and the shared
// ProtocolEngine — so these classes own only the queue discipline: a
// send queue has `sq_depth` WQE slots, and posting to a full queue
// stalls the caller until a completion frees one (the backpressure a
// real sender spins on).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace xlupc::net::ib {

/// Per-node completion queue: every work completion on every QP whose
/// initiator lives on the node lands here (one CQ polled by the progress
/// engine, the common verbs deployment).
class CompletionQueue {
 public:
  void completed() noexcept { ++cqes_; }
  std::uint64_t cqes() const noexcept { return cqes_; }

 private:
  std::uint64_t cqes_ = 0;
};

/// One reliable-connection queue pair (one per ordered initiator->target
/// node pair). Only the send side is modelled: receives are preposted in
/// bulk by the runtime and never run dry in this simulator.
///
/// Connection state follows the verbs RC state machine in miniature:
/// a QP is RTS (ready-to-send) until the transport error-fences it on
/// peer death or an unrecoverable link event (to_error: outstanding WQEs
/// flush, stalled posters wake), and stays unusable until the recovery
/// path tears it down and re-establishes it (reactivate — a fresh
/// incarnation of the same initiator->target connection).
class QueuePair {
 public:
  enum class State : std::uint8_t { kRts, kError };

  /// `sq_depth` = send-queue WQE slots; 0 = unbounded. Completions land
  /// on `cq`, the initiator node's completion queue.
  QueuePair(sim::Simulator& sim, std::uint32_t sq_depth, CompletionQueue& cq)
      : sim_(&sim), cq_(&cq), depth_(sq_depth) {}
  QueuePair(QueuePair&&) = default;

  State state() const noexcept { return state_; }
  bool in_error() const noexcept { return state_ == State::kError; }
  /// How many times this connection has been re-established.
  std::uint32_t incarnation() const noexcept { return incarnation_; }

  /// Error-fence the QP: flush every outstanding WQE (their completions
  /// will never arrive from a dead peer) and wake stalled posters so no
  /// coroutine waits forever on a send-queue slot that frees only via a
  /// completion.
  void to_error() {
    state_ = State::kError;
    outstanding_ = 0;
    if (stall_) {
      const std::shared_ptr<sim::Trigger> t = std::move(stall_);
      stall_.reset();
      t->fire();
    }
  }

  /// Re-establish the connection after a teardown: back to RTS with an
  /// empty send queue, as a new incarnation.
  void reactivate() {
    state_ = State::kRts;
    outstanding_ = 0;
    ++incarnation_;
  }

  /// True when post_send() would have to wait for a free slot.
  bool would_stall() const noexcept {
    return state_ == State::kRts && depth_ != 0 && outstanding_ >= depth_;
  }

  /// Occupy one send-queue slot, waiting (FIFO via the trigger's wake
  /// order) while the queue is full.
  sim::Task<void> post_send() {
    while (would_stall()) {
      if (!stall_) stall_ = std::make_shared<sim::Trigger>(*sim_);
      // Hold a local reference: complete() hands the trigger off to its
      // waiters before firing, and another staller may install a fresh one.
      const std::shared_ptr<sim::Trigger> t = stall_;
      co_await t->wait();
    }
    ++outstanding_;
    hwm_ = std::max(hwm_, outstanding_);
  }

  /// Retire the oldest outstanding WQE (work completion): raise a CQE on
  /// the completion queue and wake stalled posters.
  void complete() {
    if (outstanding_ > 0) --outstanding_;
    cq_->completed();
    if (stall_) {
      const std::shared_ptr<sim::Trigger> t = std::move(stall_);
      stall_.reset();
      t->fire();
    }
  }

  std::uint32_t outstanding() const noexcept { return outstanding_; }
  std::uint32_t hwm() const noexcept { return hwm_; }

 private:
  sim::Simulator* sim_;
  CompletionQueue* cq_;
  std::uint32_t depth_;
  std::uint32_t outstanding_ = 0;
  std::uint32_t hwm_ = 0;
  State state_ = State::kRts;
  std::uint32_t incarnation_ = 0;
  std::shared_ptr<sim::Trigger> stall_;
};

/// One WQE posted on a QueuePair (empty once retired). It retires its
/// send-queue slot exactly once: explicitly where the initiator polls the
/// CQE, otherwise when the guard dies — so an operation whose leg fails
/// (a retransmission timeout) never leaks the slot. The queue pair is
/// held weakly: a frame destroyed after its transport (simulator
/// teardown of a process that never finished) retires nothing.
class Wqe {
 public:
  Wqe() = default;
  explicit Wqe(const std::shared_ptr<QueuePair>& qp) : qp_(qp) {}
  Wqe(Wqe&&) noexcept = default;
  Wqe& operator=(Wqe&& o) noexcept {
    retire();
    qp_ = std::move(o.qp_);
    return *this;
  }
  ~Wqe() { retire(); }

  void retire() {
    if (const auto qp = std::exchange(qp_, {}).lock()) qp->complete();
  }

 private:
  std::weak_ptr<QueuePair> qp_;
};

}  // namespace xlupc::net::ib
