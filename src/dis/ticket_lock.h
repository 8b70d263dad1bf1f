// Distributed ticket lock built on the remote-atomics verbs — the
// CAS-consuming counterpart to dis::DistCounter, and an FCFS alternative
// to the runtime's home-queued upc_lock (UpcThread::lock):
//  * acquire() takes a ticket with one FAA, then polls now_serving with a
//    GET + compute backoff — fairness comes from the ticket order, and
//    the home CPU never queues waiters;
//  * try_acquire() is a single CAS on next_ticket (grab a ticket only if
//    it would be served immediately) — the failure path of the CAS verb;
//  * release() advances now_serving with one FAA.
#pragma once

#include <cstdint>

#include "core/access_path.h"
#include "core/api.h"
#include "sim/task.h"
#include "sim/time.h"

namespace xlupc::core {
class UpcThread;
}

namespace xlupc::dis {

/// Shared ticket lock, homed at thread 0. Construction is collective;
/// each thread then holds its own TicketLock copy (the pending ticket of
/// an acquire in progress is per-copy state).
class TicketLock {
 public:
  TicketLock() = default;

  /// Collective: allocate the {next_ticket, now_serving} pair, both words
  /// in thread 0's block, starting at zero (lock free).
  static sim::Task<TicketLock> create(core::UpcThread& th);

  /// FAA a ticket, then spin (GET + backoff) until now_serving reaches it:
  /// acquire_status() plus net::raise_if_failed.
  sim::Task<void> acquire(core::UpcThread& th);
  /// One CAS on next_ticket: succeeds iff no thread holds or awaits the
  /// lock, i.e. the grabbed ticket would be served immediately.
  sim::Task<bool> try_acquire(core::UpcThread& th);
  /// FAA now_serving forward, handing the lock to the next ticket:
  /// release_status() plus net::raise_if_failed.
  sim::Task<void> release(core::UpcThread& th);

  // --- typed-status surface (docs/FAULTS.md) ---
  // The implementation. When the lock's home node crash-stops, the
  // ticket FAA or a now_serving poll fails; the throwing acquire() then
  // raises net::PeerDeadError out of the client coroutine, deadlocking
  // every other thread still in a barrier. These forms return
  // core::OpStatus::kPeerFailed / kTimeout to the caller instead, so an
  // open-loop generator can count the error and keep serving other
  // shards (the dis::KvStore contract).
  /// Returns kOk when the lock is held; a failure forfeits the ticket.
  sim::Task<core::OpStatus> acquire_status(core::UpcThread& th);
  /// A failed release against a dead home is reported, not thrown.
  sim::Task<core::OpStatus> release_status(core::UpcThread& th);

  /// Tickets the polling loop of the last acquire() waited behind.
  std::uint64_t last_wait_rounds() const noexcept { return wait_rounds_; }
  /// Core-time charged between now_serving polls while spinning.
  sim::Duration backoff() const noexcept { return backoff_; }
  void set_backoff(sim::Duration d) noexcept { backoff_ = d; }

 private:
  static constexpr std::uint64_t kNextTicket = 0;
  static constexpr std::uint64_t kNowServing = 1;

  core::ArrayDesc words_;
  sim::Duration backoff_ = sim::us(0.5);
  std::uint64_t wait_rounds_ = 0;
};

}  // namespace xlupc::dis
