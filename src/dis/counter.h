// Distributed counters over the remote-atomics verbs (ROADMAP item 2).
//
// The first lock-free consumer of the FAA pipeline: a shared 64-bit
// counter whose increments are remote fetch-and-adds applied at the
// slot's home — no lock, no reader/writer protocol. Two shapes, the
// contention tradeoff bench/atomics_sweep measures:
//  * hot (stripes == 1): every writer FAAs the same word, so all
//    updates serialize at one home (one handler CPU on GM/LAPI, one
//    NIC DMA engine on IB);
//  * striped (stripes == writers): slot i is cyclically distributed, a
//    writer FAAs its own stripe and a read sums the stripes — writes
//    scale with the writer count, reads pay one GET per stripe.
#pragma once

#include <cstdint>

#include "core/access_path.h"
#include "core/api.h"
#include "sim/task.h"

namespace xlupc::core {
class UpcThread;
}

namespace xlupc::dis {

/// Shared distributed counter. Construction is collective (every thread
/// calls create with the same stripe count); each thread then operates
/// on its own DistCounter copy.
class DistCounter {
 public:
  DistCounter() = default;

  /// Collective: allocate `stripes` 64-bit slots, cyclically distributed
  /// across the threads (stripe i homes at thread i % THREADS), starting
  /// at zero.
  static sim::Task<DistCounter> create(core::UpcThread& th,
                                       std::uint32_t stripes);

  /// Atomically add `delta` to this thread's stripe; returns the
  /// stripe's value before the addition (blocking FAA): add_status()
  /// plus net::raise_if_failed.
  sim::Task<std::uint64_t> add(core::UpcThread& th, std::uint64_t delta);
  /// Nonblocking add: the stripe's old value lands in `*result` when the
  /// handle is waited (same contract as UpcThread::faa_nb).
  core::OpHandle add_nb(core::UpcThread& th, std::uint64_t delta,
                        std::uint64_t* result);
  /// add() with the typed-status contract (docs/FAULTS.md): a stripe
  /// homed on a crashed node comes back as kPeerFailed instead of
  /// throwing out of the caller's coroutine. The old value lands in
  /// `*result` only on kOk.
  sim::Task<core::OpStatus> add_status(core::UpcThread& th,
                                       std::uint64_t delta,
                                       std::uint64_t* result);
  /// Sum of every stripe. Not an atomic snapshot across stripes — exact
  /// only in quiescence (after a barrier), like any striped counter.
  /// read_status() plus net::raise_if_failed: every stripe is read before
  /// the worst failure is raised.
  sim::Task<std::uint64_t> read(core::UpcThread& th);
  /// read() with the typed-status contract: sums the stripes it can
  /// reach into `*sum` and returns the worst per-stripe status — a
  /// partial sum plus kPeerFailed when any stripe's home has died.
  sim::Task<core::OpStatus> read_status(core::UpcThread& th,
                                        std::uint64_t* sum);

  /// The stripe this thread's add() targets.
  std::uint64_t stripe_of(const core::UpcThread& th) const;
  std::uint32_t stripes() const noexcept { return stripes_; }
  const core::ArrayDesc& array() const noexcept { return slots_; }

 private:
  core::ArrayDesc slots_;
  std::uint32_t stripes_ = 1;
};

}  // namespace xlupc::dis
