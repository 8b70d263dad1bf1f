// FIFO resources modelling contended hardware (CPU cores, NIC engines).
//
// A Resource has an integer capacity; processes acquire one unit, hold it
// for some simulated time, then release. Waiters queue in FIFO order,
// which models the in-order service of NIC send queues and the run queue
// behaviour the paper's Field analysis depends on. Busy time, queue-wait
// time and acquisition counts are tracked so experiments can report
// utilization and contention (docs/OBSERVABILITY.md). A Resource carries
// no name: its owner (net::Machine) formats one at report time.
#pragma once

#include <coroutine>
#include <cstdint>

#include "sim/simulator.h"
#include "sim/task.h"

namespace xlupc::sim {

class Resource {
 public:
  /// `usage_epoch` starts the usage window (see reset_usage()) of a
  /// resource made inside a window that its owner began earlier.
  Resource(Simulator& sim, std::uint64_t capacity, Time usage_epoch = 0)
      : sim_(&sim), capacity_(capacity), usage_epoch_(usage_epoch) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  /// Only for building a container of idle resources: queued awaiters and
  /// their grant events hold a Resource's address, so a container must
  /// never relocate its resources once simulated processes use them.
  Resource(Resource&&) noexcept = default;

 private:
  static constexpr Duration kNoRelease = ~Duration{0};

 public:
  /// The awaiter of acquire() and use(). While its coroutine waits for a
  /// unit it is linked into the resource's FIFO through `next`, so a
  /// queued waiter costs no allocation; it lives in the suspended
  /// coroutine's frame, which does not move.
  ///
  /// GCC 12 gives every co_await operand that is not a plain variable
  /// its own slot in the coroutine frame (it copies even a returned
  /// reference), so each `co_await r.use(d)` site costs the frame 40
  /// bytes. A coroutine that waits at several sites keeps one Waiter
  /// instead, re-arms it and awaits the variable: `w.use(r, d);
  /// co_await w;`.
  struct Waiter {
    Resource* r = nullptr;
    Duration hold = 0;  ///< use(): hold time; acquire(): kNoRelease
    std::coroutine_handle<> cont{};
    Waiter* next = nullptr;
    Time enqueued = 0;

    /// Re-arm as `res.use(d)`; then co_await this waiter.
    void use(Resource& res, Duration d) noexcept {
      r = &res;
      hold = d;
    }
    /// Re-arm as `res.acquire()`; then co_await this waiter.
    void acquire(Resource& res) noexcept { use(res, kNoRelease); }

    bool await_ready() {
      // Fully synchronous when the unit is free and no hold follows
      // (acquire's ready path, or use() with delay(0)'s no-suspend path).
      if (!r->can_grant_now() || (hold != 0 && hold != kNoRelease)) {
        return false;
      }
      r->granted();
      if (hold == 0) r->release();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      cont = h;
      if (r->can_grant_now()) {
        r->granted();
        start_hold();
      } else {
        r->enqueue(this);
      }
    }
    void await_resume() const noexcept {}

    /// The unit was handed over in release(): run the rest of the grant.
    void on_handoff() {
      r->granted();
      if (hold == kNoRelease) {
        cont.resume();
      } else if (hold == 0) {
        r->release();
        cont.resume();
      } else {
        start_hold();
      }
    }
    // Unit held: schedule the release at the end of the hold.
    void start_hold() {
      r->sim_->schedule_after(hold, Callback([this] {
                                r->release();
                                cont.resume();
                              }));
    }
  };

  /// Awaitable acquisition of one capacity unit (FIFO). When a unit is
  /// released to a queued waiter it stays reserved until that waiter runs,
  /// so later arrivals can never overtake the queue.
  Waiter acquire() { return Waiter{this, kNoRelease}; }

  /// Release one previously acquired unit.
  void release();

  /// Convenience: acquire, hold for `d`, release — the single hottest
  /// pattern in the runtime (every CPU charge, every NIC injection).
  /// The awaiter needs no coroutine frame of its own; acquire() and use()
  /// waiters share one FIFO. Event scheduling is identical to an
  /// acquire/delay/release coroutine.
  Waiter use(Duration d) { return Waiter{this, d}; }

  std::uint64_t capacity() const noexcept { return capacity_; }
  std::uint64_t in_use() const noexcept { return in_use_; }
  std::uint64_t queue_length() const noexcept { return queued_; }

  /// Accumulated unit-busy nanoseconds (integral of in_use over time)
  /// since construction or the last reset_usage().
  Duration busy_time() const;

  /// Total time waiters spent queued before being granted a unit, since
  /// construction or the last reset_usage(). Processes still queued at
  /// observation time are not counted.
  Duration queue_wait_time() const noexcept { return queue_wait_accum_; }

  /// Successful acquisitions since construction or the last reset_usage().
  std::uint64_t acquisitions() const noexcept { return acquisitions_; }

  /// Fraction [0, 1] of the total capacity kept busy over the usage
  /// window (reset_usage() .. now). 0 when the window is empty.
  double utilization() const;

  /// Zero the usage statistics (busy time, queue wait, acquisitions) and
  /// start a fresh observation window at the current simulated time.
  /// In-flight holds contribute to the new window from now on.
  void reset_usage();

 private:
  /// A fresh acquire can proceed immediately: a unit is free and nobody
  /// is queued ahead (released units stay reserved for queued waiters).
  bool can_grant_now() const noexcept {
    return in_use_ < capacity_ && head_ == nullptr && pending_handoffs_ == 0;
  }
  /// Bookkeeping common to every successful acquisition.
  void granted() {
    ++acquisitions_;
    if (pending_handoffs_ > 0) {
      --pending_handoffs_;  // unit was reserved in release()
    } else {
      grant_one();
    }
  }

  void grant_one();
  void account() const;
  void enqueue(Waiter* w) noexcept;

  // What every grant and release touches comes first.
  Simulator* sim_;
  std::uint64_t capacity_;
  std::uint64_t in_use_ = 0;
  std::uint64_t pending_handoffs_ = 0;
  mutable Time last_change_ = 0;
  mutable Duration busy_accum_ = 0;
  std::uint64_t acquisitions_ = 0;
  Waiter* head_ = nullptr;  ///< FIFO of queued waiters
  Waiter* tail_ = nullptr;
  std::uint64_t queued_ = 0;
  Duration queue_wait_accum_ = 0;
  Time usage_epoch_ = 0;
};

}  // namespace xlupc::sim
