// FIFO resources modelling contended hardware (CPU cores, NIC engines).
//
// A Resource has an integer capacity; processes acquire one unit, hold it
// for some simulated time, then release. Waiters queue in FIFO order,
// which models the in-order service of NIC send queues and the run queue
// behaviour the paper's Field analysis depends on. Busy time, queue-wait
// time and acquisition counts are tracked so experiments can report
// utilization and contention (docs/OBSERVABILITY.md).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <string>

#include "sim/simulator.h"
#include "sim/task.h"

namespace xlupc::sim {

class Resource {
 public:
  Resource(Simulator& sim, std::uint64_t capacity, std::string name = {})
      : sim_(&sim), capacity_(capacity), name_(std::move(name)) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Awaitable acquisition of one capacity unit (FIFO). When a unit is
  /// released to a queued waiter it stays reserved until that waiter runs,
  /// so later arrivals can never overtake the queue.
  auto acquire() {
    struct Awaiter {
      Resource* r;
      bool await_ready() const noexcept { return r->can_grant_now(); }
      void await_suspend(std::coroutine_handle<> h) {
        r->queue_.push_back(Waiter{resume_callback(h), r->sim_->now()});
      }
      void await_resume() const { r->granted(); }
    };
    return Awaiter{this};
  }

  /// Release one previously acquired unit.
  void release();

  /// Convenience: acquire, hold for `d`, release — the single hottest
  /// pattern in the runtime (every CPU charge, every NIC injection).
  /// Implemented as a frameless awaiter rather than a Task<> coroutine:
  /// the acquire/delay/release sequence needs no frame of its own, which
  /// removes one coroutine allocation + teardown per hardware charge.
  /// Event scheduling is identical to the coroutine form, so simulations
  /// are byte-for-byte unchanged.
  auto use(Duration d) {
    struct UseAwaiter {
      Resource* r;
      Duration d;
      std::coroutine_handle<> cont;

      bool await_ready() {
        // Fully synchronous when the unit is free and the hold is zero
        // (mirrors acquire's ready path + delay(0)'s no-suspend path).
        if (r->can_grant_now() && d == 0) {
          r->granted();
          r->release();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        cont = h;
        if (r->can_grant_now()) {
          r->granted();
          hold();
        } else {
          r->queue_.push_back(
              Waiter{Callback([this] {
                       r->granted();
                       if (d == 0) {
                         r->release();
                         cont.resume();
                       } else {
                         hold();
                       }
                     }),
                     r->sim_->now()});
        }
      }
      void await_resume() const noexcept {}

      // Unit held: schedule the release at the end of the hold.
      void hold() {
        r->sim_->schedule_after(d, Callback([this] {
                                  r->release();
                                  cont.resume();
                                }));
      }
    };
    return UseAwaiter{this, d, {}};
  }

  const std::string& name() const noexcept { return name_; }
  std::uint64_t capacity() const noexcept { return capacity_; }
  std::uint64_t in_use() const noexcept { return in_use_; }
  std::uint64_t queue_length() const noexcept { return queue_.size(); }

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
  struct Waiter {
    Callback cb;  ///< resumes the waiter (or runs a UseAwaiter grant)
    Time enqueued;
  };

  /// A fresh acquire can proceed immediately: a unit is free and nobody
  /// is queued ahead (released units stay reserved for queued waiters).
  bool can_grant_now() const noexcept {
    return in_use_ < capacity_ && queue_.empty() && pending_handoffs_ == 0;
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

  Simulator* sim_;
  std::uint64_t capacity_;
  std::string name_;
  std::uint64_t in_use_ = 0;
  std::deque<Waiter> queue_;
  mutable std::uint64_t pending_handoffs_ = 0;
  mutable Time last_change_ = 0;
  mutable Duration busy_accum_ = 0;
  Duration queue_wait_accum_ = 0;
  std::uint64_t acquisitions_ = 0;
  Time usage_epoch_ = 0;
};

}  // namespace xlupc::sim
