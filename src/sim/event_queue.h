// Time-ordered event queue for the discrete-event simulator.
//
// Events with equal timestamps are delivered in insertion order (FIFO),
// which makes every simulation deterministic (docs/SIMULATOR.md).
//
// The queue is a monotone radix heap: simulated time never runs
// backwards, so each pending time t is filed relative to `base_`, the
// time of the last event popped or peeked, in bucket
// bit_width(t ^ base_) — the position of the highest bit in which it
// differs. Bucket 0 holds exactly the events at base_, in pop order.
// When it runs dry, next_time() moves base_ to the minimum of the lowest
// non-empty bucket and spreads that bucket over the lower ones, so an
// entry only ever moves down. Equal times always share a bucket and
// every move keeps their order, so ties stay FIFO without a sequence
// number.
//
// Each bucket entry is the whole event: a 24-byte (time, fn, word)
// record holding the callback's thunk (sim/callback.h), so filing,
// moving and running an event touch no other memory. Bucket vectors keep
// their capacity, so steady state allocates nothing.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace xlupc::sim {

/// Min-queue of timed callbacks with stable FIFO ordering for ties.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Releases the callables of events still pending.
  ~EventQueue();

  /// Schedule `fn` to run at absolute time `t`. A time below the last
  /// popped or peeked one is allowed (the simulator does that only after
  /// run_until() stops at a deadline) but re-spreads every pending entry.
  void schedule(Time t, Callback fn) {
    if (t < base_) respread(t);
    push({t, fn.release()});
    if (++size_ > peak_) peak_ = size_;
  }

  /// True when no events remain.
  bool empty() const noexcept { return size_ == 0; }

  /// Number of pending events.
  std::size_t size() const noexcept { return size_; }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  Time next_time() { return head_ < buckets_[0].size() ? base_ : refill(); }

  /// Remove and run the earliest event; returns its timestamp.
  Time pop_and_run();

  /// Total number of events executed so far (for micro-benchmarks/tests).
  std::uint64_t executed() const noexcept { return executed_; }

  /// Peak number of pending events so far, counting events scheduled
  /// from inside a running callback (perfbench's sim.queue_hwm).
  std::size_t arena_capacity() const noexcept { return peak_; }

 private:
  struct Entry {
    Time time;
    Callback::Thunk thunk;
  };

  // Bucket 0 (due at base_) has no occupancy bit; head_ tracks it.
  void push(const Entry& e) {
    const int b = std::bit_width(e.time ^ base_);
    buckets_[b].push_back(e);
    occupied_ |= std::uint64_t{b != 0} << ((b - 1) & 63);
  }
  Time refill();
  void respread(Time base);

  Time base_ = 0;
  std::size_t head_ = 0;        // next entry of buckets_[0] to pop
  std::uint64_t occupied_ = 0;  // bit i-1 set: buckets_[i] non-empty
  std::array<std::vector<Entry>, 65> buckets_;
  std::size_t size_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace xlupc::sim
