// Time-ordered event queue for the discrete-event simulator.
//
// Events with equal timestamps are delivered in insertion order (FIFO),
// which makes every simulation deterministic (docs/SIMULATOR.md).
//
// The queue is a timing wheel in front of a far heap. Simulated time
// never runs backwards, so every pending time is at least `base_`, the
// time of the last event popped or peeked. The wheel's 8,192 slots of
// 1 ns hold the events due in [base_, base_ + 8192): slot t % 8192 is a
// circular singly linked FIFO of the events due at t, named by its last
// node, whose link leads back to the first. An occupancy bitmap and its
// two-word summary find the next occupied slot in a few word scans. An
// event due 8,192 ns or more after base_ goes to the far heap, a binary
// heap ordered by (time, schedule order). Whenever base_ advances, and
// before any event at the new base runs, the far events the window now
// covers move into their slots in heap order.
//
// Ties stay FIFO: the events due at one time sit either all in one slot
// or all in the far heap, and a far event at T reaches its slot before
// any schedule at T can land there, since a schedule lands in the wheel
// only once the window covers T, and covering T is what moved it.
//
// The slot array and the bitmap (33 KiB) are allocated by the first
// schedule, so a simulator that never runs costs under 1 KiB.
//
// Every pending event is a 24-byte node {thunk, next} in one vector,
// the arena, numbered from 1 so that 0 means none; a far heap entry
// names its node, and moving it into the wheel only links the node into
// its slot. Freed nodes form a LIFO list through `next`. A node holds
// the callback's thunk (sim/callback.h), so filing and running an event
// touch no other memory. The arena grows to the peak number of pending
// events and never shrinks, so steady state allocates nothing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// run_until() stops at a deadline) but re-files every pending event.
  void schedule(Time t, Callback fn) {
    if (t < base_) respread(t);
    const std::uint32_t n = new_node(fn.release());
    if (t - base_ < kSlots) {
      link(t, n);
    } else {
      push_far(t, n);
      ++far_schedules_;
    }
    if (++size_ > peak_) peak_ = size_;
  }

  /// True when no events remain.
  bool empty() const noexcept { return size_ == 0; }

  /// Number of pending events.
  std::size_t size() const noexcept { return size_; }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  Time next_time() {
    return wheel_->tails[base_ & kMask] != 0 ? base_ : advance();
  }

  /// Remove and run the earliest event; returns its timestamp.
  Time pop_and_run();

  /// Total number of events executed so far (for micro-benchmarks/tests).
  std::uint64_t executed() const noexcept { return executed_; }

  /// Peak number of pending events so far, counting events scheduled
  /// from inside a running callback (perfbench's sim.queue_hwm).
  std::size_t arena_capacity() const noexcept { return peak_; }

  /// Schedules that went to the far heap, due 8,192 ns or more after the
  /// last popped or peeked time (simspeed's queue.far_frac).
  std::uint64_t far_schedules() const noexcept { return far_schedules_; }

 private:
  static constexpr std::size_t kSlots = 8192;
  static constexpr std::size_t kMask = kSlots - 1;
  static constexpr std::size_t kWords = kSlots / 64;

  // The 4 bytes of padding after `next` are left free, room for a
  // per-event tag without growing the record.
  struct Node {
    Callback::Thunk thunk;
    std::uint32_t next;  ///< next node of its slot's ring or the free list
  };
  static_assert(sizeof(Node) == 24);

  struct Far {
    Time time;
    std::uint64_t seq;  ///< schedule order among far events
    std::uint32_t node;
  };

  struct Wheel {
    std::array<std::uint32_t, kSlots> tails;  ///< last node of each slot
    std::array<std::uint64_t, kWords> bits;   ///< bit s: slot s occupied
  };

  std::uint32_t new_node(Callback::Thunk thunk) {
    std::uint32_t n = free_;
    if (n != 0) {
      free_ = nodes_[n - 1].next;
    } else {
      n = grow();
    }
    nodes_[n - 1].thunk = thunk;
    return n;
  }
  // Append node `n`, due at `t` (inside the window), to its slot.
  void link(Time t, std::uint32_t n) {
    const std::size_t s = t & kMask;
    std::uint32_t& tail = wheel_->tails[s];
    if (tail == 0) {
      nodes_[n - 1].next = n;
      wheel_->bits[s / 64] |= std::uint64_t{1} << (s % 64);
      summary_[s / 4096] |= std::uint64_t{1} << (s / 64 % 64);
    } else {
      Node& last = nodes_[tail - 1];
      nodes_[n - 1].next = last.next;
      last.next = n;
    }
    tail = n;
  }
  std::uint32_t grow();
  void push_far(Time t, std::uint32_t n);
  Time advance();
  std::size_t next_occupied(std::size_t from) const noexcept;
  void respread(Time base);
  /// Call `fn(n)` for the nodes of occupied slot `s`, in pop order.
  template <class F>
  void for_each_in_slot(std::size_t s, F fn) const;

  Time base_ = 0;
  std::unique_ptr<Wheel> wheel_;            ///< made by the first grow()
  std::array<std::uint64_t, 2> summary_{};  ///< bit w: bits[w] != 0
  std::vector<Node> nodes_;                    ///< node n is nodes_[n - 1]
  std::uint32_t free_ = 0;                     ///< first free node
  std::vector<Far> far_;                       ///< binary heap, earliest on top
  std::uint64_t far_seq_ = 0;
  std::uint64_t far_schedules_ = 0;
  std::size_t size_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace xlupc::sim
