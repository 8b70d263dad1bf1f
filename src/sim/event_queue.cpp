#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace xlupc::sim {

namespace {

// Heap order: true when `a` pops after `b`.
template <class Far>
bool later(const Far& a, const Far& b) noexcept {
  return a.time != b.time ? a.time > b.time : a.seq > b.seq;
}

}  // namespace

// The free list is empty: append a node to the arena. The first one
// comes with the wheel.
std::uint32_t EventQueue::grow() {
  if (nodes_.empty()) wheel_ = std::make_unique<Wheel>();
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size());
}

void EventQueue::push_far(Time t, std::uint32_t n) {
  far_.push_back({t, far_seq_++, n});
  std::push_heap(far_.begin(), far_.end(), later<Far>);
}

// The first occupied slot at or after `from`, or kSlots.
std::size_t EventQueue::next_occupied(std::size_t from) const noexcept {
  const auto& bits = wheel_->bits;
  std::size_t w = from / 64;
  if (const std::uint64_t m = bits[w] & (~std::uint64_t{0} << (from % 64))) {
    return w * 64 + static_cast<std::size_t>(std::countr_zero(m));
  }
  ++w;  // the words after w, through the summary
  for (std::size_t sw = w / 64; sw < summary_.size(); ++sw) {
    const std::uint64_t m =
        summary_[sw] & (sw == w / 64 ? ~std::uint64_t{0} << (w % 64)
                                     : ~std::uint64_t{0});
    if (m != 0) {
      const std::size_t word = sw * 64 + static_cast<std::size_t>(
                                             std::countr_zero(m));
      return word * 64 +
             static_cast<std::size_t>(std::countr_zero(bits[word]));
    }
  }
  return kSlots;
}

// The slot at base_ is empty: move base_ to the earliest pending time,
// the next occupied slot's (wrapping around the wheel) or, with the
// wheel empty, the far heap's top. Then move the far events the window
// now covers into their slots, earliest first.
Time EventQueue::advance() {
  const std::size_t from = base_ & kMask;
  std::size_t s = next_occupied(from);
  if (s == kSlots) s = next_occupied(0);
  base_ = s != kSlots ? base_ + ((s - from) & kMask) : far_.front().time;
  while (!far_.empty() && far_.front().time - base_ < kSlots) {
    std::pop_heap(far_.begin(), far_.end(), later<Far>);
    link(far_.back().time, far_.back().node);
    far_.pop_back();
  }
  return base_;
}

template <class F>
void EventQueue::for_each_in_slot(std::size_t s, F fn) const {
  const std::uint32_t tail = wheel_->tails[s];
  std::uint32_t n = tail;
  do {
    n = nodes_[n - 1].next;
    fn(n);
  } while (n != tail);
}

// Slow path for an insert below base_: take every pending event out in
// pop order (the wheel from base_ on, then the far heap sorted) and file
// its node again relative to `base`. Equal times leave and return in
// FIFO order, so ties stay FIFO.
void EventQueue::respread(Time base) {
  std::vector<std::pair<Time, std::uint32_t>> pending;
  pending.reserve(size_);
  const std::size_t from = base_ & kMask;
  for (std::size_t i = 0; i < kSlots; ++i) {
    const std::size_t s = (from + i) & kMask;
    if (wheel_->tails[s] == 0) continue;
    for_each_in_slot(s, [&pending, t = base_ + i](std::uint32_t n) {
      pending.emplace_back(t, n);
    });
  }
  std::sort(far_.begin(), far_.end(),
            [](const Far& a, const Far& b) { return later(b, a); });
  for (const Far& f : far_) pending.emplace_back(f.time, f.node);
  far_.clear();
  wheel_->tails.fill(0);
  wheel_->bits.fill(0);
  summary_.fill(0);
  base_ = base;
  for (const auto& [t, n] : pending) {
    if (t - base_ < kSlots) {
      link(t, n);
    } else {
      push_far(t, n);
    }
  }
}

EventQueue::~EventQueue() {
  if (!wheel_) return;  // nothing was ever scheduled
  auto release = [this](std::uint32_t n) {
    const Callback::Thunk& t = nodes_[n - 1].thunk;
    t.fn(t.word, false);
  };
  for (std::size_t s = 0; s < kSlots; ++s) {
    if (wheel_->tails[s] != 0) for_each_in_slot(s, release);
  }
  for (const Far& f : far_) release(f.node);
}

Time EventQueue::pop_and_run() {
  const Time t = next_time();
  const std::size_t s = t & kMask;
  Wheel& wheel = *wheel_;
  std::uint32_t& tail = wheel.tails[s];
  Node& last = nodes_[tail - 1];
  const std::uint32_t head = last.next;
  Node& first = nodes_[head - 1];
  // Take the thunk out *before* running it, so the callback can schedule
  // freely (into this very slot, too).
  const Callback::Thunk run = first.thunk;
  if (head == tail) {
    tail = 0;
    wheel.bits[s / 64] &= ~(std::uint64_t{1} << (s % 64));
    if (wheel.bits[s / 64] == 0) {
      summary_[s / 4096] &= ~(std::uint64_t{1} << (s / 64 % 64));
    }
  } else {
    last.next = first.next;
  }
  first.next = free_;
  free_ = head;
  --size_;
  ++executed_;
  run.fn(run.word, true);
  return t;
}

}  // namespace xlupc::sim
