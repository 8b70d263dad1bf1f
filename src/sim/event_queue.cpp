#include "sim/event_queue.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace xlupc::sim {

// Bucket 0 is drained: move base_ to the smallest pending time and
// spread its bucket over the (empty) lower ones, in order.
Time EventQueue::refill() {
  const int b = std::countr_zero(occupied_) + 1;
  occupied_ &= occupied_ - 1;
  std::vector<Entry>& src = buckets_[b];
  Time lo = src[0].time;
  Time hi = lo;
  for (const Entry& e : src) {
    lo = std::min(lo, e.time);
    hi = std::max(hi, e.time);
  }
  base_ = lo;
  if (lo == hi) {
    buckets_[0].swap(src);  // all due at once: no entry needs re-filing
  } else {
    for (const Entry& e : src) push(e);
    src.clear();
  }
  return base_;
}

// Slow path for an insert below base_: re-file every pending entry
// relative to `base`. Equal times come from one bucket, in order, so
// concatenating the buckets keeps ties FIFO.
void EventQueue::respread(Time base) {
  std::vector<Entry> pending;
  for (std::vector<Entry>& bucket : buckets_) {
    pending.insert(pending.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  // Bucket 0 came first; drop its already-popped prefix.
  pending.erase(pending.begin(),
                pending.begin() + static_cast<std::ptrdiff_t>(head_));
  base_ = base;
  head_ = 0;
  occupied_ = 0;
  for (const Entry& e : pending) push(e);
}

void EventQueue::schedule(Time t, Callback fn) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(fn);
  }
  if (t < base_) respread(t);
  push({t, slot});
  ++size_;
}

Time EventQueue::pop_and_run() {
  const Time t = next_time();
  std::vector<Entry>& ready = buckets_[0];
  const std::uint32_t slot = ready[head_].slot;
  if (++head_ == ready.size()) {
    ready.clear();
    head_ = 0;
  }
  // Move the callback out and free its slot *before* running, so the
  // callback can schedule freely (often straight back into that slot).
  Callback fn = std::move(slab_[slot]);
  free_.push_back(slot);
  --size_;
  ++executed_;
  fn();
  return t;
}

}  // namespace xlupc::sim
