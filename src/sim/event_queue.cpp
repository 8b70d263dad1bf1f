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

EventQueue::~EventQueue() {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::vector<Entry>& bucket = buckets_[b];
    for (std::size_t i = b == 0 ? head_ : 0; i < bucket.size(); ++i) {
      bucket[i].thunk.fn(bucket[i].thunk.word, false);
    }
  }
}

Time EventQueue::pop_and_run() {
  const Time t = next_time();
  std::vector<Entry>& ready = buckets_[0];
  // Take the thunk out *before* running it, so the callback can schedule
  // freely (into this very bucket, too).
  const Callback::Thunk run = ready[head_].thunk;
  if (++head_ == ready.size()) {
    ready.clear();
    head_ = 0;
  }
  --size_;
  ++executed_;
  run.fn(run.word, true);
  return t;
}

}  // namespace xlupc::sim
