#include "sim/resource.h"

#include <stdexcept>

namespace xlupc::sim {

void Resource::account() const {
  busy_accum_ += in_use_ * (sim_->now() - last_change_);
  last_change_ = sim_->now();
}

void Resource::grant_one() {
  account();
  ++in_use_;
}

void Resource::enqueue(Waiter* w) noexcept {
  w->next = nullptr;  // a re-armed waiter may still link its last FIFO
  w->enqueued = sim_->now();
  if (tail_ == nullptr) {
    head_ = w;
  } else {
    tail_->next = w;
  }
  tail_ = w;
  ++queued_;
}

void Resource::release() {
  if (in_use_ == 0) {
    throw std::logic_error("Resource::release without acquire");
  }
  if (head_ != nullptr) {
    // Hand the unit directly to the first waiter: in_use_ stays constant
    // (the unit remains reserved for the waiter until it resumes).
    ++pending_handoffs_;
    Waiter* w = head_;
    head_ = w->next;
    if (head_ == nullptr) tail_ = nullptr;
    --queued_;
    queue_wait_accum_ += sim_->now() - w->enqueued;
    sim_->post(Callback([w] { w->on_handoff(); }));
  } else {
    account();
    --in_use_;
  }
}

Duration Resource::busy_time() const {
  account();
  return busy_accum_;
}

double Resource::utilization() const {
  const Duration window = sim_->now() - usage_epoch_;
  if (window == 0 || capacity_ == 0) return 0.0;
  return static_cast<double>(busy_time()) /
         (static_cast<double>(capacity_) * static_cast<double>(window));
}

void Resource::reset_usage() {
  account();  // bring last_change_ up to now before dropping the integral
  busy_accum_ = 0;
  queue_wait_accum_ = 0;
  acquisitions_ = 0;
  usage_epoch_ = sim_->now();
}

}  // namespace xlupc::sim
