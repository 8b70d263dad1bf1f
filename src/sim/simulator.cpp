#include "sim/simulator.h"

#include <stdexcept>
#include <utility>

namespace xlupc::sim {

Simulator::~Simulator() {
  destroy_processes();
  pool_trim();
}

void Simulator::destroy_processes() noexcept {
  // Queued callbacks and synchronizer waiter lists hold the handles
  // non-owning, so destroying each process frame releases its whole
  // chain. Each frame unlinks itself.
  while (first_process_ != nullptr) {
    std::coroutine_handle<Process::promise_type>::from_promise(
        *first_process_)
        .destroy();
  }
}

void Simulator::throw_past() {
  throw std::logic_error("Simulator::schedule_at: time in the past");
}

void Simulator::rethrow_if_failed() {
  if (failure_) {
    auto e = std::exchange(failure_, nullptr);
    std::rethrow_exception(e);
  }
}

Time Simulator::run() {
  while (!queue_.empty() && !failure_) {
    now_ = queue_.next_time();
    queue_.pop_and_run();
  }
  // The frames of this run are back on their freelists: size classes the
  // next phase does not use give their chunks to the ones it does.
  pool_trim();
  rethrow_if_failed();
  return now_;
}

Time Simulator::run_until(Time deadline) {
  while (!queue_.empty() && !failure_ && queue_.next_time() <= deadline) {
    now_ = queue_.next_time();
    queue_.pop_and_run();
  }
  rethrow_if_failed();
  return now_;
}

}  // namespace xlupc::sim
