#include "dis/ticket_lock.h"

#include "core/runtime.h"

namespace xlupc::dis {

sim::Task<TicketLock> TicketLock::create(core::UpcThread& th) {
  TicketLock lk;
  // block = 2: both words land in thread 0's block (the lock's home).
  // Shared memory starts zeroed, so next_ticket == now_serving == free.
  lk.words_ = co_await th.all_alloc(2, sizeof(std::uint64_t), 2);
  co_return lk;
}

sim::Task<void> TicketLock::acquire(core::UpcThread& th) {
  net::raise_if_failed(co_await acquire_status(th));
}

sim::Task<bool> TicketLock::try_acquire(core::UpcThread& th) {
  const auto serving = co_await th.read<std::uint64_t>(words_, kNowServing);
  // Grab ticket `serving` only if it is still the next one handed out —
  // i.e. the lock is free. A losing CAS changes nothing and returns the
  // actual next_ticket, so no cleanup is needed.
  const std::uint64_t old =
      co_await th.compare_swap(words_, kNextTicket, serving, serving + 1);
  co_return old == serving;
}

sim::Task<void> TicketLock::release(core::UpcThread& th) {
  net::raise_if_failed(co_await release_status(th));
}

sim::Task<core::OpStatus> TicketLock::acquire_status(core::UpcThread& th) {
  std::uint64_t ticket = 0;
  core::OpStatus st =
      co_await th.fetch_add_status(words_, kNextTicket, 1, &ticket);
  if (st != core::OpStatus::kOk) co_return st;
  wait_rounds_ = 0;
  for (;;) {
    std::uint64_t serving = 0;
    st = co_await th.read_status<std::uint64_t>(words_, kNowServing, &serving);
    // A home that dies mid-spin surfaces here (kPeerFailed once the
    // detector has declared it, kTimeout while retransmissions are still
    // burning); the ticket is forfeit but the caller is never wedged.
    if (st != core::OpStatus::kOk) co_return st;
    if (serving == ticket) co_return core::OpStatus::kOk;
    ++wait_rounds_;
    co_await th.compute(backoff_);
  }
}

sim::Task<core::OpStatus> TicketLock::release_status(core::UpcThread& th) {
  std::uint64_t old = 0;
  co_return co_await th.fetch_add_status(words_, kNowServing, 1, &old);
}

}  // namespace xlupc::dis
