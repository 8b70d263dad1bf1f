#include "dis/counter.h"

#include <stdexcept>

#include "core/runtime.h"

namespace xlupc::dis {

sim::Task<DistCounter> DistCounter::create(core::UpcThread& th,
                                           std::uint32_t stripes) {
  if (stripes == 0) throw std::invalid_argument("DistCounter: zero stripes");
  DistCounter c;
  c.stripes_ = stripes;
  // block = 1 (cyclic): stripe i homes at thread i % THREADS, spreading
  // the slots across the nodes. Shared memory starts zeroed.
  c.slots_ = co_await th.all_alloc(stripes, sizeof(std::uint64_t), 1);
  co_return c;
}

std::uint64_t DistCounter::stripe_of(const core::UpcThread& th) const {
  return th.id() % stripes_;
}

sim::Task<std::uint64_t> DistCounter::add(core::UpcThread& th,
                                          std::uint64_t delta) {
  std::uint64_t old = 0;
  net::raise_if_failed(co_await add_status(th, delta, &old));
  co_return old;
}

core::OpHandle DistCounter::add_nb(core::UpcThread& th, std::uint64_t delta,
                                   std::uint64_t* result) {
  return th.faa_nb(slots_, stripe_of(th), delta, result);
}

sim::Task<std::uint64_t> DistCounter::read(core::UpcThread& th) {
  std::uint64_t sum = 0;
  net::raise_if_failed(co_await read_status(th, &sum));
  co_return sum;
}

sim::Task<core::OpStatus> DistCounter::add_status(core::UpcThread& th,
                                                  std::uint64_t delta,
                                                  std::uint64_t* result) {
  return th.fetch_add_status(slots_, stripe_of(th), delta, result);
}

sim::Task<core::OpStatus> DistCounter::read_status(core::UpcThread& th,
                                                   std::uint64_t* sum) {
  std::uint64_t total = 0;
  core::OpStatus worst = core::OpStatus::kOk;
  for (std::uint32_t i = 0; i < stripes_; ++i) {
    std::uint64_t v = 0;
    const core::OpStatus st =
        co_await th.read_status<std::uint64_t>(slots_, i, &v);
    if (st == core::OpStatus::kOk) {
      total += v;
    } else if (st > worst) {
      worst = st;
    }
  }
  *sum = total;
  co_return worst;
}

}  // namespace xlupc::dis
