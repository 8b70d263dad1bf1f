// Tests for simulation synchronization primitives: Trigger, Future,
// CountdownLatch, CyclicBarrier and the FIFO Resource.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace xlupc::sim {
namespace {

TEST(Trigger, ReleasesAllWaiters) {
  Simulator sim;
  Trigger t(sim);
  int released = 0;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Trigger& tr, int& n) -> Task<> {
      co_await tr.wait();
      ++n;
    }(t, released));
  }
  sim.schedule_at(us(10), [&] { t.fire(); });
  sim.run();
  EXPECT_EQ(released, 4);
}

TEST(Trigger, WaitAfterFireDoesNotSuspend) {
  Simulator sim;
  Trigger t(sim);
  t.fire();
  Time when = 1;
  sim.spawn([](Simulator& s, Trigger& tr, Time& w) -> Task<> {
    co_await tr.wait();
    w = s.now();
  }(sim, t, when));
  sim.run();
  EXPECT_EQ(when, 0u);
}

TEST(Trigger, DoubleFireIsIdempotent) {
  Simulator sim;
  Trigger t(sim);
  t.fire();
  EXPECT_NO_THROW(t.fire());
  EXPECT_TRUE(t.fired());
}

TEST(Future, DeliversValueToWaiter) {
  Simulator sim;
  Future<int> f(sim);
  int got = 0;
  sim.spawn([](Future<int>& fu, int& out) -> Task<> {
    out = co_await fu.get();
  }(f, got));
  sim.schedule_at(us(3), [&] { f.set(99); });
  sim.run();
  EXPECT_EQ(got, 99);
}

TEST(CountdownLatch, ZeroCountIsImmediatelyOpen) {
  Simulator sim;
  CountdownLatch latch(sim, 0);
  bool passed = false;
  sim.spawn([](CountdownLatch& l, bool& p) -> Task<> {
    co_await l.wait();
    p = true;
  }(latch, passed));
  sim.run();
  EXPECT_TRUE(passed);
}

TEST(CountdownLatch, OpensExactlyAtZero) {
  Simulator sim;
  CountdownLatch latch(sim, 3);
  Time opened = 0;
  sim.spawn([](Simulator& s, CountdownLatch& l, Time& t) -> Task<> {
    co_await l.wait();
    t = s.now();
  }(sim, latch, opened));
  sim.schedule_at(us(1), [&] { latch.count_down(); });
  sim.schedule_at(us(2), [&] { latch.count_down(); });
  sim.schedule_at(us(5), [&] { latch.count_down(); });
  sim.run();
  EXPECT_EQ(opened, us(5));
}

TEST(CountdownLatch, UnderflowThrows) {
  Simulator sim;
  CountdownLatch latch(sim, 1);
  latch.count_down();
  EXPECT_THROW(latch.count_down(), std::logic_error);
}

TEST(CyclicBarrier, AllPartiesReleaseTogether) {
  Simulator sim;
  CyclicBarrier barrier(sim, 4);
  std::vector<Time> release(4);
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulator& s, CyclicBarrier& b, Time& out, int k) -> Task<> {
      co_await s.delay(us(static_cast<double>(k * 10)));
      co_await b.arrive();
      out = s.now();
    }(sim, barrier, release[i], i));
  }
  sim.run();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(release[i], us(30));
  EXPECT_EQ(barrier.generation(), 1u);
}

TEST(CyclicBarrier, ReusableAcrossGenerations) {
  Simulator sim;
  CyclicBarrier barrier(sim, 3);
  int rounds_done = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulator& s, CyclicBarrier& b, int& done, int k) -> Task<> {
      for (int r = 0; r < 5; ++r) {
        co_await s.delay(us(static_cast<double>(k + 1)));
        co_await b.arrive();
      }
      ++done;
    }(sim, barrier, rounds_done, i));
  }
  sim.run();
  EXPECT_EQ(rounds_done, 3);
  EXPECT_EQ(barrier.generation(), 5u);
}

TEST(CyclicBarrier, SinglePartyNeverBlocks) {
  Simulator sim;
  CyclicBarrier barrier(sim, 1);
  bool done = false;
  sim.spawn([](CyclicBarrier& b, bool& d) -> Task<> {
    co_await b.arrive();
    co_await b.arrive();
    d = true;
  }(barrier, done));
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Resource, SerializesAtCapacityOne) {
  Simulator sim;
  Resource r(sim, 1);
  std::vector<Time> finish(3);
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulator& s, Resource& res, Time& out) -> Task<> {
      co_await res.use(us(10));
      out = s.now();
    }(sim, r, finish[i]));
  }
  sim.run();
  EXPECT_EQ(finish[0], us(10));
  EXPECT_EQ(finish[1], us(20));
  EXPECT_EQ(finish[2], us(30));
}

TEST(Resource, CapacityTwoRunsPairsConcurrently) {
  Simulator sim;
  Resource r(sim, 2);
  std::vector<Time> finish(4);
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulator& s, Resource& res, Time& out) -> Task<> {
      co_await res.use(us(10));
      out = s.now();
    }(sim, r, finish[i]));
  }
  sim.run();
  EXPECT_EQ(finish[0], us(10));
  EXPECT_EQ(finish[1], us(10));
  EXPECT_EQ(finish[2], us(20));
  EXPECT_EQ(finish[3], us(20));
}

TEST(Resource, FifoOrderIsPreserved) {
  Simulator sim;
  Resource r(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    sim.spawn(
        [](Simulator& s, Resource& res, std::vector<int>& o, int k) -> Task<> {
          co_await s.delay(us(static_cast<double>(k)));  // staggered arrival
          co_await res.acquire();
          co_await s.delay(us(10));
          o.push_back(k);
          res.release();
        }(sim, r, order, i));
  }
  sim.run();
  for (int i = 0; i < 6; ++i) EXPECT_EQ(order[i], i);
}

TEST(Resource, LateArrivalCannotOvertakeQueuedWaiter) {
  Simulator sim;
  Resource r(sim, 1);
  std::vector<int> order;
  // A holds [0,10); B queues at 5; C arrives exactly when A releases.
  sim.spawn([](Simulator& s, Resource& res, std::vector<int>& o) -> Task<> {
    co_await res.acquire();
    co_await s.delay(us(10));
    res.release();
    o.push_back(0);
  }(sim, r, order));
  sim.spawn([](Simulator& s, Resource& res, std::vector<int>& o) -> Task<> {
    co_await s.delay(us(5));
    co_await res.use(us(10));
    o.push_back(1);
  }(sim, r, order));
  sim.spawn([](Simulator& s, Resource& res, std::vector<int>& o) -> Task<> {
    co_await s.delay(us(10));
    co_await res.use(us(10));
    o.push_back(2);
  }(sim, r, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Resource, ReArmedWaiterQueuesAgainBehindNobodyElse) {
  // W keeps one Waiter for two queued waits. It queues on `a` between
  // A (holding [0,10)) and C, so while queued it links C; re-armed, it
  // queues alone behind B on `b`. Its second grant must hand `b` to
  // nobody but W: C, long done with `a`, never enters `b`'s FIFO.
  Simulator sim;
  Resource a(sim, 1);
  Resource b(sim, 1);
  std::vector<std::pair<int, Time>> done;
  auto hold = [](Simulator& s, Resource& res, Time at, Duration d,
                 std::vector<std::pair<int, Time>>& out, int id) -> Task<> {
    co_await s.delay(at);
    co_await res.use(d);
    out.emplace_back(id, s.now());
  };
  sim.spawn(hold(sim, a, 0, us(10), done, 0));
  sim.spawn(hold(sim, b, 0, us(30), done, 1));
  sim.spawn([](Simulator& s, Resource& ra, Resource& rb,
               std::vector<std::pair<int, Time>>& out) -> Task<> {
    co_await s.delay(us(1));
    Resource::Waiter w;
    w.use(ra, us(5));
    co_await w;
    out.emplace_back(2, s.now());
    w.use(rb, us(5));
    co_await w;
    out.emplace_back(3, s.now());
  }(sim, a, b, done));
  sim.spawn(hold(sim, a, us(2), us(5), done, 4));
  sim.run();
  const std::vector<std::pair<int, Time>> want = {
      {0, us(10)}, {2, us(15)}, {4, us(20)}, {1, us(30)}, {3, us(35)}};
  EXPECT_EQ(done, want);
  EXPECT_EQ(a.acquisitions(), 3u);
  EXPECT_EQ(b.acquisitions(), 2u);
  EXPECT_EQ(b.in_use(), 0u);
}

TEST(Resource, ReleaseWithoutAcquireThrows) {
  Simulator sim;
  Resource r(sim, 1);
  EXPECT_THROW(r.release(), std::logic_error);
}

TEST(Resource, BusyTimeIntegratesUsage) {
  Simulator sim;
  Resource r(sim, 2);
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Resource& res) -> Task<> { co_await res.use(us(10)); }(r));
  }
  sim.run();
  EXPECT_EQ(r.busy_time(), us(20));  // two units busy for 10us each
}

TEST(Resource, QueueLengthVisibleWhileContended) {
  Simulator sim;
  Resource r(sim, 1);
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulator& s, Resource& res) -> Task<> {
      co_await res.acquire();
      co_await s.delay(us(1));
      res.release();
    }(sim, r));
  }
  std::uint64_t mid_run = 0;
  // Probe while the first holder still runs: one in use, three queued.
  sim.schedule_at(us(0.5), [&] { mid_run = r.queue_length(); });
  sim.run();
  EXPECT_EQ(mid_run, 3u);
  EXPECT_EQ(r.queue_length(), 0u);
  EXPECT_EQ(r.in_use(), 0u);
}

TEST(Resource, AcquireAndUseWaitersShareOneFifo) {
  // A holds [0,10) through acquire(). While it holds, B (use 5), C
  // (acquire, then holds 3), D (use 0) and E (use 2) queue at t = 1..4 in
  // that order. Each release hands the unit to the next waiter, whichever
  // call it queued through, so they are granted back to back: B at 10, C
  // at 15, D at 18 (its zero hold releases at once), E at 18.
  Simulator sim;
  Resource r(sim, 1);
  struct Done {
    char who;
    Time at;
  };
  std::vector<Done> done;
  sim.spawn([](Simulator& s, Resource& res, std::vector<Done>& d) -> Task<> {
    co_await res.acquire();
    d.push_back({'A', s.now()});
    co_await s.delay(us(10));
    res.release();
  }(sim, r, done));
  const auto user = [](Simulator& s, Resource& res, std::vector<Done>& d,
                       char who, double arrive, double hold) -> Task<> {
    co_await s.delay(us(arrive));
    co_await res.use(us(hold));
    d.push_back({who, s.now()});  // resumes once the hold is over
  };
  sim.spawn(user(sim, r, done, 'B', 1, 5));
  sim.spawn([](Simulator& s, Resource& res, std::vector<Done>& d) -> Task<> {
    co_await s.delay(us(2));
    co_await res.acquire();
    d.push_back({'C', s.now()});  // resumes at the grant
    co_await s.delay(us(3));
    res.release();
  }(sim, r, done));
  sim.spawn(user(sim, r, done, 'D', 3, 0));
  sim.spawn(user(sim, r, done, 'E', 4, 2));

  std::vector<std::uint64_t> queued;
  for (const double t : {0.5, 4.5, 12.0, 16.0, 18.5}) {
    sim.schedule_at(us(t), [&] { queued.push_back(r.queue_length()); });
  }
  sim.run();

  ASSERT_EQ(done.size(), 5u);
  const std::vector<char> order{'A', 'B', 'C', 'D', 'E'};
  const std::vector<Time> at{0, us(15), us(15), us(18), us(20)};
  for (std::size_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i].who, order[i]) << i;
    EXPECT_EQ(done[i].at, at[i]) << done[i].who;
  }
  EXPECT_EQ(queued, (std::vector<std::uint64_t>{0, 4, 3, 2, 0}));
  // Waits from queueing to grant: B 10-1, C 15-2, D 18-3, E 18-4.
  EXPECT_EQ(r.queue_wait_time(), us(9 + 13 + 15 + 14));
  EXPECT_EQ(r.acquisitions(), 5u);
  EXPECT_EQ(r.busy_time(), us(20));
  EXPECT_EQ(r.in_use(), 0u);
  EXPECT_EQ(sim.now(), us(20));
}

// Property sweep: N producers through a capacity-C resource always finish
// at ceil(N/C)*hold and never exceed capacity.
class ResourceProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ResourceProperty, ThroughputMatchesCapacity) {
  const auto [n, cap] = GetParam();
  Simulator sim;
  Resource r(sim, static_cast<std::uint64_t>(cap));
  std::uint64_t max_in_use = 0;
  for (int i = 0; i < n; ++i) {
    sim.spawn([](Simulator& s, Resource& res, std::uint64_t& m) -> Task<> {
      co_await res.acquire();
      m = std::max(m, res.in_use());
      co_await s.delay(us(10));
      res.release();
    }(sim, r, max_in_use));
  }
  const Time end = sim.run();
  EXPECT_LE(max_in_use, static_cast<std::uint64_t>(cap));
  const int waves = (n + cap - 1) / cap;
  EXPECT_EQ(end, us(10.0 * waves));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ResourceProperty,
                         ::testing::Values(std::pair{1, 1}, std::pair{5, 1},
                                           std::pair{8, 2}, std::pair{9, 2},
                                           std::pair{16, 4}, std::pair{17, 4},
                                           std::pair{32, 8}));

}  // namespace
}  // namespace xlupc::sim
