// Unit tests for the discrete-event engine: event queue ordering,
// simulator scheduling, coroutine task semantics and determinism.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace xlupc::sim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesRunInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayRescheduleDuringExecution) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) q.schedule(static_cast<Time>(count * 10), tick);
  };
  q.schedule(0, tick);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.executed(), 5u);
}

TEST(Simulator, UnusedSimulatorIsUnderOneKiB) {
  // The event wheel's slot array and bitmap come with the first
  // schedule: a simulator built and never run (the tests build many)
  // stays small, and runs and tears down like any other.
  EXPECT_LT(sizeof(Simulator), 1024u);
  { Simulator idle; }
  Simulator sim;
  EXPECT_TRUE(sim.queue().empty());
  EXPECT_EQ(sim.run(), 0u);
  int ran = 0;
  sim.schedule_after(us(1), [&ran] { ++ran; });
  EXPECT_EQ(sim.run(), us(1));
  EXPECT_EQ(ran, 1);
}

TEST(Simulator, DelayAdvancesTime) {
  Simulator sim;
  Time seen = 0;
  sim.spawn([](Simulator& s, Time& out) -> Task<> {
    co_await s.delay(us(5));
    co_await s.delay(us(7));
    out = s.now();
  }(sim, seen));
  sim.run();
  EXPECT_EQ(seen, us(12));
}

TEST(Simulator, ZeroDelayDoesNotSuspend) {
  Simulator sim;
  int steps = 0;
  sim.spawn([](Simulator& s, int& n) -> Task<> {
    co_await s.delay(0);
    ++n;
    co_await s.delay(0);
    ++n;
  }(sim, steps));
  sim.run();
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_THROW(sim.schedule_at(50, [] {}), std::logic_error);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 2);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, ScheduleBelowPeekedTimeAfterRunUntil) {
  // run_until(20) peeks the event at 30 and stops; an event scheduled
  // at 25 afterwards must still fire before it.
  Simulator sim;
  std::vector<Time> fired;
  for (Time t : {10, 20, 30}) {
    sim.schedule_at(t, [&] { fired.push_back(sim.now()); });
  }
  sim.run_until(20);
  sim.schedule_at(25, [&] { fired.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{10, 20, 25, 30}));
}

TEST(Simulator, ExceptionInProcessPropagatesFromRun) {
  Simulator sim;
  sim.spawn([](Simulator& s) -> Task<> {
    co_await s.delay(us(1));
    throw std::runtime_error("boom");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

// Records its id when its coroutine frame is destroyed.
struct FrameGuard {
  std::vector<int>* destroyed;
  int id;
  ~FrameGuard() { destroyed->push_back(id); }
};

Task<> park(Simulator& sim, std::vector<int>& destroyed, int id,
            Duration d) {
  FrameGuard guard{&destroyed, id};
  co_await sim.delay(d);
}

TEST(Simulator, AbortedRunDestroysSuspendedProcessesInSpawnOrder) {
  // Processes 0, 2, 3 and 5 are still parked in the queue when process 4
  // throws; process 1 finished before. Destroying the simulator must free
  // the parked frames oldest first, and each exactly once.
  std::vector<int> destroyed;
  {
    Simulator sim;
    sim.spawn(park(sim, destroyed, 0, us(50)));
    sim.spawn(park(sim, destroyed, 1, us(1)));
    sim.spawn(park(sim, destroyed, 2, us(60)));
    sim.spawn(park(sim, destroyed, 3, us(40)));
    sim.spawn([](Simulator& s, std::vector<int>& d) -> Task<> {
      FrameGuard guard{&d, 4};
      co_await s.delay(us(2));
      throw std::runtime_error("boom");
    }(sim, destroyed));
    sim.spawn(park(sim, destroyed, 5, us(70)));
    EXPECT_THROW(sim.run(), std::runtime_error);
    EXPECT_EQ(destroyed, (std::vector<int>{1, 4}));
    EXPECT_EQ(sim.live_processes(), 4u);
  }
  EXPECT_EQ(destroyed, (std::vector<int>{1, 4, 0, 2, 3, 5}));
}

TEST(Simulator, LiveProcessCountTracksCompletion) {
  Simulator sim;
  sim.spawn([](Simulator& s) -> Task<> { co_await s.delay(us(1)); }(sim));
  sim.spawn([](Simulator& s) -> Task<> { co_await s.delay(us(2)); }(sim));
  EXPECT_EQ(sim.live_processes(), 2u);
  sim.run();
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Task, ValueTaskReturnsValue) {
  Simulator sim;
  int result = 0;
  auto inner = []() -> Task<int> { co_return 41; };
  sim.spawn([](Task<int> t, int& out) -> Task<> {
    out = 1 + co_await std::move(t);
  }(inner(), result));
  sim.run();
  EXPECT_EQ(result, 42);
}

TEST(Task, NestedAwaitChainsPropagateValues) {
  Simulator sim;
  std::string got;
  auto leaf = [](Simulator& s) -> Task<std::string> {
    co_await s.delay(us(1));
    co_return "leaf";
  };
  auto mid = [&leaf](Simulator& s) -> Task<std::string> {
    auto v = co_await leaf(s);
    co_return v + "+mid";
  };
  sim.spawn([](Task<std::string> t, std::string& out) -> Task<> {
    out = co_await std::move(t);
  }(mid(sim), got));
  sim.run();
  EXPECT_EQ(got, "leaf+mid");
}

TEST(Task, ExceptionPropagatesThroughAwaitChain) {
  Simulator sim;
  bool caught = false;
  auto thrower = []() -> Task<int> {
    throw std::invalid_argument("inner");
    co_return 0;  // unreachable
  };
  sim.spawn([](Task<int> t, bool& c) -> Task<> {
    try {
      (void)co_await std::move(t);
    } catch (const std::invalid_argument&) {
      c = true;
    }
  }(thrower(), caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Task, MoveOnlySemantics) {
  auto make = []() -> Task<int> { co_return 1; };
  Task<int> a = make();
  EXPECT_TRUE(a.valid());
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  a = std::move(b);
  EXPECT_TRUE(a.valid());
}

TEST(Task, AwaitingASpentOrMovedFromTaskThrows) {
  // A task is its own awaiter and can be awaited as an lvalue, once:
  // awaiting it again, or awaiting the task it was moved from, throws
  // instead of resuming a finished (or no) coroutine.
  Simulator sim;
  std::vector<std::string> seen;
  sim.spawn([](Simulator& s, std::vector<std::string>& out) -> Task<> {
    auto make = [](Simulator& s2) -> Task<int> {
      co_await s2.delay(us(1));
      co_return 7;
    };
    Task<int> t = make(s);
    out.push_back(std::to_string(co_await t));
    try {
      (void)co_await t;
    } catch (const std::logic_error&) {
      out.push_back("spent");
    }
    Task<int> u = make(s);
    Task<int> v = std::move(u);
    try {
      (void)co_await u;
    } catch (const std::logic_error&) {
      out.push_back("moved-from");
    }
    out.push_back(std::to_string(co_await v));
  }(sim, seen));
  sim.run();
  EXPECT_EQ(seen,
            (std::vector<std::string>{"7", "spent", "moved-from", "7"}));
}

TEST(Task, UnawaitedTaskDestroysCleanly) {
  // A lazily-started coroutine that is never awaited must not leak or run.
  bool ran = false;
  {
    auto t = [](bool& r) -> Task<> {
      r = true;
      co_return;
    }(ran);
    (void)t;
  }
  EXPECT_FALSE(ran);
}

TEST(Simulator, DeterministicEventCountAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    for (int i = 0; i < 64; ++i) {
      sim.spawn([](Simulator& s, int k) -> Task<> {
        for (int j = 0; j < k % 7; ++j) co_await s.delay(us(j + 1));
      }(sim, i));
    }
    sim.run();
    return std::pair(sim.now(), sim.events_executed());
  };
  EXPECT_EQ(run_once(), run_once());
}

// Interleaving determinism: many processes at the same timestamps must
// resume in spawn order.
TEST(Simulator, EqualTimeResumptionFollowsSpawnOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.spawn([](Simulator& s, std::vector<int>& o, int k) -> Task<> {
      co_await s.delay(us(10));
      o.push_back(k);
    }(sim, order, i));
  }
  sim.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace xlupc::sim
