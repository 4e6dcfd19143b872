#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <memory>
#include <vector>

#include "sim/channel.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace dmrpc::sim {
namespace {

TEST(SimulationTest, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.live_task_count(), 0);
}

TEST(SimulationTest, AtRunsCallbackAtScheduledTime) {
  Simulation sim;
  TimeNs seen = -1;
  sim.At(500, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, 500);
  EXPECT_EQ(sim.Now(), 500);
}

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.At(300, [&] { order.push_back(3); });
  sim.At(100, [&] { order.push_back(1); });
  sim.At(200, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, SameTimeEventsRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int ran = 0;
  sim.At(100, [&] { ran++; });
  sim.At(900, [&] { ran++; });
  sim.RunUntil(500);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.Now(), 500);  // clock advances to the deadline
  sim.RunUntil(1000);
  EXPECT_EQ(ran, 2);
}

TEST(SimulationTest, RunForIsRelative) {
  Simulation sim;
  sim.RunFor(250);
  EXPECT_EQ(sim.Now(), 250);
  sim.RunFor(250);
  EXPECT_EQ(sim.Now(), 500);
}

Task<> DelayTask(TimeNs d, TimeNs* when) {
  co_await Delay(d);
  *when = Simulation::Current()->Now();
}

TEST(TaskTest, DelayAdvancesVirtualTime) {
  Simulation sim;
  TimeNs when = -1;
  sim.Spawn(DelayTask(12345, &when));
  sim.Run();
  EXPECT_EQ(when, 12345);
}

TEST(TaskTest, SpawnTracksLiveness) {
  Simulation sim;
  TimeNs when = -1;
  sim.Spawn(DelayTask(100, &when));
  EXPECT_EQ(sim.live_task_count(), 1);
  sim.Run();
  EXPECT_EQ(sim.live_task_count(), 0);
}

Task<int> Doubler(int x) {
  co_await Delay(10);
  co_return x * 2;
}

Task<> AwaitsChild(int* out) {
  *out = co_await Doubler(21);
}

TEST(TaskTest, ChildTaskReturnsValue) {
  Simulation sim;
  int out = 0;
  sim.Spawn(AwaitsChild(&out));
  sim.Run();
  EXPECT_EQ(out, 42);
}

Task<int> DeepChain(int depth) {
  if (depth == 0) co_return 0;
  int below = co_await DeepChain(depth - 1);
  co_return below + 1;
}

Task<> RunDeep(int* out) { *out = co_await DeepChain(5000); }

TEST(TaskTest, DeepNestingDoesNotOverflowStack) {
  // Symmetric transfer means a 5000-deep await chain is fine.
  Simulation sim;
  int out = 0;
  sim.Spawn(RunDeep(&out));
  sim.Run();
  EXPECT_EQ(out, 5000);
}

TEST(TaskTest, DestroyingSimWithSuspendedTasksIsClean) {
  TimeNs never = -1;
  {
    Simulation sim;
    sim.Spawn(DelayTask(1 * kSecond, &never));
    sim.RunFor(10);  // task now suspended in the far future
  }
  EXPECT_EQ(never, -1);  // it never ran, and ASan sees no leak
}

TEST(SimulationDeathTest, SchedulingIntoThePastIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulation sim;
  sim.At(100, [] {});
  sim.Run();
  ASSERT_EQ(sim.Now(), 100);
  // An event before Now() would silently rewind the clock; it must be
  // rejected loudly in every build type, not just debug.
  EXPECT_DEATH(sim.At(50, [] {}), "scheduling into the past");
}

TEST(SimulationDeathTest, AfterOverflowingTheClockIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulation sim;
  sim.At(100, [] {});
  sim.Run();
  EXPECT_DEATH(sim.After(std::numeric_limits<TimeNs>::max(), [] {}),
               "overflows the virtual clock");
}

TEST(SimulationDeathTest, DelayOverflowingTheClockIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulation sim;
  sim.At(100, [] {});
  sim.Run();
  TimeNs when = -1;
  sim.Spawn(DelayTask(std::numeric_limits<TimeNs>::max(), &when));
  EXPECT_DEATH(sim.Run(), "overflows the virtual clock");
}

TEST(SimulationTest, AfterClampsNegativeDelayToNow) {
  // Negative delays clamp to zero (same policy as Delay()): the callback
  // runs at the current instant, after already-queued same-time work.
  Simulation sim;
  std::vector<int> order;
  TimeNs ran_at = -1;
  sim.At(100, [&] {
    sim.After(-50, [&] {
      ran_at = sim.Now();
      order.push_back(2);
    });
    sim.At(100, [&] { order.push_back(1); });
  });
  sim.Run();
  EXPECT_EQ(ran_at, 100);
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(SimulationTest, LargeCallbackCapturesFallBackToHeap) {
  // SmallFn inlines captures up to its SBO size; larger ones go through
  // the heap path. Both must run correctly and destroy their captures.
  Simulation sim;
  std::array<uint64_t, 32> big{};  // 256 bytes, well past the inline buffer
  for (size_t i = 0; i < big.size(); ++i) big[i] = i * 3;
  uint64_t sum = 0;
  auto shared = std::make_shared<int>(7);  // destructor tracked by use_count
  std::weak_ptr<int> weak = shared;
  sim.At(10, [big, captured = std::move(shared), &sum] {
    for (uint64_t v : big) sum += v;
    sum += static_cast<uint64_t>(*captured);
  });
  sim.Run();
  EXPECT_EQ(sum, 3 * (31 * 32 / 2) + 7u);
  EXPECT_TRUE(weak.expired());  // capture destroyed after dispatch
}

TEST(SimulationTest, ManyInterleavedEventsStayTotallyOrdered) {
  // Stress the 4-ary heap: pushes interleaved with pops, duplicate
  // timestamps, and in-callback rescheduling must preserve the strict
  // (time, sequence) order.
  Simulation sim(7);
  std::vector<TimeNs> times;
  for (int i = 0; i < 2000; ++i) {
    TimeNs t = static_cast<TimeNs>(sim.rng().Uniform(500));
    sim.At(t, [&times, &sim] {
      times.push_back(sim.Now());
      if (times.size() % 3 == 0) sim.After(17, [] {});
    });
  }
  sim.Run();
  ASSERT_EQ(times.size(), 2000u);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

TEST(SimulationTest, DeterministicEventCount) {
  auto run = [] {
    Simulation sim(42);
    TimeNs t1 = 0, t2 = 0;
    sim.Spawn(DelayTask(100, &t1));
    sim.Spawn(DelayTask(200, &t2));
    for (int i = 0; i < 50; ++i) {
      sim.At(sim.rng().Uniform(1000), [] {});
    }
    sim.Run();
    return sim.executed_events();
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

Task<> Producer(Channel<int>* ch, int n, TimeNs gap) {
  for (int i = 0; i < n; ++i) {
    co_await Delay(gap);
    ch->Push(i);
  }
}

Task<> Consumer(Channel<int>* ch, int n, std::vector<int>* out) {
  for (int i = 0; i < n; ++i) {
    out->push_back(co_await ch->Pop());
  }
}

TEST(ChannelTest, FifoDelivery) {
  Simulation sim;
  Channel<int> ch;
  std::vector<int> got;
  sim.Spawn(Consumer(&ch, 5, &got));
  sim.Spawn(Producer(&ch, 5, 10));
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ChannelTest, PopBeforePushSuspends) {
  Simulation sim;
  Channel<int> ch;
  std::vector<int> got;
  sim.Spawn(Consumer(&ch, 1, &got));
  sim.RunFor(100);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(ch.waiter_count(), 1u);
  sim.Spawn(Producer(&ch, 1, 5));
  sim.Run();
  EXPECT_EQ(got.size(), 1u);
}

TEST(ChannelTest, TryPopNonBlocking) {
  Simulation sim;
  Channel<int> ch;
  EXPECT_FALSE(ch.TryPop().has_value());
  sim.At(0, [&] { ch.Push(9); });
  sim.Run();
  auto v = ch.TryPop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
}

TEST(ChannelTest, MultipleWaitersServedInOrder) {
  Simulation sim;
  Channel<int> ch;
  std::vector<int> firsts;
  auto waiter = [](Channel<int>* c, std::vector<int>* out,
                   int id) -> Task<> {
    int v = co_await c->Pop();
    out->push_back(id * 1000 + v);
  };
  sim.Spawn(waiter(&ch, &firsts, 1));
  sim.Spawn(waiter(&ch, &firsts, 2));
  sim.RunFor(1);
  sim.At(10, [&] {
    ch.Push(7);
    ch.Push(8);
  });
  sim.Run();
  // Oldest waiter gets the first value.
  EXPECT_EQ(firsts, (std::vector<int>{1007, 2008}));
}

// ---------------------------------------------------------------------------
// Completion / WaitGroup / Semaphore
// ---------------------------------------------------------------------------

TEST(CompletionTest, WaitAfterSetIsImmediate) {
  Simulation sim;
  Completion<int> c;
  int got = 0;
  sim.At(0, [&] { c.Set(5); });
  auto reader = [](Completion<int>* c, int* out) -> Task<> {
    *out = co_await c->Wait();
  };
  sim.At(10, [&] {});  // advance past the set
  sim.RunFor(5);
  sim.Spawn(reader(&c, &got));
  sim.Run();
  EXPECT_EQ(got, 5);
}

TEST(CompletionTest, WakesAllWaiters) {
  Simulation sim;
  Completion<int> c;
  int sum = 0;
  auto reader = [](Completion<int>* c, int* out) -> Task<> {
    *out += co_await c->Wait();
  };
  sim.Spawn(reader(&c, &sum));
  sim.Spawn(reader(&c, &sum));
  sim.Spawn(reader(&c, &sum));
  sim.RunFor(10);
  EXPECT_EQ(sum, 0);
  sim.At(sim.Now(), [&] { c.Set(3); });
  sim.Run();
  EXPECT_EQ(sum, 9);
}

TEST(WaitGroupTest, WaitsForAll) {
  Simulation sim;
  WaitGroup wg;
  bool done = false;
  wg.Add(3);
  auto waiter = [](WaitGroup* wg, bool* done) -> Task<> {
    co_await wg->Wait();
    *done = true;
  };
  sim.Spawn(waiter(&wg, &done));
  sim.At(10, [&] { wg.Done(); });
  sim.At(20, [&] { wg.Done(); });
  sim.RunFor(50);
  EXPECT_FALSE(done);
  sim.At(sim.Now(), [&] { wg.Done(); });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(WaitGroupTest, WaitOnZeroReturnsImmediately) {
  Simulation sim;
  WaitGroup wg;
  bool done = false;
  auto waiter = [](WaitGroup* wg, bool* done) -> Task<> {
    co_await wg->Wait();
    *done = true;
  };
  sim.Spawn(waiter(&wg, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

Task<> HoldSemaphore(Semaphore* sem, TimeNs hold, std::vector<TimeNs>* at) {
  co_await sem->Acquire();
  at->push_back(Simulation::Current()->Now());
  co_await Delay(hold);
  sem->Release();
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(2);
  std::vector<TimeNs> starts;
  for (int i = 0; i < 4; ++i) sim.Spawn(HoldSemaphore(&sem, 100, &starts));
  sim.Run();
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 0);
  EXPECT_EQ(starts[2], 100);
  EXPECT_EQ(starts[3], 100);
}

TEST(SemaphoreTest, ReleaseHandsPermitToOldestWaiter) {
  Simulation sim;
  Semaphore sem(1);
  std::vector<TimeNs> starts;
  sim.Spawn(HoldSemaphore(&sem, 10, &starts));
  sim.Spawn(HoldSemaphore(&sem, 10, &starts));
  sim.Spawn(HoldSemaphore(&sem, 10, &starts));
  sim.Run();
  EXPECT_EQ(starts, (std::vector<TimeNs>{0, 10, 20}));
  EXPECT_EQ(sem.available(), 1);
}

TEST(SemaphoreTest, GuardReleasesOnScopeExit) {
  Simulation sim;
  Semaphore sem(1);
  bool second_ran = false;
  auto holder = [](Semaphore* sem) -> Task<> {
    co_await sem->Acquire();
    SemaphoreGuard guard(sem);
    co_await Delay(50);
    // guard releases here
  };
  auto second = [](Semaphore* sem, bool* ran) -> Task<> {
    co_await sem->Acquire();
    *ran = true;
    sem->Release();
  };
  sim.Spawn(holder(&sem));
  sim.Spawn(second(&sem, &second_ran));
  sim.Run();
  EXPECT_TRUE(second_ran);
  EXPECT_EQ(sem.available(), 1);
}

/// Property: N producers and M consumers through one channel conserve
/// items and deliver deterministically for any (N, M).
class ChannelMpmcTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ChannelMpmcTest, ConservesItems) {
  auto [producers, consumers] = GetParam();
  Simulation sim(99);
  Channel<int> ch;
  int total = producers * 30;
  // Distribute consumption over consumers.
  std::vector<int> got;
  int per = total / consumers;
  int extra = total % consumers;
  for (int c = 0; c < consumers; ++c) {
    sim.Spawn(Consumer(&ch, per + (c < extra ? 1 : 0), &got));
  }
  for (int p = 0; p < producers; ++p) {
    sim.Spawn(Producer(&ch, 30, 3 + p));
  }
  sim.Run();
  EXPECT_EQ(got.size(), static_cast<size_t>(total));
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_EQ(ch.waiter_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChannelMpmcTest,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(1, 4),
                      std::make_pair(4, 1), std::make_pair(3, 3),
                      std::make_pair(8, 2)));

}  // namespace
}  // namespace dmrpc::sim
