//===- tests/test_scheduler.cpp - Scheduler / thread-pool tests -----------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). The Scheduler is the execution-
// policy seam of the parallel analyzer; these tests pin its contract:
// every index runs exactly once, exceptions surface deterministically
// (first by index), nested parallelFor runs inline without deadlock, and
// one pool is reusable across many phases.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Scheduler.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

using namespace astral;

TEST(SchedulerPool, OneThreadRunsInlineInIndexOrder) {
  Scheduler S(1);
  EXPECT_EQ(S.concurrency(), 1u);
  std::vector<size_t> Order;
  const std::thread::id Caller = std::this_thread::get_id();
  S.parallelFor(5, [&](size_t I) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Order.push_back(I);
  });
  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(SchedulerFactory, JobsSizeThePool) {
  EXPECT_EQ(Scheduler::create(1)->concurrency(), 1u);
  EXPECT_EQ(Scheduler::create(3)->concurrency(), 3u);
  // 0 = hardware concurrency (whatever it is, at least one thread).
  EXPECT_GE(Scheduler::create(0)->concurrency(), 1u);
}

TEST(SchedulerPool, EveryIndexRunsExactlyOnce) {
  Scheduler Pool(4);
  EXPECT_EQ(Pool.concurrency(), 4u);
  const size_t N = 10000;
  std::vector<std::atomic<unsigned>> Ran(N);
  Pool.parallelFor(N, [&](size_t I) {
    Ran[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Ran[I].load(), 1u) << "index " << I;
}

TEST(SchedulerPool, WakeUpsReachEveryWorker) {
  // Workers wake one another in a chain; a batch with a task per thread
  // must still run on all of them at once. Each task waits (boundedly)
  // until every task has started.
  Scheduler Pool(4);
  const size_t N = Pool.concurrency();
  for (int Round = 0; Round < 20; ++Round) {
    std::atomic<size_t> Started{0};
    std::atomic<size_t> SawAll{0};
    Pool.parallelFor(N, [&](size_t) {
      Started.fetch_add(1);
      auto Deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (Started.load() < N && std::chrono::steady_clock::now() < Deadline)
        std::this_thread::yield();
      if (Started.load() == N)
        SawAll.fetch_add(1);
    });
    ASSERT_EQ(SawAll.load(), N) << "round " << Round;
  }
}

TEST(SchedulerPool, EmptyAndSingletonSpans) {
  Scheduler Pool(4);
  std::atomic<size_t> Count{0};
  Pool.parallelFor(0, [&](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 0u);
  Pool.parallelFor(1, [&](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 1u);
}

TEST(SchedulerPool, ExceptionsPropagate) {
  Scheduler Pool(4);
  EXPECT_THROW(
      Pool.parallelFor(100,
                       [&](size_t I) {
                         if (I % 7 == 3)
                           throw std::runtime_error("task failed");
                       }),
      std::runtime_error);
}

TEST(SchedulerPool, FirstErrorByIndexWins) {
  Scheduler Pool(4);
  // Several tasks throw; the surfaced exception must be the smallest
  // index's, independent of thread timing.
  for (int Round = 0; Round < 20; ++Round) {
    try {
      Pool.parallelFor(64, [&](size_t I) {
        if (I >= 5 && I % 2 == 1)
          throw std::runtime_error("idx" + std::to_string(I));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error &E) {
      EXPECT_STREQ(E.what(), "idx5");
    }
  }
}

TEST(SchedulerPool, PoolStaysUsableAfterException) {
  Scheduler Pool(4);
  EXPECT_THROW(Pool.parallelFor(
                   8, [](size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<size_t> Sum{0};
  Pool.parallelFor(100, [&](size_t I) { Sum.fetch_add(I + 1); });
  EXPECT_EQ(Sum.load(), 5050u);
}

TEST(SchedulerPool, NestedParallelForRunsInline) {
  Scheduler Pool(4);
  const size_t Outer = 16, Inner = 32;
  std::vector<std::atomic<unsigned>> Ran(Outer * Inner);
  Pool.parallelFor(Outer, [&](size_t O) {
    // A task submitting to its own pool must not deadlock: the nested
    // span runs inline on this worker.
    Pool.parallelFor(Inner, [&](size_t I) {
      Ran[O * Inner + I].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t I = 0; I < Outer * Inner; ++I)
    ASSERT_EQ(Ran[I].load(), 1u) << "slot " << I;
}

TEST(SchedulerPool, ReusedAcrossManyPhases) {
  Scheduler Pool(3);
  uint64_t Expected = 0;
  std::atomic<uint64_t> Total{0};
  for (size_t Phase = 0; Phase < 200; ++Phase) {
    size_t N = Phase % 17; // Exercise empty and tiny spans too.
    Pool.parallelFor(N, [&](size_t I) { Total.fetch_add(I + Phase); });
    for (size_t I = 0; I < N; ++I)
      Expected += I + Phase;
  }
  EXPECT_EQ(Total.load(), Expected);
}

TEST(SchedulerScope, InstallsAndRestoresAmbient) {
  EXPECT_EQ(Scheduler::ambient(), nullptr);
  Scheduler A(1), B(1);
  {
    SchedulerScope SA(&A);
    EXPECT_EQ(Scheduler::ambient(), &A);
    {
      SchedulerScope SB(&B);
      EXPECT_EQ(Scheduler::ambient(), &B);
    }
    EXPECT_EQ(Scheduler::ambient(), &A);
  }
  EXPECT_EQ(Scheduler::ambient(), nullptr);
}

TEST(SchedulerScope, WorkersHaveNoAmbientScheduler) {
  Scheduler Pool(4);
  SchedulerScope Scope(&Pool);
  std::atomic<int> Violations{0};
  Pool.parallelFor(64, [&](size_t) {
    // The submitting thread sees its ambient scheduler; pool workers see
    // none (nested dispatches run sequentially inline there).
    Scheduler *S = Scheduler::ambient();
    if (S != nullptr && S != &Pool)
      Violations.fetch_add(1);
  });
  EXPECT_EQ(Violations.load(), 0);
}
