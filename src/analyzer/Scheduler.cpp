//===- analyzer/Scheduler.cpp - Execution policy for parallel work ----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "analyzer/Scheduler.h"

#include "support/FaultInjection.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

using namespace astral;

namespace {
/// Set while the current thread executes tasks of some pool batch; nested
/// parallelFor calls on this thread run inline instead of re-submitting.
thread_local bool InsidePoolTask = false;
} // namespace

bool Scheduler::inWorkerTask() { return InsidePoolTask; }

static unsigned hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

bool Scheduler::oversubscribes(unsigned Jobs) {
  return Jobs > hardwareThreads();
}

unsigned Scheduler::effectiveJobs(unsigned Jobs) {
  if (oversubscribes(Jobs)) {
    static std::atomic<bool> Warned{false};
    if (!Warned.exchange(true, std::memory_order_relaxed))
      std::fprintf(stderr,
                   "astral: warning: --jobs=%u exceeds the %u hardware "
                   "thread%s; extra workers only add contention\n",
                   Jobs, hardwareThreads(),
                   hardwareThreads() == 1 ? "" : "s");
  }
  unsigned N = Jobs ? Jobs : hardwareThreads();
  return std::min(N, MaxThreads);
}

std::shared_ptr<Scheduler> Scheduler::create(unsigned Jobs) {
  return std::make_shared<Scheduler>(effectiveJobs(Jobs));
}

//===----------------------------------------------------------------------===//
// The pool
//===----------------------------------------------------------------------===//

/// One parallelFor invocation: a shared index space claimed with an atomic
/// cursor, a completion count, and the first-by-index task exception.
struct Scheduler::Batch {
  size_t N = 0;
  const std::function<void(size_t)> *F = nullptr;
  /// The submitting thread's ambient per-session memory counter: workers
  /// running this batch's tasks re-install it, so a session's fanned-out
  /// abstract-state allocations meter into the session's own counter
  /// rather than whichever session a worker last served.
  memtrack::Counter *Mem = nullptr;

  std::atomic<size_t> Next{0};    ///< Next unclaimed index.
  std::atomic<size_t> Done{0};    ///< Tasks finished (ran or abandoned).

  std::mutex Mu;
  std::condition_variable AllDone;
  std::exception_ptr FirstError;  ///< Of the smallest failing index.
  size_t FirstErrorIndex = ~size_t(0);
};

Scheduler::Scheduler(unsigned Threads)
    : NumThreads(std::min(MaxThreads, Threads ? Threads : hardwareThreads())) {
  for (unsigned I = 1; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerMain(); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> L(Mu);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void Scheduler::runTasks(Batch &B) {
  bool SavedInside = InsidePoolTask;
  InsidePoolTask = true;
  memtrack::CounterScope MemScope(B.Mem);
  for (;;) {
    size_t I = B.Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= B.N)
      break;
    try {
      faultinject::fire("scheduler-worker");
      (*B.F)(I);
    } catch (...) {
      std::lock_guard<std::mutex> L(B.Mu);
      // Keep the exception of the smallest index, so which error surfaces
      // does not depend on thread timing.
      if (I < B.FirstErrorIndex) {
        B.FirstErrorIndex = I;
        B.FirstError = std::current_exception();
      }
    }
    if (B.Done.fetch_add(1, std::memory_order_acq_rel) + 1 == B.N) {
      std::lock_guard<std::mutex> L(B.Mu);
      B.AllDone.notify_all();
    }
  }
  InsidePoolTask = SavedInside;
}

void Scheduler::workerMain() {
  uint64_t SeenSeq = 0;
  for (;;) {
    std::shared_ptr<Batch> B;
    {
      std::unique_lock<std::mutex> L(Mu);
      WorkReady.wait(L, [&] {
        return ShuttingDown || (Current && BatchSeq != SeenSeq);
      });
      if (ShuttingDown)
        return;
      SeenSeq = BatchSeq;
      B = Current;
    }
    // Pass the wake-up on: one unclaimed task is this worker's, and if a
    // second is left, the next sleeping worker gets it.
    if (B->Next.load(std::memory_order_relaxed) + 1 < B->N)
      WorkReady.notify_one();
    runTasks(*B);
  }
}

void Scheduler::parallelFor(size_t N,
                                      const std::function<void(size_t)> &F) {
  if (N == 0)
    return;
  // Nested submission (a task of this or another pool) and trivial spans run
  // inline: same results, no cross-batch deadlock.
  if (InsidePoolTask || N == 1 || NumThreads == 1) {
    for (size_t I = 0; I < N; ++I)
      F(I);
    return;
  }

  auto B = std::make_shared<Batch>();
  B->N = N;
  B->F = &F;
  B->Mem = memtrack::currentCounter();
  {
    std::lock_guard<std::mutex> L(Mu);
    Current = B;
    ++BatchSeq;
  }
  // Wake one worker; it passes the wake-up on while tasks are left over
  // (workerMain). A batch of short tasks, most of which the submitter runs
  // before a worker is up, then costs one wake-up instead of one per
  // worker, each an interprocessor interrupt sent from the submitter's CPU.
  WorkReady.notify_one();

  // The submitting thread works too, then blocks until stragglers finish.
  runTasks(*B);
  // The error leaves the batch under its lock: a worker may still hold the
  // last reference to the batch, and must not be the one that releases the
  // exception the caller is handling.
  std::exception_ptr Error;
  {
    std::unique_lock<std::mutex> L(B->Mu);
    B->AllDone.wait(L, [&] {
      return B->Done.load(std::memory_order_acquire) == B->N;
    });
    Error = std::move(B->FirstError);
  }
  {
    std::lock_guard<std::mutex> L(Mu);
    if (Current == B)
      Current = nullptr;
  }
  if (Error)
    std::rethrow_exception(Error);
}
