//===- analyzer/Scheduler.h - Execution policy for parallel work -*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-policy seam of the parallel analyzer (Monniaux, "The
/// parallel implementation of the Astrée static analyzer"): a Scheduler
/// turns an index space of independent tasks into work on one or more
/// threads. It is a persistent worker pool, reused across analysis phases
/// and across the files of a batch. The submitting thread participates in
/// the batch, so parallelFor(N, F) never deadlocks even when the pool is
/// saturated. Workers are woken one at a time: the submitter wakes one,
/// and each woken worker wakes the next while tasks remain unclaimed. A
/// one-thread Scheduler (the default, --jobs=1) spawns no worker and runs
/// every task inline, in index order.
///
/// Scheduler contract (what makes `--jobs=N` byte-identical to sequential):
///   - Tasks of one parallelFor must be independent: they may not mutate
///     shared state except through thread-safe sinks (Statistics,
///     MemoryTracker, atomic counters), and each task's result must depend
///     only on its index and on state that is read-only for the whole call.
///   - parallelFor returns only after every task completed. It makes no
///     ordering promise *during* the call; callers that need deterministic
///     output apply per-index results in index order afterwards.
///   - A task that throws: the first exception in *index order* is rethrown
///     from parallelFor after all tasks finished or were abandoned.
///   - Nested parallelFor (a task submitting to its own pool) runs inline on
///     the calling worker — no deadlock, same results.
///
/// The ambient scheduler is a per-thread slot (SchedulerScope) consulted by
/// the Iterator's trace-partition dispatch and the interference rounds
/// (runGroups), so the deep call paths need no plumbed-through parameter.
/// Worker threads have no ambient scheduler: nested dispatches run
/// sequentially inline.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_ANALYZER_SCHEDULER_H
#define ASTRAL_ANALYZER_SCHEDULER_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace astral {

class Scheduler {
public:
  /// \p Threads is the total concurrency including the submitting thread;
  /// the pool spawns Threads - 1 workers. Threads == 0 uses the hardware
  /// concurrency. Construction spawns the workers once; destruction joins
  /// them.
  explicit Scheduler(unsigned Threads);
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Number of threads that may run tasks concurrently (>= 1).
  unsigned concurrency() const { return NumThreads; }

  /// Runs F(0) .. F(N-1), possibly concurrently, returning when all are
  /// done. See the file comment for the independence/determinism contract.
  void parallelFor(size_t N, const std::function<void(size_t)> &F);

  /// The scheduler installed for the current thread by a SchedulerScope, or
  /// null (callers then run inline).
  static Scheduler *ambient();

  /// Whether the current thread is executing a pool task.
  /// Code that would install an ambient scheduler checks this first: a
  /// worker's nested parallelFor runs inline anyway, so staging work for
  /// it is pure overhead.
  static bool inWorkerTask();

  /// Resolves a --jobs request to the concurrency create() will use:
  /// 0 means "one worker per hardware thread"
  /// (std::thread::hardware_concurrency), everything is clamped to
  /// MaxThreads. Warns once per process on stderr when an explicit request
  /// oversubscribes the hardware — extra workers only add contention to the
  /// CPU-bound analysis stages (the request is honored regardless: the
  /// golden determinism suites deliberately run --jobs=8 on small hosts).
  static unsigned effectiveJobs(unsigned Jobs);

  /// The warn condition of effectiveJobs: an explicit request above the
  /// hardware thread count (0 can never oversubscribe). Exposed so tests
  /// can cover the condition without capturing stderr.
  static bool oversubscribes(unsigned Jobs);

  /// Builds the scheduler for effectiveJobs(\p Jobs) threads.
  static std::shared_ptr<Scheduler> create(unsigned Jobs);

  /// Whether runGroups(\p NumGroups, ...) called right now would fan the
  /// groups out concurrently: at least two groups, an ambient scheduler
  /// with real concurrency, and not already inside a pool task (a worker's
  /// nested parallelFor runs inline anyway). Dispatchers that must build
  /// per-group state *before* fanning out (the Iterator's partition
  /// workers) consult this so the eligibility test and the dispatch can
  /// never disagree.
  static bool wouldFanOut(size_t NumGroups);

  /// Grouped fan-out for the trace-partition dispatch and the thread rounds:
  /// runs F(0) .. F(NumGroups-1) — one independent work *group* each,
  /// carrying its own state (worker iteration context, thread run) —
  /// through the ambient scheduler when wouldFanOut holds, inline in index
  /// order otherwise. Callers apply the per-group results in deterministic
  /// order afterwards, exactly as with parallelFor slots. Returns whether
  /// the groups actually fanned out (the work-metering census of the
  /// dispatch counters).
  static bool runGroups(size_t NumGroups, const std::function<void(size_t)> &F);

  /// Upper bound on any pool's concurrency — a `@astral jobs` directive or
  /// --jobs flag cannot make the analyzer spawn an unbounded number of
  /// threads (std::thread construction failure would terminate).
  static constexpr unsigned MaxThreads = 256;

private:
  struct Batch;

  void workerMain();
  /// Claims and runs tasks of \p B until the index space is exhausted.
  static void runTasks(Batch &B);

  unsigned NumThreads;
  std::vector<std::thread> Workers;

  std::mutex Mu;
  std::condition_variable WorkReady;
  std::shared_ptr<Batch> Current; ///< Batch being executed, or null.
  uint64_t BatchSeq = 0;          ///< Bumped per submitted batch.
  bool ShuttingDown = false;
};

/// Installs \p S as the calling thread's ambient scheduler for the scope's
/// lifetime (restores the previous one on exit). Passing null simply
/// shadows any outer scope.
class SchedulerScope {
public:
  explicit SchedulerScope(Scheduler *S);
  ~SchedulerScope();

  SchedulerScope(const SchedulerScope &) = delete;
  SchedulerScope &operator=(const SchedulerScope &) = delete;

private:
  Scheduler *Prev;
};

} // namespace astral

#endif // ASTRAL_ANALYZER_SCHEDULER_H
