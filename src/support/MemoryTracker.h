//===- support/MemoryTracker.h - Abstract-state memory accounting -*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-session work meter: the bytes held by abstract-domain data
/// structures (persistent map nodes, octagon matrices, decision trees) and
/// the octagon closures, split by discipline. The paper reports analyzer
/// memory consumption (550 Mb full / 150 Mb with packing optimization,
/// Sect. 8); benches E3/E5 reproduce the *shape* of those numbers using
/// this meter rather than OS-level RSS, which would be polluted by the host
/// allocator and the benchmark harness.
///
/// Metering is per Counter, never process-wide: noteAlloc/noteFree/
/// noteClosure feed the calling thread's ambient Counter and are no-ops
/// when none is installed. An AnalysisSession installs its own Counter
/// (CounterScope) for the duration of its analysis phases, and the
/// Scheduler re-installs the submitting thread's ambient counter on every
/// pool worker that runs the session's tasks. Concurrent sessions
/// (analyzeBatch files, daemon requests) therefore meter their own work —
/// the live figure the memory budget polls, the peak reported as
/// PeakAbstractBytes, the closure counts reported as
/// `analysis.octagon_closures_full` / `_incremental` — without reading each
/// other's, even when they share one cached domain registry.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SUPPORT_MEMORYTRACKER_H
#define ASTRAL_SUPPORT_MEMORYTRACKER_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace astral {
namespace memtrack {

/// One session's work meter. Thread-safe: pool workers running the
/// session's tasks feed the same counter. Live accounting is signed
/// internally — a session may free structures it adopted rather than
/// allocated (shared artifacts), so transient negative live figures clamp
/// to zero instead of wrapping.
class Counter {
public:
  void noteAlloc(size_t Bytes) {
    int64_t Now =
        Live.fetch_add(int64_t(Bytes), std::memory_order_relaxed) +
        int64_t(Bytes);
    int64_t Old = Peak.load(std::memory_order_relaxed);
    while (Now > Old &&
           !Peak.compare_exchange_weak(Old, Now, std::memory_order_relaxed)) {
    }
  }
  void noteFree(size_t Bytes) {
    Live.fetch_sub(int64_t(Bytes), std::memory_order_relaxed);
  }
  size_t liveBytes() const {
    int64_t V = Live.load(std::memory_order_relaxed);
    return V > 0 ? size_t(V) : 0;
  }
  size_t peakBytes() const {
    int64_t V = Peak.load(std::memory_order_relaxed);
    return V > 0 ? size_t(V) : 0;
  }
  /// Counts one octagon closure: a full Floyd-Warshall sweep, or an
  /// incremental dirty-row/column propagation.
  void noteClosure(bool IsIncremental) {
    (IsIncremental ? Incremental : Full)
        .fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t closuresFull() const {
    return Full.load(std::memory_order_relaxed);
  }
  uint64_t closuresIncremental() const {
    return Incremental.load(std::memory_order_relaxed);
  }
  /// Starts one execution attempt's figures: the high-water mark drops to
  /// the current live figure and the closure counts to zero.
  void resetRun() {
    Peak.store(Live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    Full.store(0, std::memory_order_relaxed);
    Incremental.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<int64_t> Live{0};
  std::atomic<int64_t> Peak{0};
  std::atomic<uint64_t> Full{0};
  std::atomic<uint64_t> Incremental{0};
};

/// The calling thread's ambient per-session counter, or null.
Counter *currentCounter();

/// Installs \p C as the calling thread's ambient counter for the scope's
/// lifetime (restores the previous one on exit). The Scheduler captures the
/// submitter's ambient counter per batch and installs it on every worker
/// running that batch's tasks, so a session's fan-out work meters into the
/// session's own counter.
class CounterScope {
public:
  explicit CounterScope(Counter *C);
  ~CounterScope();

  CounterScope(const CounterScope &) = delete;
  CounterScope &operator=(const CounterScope &) = delete;

private:
  Counter *Prev;
};

/// Records an allocation of \p Bytes owned by abstract state in the
/// ambient counter, when one is installed.
void noteAlloc(size_t Bytes);
/// Records a deallocation of \p Bytes owned by abstract state in the
/// ambient counter, when one is installed.
void noteFree(size_t Bytes);
/// Records one octagon closure in the ambient counter, when one is
/// installed.
void noteClosure(bool IsIncremental);

} // namespace memtrack
} // namespace astral

#endif // ASTRAL_SUPPORT_MEMORYTRACKER_H
