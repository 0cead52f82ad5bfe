//===- support/MemoryTracker.h - Abstract-state memory accounting -*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts the bytes held by abstract-domain data structures (persistent map
/// nodes, octagon matrices, decision trees). The paper reports analyzer
/// memory consumption (550 Mb full / 150 Mb with packing optimization,
/// Sect. 8); benches E3/E5 reproduce the *shape* of those numbers using this
/// tracker rather than OS-level RSS, which would be polluted by the host
/// allocator and the benchmark harness.
///
/// Accounting is per Counter, never process-wide: noteAlloc/noteFree feed
/// the calling thread's ambient Counter and are no-ops when none is
/// installed. An AnalysisSession installs its own Counter (CounterScope)
/// for the duration of its analysis phases, and the Scheduler re-installs
/// the submitting thread's ambient counter on every pool worker that runs
/// the session's tasks. Concurrent sessions (analyzeBatch files, daemon
/// requests) therefore meter their own abstract-state bytes — the live
/// figure the memory budget polls and the peak reported as
/// PeakAbstractBytes — without reading each other's.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SUPPORT_MEMORYTRACKER_H
#define ASTRAL_SUPPORT_MEMORYTRACKER_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace astral {
namespace memtrack {

/// One session's abstract-state byte meter. Thread-safe: pool workers
/// running the session's tasks feed the same counter. Live accounting is
/// signed internally — a session may free structures it adopted rather than
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
  /// Resets the high-water mark to the current live figure.
  void resetPeak() {
    Peak.store(Live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  }

private:
  std::atomic<int64_t> Live{0};
  std::atomic<int64_t> Peak{0};
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

} // namespace memtrack
} // namespace astral

#endif // ASTRAL_SUPPORT_MEMORYTRACKER_H
