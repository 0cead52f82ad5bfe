//===- concurrency/Interference.h - Shared-cell interference ------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flow-insensitive interference abstraction of Miné's "Static Analysis
/// of Run-Time Errors in Embedded Real-Time Parallel C Programs": for every
/// shared memory cell and every thread, the interval of values the thread may
/// write (joined over all its stores), plus the read/write access footprint
/// used by the data-race detector. A per-thread analysis consumes the rival
/// threads' write intervals at every shared-cell load and produces its own
/// recordings; ConcurrentAnalysis iterates the per-thread analyses until the
/// map stabilizes.
///
/// The map is a join-semilattice (per-cell interval join, access-bit or), so
/// accumulation is monotone and the fixpoint rounds terminate; a widening
/// jumps still-growing write intervals to the cell's machine range after a
/// few rounds, bounding the chain height.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_CONCURRENCY_INTERFERENCE_H
#define ASTRAL_CONCURRENCY_INTERFERENCE_H

#include "domains/Interval.h"
#include "memory/Cell.h"
#include "support/SourceLocation.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace astral {
namespace concurrency {

/// One thread's accumulated accesses to one shared cell. The alarm anchors
/// keep the *smallest* (point, location) that performed the access, so the
/// data-race report is independent of the order recordings arrive in (trace
/// partitions of one thread record concurrently).
struct ThreadAccess {
  bool Read = false;
  bool Written = false;
  /// Join of every value the thread may store into the cell.
  Interval Writes = Interval::bottom();
  uint32_t WritePoint = 0;
  SourceLocation WriteLoc;
  uint32_t ReadPoint = 0;
  SourceLocation ReadLoc;

  /// Folds \p O into this access (interval join, min-anchor). Returns true
  /// when anything grew — the fixpoint's change detector.
  bool joinInPlace(const ThreadAccess &O);

  bool operator==(const ThreadAccess &O) const {
    return Read == O.Read && Written == O.Written && Writes == O.Writes;
  }
};

/// A thread's interference contribution: shared cell -> accumulated access.
using ThreadInterference = std::map<memory::CellId, ThreadAccess>;

/// The interference map: one ThreadInterference per declared thread. All
/// mutation is monotone (join), so iterating per-thread analyses against a
/// snapshot and folding their recordings back reaches the same fixpoint in
/// any schedule — what keeps reports byte-identical across --jobs.
class InterferenceMap {
public:
  explicit InterferenceMap(size_t NumThreads) : Threads(NumThreads) {}

  const ThreadInterference &thread(size_t T) const { return Threads[T]; }

  /// Folds \p Delta into thread \p T's component. Returns true on growth.
  bool joinInPlace(size_t T, const ThreadInterference &Delta);

  bool equal(const InterferenceMap &O) const;

  /// Widening against the previous round: any write interval of this map
  /// that strictly grew past \p Prev jumps to the cell's machine range
  /// (\p CellRange, indexed by CellId) — the finite-height cap that
  /// guarantees the rounds terminate even on counters racing upward.
  void widenWrites(const InterferenceMap &Prev,
                   const std::vector<Interval> &CellRange);

  /// Join of every *other* thread's write interval for \p C — the value a
  /// load of \p C in thread \p T must additionally account for. Bottom when
  /// no rival writes the cell.
  Interval rivalWrites(size_t T, memory::CellId C) const;

  /// Distinct shared cells written by at least one thread
  /// (`concurrency.interference_cells`).
  size_t interferenceCells() const;

private:
  std::vector<ThreadInterference> Threads;
};

/// Mutex-guarded recording sink for one thread's analysis run. Partition
/// workers of the same thread record concurrently; joins are commutative and
/// idempotent, so the accumulated result is schedule-independent.
class InterferenceRecorder {
public:
  void recordRead(memory::CellId C, uint32_t Point, SourceLocation Loc);
  void recordWrite(memory::CellId C, const Interval &V, uint32_t Point,
                   SourceLocation Loc);

  /// Moves the recordings out (end of one per-thread run).
  ThreadInterference take();

private:
  std::mutex Mu;
  ThreadInterference Rec;
};

/// The per-thread analysis context Transfer consults on every shared-cell
/// access: which thread this is, the interference snapshot to read rival
/// writes from, the recorder to feed, and the shared-cell predicate.
struct ThreadContext {
  size_t ThreadIndex = 0;
  const InterferenceMap *In = nullptr;
  InterferenceRecorder *Out = nullptr;
  /// Indexed by CellId; non-zero for cells visible to several threads
  /// (persistent, non-volatile).
  const std::vector<uint8_t> *SharedCell = nullptr;

  bool isShared(memory::CellId C) const {
    return SharedCell && C < SharedCell->size() && (*SharedCell)[C];
  }
};

} // namespace concurrency
} // namespace astral

#endif // ASTRAL_CONCURRENCY_INTERFERENCE_H
