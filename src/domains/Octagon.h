//===- domains/Octagon.h - Octagon abstract domain ---------------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The octagon abstract domain of Sect. 6.2.2 (Miné, "The octagon abstract
/// domain", WCRE 2001): conjunctions of constraints +/-x +/-y <= c over a
/// small pack of variables, O(k^3) time / O(k^2) space in the pack size.
///
/// Following the paper's two-step recipe for floating point, the domain
/// itself is sound for *real-valued* variables; rounding is accounted for
/// before the octagon sees an expression, by the linearizer (Sect. 6.3).
/// Internally bounds are doubles and every internal addition rounds up,
/// which keeps the abstract operations sound despite the float
/// representation (the second half of the recipe).
///
/// Encoding (standard DBM over 2k nodes): node 2i is +v_i, node 2i+1 is
/// -v_i, and M[p][q] is an upper bound on x_p - x_q. Hence
///   v_i - v_j <= c  ->  M[2i][2j]   = c
///   v_i + v_j <= c  ->  M[2i][2j+1] = c
///  -v_i - v_j <= c  ->  M[2i+1][2j] = c
///   v_i <= c        ->  M[2i][2i+1] = 2c
///   v_i >= c        ->  M[2i+1][2i] = -2c
///
/// Closure discipline: every tightening records the touched variables in a
/// dirty-set, and close() — the single cached entry point every
/// closure-requiring consumer goes through — restores strong closure either
/// by the full Floyd-Warshall sweep (O((2k)^3)) or, in incremental mode, by
/// propagating shortest paths only through the dirty rows/columns
/// (O(d * (2k)^2) for d dirty variables, Miné's incremental closure
/// generalized to a dirty-set). Both algorithms compute the same canonical
/// strong closure; which one ran is metered separately (into the session's
/// memtrack::Counter) so a run's full-sweep count measures the discipline,
/// not the demand.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_DOMAINS_OCTAGON_H
#define ASTRAL_DOMAINS_OCTAGON_H

#include "domains/Interval.h"
#include "domains/LinearForm.h"
#include "support/MemoryTracker.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace astral {

class Thresholds;

/// How Octagon::close() restores strong closure after tightenings: a full
/// Floyd-Warshall sweep every time, or incrementally through the dirty
/// rows/columns when only a few variables were touched. The analyzer always
/// builds incremental octagons; Full is the reference algorithm the
/// differential suite (tests/test_octagon.cpp) and the closure-by-size
/// micro-benchmarks (bench/bench_octagon_cost.cpp) compare against.
enum class OctClosureMode : uint8_t {
  Full,
  Incremental,
};

class Octagon {
public:
  /// Creates the top octagon over \p Cells (the pack, <= 16 variables).
  /// \p Mode picks the closure algorithm. Every closure is metered into the
  /// calling thread's ambient memtrack::Counter (the session's work meter).
  explicit Octagon(std::vector<CellId> Cells,
                   OctClosureMode Mode = OctClosureMode::Incremental);
  ~Octagon();
  Octagon(const Octagon &O);
  Octagon &operator=(const Octagon &) = delete;

  const std::vector<CellId> &cells() const { return Vars; }
  size_t size() const { return Vars.size(); }
  /// Index of \p Cell in the pack, or -1. Binary search over a sorted
  /// (cell, index) table — this runs once per transfer per pack.
  int indexOf(CellId Cell) const;

  bool isBottom() const;

  /// Strong closure (shortest-path propagation + strengthening); idempotent
  /// and cached — the one entry point consumers demand closure through.
  /// In incremental mode, propagates only through the rows/columns of the
  /// variables dirtied since the last closure. Returns false when the
  /// octagon is empty.
  bool close();
  bool isClosed() const { return Closed; }

  // -- Lattice ----------------------------------------------------------
  bool leq(const Octagon &O) const;    ///< Requires *this closed.
  void joinWith(const Octagon &O);     ///< Requires both closed.
  void meetWith(const Octagon &O);
  void widenWith(const Octagon &O, const Thresholds &T,
                 bool WithThresholds = true);
  void narrowWith(const Octagon &O);
  /// Representation-insensitive equality: a closed and a non-closed DBM of
  /// the same set compare equal (both sides are normalized via closure when
  /// the raw matrices differ).
  bool equal(const Octagon &O) const;

  // -- Transfer functions ------------------------------------------------
  /// Removes all constraints on \p Idx (pack index). Indirect constraints
  /// are preserved first: free when the DBM is closed, and otherwise by the
  /// incremental single-variable closure that only propagates paths
  /// through the dirty (in particular, the dropped) rows/columns.
  void forget(int Idx);
  /// v_idx := form, where form is a linear form over cells; pack-external
  /// cells contribute through \p CellRange (their current interval). Exact
  /// for the octagonal shapes +/-w + [a,b]; otherwise falls back to
  /// interval-bounded constraints against every pack variable (the
  /// "smart" transfer of Sect. 6.2.2).
  void assign(int Idx, const LinearForm &Form,
              const std::function<Interval(CellId)> &CellRange);
  /// Refines by the constraint (form <= 0). Only octagonal shapes refine;
  /// others are ignored (sound).
  void guardLe(const LinearForm &Form,
               const std::function<Interval(CellId)> &CellRange);

  // -- Reductions --------------------------------------------------------
  /// Interval of v_idx implied by the (closed) octagon.
  Interval varInterval(int Idx) const;
  /// Tightens v_idx with an externally known interval.
  void meetVarInterval(int Idx, const Interval &I);
  /// Upper bound of a linear form over the (closed) octagon, using pairwise
  /// constraints for unit-coefficient term pairs and unary bounds plus
  /// \p CellRange for the rest.
  double formUpperBound(const LinearForm &Form,
                        const std::function<Interval(CellId)> &CellRange)
      const;

  /// True when some binary (two-variable) constraint is strictly tighter
  /// than the unary bounds imply — used by the pack-usefulness optimization
  /// of Sect. 7.2.2.
  bool hasRelationalInfo() const;
  /// Whether one DBM entry carries information beyond the unary bounds.
  bool entryIsInformative(int P, int Q) const;
  /// Counts finite additive (x+y) and subtractive (x-y) constraints, for the
  /// invariant census (Sect. 9.4.1).
  void countConstraints(uint64_t &Additive, uint64_t &Subtractive) const;

  std::string toString() const;

  size_t byteSize() const { return M.size() * sizeof(double); }

private:
  double &at(int P, int Q) { return M[static_cast<size_t>(P) * N + Q]; }
  double at(int P, int Q) const { return M[static_cast<size_t>(P) * N + Q]; }
  void setBound(int P, int Q, double C) {
    double &Slot = at(P, Q);
    if (C < Slot) {
      Slot = C;
      markDirty(P, Q);
    }
  }
  /// Records that the entry (P, Q) was tightened: both endpoint variables
  /// go into the pivot dirty-set, so close() can restrict shortest-path
  /// propagation to their rows/columns.
  void markDirty(int P, int Q) {
    PivotDirty |= (1u << (P >> 1)) | (1u << (Q >> 1));
    Closed = false;
  }
  /// Invalidates closure entirely (widening, arbitrary meets).
  void markAllDirty() {
    PivotDirty = allDirtyMask();
    StarDirty = 0;
    Closed = false;
  }
  uint32_t allDirtyMask() const {
    return (1u << Vars.size()) - 1u;
  }
  /// One Floyd-Warshall pivot: relaxes every (I, J) through node K.
  void propagateThrough(int K);
  /// One relaxation round of column \p C / row \p R against the rest of
  /// the matrix (min-plus product) — completes a star-dirty variable's
  /// row/column before its nodes are pivoted.
  void relaxColumn(int C);
  void relaxRow(int R);
  /// Strengthening + diagonal check shared by both closure algorithms;
  /// records the strengthening fan's vertex cover as the next closure's
  /// carried star-dirty work.
  bool finishClosure();
  /// v := v + [a, b] (in-place shift, no closure lost).
  void shiftVar(int Idx, const Interval &Delta);

  std::vector<CellId> Vars;
  /// (cell, pack index) sorted by cell id, for the indexOf binary search.
  std::vector<std::pair<CellId, int>> Lookup;
  int N; ///< 2 * Vars.size().
  std::vector<double> M;
  /// Variables whose rows/columns hold tightenings incident to them on
  /// *both* endpoints (guards, unary meets): restoring closure needs a
  /// Floyd-Warshall pivot at their two nodes.
  uint32_t PivotDirty = 0;
  /// Variables whose rows/columns hold star-shaped tightenings — incident
  /// to the variable on *at least one* endpoint (the smart assignment's
  /// rebuilt row/column, the strengthening fan of the previous closure):
  /// restoring closure needs a row/column relaxation plus the pivot.
  uint32_t StarDirty = 0;
  bool Closed = false;
  bool Empty = false;
  OctClosureMode Mode;
};

} // namespace astral

#endif // ASTRAL_DOMAINS_OCTAGON_H
