//===- analyzer/ExecutionContext.h - Read-only execution tables --*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The read-only inputs of one abstract-execution attempt, built once and
/// shared by reference by the Iterator, its partition workers, the Transfer
/// and the interference rounds. The paper fixes the widening thresholds
/// before iterating (Sect. 7.1.2) and the packs before the analysis starts
/// (Sect. 7.2); the per-cell ranges and per-function locals are fixed by
/// the program and its specification just the same. Every run keeps only
/// the state it writes: mode, frames, alarm sink, pack-usefulness flags.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_ANALYZER_EXECUTIONCONTEXT_H
#define ASTRAL_ANALYZER_EXECUTIONCONTEXT_H

#include "analyzer/DomainRegistry.h"
#include "analyzer/Options.h"
#include "domains/Thresholds.h"
#include "ir/Ir.h"
#include "memory/Cell.h"

#include <vector>

namespace astral {

/// Machine range of a scalar type (the alarm clamping target).
Interval typeRange(const Type *Ty);

struct ExecutionContext {
  /// Builds every table below — the one place they are computed.
  ExecutionContext(const ir::Program &P, const memory::CellLayout &Layout,
                   const DomainRegistry &Reg, const AnalyzerOptions &Opts);
  /// Shared by reference only: the tables are never copied.
  ExecutionContext(const ExecutionContext &) = delete;

  const ir::Program &P;
  const memory::CellLayout &Layout;
  const DomainRegistry &Reg;
  const AnalyzerOptions &Opts;

  /// The widening ladder: the geometric thresholds plus the user's values,
  /// the clock bound, the volatile input bounds and the guard constants.
  Thresholds Thr;
  std::vector<Interval> CellRange;   ///< Machine range per cell.
  std::vector<Interval> VolatileRng; ///< Input range per volatile cell.
  /// Cells of each function's non-parameter locals (havocked at entry).
  std::vector<std::vector<CellId>> FuncLocalCells;
};

} // namespace astral

#endif // ASTRAL_ANALYZER_EXECUTIONCONTEXT_H
