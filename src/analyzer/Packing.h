//===- analyzer/Packing.h - Variable packing for relational domains -*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parametrized packing (Sect. 7.2): relational domains are applied to small
/// packs of variables determined syntactically before the analysis.
///  - Octagon packs (7.2.1): one pack per syntactic block, containing the
///    variables appearing in linear assignments or tests directly within
///    that block.
///  - Decision-tree packs (7.2.3): tentative packs link booleans assigned
///    from numeric conditions with those numerics; packs are confirmed when
///    the numeric is used in a branch controlled by the boolean; boolean
///    copies extend packs (bounded by MaxBoolsPerTreePack).
///  - Ellipsoid packs (6.2.3): detected from assignments matching the
///    second-order filter shape a*X - b*Y + t with stable (a, b).
/// The pack-usefulness optimization (7.2.2) is supported by restricting the
/// octagon packs to a list produced by a previous run.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_ANALYZER_PACKING_H
#define ASTRAL_ANALYZER_PACKING_H

#include "analyzer/Options.h"
#include "domains/Ellipsoid.h"
#include "memory/Cell.h"

#include <vector>

namespace astral {

using memory::PackId;

struct OctPack {
  PackId Id = 0;
  std::vector<CellId> Cells; ///< Sorted, unique.
};

struct TreePack {
  PackId Id = 0;
  std::vector<CellId> Bools; ///< Sorted (the decision order, 6.2.4).
  std::vector<CellId> Nums;
  bool Confirmed = false;
};

struct EllPack {
  PackId Id = 0;
  FilterParams Params;
  std::vector<CellId> Cells; ///< Filter site variables (X', X, Y).
};

class Packing {
public:
  /// Determines all packs for \p P ("packs are determined once and for all,
  /// before the analysis starts").
  static Packing build(const ir::Program &P, const memory::CellLayout &Layout,
                       const AnalyzerOptions &Opts);

  std::vector<OctPack> OctPacks;
  std::vector<TreePack> TreePacks;
  std::vector<EllPack> EllPacks;

  /// Cell -> packs containing it.
  std::vector<std::vector<PackId>> CellOct;
  std::vector<std::vector<PackId>> CellTree;
  std::vector<std::vector<PackId>> CellEll;

  /// Resolves an lvalue with an all-constant path to its cell (NoCell when
  /// dynamic, by-reference, shrunk or unused). Exposed for tests.
  static CellId constCellOf(const ir::Program &P,
                            const memory::CellLayout &Layout,
                            const ir::LValue &Lv);

private:
  void index(size_t NumCells);
};

} // namespace astral

#endif // ASTRAL_ANALYZER_PACKING_H
