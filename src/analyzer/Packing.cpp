//===- analyzer/Packing.cpp - Variable packing for relational domains -------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "analyzer/Packing.h"

#include <algorithm>
#include <map>
#include <set>

using namespace astral;
using namespace astral::ir;
using memory::CellLayout;
using memory::NoCell;
using memory::ResolvedAccess;

CellId Packing::constCellOf(const Program &P, const CellLayout &Layout,
                            const LValue &Lv) {
  if (Lv.Base == NoVar || Lv.Base >= P.Vars.size())
    return NoCell;
  const memory::LayoutNode *Node = Layout.varLayout(Lv.Base);
  if (!Node)
    return NoCell;
  std::vector<ResolvedAccess> Path;
  for (const Access &A : Lv.Path) {
    switch (A.K) {
    case Access::Kind::Deref:
      return NoCell; // Reference parameters have no static cells.
    case Access::Kind::Field: {
      ResolvedAccess R;
      R.K = ResolvedAccess::Kind::Field;
      R.FieldIdx = A.FieldIdx;
      Path.push_back(R);
      break;
    }
    case Access::Kind::Index: {
      if (!A.Index || A.Index->Kind != ExprKind::ConstInt)
        return NoCell;
      ResolvedAccess R;
      R.K = ResolvedAccess::Kind::Index;
      R.Idx = Interval::point(static_cast<double>(A.Index->IntVal));
      Path.push_back(R);
      break;
    }
    }
  }
  memory::CellSel Sel = Layout.resolve(Node, Path);
  if (Sel.Count != 1 || !Sel.Strong)
    return NoCell;
  return Sel.First;
}

namespace {

/// Collects the cells of loads in a *linear* expression (built from +, -,
/// multiplication/division by constants, casts, loads and constants).
/// Returns false when the expression is not linear.
bool collectLinearCells(const Program &P, const CellLayout &Layout,
                        const Expr *E, std::vector<CellId> &Out) {
  if (!E)
    return false;
  switch (E->Kind) {
  case ExprKind::ConstInt:
  case ExprKind::ConstFloat:
    return true;
  case ExprKind::Load: {
    CellId C = Packing::constCellOf(P, Layout, E->Lv);
    if (C == NoCell)
      return false;
    Out.push_back(C);
    return true;
  }
  case ExprKind::Cast:
    return collectLinearCells(P, Layout, E->A, Out);
  case ExprKind::Unary:
    if (E->UO != UnOp::Neg)
      return false;
    return collectLinearCells(P, Layout, E->A, Out);
  case ExprKind::Binary:
    switch (E->BO) {
    case BinOp::Add:
    case BinOp::Sub:
      return collectLinearCells(P, Layout, E->A, Out) &&
             collectLinearCells(P, Layout, E->B, Out);
    case BinOp::Mul:
      if (E->A->isConst())
        return collectLinearCells(P, Layout, E->B, Out);
      if (E->B->isConst())
        return collectLinearCells(P, Layout, E->A, Out);
      return false;
    case BinOp::Div:
      if (E->B->isConst())
        return collectLinearCells(P, Layout, E->A, Out);
      return false;
    default:
      return false;
    }
  }
  return false;
}

/// Collects cells from the comparison leaves of a condition.
void collectTestCells(const Program &P, const CellLayout &Layout,
                      const Expr *E, std::vector<CellId> &Out) {
  if (!E)
    return;
  switch (E->Kind) {
  case ExprKind::Binary:
    if (E->BO == BinOp::LogicalAnd || E->BO == BinOp::LogicalOr) {
      collectTestCells(P, Layout, E->A, Out);
      collectTestCells(P, Layout, E->B, Out);
      return;
    }
    if (isComparison(E->BO)) {
      std::vector<CellId> Tmp;
      if (collectLinearCells(P, Layout, E->A, Tmp) &&
          collectLinearCells(P, Layout, E->B, Tmp))
        Out.insert(Out.end(), Tmp.begin(), Tmp.end());
      return;
    }
    return;
  case ExprKind::Unary:
    if (E->UO == UnOp::LogicalNot)
      collectTestCells(P, Layout, E->A, Out);
    return;
  case ExprKind::Load: {
    CellId C = Packing::constCellOf(P, Layout, E->Lv);
    if (C != NoCell)
      Out.push_back(C);
    return;
  }
  default:
    return;
  }
}

/// Extracts syntactic constant-coefficient terms of an expression:
/// E == sum_i Coef_i * Load(Cell_i) + Rest, with Rest opaque. Returns false
/// when E is not of that shape.
bool matchAffine(const Program &P, const CellLayout &Layout, const Expr *E,
                 double Scale,
                 std::vector<std::pair<CellId, double>> &Terms,
                 bool &HasOpaqueRest) {
  if (!E)
    return false;
  switch (E->Kind) {
  case ExprKind::ConstInt:
  case ExprKind::ConstFloat:
    return true;
  case ExprKind::Load: {
    CellId C = Packing::constCellOf(P, Layout, E->Lv);
    if (C == NoCell) {
      HasOpaqueRest = true;
      return true;
    }
    Terms.push_back({C, Scale});
    return true;
  }
  case ExprKind::Cast:
    return matchAffine(P, Layout, E->A, Scale, Terms, HasOpaqueRest);
  case ExprKind::Unary:
    if (E->UO != UnOp::Neg)
      return false;
    return matchAffine(P, Layout, E->A, -Scale, Terms, HasOpaqueRest);
  case ExprKind::Binary:
    switch (E->BO) {
    case BinOp::Add:
      return matchAffine(P, Layout, E->A, Scale, Terms, HasOpaqueRest) &&
             matchAffine(P, Layout, E->B, Scale, Terms, HasOpaqueRest);
    case BinOp::Sub:
      return matchAffine(P, Layout, E->A, Scale, Terms, HasOpaqueRest) &&
             matchAffine(P, Layout, E->B, -Scale, Terms, HasOpaqueRest);
    case BinOp::Mul: {
      const Expr *K = nullptr, *V = nullptr;
      if (E->A->is(ExprKind::ConstFloat) || E->A->is(ExprKind::ConstInt)) {
        K = E->A;
        V = E->B;
      } else if (E->B->is(ExprKind::ConstFloat) ||
                 E->B->is(ExprKind::ConstInt)) {
        K = E->B;
        V = E->A;
      } else {
        return false;
      }
      double C = K->is(ExprKind::ConstFloat)
                     ? K->FloatVal
                     : static_cast<double>(K->IntVal);
      return matchAffine(P, Layout, V, Scale * C, Terms, HasOpaqueRest);
    }
    default:
      // Anything else contributes to the opaque remainder only if it
      // contains no cells we track; be conservative.
      HasOpaqueRest = true;
      return true;
    }
  }
  return false;
}

struct PackBuilder {
  const Program &P;
  const CellLayout &Layout;
  const AnalyzerOptions &Opts;
  Packing Result;
  std::set<std::vector<CellId>> SeenOct;
  std::set<std::vector<CellId>> SeenEll;

  // Decision-tree construction state (7.2.3).
  struct Tentative {
    std::vector<CellId> Bools;
    std::vector<CellId> Nums;
    bool Confirmed = false;
  };
  std::vector<Tentative> Tentatives;

  void addOctPack(std::vector<CellId> Cells) {
    std::sort(Cells.begin(), Cells.end());
    Cells.erase(std::unique(Cells.begin(), Cells.end()), Cells.end());
    if (Cells.size() < 2 || Cells.size() > Opts.MaxOctPackSize)
      return;
    // Only numeric (non-bool) cells benefit from octagons.
    if (!SeenOct.insert(Cells).second)
      return;
    OctPack Pack;
    Pack.Id = static_cast<PackId>(Result.OctPacks.size());
    Pack.Cells = std::move(Cells);
    Result.OctPacks.push_back(std::move(Pack));
  }

  /// Collects the cells of linear assignments and tests within \p S, looking
  /// \p Depth levels into nested blocks. Depth 0 is the paper's default
  /// ("ignoring what happens in sub-blocks"); larger packs "could be created
  /// by considering variables appearing in one or more levels of nested
  /// blocks" (7.2.1) — the decomposed conditionals our lowering produces for
  /// else-if chains need depth 2 to keep one guard + its assignments in a
  /// single pack.
  void collectBlockCells(const Stmt *S, int Depth,
                         std::vector<CellId> &Out) {
    if (!S)
      return;
    std::vector<const Stmt *> Items;
    if (S->is(StmtKind::Seq))
      Items.assign(S->Stmts.begin(), S->Stmts.end());
    else
      Items.push_back(S);

    for (const Stmt *Item : Items) {
      switch (Item->Kind) {
      case StmtKind::Assign: {
        CellId L = Packing::constCellOf(P, Layout, Item->Lhs);
        std::vector<CellId> Rhs;
        if (L != NoCell && Item->Rhs &&
            collectLinearCells(P, Layout, Item->Rhs, Rhs) && !Rhs.empty()) {
          Out.push_back(L);
          Out.insert(Out.end(), Rhs.begin(), Rhs.end());
        }
        break;
      }
      case StmtKind::If:
      case StmtKind::While:
      case StmtKind::Assume:
      case StmtKind::Assert:
        collectTestCells(P, Layout, Item->Cond, Out);
        if (Depth > 0) {
          if (Item->is(StmtKind::If)) {
            collectBlockCells(Item->Then, Depth - 1, Out);
            collectBlockCells(Item->Else, Depth - 1, Out);
          } else if (Item->is(StmtKind::While)) {
            collectBlockCells(Item->Body, Depth - 1, Out);
          }
        }
        break;
      default:
        break;
      }
    }
  }

  void scanBlockForOctagons(const Stmt *S) {
    if (!S)
      return;
    std::vector<CellId> BlockCells;
    collectBlockCells(S, /*Depth=*/2, BlockCells);
    addOctPack(std::move(BlockCells));

    // Recurse to give every nested block its own pack too.
    std::vector<const Stmt *> Items;
    if (S->is(StmtKind::Seq))
      Items.assign(S->Stmts.begin(), S->Stmts.end());
    else
      Items.push_back(S);
    for (const Stmt *Item : Items) {
      switch (Item->Kind) {
      case StmtKind::If:
        scanBlockForOctagons(Item->Then);
        scanBlockForOctagons(Item->Else);
        break;
      case StmtKind::While:
        scanBlockForOctagons(Item->Body);
        scanBlockForOctagons(Item->Step);
        break;
      case StmtKind::Seq:
        scanBlockForOctagons(Item);
        break;
      default:
        break;
      }
    }
  }

  // -- Ellipsoid packs (filter detection) --------------------------------
  void scanForFilters(const Stmt *S) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Assign: {
      CellId X = Packing::constCellOf(P, Layout, S->Lhs);
      if (X == NoCell || !S->Rhs || !S->Rhs->Ty->isFloat())
        return;
      std::vector<std::pair<CellId, double>> Terms;
      bool Opaque = false;
      if (!matchAffine(P, Layout, S->Rhs, 1.0, Terms, Opaque))
        return;
      // Merge duplicate cells.
      std::map<CellId, double> Merged;
      for (auto &[C, K] : Terms)
        Merged[C] += K;
      if (Merged.size() < 2 || Merged.size() > 4)
        return;
      // The filter shape is a*W1 - b*W2 + t: look for a (positive,
      // negative) coefficient pair satisfying Prop. 1; remaining terms are
      // part of the bounded input t and fold into the residual at transfer
      // time. Several candidate pairs may exist (e.g. the +1-coefficient
      // input term pairs up too); instantiate each stable pair — useless
      // ones simply stay at top.
      int Created = 0;
      for (const auto &[CPos, KPos] : Merged) {
        if (KPos <= 0)
          continue;
        for (const auto &[CNeg, KNeg] : Merged) {
          if (KNeg >= 0 || CPos == CNeg || Created >= 3)
            continue;
          FilterParams FP;
          FP.A = KPos;
          FP.B = -KNeg;
          FP.F = S->Rhs->Ty->IsDouble ? rounded::RelErr
                                      : rounded::RelErrFloat32;
          if (!FP.stable())
            continue;
          std::vector<CellId> Cells{X, CPos, CNeg};
          std::sort(Cells.begin(), Cells.end());
          Cells.erase(std::unique(Cells.begin(), Cells.end()), Cells.end());
          if (Cells.size() != 3 || !SeenEll.insert(Cells).second)
            continue;
          EllPack Pack;
          Pack.Id = static_cast<PackId>(Result.EllPacks.size());
          Pack.Params = FP;
          Pack.Cells = std::move(Cells);
          Result.EllPacks.push_back(std::move(Pack));
          ++Created;
        }
      }
      return;
    }
    case StmtKind::If:
      scanForFilters(S->Then);
      scanForFilters(S->Else);
      return;
    case StmtKind::While:
      scanForFilters(S->Body);
      scanForFilters(S->Step);
      return;
    case StmtKind::Seq:
      for (const Stmt *C : S->Stmts)
        scanForFilters(C);
      return;
    default:
      return;
    }
  }

  // -- Decision-tree packs -------------------------------------------------
  bool isBoolCell(CellId C) const {
    return C != NoCell && Layout.cell(C).IsBool;
  }

  void collectLoadCells(const Expr *E, std::vector<CellId> &Bools,
                        std::vector<CellId> &Nums) const {
    if (!E)
      return;
    switch (E->Kind) {
    case ExprKind::Load: {
      CellId C = Packing::constCellOf(P, Layout, E->Lv);
      if (C == NoCell)
        return;
      if (isBoolCell(C))
        Bools.push_back(C);
      else if (Layout.cell(C).Ty->isArithmetic() && !Layout.cell(C).IsShrunk)
        Nums.push_back(C);
      return;
    }
    case ExprKind::Unary:
    case ExprKind::Cast:
      collectLoadCells(E->A, Bools, Nums);
      return;
    case ExprKind::Binary:
      collectLoadCells(E->A, Bools, Nums);
      collectLoadCells(E->B, Bools, Nums);
      return;
    default:
      return;
    }
  }

  void scanForTreeTentatives(const Stmt *S) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Assign: {
      CellId L = Packing::constCellOf(P, Layout, S->Lhs);
      if (L == NoCell || !S->Rhs)
        return;
      std::vector<CellId> Bools, Nums;
      collectLoadCells(S->Rhs, Bools, Nums);
      if (isBoolCell(L)) {
        if (!Nums.empty()) {
          // Boolean depends on numerics: tentative pack.
          Tentative T;
          T.Bools.push_back(L);
          for (CellId N : Nums)
            if (T.Nums.size() < Opts.MaxNumsPerTreePack)
              T.Nums.push_back(N);
          Tentatives.push_back(std::move(T));
        }
        if (!Bools.empty()) {
          // b := <boolean expression>: add b to packs containing a variable
          // of the expression (7.2.3).
          for (Tentative &T : Tentatives) {
            bool Overlap = false;
            for (CellId B : Bools)
              if (std::find(T.Bools.begin(), T.Bools.end(), B) !=
                  T.Bools.end())
                Overlap = true;
            if (Overlap &&
                std::find(T.Bools.begin(), T.Bools.end(), L) ==
                    T.Bools.end() &&
                T.Bools.size() < Opts.MaxBoolsPerTreePack)
              T.Bools.push_back(L);
          }
        }
      } else if (!Bools.empty() && Layout.cell(L).Ty->isArithmetic()) {
        // Numeric depends on a boolean: tentative pack.
        Tentative T;
        for (CellId B : Bools)
          if (T.Bools.size() < Opts.MaxBoolsPerTreePack)
            T.Bools.push_back(B);
        T.Nums.push_back(L);
        for (CellId N : Nums)
          if (T.Nums.size() < Opts.MaxNumsPerTreePack)
            T.Nums.push_back(N);
        Tentatives.push_back(std::move(T));
      }
      return;
    }
    case StmtKind::If: {
      // Confirmation: a numeric of a tentative pack used inside a branch
      // depending on one of the pack's booleans.
      std::vector<CellId> CondBools, CondNums;
      collectLoadCells(S->Cond, CondBools, CondNums);
      if (!CondBools.empty()) {
        std::vector<CellId> BranchBools, BranchNums;
        collectStmtCells(S->Then, BranchBools, BranchNums);
        collectStmtCells(S->Else, BranchBools, BranchNums);
        for (Tentative &T : Tentatives) {
          if (T.Confirmed)
            continue;
          bool BoolHit = false;
          for (CellId B : CondBools)
            if (std::find(T.Bools.begin(), T.Bools.end(), B) != T.Bools.end())
              BoolHit = true;
          if (!BoolHit)
            continue;
          for (CellId N : BranchNums)
            if (std::find(T.Nums.begin(), T.Nums.end(), N) != T.Nums.end()) {
              T.Confirmed = true;
              break;
            }
        }
      }
      scanForTreeTentatives(S->Then);
      scanForTreeTentatives(S->Else);
      return;
    }
    case StmtKind::While:
      scanForTreeTentatives(S->Body);
      scanForTreeTentatives(S->Step);
      return;
    case StmtKind::Seq:
      for (const Stmt *C : S->Stmts)
        scanForTreeTentatives(C);
      return;
    default:
      return;
    }
  }

  void collectStmtCells(const Stmt *S, std::vector<CellId> &Bools,
                        std::vector<CellId> &Nums) const {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Assign: {
      CellId L = Packing::constCellOf(P, Layout, S->Lhs);
      if (L != NoCell) {
        if (isBoolCell(L))
          Bools.push_back(L);
        else if (Layout.cell(L).Ty->isArithmetic())
          Nums.push_back(L);
      }
      collectLoadCells(S->Rhs, Bools, Nums);
      return;
    }
    case StmtKind::If:
      collectLoadCells(S->Cond, Bools, Nums);
      collectStmtCells(S->Then, Bools, Nums);
      collectStmtCells(S->Else, Bools, Nums);
      return;
    case StmtKind::While:
      collectLoadCells(S->Cond, Bools, Nums);
      collectStmtCells(S->Body, Bools, Nums);
      collectStmtCells(S->Step, Bools, Nums);
      return;
    case StmtKind::Seq:
      for (const Stmt *C : S->Stmts)
        collectStmtCells(C, Bools, Nums);
      return;
    default:
      return;
    }
  }

  void finalizeTreePacks() {
    std::set<std::pair<std::vector<CellId>, std::vector<CellId>>> Seen;
    for (Tentative &T : Tentatives) {
      if (!T.Confirmed)
        continue; // "In the end, we just keep the confirmed packs."
      std::sort(T.Bools.begin(), T.Bools.end());
      T.Bools.erase(std::unique(T.Bools.begin(), T.Bools.end()),
                    T.Bools.end());
      std::sort(T.Nums.begin(), T.Nums.end());
      T.Nums.erase(std::unique(T.Nums.begin(), T.Nums.end()), T.Nums.end());
      if (T.Bools.empty() || T.Nums.empty())
        continue;
      if (T.Bools.size() > Opts.MaxBoolsPerTreePack)
        T.Bools.resize(Opts.MaxBoolsPerTreePack);
      if (!Seen.insert({T.Bools, T.Nums}).second)
        continue;
      TreePack Pack;
      Pack.Id = static_cast<PackId>(Result.TreePacks.size());
      Pack.Bools = T.Bools;
      Pack.Nums = T.Nums;
      Pack.Confirmed = true;
      Result.TreePacks.push_back(std::move(Pack));
    }
  }
};

} // namespace

void Packing::index(size_t NumCells) {
  CellOct.assign(NumCells, {});
  CellTree.assign(NumCells, {});
  CellEll.assign(NumCells, {});
  for (const OctPack &Pack : OctPacks)
    for (CellId C : Pack.Cells)
      CellOct[C].push_back(Pack.Id);
  for (const TreePack &Pack : TreePacks) {
    for (CellId C : Pack.Bools)
      CellTree[C].push_back(Pack.Id);
    for (CellId C : Pack.Nums)
      CellTree[C].push_back(Pack.Id);
  }
  for (const EllPack &Pack : EllPacks)
    for (CellId C : Pack.Cells)
      CellEll[C].push_back(Pack.Id);
}

Packing Packing::build(const Program &P, const CellLayout &Layout,
                       const AnalyzerOptions &Opts) {
  PackBuilder B{P, Layout, Opts, {}, {}, {}, {}};
  for (const Function &F : P.Functions) {
    if (!F.Body)
      continue;
    if (Opts.domainEnabled(DomainKind::Octagon))
      B.scanBlockForOctagons(F.Body);
    if (Opts.domainEnabled(DomainKind::Ellipsoid))
      B.scanForFilters(F.Body);
    if (Opts.domainEnabled(DomainKind::DecisionTree))
      B.scanForTreeTentatives(F.Body);
  }
  if (Opts.domainEnabled(DomainKind::DecisionTree))
    B.finalizeTreePacks();

  // Sect. 7.2.2: restrict to the useful packs of a previous analysis.
  if (Opts.RestrictOctPacks) {
    std::vector<OctPack> Kept;
    for (OctPack &Pack : B.Result.OctPacks) {
      if (!Opts.RestrictOctPacks->count(Pack.Id))
        continue;
      Pack.Id = static_cast<PackId>(Kept.size());
      Kept.push_back(std::move(Pack));
    }
    B.Result.OctPacks = std::move(Kept);
  }

  B.Result.index(Layout.numCells());
  return std::move(B.Result);
}
