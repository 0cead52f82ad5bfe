//===- domains/Octagon.cpp - Octagon abstract domain ------------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "domains/Octagon.h"

#include "domains/Thresholds.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>

using namespace astral;

namespace {
double addUpInf(double A, double B) {
  if (std::isinf(A) || std::isinf(B))
    return (A > 0 || B > 0) ? INFINITY : -INFINITY;
  return rounded::addUp(A, B);
}
} // namespace

Octagon::Octagon(std::vector<CellId> Cells, OctClosureMode ClosureMode)
    : Vars(std::move(Cells)), N(static_cast<int>(Vars.size()) * 2),
      Mode(ClosureMode) {
  assert(!Vars.empty() && Vars.size() <= 16 && "pack size out of range");
  Lookup.reserve(Vars.size());
  for (size_t I = 0; I < Vars.size(); ++I)
    Lookup.push_back({Vars[I], static_cast<int>(I)});
  std::sort(Lookup.begin(), Lookup.end());
  M.assign(static_cast<size_t>(N) * N, INFINITY);
  for (int I = 0; I < N; ++I)
    at(I, I) = 0.0;
  Closed = true;
  memtrack::noteAlloc(M.size() * sizeof(double));
}

Octagon::~Octagon() { memtrack::noteFree(M.size() * sizeof(double)); }

Octagon::Octagon(const Octagon &O)
    : Vars(O.Vars), Lookup(O.Lookup), N(O.N), M(O.M),
      PivotDirty(O.PivotDirty), StarDirty(O.StarDirty), Closed(O.Closed),
      Empty(O.Empty), Mode(O.Mode) {
  memtrack::noteAlloc(M.size() * sizeof(double));
}

int Octagon::indexOf(CellId Cell) const {
  auto It = std::lower_bound(
      Lookup.begin(), Lookup.end(), Cell,
      [](const std::pair<CellId, int> &P, CellId C) { return P.first < C; });
  return (It != Lookup.end() && It->first == Cell) ? It->second : -1;
}

bool Octagon::isBottom() const {
  if (Empty)
    return true;
  for (int I = 0; I < N; ++I)
    if (at(I, I) < 0.0)
      return true;
  return false;
}

void Octagon::propagateThrough(int K) {
  for (int I = 0; I < N; ++I) {
    double MIK = at(I, K);
    if (std::isinf(MIK) && MIK > 0)
      continue;
    for (int J = 0; J < N; ++J) {
      double Via = addUpInf(MIK, at(K, J));
      if (Via < at(I, J))
        at(I, J) = Via;
    }
  }
}

bool Octagon::finishClosure() {
  // Strengthening: x_i - x_j <= (x_i - x_bar(i))/2 + (x_bar(j) - x_j)/2.
  // Entries the strengthening lowers are constraints the propagation pass
  // has not seen — the closed form here (matching the historical full
  // algorithm) is "path-closed, then strengthened once", not a joint
  // fixpoint of both rules. Those entries therefore become the carried
  // dirty work of the *next* closure: a small vertex cover of their
  // endpoint variables goes into StarDirty, whose rows/columns the next
  // incremental closure relaxes and pivots through.
  uint32_t Incidence[16] = {};
  bool AnyFired = false;
  for (int I = 0; I < N; ++I) {
    double DI = at(I, I ^ 1);
    for (int J = 0; J < N; ++J) {
      double DJ = at(J ^ 1, J);
      double Via = addUpInf(DI, DJ) / 2.0;
      if (Via < at(I, J)) {
        at(I, J) = Via;
        Incidence[I >> 1] |= 1u << (J >> 1);
        AnyFired = true;
      }
    }
  }
  Closed = true;
  PivotDirty = 0;
  StarDirty = 0;
  if (AnyFired) {
    // Greedy vertex cover of the fired entries' endpoint-variable pairs:
    // every fired entry must be incident to a StarDirty variable. In
    // steady state one variable's unary bound changed and every fired
    // entry is incident to it, so the cover is a single star.
    uint32_t Partners[16];
    for (size_t V = 0; V < Vars.size(); ++V)
      Partners[V] = Incidence[V];
    for (size_t V = 0; V < Vars.size(); ++V)
      for (size_t W = 0; W < Vars.size(); ++W)
        if (Incidence[V] & (1u << W))
          Partners[W] |= 1u << V;
    for (;;) {
      size_t Best = 0, BestCount = 0;
      for (size_t V = 0; V < Vars.size(); ++V) {
        size_t C = static_cast<size_t>(std::popcount(Partners[V]));
        if (C > BestCount) {
          BestCount = C;
          Best = V;
        }
      }
      if (BestCount == 0)
        break;
      StarDirty |= 1u << Best;
      Partners[Best] = 0;
      for (size_t V = 0; V < Vars.size(); ++V)
        Partners[V] &= ~(1u << Best);
    }
  }
  for (int I = 0; I < N; ++I) {
    if (at(I, I) < 0.0) {
      Empty = true;
      return false;
    }
    at(I, I) = 0.0;
  }
  return true;
}

bool Octagon::close() {
  if (Empty)
    return false;
  if (Closed)
    return true;
  // Incremental closure: Floyd-Warshall restricted to the dirty
  // rows/columns. Constraints tightened by transfer functions are
  // incident, on both endpoints, to PivotDirty variables' nodes; star-
  // shaped updates (the smart assignment's rebuilt row/column, the
  // previous closure's strengthening fan recorded by finishClosure) are
  // incident to a StarDirty variable on at least one endpoint, so those
  // rows/columns are first completed by a one-round relaxation against
  // the rest of the matrix and then pivoted. Any new shortest path then
  // decomposes into already-propagated entries joined at dirty pivots,
  // which restores the same closure as a full sweep in
  // O((p + 3s) * (2k)^2) instead of O((2k)^3).
  uint32_t Pivot = PivotDirty & ~StarDirty;
  size_t P = static_cast<size_t>(std::popcount(Pivot));
  size_t S = static_cast<size_t>(std::popcount(StarDirty));
  // Cost gate, in pivot-equivalents: a pivot-dirty variable costs its two
  // Floyd-Warshall pivots; a star-dirty variable additionally pays the
  // four row/column relaxations, which skip infinite entries and touch a
  // single row/column each — measured at roughly one extra pivot. Strict
  // inequality: when the restricted pass would do as much work as the
  // full sweep (in particular the all-dirty post-widening closure), run —
  // and meter — the full algorithm.
  bool Incremental = Mode == OctClosureMode::Incremental &&
                     (PivotDirty | StarDirty) != 0 &&
                     2 * P + 3 * S < 2 * Vars.size();
  memtrack::noteClosure(Incremental);
  if (Incremental) {
    uint32_t All = Pivot | StarDirty;
    for (size_t V = 0; V < Vars.size(); ++V) {
      if (!(All & (1u << V)))
        continue;
      int Even = static_cast<int>(2 * V), Odd = Even + 1;
      if (StarDirty & (1u << V)) {
        relaxColumn(Even);
        relaxColumn(Odd);
        relaxRow(Even);
        relaxRow(Odd);
      }
      propagateThrough(Even);
      propagateThrough(Odd);
    }
  } else {
    for (int K = 0; K < N; ++K)
      propagateThrough(K);
  }
  return finishClosure();
}

void Octagon::relaxColumn(int C) {
  // One relaxation round m(i,C) <- min_a m(i,a) + m(a,C): composes every
  // already-propagated path with one direct edge into C. Together with
  // relaxRow it completes C's row/column before C's nodes are pivoted, so
  // star-shaped edge sets incident to C need no pivots elsewhere.
  for (int A = 0; A < N; ++A) {
    if (A == C)
      continue;
    double MAC = at(A, C);
    if (std::isinf(MAC) && MAC > 0)
      continue;
    for (int I = 0; I < N; ++I) {
      double Via = addUpInf(at(I, A), MAC);
      if (Via < at(I, C))
        at(I, C) = Via;
    }
  }
}

void Octagon::relaxRow(int R) {
  // Mirror of relaxColumn: m(R,j) <- min_b m(R,b) + m(b,j).
  for (int B = 0; B < N; ++B) {
    if (B == R)
      continue;
    double MRB = at(R, B);
    if (std::isinf(MRB) && MRB > 0)
      continue;
    for (int J = 0; J < N; ++J) {
      double Via = addUpInf(MRB, at(B, J));
      if (Via < at(R, J))
        at(R, J) = Via;
    }
  }
}

bool Octagon::leq(const Octagon &O) const {
  assert(Vars == O.Vars && "pack mismatch");
  if (isBottom())
    return true;
  if (O.isBottom())
    return false;
  for (size_t I = 0; I < M.size(); ++I)
    if (M[I] > O.M[I])
      return false;
  return true;
}

bool Octagon::equal(const Octagon &O) const {
  bool BotA = isBottom(), BotB = O.isBottom();
  if (BotA && BotB)
    return true;
  // Raw equality only counts when the detected bottom-ness agrees too: an
  // Empty-flagged octagon can carry an untouched matrix (bottomLike, a
  // bottom meetVarInterval), which must not compare equal to top.
  if (BotA == BotB && M == O.M)
    return true;
  // Both sides closed: detected bottom-ness and the raw comparison were
  // exact (a closed DBM cannot be empty without its flag set).
  if (Closed && O.Closed)
    return false;
  // Normalize via closure so representation differences (a closed and a
  // non-closed DBM of the same set) do not read as inequality. Only the
  // non-closed side(s) pay the copy.
  std::optional<Octagon> NA, NB;
  const Octagon *PA = this;
  if (!Closed) {
    NA.emplace(*this);
    NA->close();
    PA = &*NA;
  }
  const Octagon *PB = &O;
  if (!O.Closed) {
    NB.emplace(O);
    NB->close();
    PB = &*NB;
  }
  bool EmptyA = PA->isBottom(), EmptyB = PB->isBottom();
  if (EmptyA || EmptyB)
    return EmptyA == EmptyB;
  return PA->M == PB->M;
}

void Octagon::joinWith(const Octagon &O) {
  assert(Vars == O.Vars && "pack mismatch");
  if (O.isBottom())
    return;
  if (isBottom()) {
    M = O.M;
    PivotDirty = O.PivotDirty;
    StarDirty = O.StarDirty;
    Closed = O.Closed;
    Empty = O.Empty;
    return;
  }
  for (size_t I = 0; I < M.size(); ++I)
    M[I] = std::max(M[I], O.M[I]);
  // Join of closed operands is closed. A surviving entry may be the other
  // side's not-yet-propagated (strengthened) bound, so the carried
  // dirty-sets merge.
  PivotDirty |= O.PivotDirty;
  StarDirty |= O.StarDirty;
}

void Octagon::meetWith(const Octagon &O) {
  assert(Vars == O.Vars && "pack mismatch");
  for (int P = 0; P < N; ++P)
    for (int Q = 0; Q < N; ++Q)
      if (O.at(P, Q) < at(P, Q)) {
        at(P, Q) = O.at(P, Q);
        markDirty(P, Q);
      }
  Empty = Empty || O.Empty;
}

void Octagon::widenWith(const Octagon &O, const Thresholds &T,
                        bool WithThresholds) {
  assert(Vars == O.Vars && "pack mismatch");
  if (O.isBottom())
    return;
  if (isBottom()) {
    M = O.M;
    PivotDirty = O.PivotDirty;
    StarDirty = O.StarDirty;
    Closed = O.Closed;
    Empty = O.Empty;
    return;
  }
  for (int P = 0; P < N; ++P) {
    for (int Q = 0; Q < N; ++Q) {
      double Mine = at(P, Q);
      double Theirs = O.at(P, Q);
      if (Theirs > Mine) {
        if (!WithThresholds) {
          at(P, Q) = INFINITY;
          continue;
        }
        // Unary constraints encode 2c; apply thresholds on c. No in-place
        // eps absorption here: DBM bounds feed back into the transfer
        // functions almost 1-Lipschitz, so absorbing rounding dribble would
        // ratchet forever; jumping to the next rung converges in one step
        // and the per-cell reduction keeps the precise interval anyway.
        bool Unary = (Q == (P ^ 1));
        double C = Unary ? Theirs / 2.0 : Theirs;
        double Widened = T.nextAbove(C);
        at(P, Q) = Unary ? 2.0 * Widened : Widened;
      }
    }
  }
  // Do not close after widening (termination): the result is a sound
  // superset whose entries moved arbitrarily, so the whole DBM is dirty.
  markAllDirty();
}

void Octagon::narrowWith(const Octagon &O) {
  assert(Vars == O.Vars && "pack mismatch");
  for (int P = 0; P < N; ++P)
    for (int Q = 0; Q < N; ++Q) {
      double Mine = at(P, Q);
      if (std::isinf(Mine) && Mine > 0 && O.at(P, Q) < Mine) {
        at(P, Q) = O.at(P, Q);
        markDirty(P, Q);
      }
    }
  Empty = Empty || O.Empty;
}

void Octagon::forget(int Idx) {
  // Preserve indirect constraints before dropping direct ones. When the
  // DBM is already closed this costs nothing; when only a few variables
  // are dirty, close() propagates paths through just their rows/columns —
  // in particular, a forget right after tightenings of the dropped
  // variable pays one single-variable O((2k)^2) closure, not a full sweep.
  close();
  int P = 2 * Idx, Pb = P + 1;
  for (int Q = 0; Q < N; ++Q) {
    if (Q != P)
      at(P, Q) = INFINITY;
    if (Q != Pb)
      at(Pb, Q) = INFINITY;
    if (Q != P)
      at(Q, P) = INFINITY;
    if (Q != Pb)
      at(Q, Pb) = INFINITY;
  }
  at(P, Pb) = INFINITY;
  at(Pb, P) = INFINITY;
  // Dropping rows/columns of a closed DBM leaves it closed.
}

Interval Octagon::varInterval(int Idx) const {
  if (isBottom())
    return Interval::bottom();
  int P = 2 * Idx;
  double Hi = at(P, P + 1) / 2.0;
  double Lo = -at(P + 1, P) / 2.0;
  return Interval(Lo, Hi);
}

void Octagon::meetVarInterval(int Idx, const Interval &I) {
  if (I.isBottom()) {
    Empty = true;
    return;
  }
  int P = 2 * Idx;
  if (std::isfinite(I.Hi))
    setBound(P, P + 1, 2.0 * I.Hi);
  if (std::isfinite(I.Lo))
    setBound(P + 1, P, -2.0 * I.Lo);
}

void Octagon::shiftVar(int Idx, const Interval &Delta) {
  // v := v + [a, b]: x_{2i} grows by [a,b], x_{2i+1} by [-b,-a].
  int P = 2 * Idx, Pb = P + 1;
  double A = Delta.Lo, B = Delta.Hi;
  for (int Q = 0; Q < N; ++Q) {
    if (Q == P || Q == Pb)
      continue;
    at(P, Q) = addUpInf(at(P, Q), B);    // x_P - x_Q <= m + b
    at(Q, P) = addUpInf(at(Q, P), -A);   // x_Q - x_P <= m - a
    at(Pb, Q) = addUpInf(at(Pb, Q), -A); // -v - x_Q <= m - a
    at(Q, Pb) = addUpInf(at(Q, Pb), B);
  }
  at(P, Pb) = addUpInf(at(P, Pb), 2 * B);
  at(Pb, P) = addUpInf(at(Pb, P), -2 * A);
  // A shift preserves closure.
}

double Octagon::formUpperBound(
    const LinearForm &Form,
    const std::function<Interval(CellId)> &CellRange) const {
  if (!Form.valid())
    return INFINITY;
  double Upper = Form.constTerm().Hi;
  // Greedy pairing of unit-coefficient pack terms through binary
  // constraints; the remainder is bounded term-wise with the tighter of the
  // octagon unary bound and the external interval.
  struct Term {
    int Idx;      ///< Pack index or -1.
    CellId Cell;
    Interval Coef;
    bool Used = false;
  };
  std::vector<Term> Terms;
  for (const auto &[Cell, Coef] : Form.terms()) {
    Term T;
    T.Idx = indexOf(Cell);
    T.Cell = Cell;
    T.Coef = Coef;
    Terms.push_back(T);
  }
  auto UnitSign = [](const Interval &C) -> int {
    if (C == Interval::point(1.0))
      return 1;
    if (C == Interval::point(-1.0))
      return -1;
    return 0;
  };
  for (size_t I = 0; I < Terms.size(); ++I) {
    if (Terms[I].Used || Terms[I].Idx < 0)
      continue;
    int SI = UnitSign(Terms[I].Coef);
    if (SI == 0)
      continue;
    for (size_t J = I + 1; J < Terms.size(); ++J) {
      if (Terms[J].Used || Terms[J].Idx < 0)
        continue;
      int SJ = UnitSign(Terms[J].Coef);
      if (SJ == 0)
        continue;
      // Bound SI*vi + SJ*vj with the DBM: it equals x_p - x_q with
      // p = (SI>0 ? 2i : 2i+1), q = (SJ>0 ? 2j+1 : 2j).
      int Pi = SI > 0 ? 2 * Terms[I].Idx : 2 * Terms[I].Idx + 1;
      int Qj = SJ > 0 ? 2 * Terms[J].Idx + 1 : 2 * Terms[J].Idx;
      double B = at(Pi, Qj);
      if (std::isfinite(B)) {
        Upper = addUpInf(Upper, B);
        Terms[I].Used = Terms[J].Used = true;
        break;
      }
    }
  }
  for (const Term &T : Terms) {
    if (T.Used)
      continue;
    Interval R = T.Idx >= 0 ? varInterval(T.Idx).meet(CellRange(T.Cell))
                            : CellRange(T.Cell);
    if (R.isBottom())
      return Upper; // Unreachable; any bound is sound.
    Interval Contribution = Interval::fmul(T.Coef, R);
    Upper = addUpInf(Upper, Contribution.Hi);
  }
  return Upper;
}

void Octagon::assign(int Idx, const LinearForm &Form,
                     const std::function<Interval(CellId)> &CellRange) {
  if (!Form.valid()) {
    forget(Idx);
    return;
  }
  close();
  if (Empty)
    return;
  CellId Self = Vars[Idx];
  LinearForm::OctShape Shape = Form.octagonShape();

  // Exact case: v := v + [a, b].
  if (Shape.NumVars == 1 && Shape.V1 == Self && Shape.S1 == 1) {
    shiftVar(Idx, Shape.C);
    return;
  }

  // Exact case: v := +/-w + [a,b], w in pack, w != v.
  if (Shape.NumVars == 1 && Shape.V1 != Self) {
    int W = indexOf(Shape.V1);
    if (W >= 0) {
      forget(Idx);
      int P = 2 * Idx, Pb = P + 1;
      int Q = Shape.S1 > 0 ? 2 * W : 2 * W + 1;
      int Qb = Q ^ 1;
      // v - s*w <= b  and  s*w - v <= -a. Only Idx's and W's rows are
      // touched, so the closing sweep below is incremental.
      if (std::isfinite(Shape.C.Hi)) {
        setBound(P, Q, Shape.C.Hi);
        setBound(Qb, Pb, Shape.C.Hi);
      }
      if (std::isfinite(Shape.C.Lo)) {
        setBound(Q, P, -Shape.C.Lo);
        setBound(Pb, Qb, -Shape.C.Lo);
      }
      close();
      return;
    }
  }

  // General case ("smart" fallback): forget v, then synthesize interval
  // bounds for v, v - w and v + w for every pack variable w by evaluating
  // the appropriate residual form (this is how c <= L - Z <= d is derived
  // from L := Z + V in the paper's example).
  Octagon Before(*this);
  forget(Idx);
  // The fresh bounds below all touch Idx's row/column only: a star of
  // edges centered on Idx's nodes. The generic both-endpoint dirty marking
  // would be sound but pessimal (every pack variable dirty, forcing a full
  // sweep), so the marks are reset afterwards and the star handed to the
  // dedicated single-variable closure.
  uint32_t CarriedPivot = PivotDirty; // The forget-closure's carried work.
  uint32_t CarriedStar = StarDirty;
  LinearForm SelfForm = Form.without(Self); // Self-references would need the
  if (!(Form.coeff(Self) == Interval::point(0)))
    SelfForm = LinearForm::invalid(); // old value; fall back to forgetting.

  auto BoundAgainst = [&](const LinearForm &F, int P, int Q) {
    if (!F.valid())
      return;
    double Hi = Before.formUpperBound(F, CellRange);
    if (std::isfinite(Hi))
      setBound(P, Q, Hi);
    double NegLo = Before.formUpperBound(F.negate(), CellRange);
    if (std::isfinite(NegLo))
      setBound(Q, P, NegLo);
  };

  int P = 2 * Idx, Pb = P + 1;
  if (SelfForm.valid()) {
    // Unary: v <= sup(form), v >= inf(form). Encoded as doubled bounds.
    double Hi = Before.formUpperBound(SelfForm, CellRange);
    if (std::isfinite(Hi))
      setBound(P, Pb, 2.0 * Hi);
    double NegLo = Before.formUpperBound(SelfForm.negate(), CellRange);
    if (std::isfinite(NegLo))
      setBound(Pb, P, 2.0 * NegLo);
    for (size_t W = 0; W < Vars.size(); ++W) {
      if (static_cast<int>(W) == Idx)
        continue;
      LinearForm MinusW = SelfForm.sub(LinearForm::var(Vars[W]));
      BoundAgainst(MinusW, P, 2 * static_cast<int>(W));
      LinearForm PlusW = SelfForm.add(LinearForm::var(Vars[W]));
      BoundAgainst(PlusW, P, 2 * static_cast<int>(W) + 1);
    }
  }
  if (!Closed) {
    PivotDirty = CarriedPivot;
    StarDirty = CarriedStar | (1u << static_cast<uint32_t>(Idx));
  }
  close();
}

void Octagon::guardLe(const LinearForm &Form,
                      const std::function<Interval(CellId)> &CellRange) {
  LinearForm::OctShape S = Form.octagonShape();
  if (S.NumVars <= 0)
    return;
  close();
  if (Empty)
    return;
  // s1*v1 (+ s2*v2) + [a,b] <= 0  =>  s1*v1 (+ s2*v2) <= -a.
  double C = -S.C.Lo;
  if (!std::isfinite(C))
    return;
  int I1 = indexOf(S.V1);
  if (S.NumVars == 1) {
    if (I1 < 0)
      return;
    if (S.S1 > 0)
      setBound(2 * I1, 2 * I1 + 1, 2.0 * C);
    else
      setBound(2 * I1 + 1, 2 * I1, 2.0 * C);
    close();
    return;
  }
  int I2 = indexOf(S.V2);
  if (I1 < 0 || I2 < 0) {
    // One side outside the pack: refine the in-pack side using the interval
    // of the out-of-pack side.
    if (I1 < 0 && I2 < 0)
      return;
    int In = I1 >= 0 ? I1 : I2;
    int SIn = I1 >= 0 ? S.S1 : S.S2;
    CellId OutCell = I1 >= 0 ? S.V2 : S.V1;
    int SOut = I1 >= 0 ? S.S2 : S.S1;
    Interval Out = CellRange(OutCell);
    if (Out.isBottom())
      return;
    Interval Scaled = SOut > 0 ? Out : Interval::fneg(Out);
    // s_in * v_in <= C - scaled.lo.
    double Bound = rounded::subUp(C, Scaled.Lo);
    if (!std::isfinite(Bound))
      return;
    if (SIn > 0)
      setBound(2 * In, 2 * In + 1, 2.0 * Bound);
    else
      setBound(2 * In + 1, 2 * In, 2.0 * Bound);
    close();
    return;
  }
  int P, Q;
  if (S.S1 > 0 && S.S2 > 0) { // v1 + v2 <= C
    P = 2 * I1;
    Q = 2 * I2 + 1;
  } else if (S.S1 > 0 && S.S2 < 0) { // v1 - v2 <= C
    P = 2 * I1;
    Q = 2 * I2;
  } else if (S.S1 < 0 && S.S2 > 0) { // v2 - v1 <= C
    P = 2 * I2;
    Q = 2 * I1;
  } else { // -v1 - v2 <= C
    P = 2 * I1 + 1;
    Q = 2 * I2;
  }
  setBound(P, Q, C);
  setBound(Q ^ 1, P ^ 1, C);
  close();
}

/// True when the binary entry (P, Q) is strictly tighter than what the
/// unary bounds already imply (the closure strengthening materializes
/// (hi(x_P) + hi(-x_Q))/2 into every pair, which carries no information).
bool Octagon::entryIsInformative(int P, int Q) const {
  double B = at(P, Q);
  if (!std::isfinite(B))
    return false;
  double HiP = at(P, P ^ 1);   // 2 * hi(x_P).
  double HiNQ = at(Q ^ 1, Q);  // 2 * hi(-x_Q).
  double Implied = (HiP + HiNQ) / 2.0;
  if (!std::isfinite(Implied))
    return true; // Bounded pair of individually unbounded variables.
  double Tol = 1e-9 * std::max(1.0, std::fabs(Implied));
  return B < Implied - Tol;
}

bool Octagon::hasRelationalInfo() const {
  for (int P = 0; P < N; ++P)
    for (int Q = 0; Q < N; ++Q) {
      if ((P >> 1) == (Q >> 1))
        continue; // Unary or diagonal.
      if (entryIsInformative(P, Q))
        return true;
    }
  return false;
}

void Octagon::countConstraints(uint64_t &Additive,
                               uint64_t &Subtractive) const {
  for (int I = 0; I < static_cast<int>(Vars.size()); ++I) {
    for (int J = I + 1; J < static_cast<int>(Vars.size()); ++J) {
      // x_i - x_j carries information on either side?
      if (entryIsInformative(2 * I, 2 * J) ||
          entryIsInformative(2 * J, 2 * I))
        ++Subtractive;
      if (entryIsInformative(2 * I, 2 * J + 1) ||
          entryIsInformative(2 * I + 1, 2 * J))
        ++Additive;
    }
  }
}

std::string Octagon::toString() const {
  if (isBottom())
    return "_|_";
  std::string Out;
  for (int I = 0; I < static_cast<int>(Vars.size()); ++I) {
    Interval V = varInterval(I);
    Out += "v" + std::to_string(Vars[I]) + " in " + V.toString() + "; ";
    for (int J = I + 1; J < static_cast<int>(Vars.size()); ++J) {
      double Sub = at(2 * I, 2 * J);
      if (std::isfinite(Sub))
        Out += "v" + std::to_string(Vars[I]) + "-v" +
               std::to_string(Vars[J]) + "<=" + std::to_string(Sub) + "; ";
      double Add = at(2 * I, 2 * J + 1);
      if (std::isfinite(Add))
        Out += "v" + std::to_string(Vars[I]) + "+v" +
               std::to_string(Vars[J]) + "<=" + std::to_string(Add) + "; ";
    }
  }
  return Out;
}
