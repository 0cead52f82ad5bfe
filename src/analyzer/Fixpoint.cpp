//===- analyzer/Fixpoint.cpp - Loop fixpoints with widening/narrowing -------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The least-fixpoint approximation of Sect. 5.5 with the parametrized
/// strategies of Sect. 7.1:
///  - widening with thresholds (7.1.2): unstable bounds jump to the next
///    threshold of the geometric ladder instead of straight to infinity;
///  - delayed widening (7.1.3): the first N0 steps use plain unions, and a
///    widening step is skipped (with a fairness bound) whenever a variable
///    that was unstable at the previous step became stable — the X/Y
///    cascade example of the paper;
///  - floating iteration perturbation (7.1.4): the iterates are inflated by
///    F-hat (eps * |bound| on float cells) so abstract rounding noise cannot
///    prevent stabilization, while the stabilization test itself uses the
///    exact (unperturbed) transfer function, which keeps the result sound;
///  - narrowing iterations (5.5) recover precision afterwards.
///
//===----------------------------------------------------------------------===//

#include "analyzer/Iterator.h"

#include "analyzer/Scheduler.h"
#include "support/Cancellation.h"

#include <cstdio>
#include <cstdlib>
#include <set>

using namespace astral;
using namespace astral::ir;

AbstractEnv Iterator::loopFixpoint(const Stmt *W, const AbstractEnv &E0) {
  bool SavedChecking = T.Checking;
  T.Checking = false; // Iteration mode: no warnings (Sect. 5.3).

  AbstractEnv X = E0;
  std::set<CellId> UnstablePrev;
  unsigned ConsecutiveHolds = 0;

  for (unsigned Iter = 0;; ++Iter) {
    // Fixpoint head: the Iterator's cancellation choke point. The
    // flag/deadline poll may run on any thread (timeout outcomes are never
    // byte-compared). The budget poll is restricted to sites that execute
    // identically for every --jobs value: top-level fixpoint heads of the
    // session's own iterator. Partition workers never get here: they only
    // run straight-line `if` regions, which hold no loop. Fixpoints inside
    // called functions are excluded by CallDepth == 0 (run() inlines the
    // entry body without an execCall frame), and the per-thread
    // interference iterators by !T.Conc (whole thread bodies move onto
    // workers when the rounds fan out; the ConcurrentAnalysis round heads
    // poll instead). At these sites the live figure is a function of the
    // analysis alone, not of worker timing — that is the budget-degradation
    // determinism contract.
    cancel::poll();
    if (CallDepth == 0 && !T.Conc)
      cancel::pollBudget();
    Stats.add("fixpoint.iterations");
    // Tracing facility (Sect. 5.3: "tracing facilities with various degrees
    // of detail are also available"): ASTRAL_DEBUG_FIXPOINT=1 logs iteration
    // progress and, near the forced-convergence cap, prints the cells and
    // relational packs that still violate stabilization.
    bool Tracing = std::getenv("ASTRAL_DEBUG_FIXPOINT") != nullptr;
    if (Tracing && Iter % 100 == 0)
      std::fprintf(stderr, "[fixpoint] loop=%u iter=%u\n", W->LoopId, Iter);
    bool DebugDiff =
        Tracing && Iter + 10 >= Opts.MaxIterations &&
        Iter + 7 <= Opts.MaxIterations;
    LoopStack.back().BreakAcc = AbstractEnv::bottom();

    AbstractEnv In = T.guard(X, W->Cond, true);
    AbstractEnv Fx = In.isBottom() ? AbstractEnv::bottom()
                                   : execLoopBody(W, std::move(In));

    // Exact stabilization test: X already covers E0; stable iff F(X) <= X.
    if (AbstractEnv::leq(Fx, X))
      break;
    if (DebugDiff) {
      if (!Fx.clock().leq(X.clock()))
        std::fprintf(stderr, "  VIOLATION clock X=%s Fx=%s\n",
                     X.clock().toString().c_str(),
                     Fx.clock().toString().c_str());
      AbstractEnv::forEachChangedCell(X, Fx, [&](CellId C) {
        const memory::ScalarAbs *A = X.cell(C), *B = Fx.cell(C);
        if (A && B && !B->leq(*A))
          std::fprintf(stderr,
                       "  VIOLATION cell %u (%s): X=%s Fx=%s clkX=[%s|%s] "
                       "clkF=[%s|%s]\n",
                       C, Layout.cell(C).Name.c_str(),
                       A->Itv.toString().c_str(), B->Itv.toString().c_str(),
                       A->Clk.MinusClk.toString().c_str(),
                       A->Clk.PlusClk.toString().c_str(),
                       B->Clk.MinusClk.toString().c_str(),
                       B->Clk.PlusClk.toString().c_str());
      });
      for (size_t D = 0; D < Exec.Reg.size(); ++D)
        Fx.forEachRel(D, [&](memory::PackId Id,
                             const DomainState::Ptr &SF) {
          DomainState::Ptr SX = X.rel(D, Id);
          if (!SX || !SF || SX == SF)
            return;
          if (!SF->leq(*SX))
            std::fprintf(stderr, "  VIOLATION %s#%u\n    X: %s\n    F: %s\n",
                         Exec.Reg.domain(D).name(), Id,
                         SX->toString().c_str(),
                         SF->toString().c_str());
        });
    }

    // Iterate with the inflated F-hat (7.1.4).
    // The reduced join refines X in place: the delayed-widening census and
    // the widening below read the reduced X.
    AbstractEnv FxHat = perturb(std::move(Fx));
    AbstractEnv Target = T.join(X, FxHat);

    // Bookkeeping for delayed widening: which cells are still unstable?
    std::set<CellId> UnstableNow;
    AbstractEnv::forEachChangedCell(X, Target,
                                    [&](CellId C) { UnstableNow.insert(C); });

    bool UseUnion = false;
    if (Iter < Opts.DelayedWideningSteps) {
      UseUnion = true; // Initial union phase (7.1.3).
    } else if (Opts.DelayedWidening &&
               ConsecutiveHolds < Opts.DelayedWideningFairness) {
      // "We do widenings unless a variable which was not stable becomes
      // stable" — with a fairness bound to avoid livelocks.
      for (CellId C : UnstablePrev) {
        if (!UnstableNow.count(C)) {
          UseUnion = true;
          break;
        }
      }
    }

    if (Iter >= Opts.MaxIterations)
      UseUnion = false; // Force convergence.

    if (UseUnion && Iter >= Opts.DelayedWideningSteps) {
      ++ConsecutiveHolds;
      Stats.add("fixpoint.delayed_widenings");
    } else if (!UseUnion) {
      ConsecutiveHolds = 0;
    }

    if (UseUnion) {
      X = std::move(Target);
    } else {
      bool WithThresholds =
          Opts.WideningWithThresholds && Iter < Opts.MaxIterations;
      std::function<bool(CellId)> FloatCell = [this](CellId C) {
        return C < Layout.numCells() && Layout.cell(C).Ty->isFloat();
      };
      X = AbstractEnv::widen(X, Target, Exec.Thr, WithThresholds,
                             &FloatCell);
      Stats.add("fixpoint.widenings");
    }
    UnstablePrev = std::move(UnstableNow);
  }

  // Narrowing iterations (5.5).
  for (unsigned K = 0; K < Opts.NarrowingIterations; ++K) {
    cancel::poll();
    Stats.add("fixpoint.narrowings");
    LoopStack.back().BreakAcc = AbstractEnv::bottom();
    AbstractEnv In = T.guard(X, W->Cond, true);
    AbstractEnv Fx = In.isBottom() ? AbstractEnv::bottom()
                                   : execLoopBody(W, std::move(In));
    AbstractEnv E0Copy = E0;
    AbstractEnv Joined = T.join(E0Copy, Fx);
    AbstractEnv Next = AbstractEnv::narrow(X, Joined);
    if (AbstractEnv::equal(Next, X))
      break;
    X = std::move(Next);
  }

  T.Checking = SavedChecking;
  return X;
}
