//===- analyzer/Transfer.h - Abstract transfer functions ---------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract semantics of assignments, guards and the clock tick across
/// every domain of the environment (Sect. 5.4 "primitives of the iterator",
/// Sect. 6.1.3 "operations on abstract environments"). In checking mode the
/// same evaluation additionally reports alarms for operator applications
/// that may err (Sect. 5.3), then continues with the non-erroneous results.
///
/// Relational domains are reached exclusively through the DomainRegistry and
/// the uniform DomainState signature: Transfer prepares the request (value,
/// linear form, guard operands), loops over the registered domains, and
/// applies whatever interval facts each domain publishes on its
/// ReductionChannel back onto the cell environment — the partial reduction
/// of the extensible reduced product. No domain type appears here.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_ANALYZER_TRANSFER_H
#define ASTRAL_ANALYZER_TRANSFER_H

#include "analyzer/Alarm.h"
#include "analyzer/ExecutionContext.h"
#include "analyzer/Packing.h"
#include "concurrency/Interference.h"
#include "domains/LinearForm.h"
#include "memory/AbstractEnv.h"
#include "support/Statistics.h"

#include <functional>
#include <map>
#include <optional>

namespace astral {

using memory::AbstractEnv;
using memory::CellSel;

/// A by-reference parameter bound, at call time, to a caller region
/// (Sect. 4: "the use of pointers is restricted to call-by-reference").
struct RefBinding {
  ir::VarId Base = ir::NoVar;
  std::vector<memory::ResolvedAccess> Path;
};

class Transfer {
public:
  /// Reads every table from \p Exec and builds none.
  Transfer(const ExecutionContext &Exec, Statistics &Stats, AlarmSet &Alarms);

  /// Worker clone for the trace-partition dispatch: shares the execution
  /// context and the thread-safe Statistics sink, but binds alarms to
  /// \p WorkerAlarms — a per-worker buffer the Iterator merges back in
  /// canonical partition order — and copies the mutable per-run state
  /// (mode, frames, the pack-usefulness flags) so the worker computes
  /// byte-identically to the sequential loop without touching the parent.
  Transfer(const Transfer &Parent, AlarmSet &WorkerAlarms);

  // -- Mode & frames (managed by the Iterator) ---------------------------
  bool Checking = false;
  /// Whether alarms may be reported right now: checking mode, and not
  /// inside a silent evaluation (evalNoCheck) on the calling thread.
  bool checkingNow() const;
  /// Per-domain, per-pack flag: set when the pack's state actually
  /// tightened a cell interval or pruned a branch — the Sect. 7.2.2
  /// usefulness census ("whether each octagon actually improved the
  /// precision"), kept uniformly for every registered domain.
  std::vector<std::vector<uint8_t>> RelPackImproved;
  std::vector<std::map<ir::VarId, RefBinding>> Frames;

  /// Per-thread concurrency context, set by ConcurrentAnalysis for the
  /// interference rounds (null in every sequential analysis). Shared-cell
  /// loads join the rival threads' write intervals into the loaded value and
  /// record the read; shared-cell stores record the written interval.
  /// Recording is semantics, not checking — it happens regardless of mode or
  /// silent evaluation, and the recorder's joins are commutative and
  /// idempotent, so re-recording the same access is harmless.
  const concurrency::ThreadContext *Conc = nullptr;

  const RefBinding *lookupBinding(ir::VarId V) const {
    if (Frames.empty())
      return nullptr;
    auto It = Frames.back().find(V);
    return It == Frames.back().end() ? nullptr : &It->second;
  }

  // -- Environment construction -------------------------------------------
  /// The initial environment: persistent cells zeroed, volatiles at their
  /// specified range, locals at full machine range, relational packs at top.
  AbstractEnv initialEnv() const;

  // -- Evaluation -----------------------------------------------------------
  /// Abstract value of \p E; reports alarms when Checking is set.
  Interval evalExpr(const AbstractEnv &Env, const ir::Expr *E,
                    const CellOverlay *Overlay = nullptr);
  /// Same without alarms, regardless of mode.
  Interval evalNoCheck(const AbstractEnv &Env, const ir::Expr *E,
                       const CellOverlay *Overlay = nullptr);

  /// Linearization of Sect. 6.3: rewrites \p E into an interval linear form
  /// over cells, adding rounding-error terms for float operations;
  /// LinearForm::invalid() when not linearizable.
  LinearForm linearize(const AbstractEnv &Env, const ir::Expr *E);
  /// Interval of a linear form under \p Env.
  Interval evalForm(const AbstractEnv &Env, const LinearForm &F) const;

  // -- Statement transfer ----------------------------------------------------
  /// lvalue := e (e null means "unknown value of the lvalue's type").
  AbstractEnv assign(AbstractEnv Env, const ir::LValue &Lhs,
                     const ir::Expr *Rhs);
  /// lvalue := [interval] (parameter passing / return-value plumbing).
  AbstractEnv assignInterval(AbstractEnv Env, const ir::LValue &Lhs,
                             Interval V);
  /// Refine by condition \p Cond (or its negation).
  AbstractEnv guard(AbstractEnv Env, const ir::Expr *Cond, bool Positive);
  /// Evaluates a condition for its checks only (used once per test in
  /// checking mode, so guard() itself can evaluate silently).
  void checkCond(const AbstractEnv &Env, const ir::Expr *Cond);
  /// Synchronous clock tick (Sect. 4 / clocked domain).
  AbstractEnv wait(AbstractEnv Env);

  /// The reduced join every merge of the analysis makes: the paper's
  /// pre-union reduction ("before computing the union between two abstract
  /// elements") refines \p A and \p B in place from each other, then the
  /// union of the refined pair is returned. Callers that must keep a side
  /// unrefined pass a copy.
  AbstractEnv join(AbstractEnv &A, AbstractEnv &B);

  /// Severs every relational fact about cell \p C, resetting it to its
  /// machine range in all packs. The concurrency driver applies this to
  /// the startup state's shared cells before the thread rounds: relational
  /// packs are thread-local under interference semantics, so a
  /// startup-time fact about a shared cell would outlive rival writes and
  /// later re-tighten a value past the per-load interference join.
  void forgetCellRelations(AbstractEnv &Env, CellId C) {
    relationalForget(Env, C, Exec.CellRange[C]);
  }

  // -- LValue machinery -------------------------------------------------------
  /// Resolves \p Lv under \p Env (substituting by-reference bindings and
  /// evaluating subscripts). Reports array-bounds alarms when Checking and
  /// \p Report are set.
  CellSel resolveLValue(const AbstractEnv &Env, const ir::LValue &Lv,
                        bool Report);
  /// Builds the binding for a by-reference argument at call time.
  RefBinding bindRef(const AbstractEnv &Env, const ir::LValue &Lv);

private:
  friend class TransferEvalContext;

  /// Lets every registered domain refine its states from the sibling's,
  /// via DomainState::preJoinWith — the first half of join().
  void preJoinReduce(AbstractEnv &A, AbstractEnv &B);

  Interval evalBinary(const AbstractEnv &Env, const ir::Expr *E,
                      const CellOverlay *Overlay);
  Interval evalCast(const AbstractEnv &Env, const ir::Expr *E,
                    const CellOverlay *Overlay);
  Interval evalLoad(const AbstractEnv &Env, const ir::Expr *E,
                    const CellOverlay *Overlay);
  /// Interval refinement + relational guards for an atomic comparison
  /// A op B.
  AbstractEnv guardCompare(AbstractEnv Env, const ir::Expr *A,
                           const ir::Expr *B, ir::BinOp Op);
  void alarm(const ir::Expr *E, AlarmKind K, const std::string &Msg,
             bool Definite);

  /// True when \p E (transitively) loads a shared cell under interference
  /// semantics (always false without an active ThreadContext). Such
  /// expressions must not seed relational facts during a thread run: the
  /// packs are thread-local, so a relation through a shared cell survives
  /// rival writes and would later re-tighten a non-shared cell past the
  /// interference join.
  bool exprReadsShared(const AbstractEnv &Env, const ir::Expr *E);

  /// Registered-domain updates for a strong single-cell store.
  void relationalAssign(AbstractEnv &Env, CellId Target,
                        const LinearForm &Form, const Interval &V,
                        const ir::Expr *Rhs);
  /// Invalidation for weak stores.
  void relationalForget(AbstractEnv &Env, CellId C, const Interval &V);

  /// Meets the channel's interval facts into the cell environment,
  /// records pack usefulness, drains statistics notes, and marks the
  /// environment bottom when the publishing domain proved it unreachable.
  void applyChannel(AbstractEnv &Env, size_t D, memory::PackId P,
                    const ReductionChannel &Ch);

  // -- Channel-feeding pack sweeps -----------------------------------------
  /// Outcome of one channel-feeding pack sweep over one registered domain.
  /// Callers translate BottomState/BottomEnv into the exact bottom value
  /// they return (a fresh bottom environment vs. the in-place marked one).
  enum class SweepResult : uint8_t { Ok, BottomState, BottomEnv };

  /// One pack's transfer under the sweep's shared request: returns the new
  /// state (null = unchanged) and publishes interval facts on the channel.
  using SweepOp = std::function<DomainState::Ptr(
      const DomainState &, const DomainEvalContext &, ReductionChannel &)>;

  /// Runs one domain's channel-feeding reduction chain over \p Touched
  /// packs (sorted, unique), in slot order: each pack evaluates under the
  /// cells already refined by the channels of the packs before it. With
  /// \p StopOnBottom, a bottom state or a bottom environment ends the
  /// chain.
  SweepResult runPackSweep(AbstractEnv &Env, size_t D,
                           const std::vector<memory::PackId> &Touched,
                           const SweepOp &Op, bool StopOnBottom);

  const ExecutionContext &Exec;
  const ir::Program &P;
  const memory::CellLayout &Layout;
  const DomainRegistry &Reg;
  const AnalyzerOptions &Opts;
  Statistics &Stats;
  AlarmSet &Alarms;
};

} // namespace astral

#endif // ASTRAL_ANALYZER_TRANSFER_H
