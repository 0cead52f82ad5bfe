//===- analyzer/AnalysisSession.cpp - Phased analysis pipeline --------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "analyzer/AnalysisSession.h"

#include "analyzer/ExecutionContext.h"
#include "analyzer/Iterator.h"
#include "concurrency/ConcurrentAnalysis.h"
#include "ir/ConstFold.h"
#include "ir/Lowering.h"
#include "lang/Parser.h"
#include "lang/Preprocessor.h"
#include "lang/Sema.h"
#include "support/Cancellation.h"
#include "support/FaultInjection.h"
#include "support/MemoryTracker.h"
#include "support/Sha256.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

using namespace astral;
using memory::AbstractEnv;

/// First While statement in the entry function (the periodic synchronous
/// loop of Sect. 4), or ~0u.
static uint32_t findMainLoop(const ir::Program &P) {
  const ir::Function *Entry = P.function(P.Entry);
  if (!Entry || !Entry->Body)
    return ~0u;
  std::vector<const ir::Stmt *> Work{Entry->Body};
  while (!Work.empty()) {
    const ir::Stmt *S = Work.back();
    Work.pop_back();
    if (!S)
      continue;
    if (S->is(ir::StmtKind::While))
      return S->LoopId;
    if (S->is(ir::StmtKind::Seq))
      for (auto It = S->Stmts.rbegin(); It != S->Stmts.rend(); ++It)
        Work.push_back(*It);
    if (S->is(ir::StmtKind::If)) {
      Work.push_back(S->Then);
      Work.push_back(S->Else);
    }
  }
  return ~0u;
}

AnalysisSession::AnalysisSession(AnalysisInput Input) : In(std::move(Input)) {}

AnalysisSession::~AnalysisSession() = default;

//===----------------------------------------------------------------------===//
// Option fingerprints and invalidation
//===----------------------------------------------------------------------===//

namespace {

/// Serializer for one fingerprint. Numbers are rendered exactly: doubles as
/// %a hexfloats (round-trip-exact, so 0.1 vs nextafter(0.1) fingerprints
/// differ), everything else as decimal integers. Fields are newline-framed
/// key=value lines, so no two option states share a rendering.
class FingerprintWriter {
public:
  void field(const char *Key, const std::string &V) {
    Out += Key;
    Out += '=';
    Out += V;
    Out += '\n';
  }
  void field(const char *Key, uint64_t V) { field(Key, std::to_string(V)); }
  void field(const char *Key, bool V) {
    field(Key, std::string(V ? "1" : "0"));
  }
  void field(const char *Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%a", V);
    field(Key, std::string(Buf));
  }

  std::string take() { return std::move(Out); }

private:
  std::string Out;
};

void fingerprintFrontend(const AnalyzerOptions &O, FingerprintWriter &W) {
  // The frontend lowers against the requested entry point (Lowering::run)
  // and validates the declared thread entries; every other option arrives
  // after the IR exists.
  W.field("entry", O.EntryFunction);
  for (const auto &[Name, Fn] : O.Threads)
    W.field("thread", Name + ":" + Fn);
}

void fingerprintLayout(const AnalyzerOptions &O, FingerprintWriter &W) {
  W.field("array_expand_limit", uint64_t(O.ArrayExpandLimit));
}

void fingerprintPacking(const AnalyzerOptions &O, FingerprintWriter &W) {
  W.field("domains", O.Domains.toString());
  W.field("max_oct_pack_size", uint64_t(O.MaxOctPackSize));
  W.field("max_bools_per_tree_pack", uint64_t(O.MaxBoolsPerTreePack));
  // Absent when unrestricted, so "restricted to no pack" (an empty list)
  // fingerprints differently.
  if (O.RestrictOctPacks) {
    std::string Restrict;
    for (uint32_t Id : *O.RestrictOctPacks) { // std::set: already sorted.
      if (!Restrict.empty())
        Restrict += ',';
      Restrict += std::to_string(Id);
    }
    W.field("restrict_oct_packs", Restrict);
  }
}

void fingerprintExecution(const AnalyzerOptions &O, FingerprintWriter &W) {
  W.field("enable_linearization", O.EnableLinearization);
  W.field("widening_with_thresholds", O.WideningWithThresholds);
  for (size_t I = 0; I < O.ExtraThresholds.size(); ++I)
    W.field("extra_threshold", O.ExtraThresholds[I]);
  W.field("delayed_widening", O.DelayedWidening);
  W.field("max_iterations", uint64_t(O.MaxIterations));
  W.field("default_unroll", uint64_t(O.DefaultUnroll));
  for (const std::string &F : O.PartitionFunctions)
    W.field("partition_function", F);
  W.field("max_partitions", uint64_t(O.MaxPartitions));
  for (const auto &[Name, Range] : O.VolatileRanges) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s:%a:%a", Name.c_str(), Range.Lo,
                  Range.Hi);
    W.field("volatile_range", std::string(Buf));
  }
  W.field("clock_max", O.ClockMax);
  // Jobs cannot change the report (the determinism guarantee), but it does
  // change the execution artifact's work-metering statistics — so it
  // fingerprints into the execution phase, never into the shareable ones.
  W.field("jobs", uint64_t(O.Jobs));
  W.field("max_call_depth", uint64_t(O.MaxCallDepth));
  // Resource governance fingerprints into the execution phase only: the
  // budget can change the execution artifact (degradation), and while a
  // deadline cannot change a *successful* artifact, runs that raced a
  // deadline should not be mistaken for unconstrained ones. The shareable
  // frontend/packing artifacts (and hence the service cache keys) are
  // governance-agnostic by construction.
  W.field("deadline_ms", O.DeadlineMs);
  W.field("memory_budget_bytes", O.MemoryBudgetBytes);
  W.field("on_budget", uint64_t(static_cast<uint8_t>(O.OnBudget)));
}

} // namespace

std::string AnalysisSession::optionsFingerprint(const AnalyzerOptions &O,
                                                Phase P) {
  FingerprintWriter W;
  // Cumulative by construction: each phase re-serializes its predecessors'
  // sections, so a change to an early section changes every later
  // fingerprint and staleness cascades down the pipeline.
  fingerprintFrontend(O, W);
  if (P == Phase::Frontend)
    return W.take();
  fingerprintLayout(O, W);
  if (P == Phase::Layout)
    return W.take();
  fingerprintPacking(O, W);
  if (P == Phase::Packing)
    return W.take();
  fingerprintExecution(O, W);
  return W.take();
}

void AnalysisSession::setOptions(const AnalyzerOptions &O) {
  const AnalyzerOptions Old = In.Options;
  In.Options = O;

  auto Stale = [&](Phase P) {
    return optionsFingerprint(Old, P) != optionsFingerprint(O, P);
  };

  // Freed artifacts (the execution phase's abstract environments above all)
  // must meter out of this session's counter, not whichever one the calling
  // thread happens to carry.
  memtrack::CounterScope MemScope(&Mem);
  if (Stale(Phase::Frontend))
    Frontend.reset();
  if (Stale(Phase::Layout))
    Layout.reset();
  if (Stale(Phase::Packing))
    Packs.reset();
  if (Stale(Phase::Execution))
    Exec.reset();
}

//===----------------------------------------------------------------------===//
// Content-hash cache keys
//===----------------------------------------------------------------------===//

namespace {

/// Length-framed field: no concatenation of distinct (name, source, header)
/// tuples can collide.
void hashField(sha256::Hasher &H, const std::string &S) {
  H.update(std::to_string(S.size()));
  H.update(":", 1);
  H.update(S);
}

void hashContent(sha256::Hasher &H, const AnalysisInput &In) {
  hashField(H, "astral-artifact-v" + std::to_string(ReportSchemaVersion));
  hashField(H, In.FileName);
  hashField(H, In.Source);
  for (const auto &[Name, Text] : In.Headers) { // std::map: sorted.
    hashField(H, Name);
    hashField(H, Text);
  }
}

} // namespace

std::string AnalysisSession::frontendCacheKey(const AnalysisInput &In) {
  sha256::Hasher H;
  hashContent(H, In);
  hashField(H, optionsFingerprint(In.Options, Phase::Frontend));
  return H.hexDigest();
}

std::string AnalysisSession::packingCacheKey(const AnalysisInput &In) {
  sha256::Hasher H;
  hashContent(H, In);
  // The packing fingerprint re-serializes the frontend and layout sections
  // (cumulative), so this key covers everything the pack tables depend on.
  hashField(H, optionsFingerprint(In.Options, Phase::Packing));
  return H.hexDigest();
}

//===----------------------------------------------------------------------===//
// Scheduler selection
//===----------------------------------------------------------------------===//

void AnalysisSession::setScheduler(std::shared_ptr<Scheduler> S) {
  Sched = std::move(S);
  SchedulerInjected = Sched != nullptr;
}

void AnalysisSession::setCancelToken(std::shared_ptr<cancel::Token> T) {
  ExternalCancel = std::move(T);
}

Scheduler *AnalysisSession::schedulerForRun() {
  if (SchedulerInjected)
    return Sched.get();
  if (!Sched || SchedulerJobs != In.Options.Jobs) {
    Sched = Scheduler::create(In.Options.Jobs);
    SchedulerJobs = In.Options.Jobs;
  }
  return Sched.get();
}

//===----------------------------------------------------------------------===//
// Artifact sharing
//===----------------------------------------------------------------------===//

std::shared_ptr<const AnalysisSession::FrontendPhase>
AnalysisSession::shareFrontend() {
  runFrontend();
  return Frontend;
}

std::shared_ptr<const AnalysisSession::LayoutPhase>
AnalysisSession::shareLayout() {
  layoutCells();
  return Layout;
}

std::shared_ptr<const AnalysisSession::PackingPhase>
AnalysisSession::sharePacking() {
  buildPacks();
  return Packs;
}

void AnalysisSession::adoptFrontend(std::shared_ptr<const FrontendPhase> F) {
  if (Frontend || Layout || Packs || Exec)
    throw std::logic_error(
        "AnalysisSession::adoptFrontend: phases already ran");
  Frontend = std::move(F);
}

void AnalysisSession::adoptPacking(std::shared_ptr<const LayoutPhase> L,
                                   std::shared_ptr<const PackingPhase> P) {
  if (!Frontend || !Frontend->Ok)
    throw std::logic_error(
        "AnalysisSession::adoptPacking: no frontend artifact to index into");
  if (Layout || Packs || Exec)
    throw std::logic_error(
        "AnalysisSession::adoptPacking: phases already ran");
  Layout = std::move(L);
  Packs = std::move(P);
}

//===----------------------------------------------------------------------===//
// Phase: frontend (Sect. 5.1)
//===----------------------------------------------------------------------===//

const AnalysisSession::FrontendPhase &AnalysisSession::runFrontend() {
  if (Frontend)
    return *Frontend;
  faultinject::fire("frontend");
  Timer PhaseTimer;
  FrontendPhase F;
  F.SourceLines =
      1 + static_cast<uint64_t>(
              std::count(In.Source.begin(), In.Source.end(), '\n'));

  auto Publish = [&]() -> const FrontendPhase & {
    F.Seconds = PhaseTimer.seconds();
    Frontend = std::make_shared<const FrontendPhase>(std::move(F));
    return *Frontend;
  };

  DiagnosticsEngine Diags;
  FileProvider Provider = nullptr;
  if (!In.Headers.empty()) {
    const std::map<std::string, std::string> *Headers = &In.Headers;
    Provider =
        [Headers](const std::string &Name) -> std::optional<std::string> {
      auto It = Headers->find(Name);
      if (It == Headers->end())
        return std::nullopt;
      return It->second;
    };
  }
  Preprocessor PP(Diags, Provider);
  std::vector<Token> Toks = PP.run(In.Source, In.FileName);
  if (Diags.hasErrors()) {
    F.Errors = Diags.formatAll();
    return Publish();
  }

  F.Ast = std::make_unique<AstContext>();
  Parser Parse(std::move(Toks), *F.Ast, Diags);
  if (!Parse.parseTranslationUnit()) {
    F.Errors = Diags.formatAll();
    return Publish();
  }
  Sema TypeCheck(*F.Ast, Diags);
  if (!TypeCheck.run()) {
    F.Errors = Diags.formatAll();
    return Publish();
  }

  ir::Lowering Lower(*F.Ast, Diags);
  std::unique_ptr<ir::Program> P = Lower.run(In.Options.EntryFunction);
  if (!P) {
    F.Errors = Diags.formatAll();
    return Publish();
  }
  ir::ConstFoldStats FoldStats = ir::foldConstants(*P);

  // Declared thread entries are frontend contracts: they must exist, have a
  // body, and take no parameters (there is no spawn site to bind them).
  for (const auto &[TName, Fn] : In.Options.Threads) {
    const ir::Function *TF = P->findFunction(Fn);
    if (!TF || !TF->Body) {
      F.Errors = "thread '" + TName + "': entry function '" + Fn +
                 "' not found or has no body";
      return Publish();
    }
    if (!TF->Params.empty()) {
      F.Errors = "thread '" + TName + "': entry function '" + Fn +
                 "' must take no parameters";
      return Publish();
    }
  }

  F.Ok = true;
  F.NumVariables = P->Vars.size();
  for (const ir::VarInfo &VI : P->Vars)
    if (VI.IsUsed)
      ++F.NumUsedVariables;
  F.FoldedExprs = FoldStats.FoldedExprs;
  F.ConstLoadsReplaced = FoldStats.ConstLoadsReplaced;
  F.GlobalsDeleted = FoldStats.GlobalsDeleted;
  F.Program = std::move(P);
  return Publish();
}

//===----------------------------------------------------------------------===//
// Phase: cell layout (Sect. 6.1.1)
//===----------------------------------------------------------------------===//

const AnalysisSession::LayoutPhase &AnalysisSession::layoutCells() {
  if (Layout)
    return *Layout;
  const FrontendPhase &F = runFrontend();
  if (!F.Ok)
    throw std::logic_error("AnalysisSession: frontend failed: " + F.Errors);
  Timer PhaseTimer;
  LayoutPhase L;
  L.Layout = std::make_unique<memory::CellLayout>(*F.Program,
                                                  In.Options.ArrayExpandLimit);
  L.NumCells = L.Layout->numCells();
  L.ExpandedArrayCells = L.Layout->expandedArrayCells();
  L.Seconds = PhaseTimer.seconds();
  Layout = std::make_shared<const LayoutPhase>(std::move(L));
  return *Layout;
}

//===----------------------------------------------------------------------===//
// Phase: packing + domain registry (Sect. 7.2)
//===----------------------------------------------------------------------===//

const AnalysisSession::PackingPhase &AnalysisSession::buildPacks() {
  if (Packs)
    return *Packs;
  const LayoutPhase &L = layoutCells();
  Timer PhaseTimer;
  PackingPhase P;
  P.Packs = std::make_unique<const Packing>(
      Packing::build(*Frontend->Program, *L.Layout, In.Options));
  P.Registry = std::make_unique<const DomainRegistry>(*P.Packs, In.Options);
  for (size_t D = 0; D < P.Registry->size(); ++D) {
    const RelationalDomain &Dom = P.Registry->domain(D);
    DomainPackStats S;
    S.Count = Dom.numPacks();
    uint64_t TotalCells = 0;
    for (memory::PackId Id = 0; Id < Dom.numPacks(); ++Id)
      TotalCells += Dom.packCellCount(Id);
    S.AvgCells = S.Count ? static_cast<double>(TotalCells) /
                               static_cast<double>(S.Count)
                         : 0.0;
    P.PackCensus[Dom.kind()] = S;
  }
  P.Seconds = PhaseTimer.seconds();
  Packs = std::make_shared<const PackingPhase>(std::move(P));
  return *Packs;
}

//===----------------------------------------------------------------------===//
// Phase: abstract execution (Sect. 5.2-5.5)
//===----------------------------------------------------------------------===//

/// One rung of the budget ladder: sheds the next-cheapest precision from
/// \p O and names the step, or returns null when fully degraded. The order
/// is fixed — most expensive/most dispensable first, mirroring the paper's
/// refinement sequence in reverse: the ellipsoid domain (the filter
/// specialization), then the decision trees, then the octagon packs, then
/// the trace-partitioning width. Each rung leaves a sound (coarser)
/// configuration; the interval base domain is never shed.
static const char *applyDegradeStep(AnalyzerOptions &O) {
  if (O.Domains.has(DomainKind::Ellipsoid)) {
    O.Domains.enable(DomainKind::Ellipsoid, false);
    return "drop-ellipsoid";
  }
  if (O.Domains.has(DomainKind::DecisionTree)) {
    O.Domains.enable(DomainKind::DecisionTree, false);
    return "drop-tree";
  }
  if (O.Domains.has(DomainKind::Octagon)) {
    O.Domains.enable(DomainKind::Octagon, false);
    return "drop-octagon";
  }
  if (O.MaxPartitions > 1) {
    O.MaxPartitions = 1;
    return "tighten-partitions";
  }
  return nullptr;
}

const AnalysisSession::ExecutionPhase &AnalysisSession::runAbstractExecution() {
  if (Exec)
    return *Exec;

  // Resource governance. An injected token (the daemon: deadline anchored
  // at request arrival) wins; otherwise a run with a deadline or budget
  // builds its own, anchored here. The budget is always armed against this
  // session's meter — it is the deterministic trigger the polls read.
  cancel::Token LocalTok;
  cancel::Token *Tok = ExternalCancel.get();
  if (!Tok && (In.Options.DeadlineMs || In.Options.MemoryBudgetBytes)) {
    LocalTok.setDeadlineMs(In.Options.DeadlineMs);
    Tok = &LocalTok;
  }
  cancel::TokenScope TS(Tok);

  // The budget-degradation ladder: each OverBudget unwind sheds one step of
  // precision (applyDegradeStep) and restarts the phase — setOptions
  // invalidates exactly the stale artifacts, so the frontend is never paid
  // again and packing only re-runs when a domain was dropped. The restart
  // begins from the same metered baseline (the unwound attempt's abstract
  // state freed itself under this session's counter), so the whole ladder
  // is a deterministic function of the analysis and the budget — never of
  // wall clock or worker timing. When even the fully-degraded run does not
  // fit, the budget is waived: Astrée's contract is "always terminate with
  // a sound result", and the report says honestly what happened.
  std::vector<std::string> Steps;
  bool Waived = false;
  for (;;) {
    if (Tok)
      Tok->setBudget(Waived ? 0 : In.Options.MemoryBudgetBytes, &Mem);
    try {
      ExecutionPhase E = executeOnce();
      if (In.Options.MemoryBudgetBytes) {
        E.Stats.set("analysis.degraded", Steps.size());
        E.Stats.set("analysis.budget_waived", Waived ? 1 : 0);
      }
      E.DegradeSteps = std::move(Steps);
      Exec = std::move(E);
      return *Exec;
    } catch (const cancel::AnalysisCancelled &C) {
      if (C.reason() != cancel::Reason::OverBudget ||
          In.Options.OnBudget != AnalyzerOptions::BudgetAction::Degrade)
        throw;
      AnalyzerOptions O = In.Options;
      if (const char *Step = applyDegradeStep(O)) {
        Steps.push_back(Step);
        setOptions(O);
      } else {
        Steps.push_back("waive-budget");
        Waived = true;
      }
    }
  }
}

AnalysisSession::ExecutionPhase AnalysisSession::executeOnce() {
  // Fail fast on an already-cancelled/expired token — a loop-free program
  // would otherwise never reach a fixpoint-head poll.
  cancel::poll();
  const PackingPhase &P = buildPacks();
  ExecutionPhase E;

  // The session's own work meter is ambient for the whole phase; the
  // Scheduler re-installs it on every worker running this session's tasks,
  // so concurrent sessions (batch files, daemon requests) each read their
  // own high-water mark and closure counts — even when they share one
  // cached registry. Each attempt starts its figures afresh.
  memtrack::CounterScope MemScope(&Mem);
  Mem.resetRun();
  AlarmSet Alarms;

  // The scheduler is ambient for the whole phase: the Iterator's partition
  // dispatch and the interference rounds fan out over it. Except when this
  // session already runs *inside* a pool task (a batch file on a worker):
  // nested parallelFor would only run inline, so installing the pool there
  // would pay the staging overhead for nothing.
  SchedulerScope Scope(Scheduler::inWorkerTask() ? nullptr
                                                 : schedulerForRun());
  Timer AnalysisTimer;
  const ExecutionContext Ctx(*Frontend->Program, *Layout->Layout, *P.Registry,
                             In.Options);
  if (In.Options.Threads.empty()) {
    Iterator Iter(Ctx, E.Stats, Alarms);
    E.Final = Iter.run();
    E.Alarms = Alarms.alarms();
    E.LoopInvariants = Iter.loopInvariants();
    E.RelPackImproved = Iter.transfer().RelPackImproved;
  } else {
    // Threaded program: the interference fixpoint rounds of
    // concurrency::ConcurrentAnalysis replace the single sequential run.
    // Per-thread analyses fan out over the same ambient scheduler; every
    // merge is in thread-declaration order, so the report stays
    // byte-identical across --jobs.
    concurrency::ConcurrentAnalysis CA(Ctx, E.Stats);
    concurrency::ConcurrentResult CR = CA.run();
    E.Final = std::move(CR.Final);
    E.Alarms = CR.Alarms.alarms();
    E.LoopInvariants = std::move(CR.LoopInvariants);
    E.RelPackImproved = std::move(CR.RelPackImproved);
    E.Stats.set("concurrency.threads", In.Options.Threads.size());
    E.Stats.set("concurrency.rounds", CR.Rounds);
    E.Stats.set("concurrency.interference_cells", CR.InterferenceCells);
    E.Stats.set("concurrency.rounds_capped", CR.Capped ? 1 : 0);
    E.Stats.set("concurrency.alarms.data_race",
                CR.Alarms.countOf(AlarmKind::DataRace));
    E.Stats.set("concurrency.alarms.cross_thread_range",
                CR.Alarms.countOf(AlarmKind::CrossThreadRange));
  }
  E.AnalysisSeconds = AnalysisTimer.seconds();
  E.PeakAbstractBytes = Mem.peakBytes();
  // The full/incremental split meters the closure discipline itself.
  E.Stats.set("analysis.octagon_closures_full", Mem.closuresFull());
  E.Stats.set("analysis.octagon_closures_incremental",
              Mem.closuresIncremental());
  return E;
}

//===----------------------------------------------------------------------===//
// Phase: report assembly
//===----------------------------------------------------------------------===//

AnalysisResult AnalysisSession::report() {
  AnalysisResult R;

  const FrontendPhase &F = runFrontend();
  R.SourceLines = F.SourceLines;
  if (!F.Ok) {
    R.FrontendErrors = F.Errors;
    return R;
  }
  R.FrontendOk = true;
  R.NumVariables = F.NumVariables;
  R.NumUsedVariables = F.NumUsedVariables;

  const LayoutPhase &L = layoutCells();
  R.NumCells = L.NumCells;
  R.ExpandedArrayCells = L.ExpandedArrayCells;

  const ExecutionPhase &E = runAbstractExecution();
  // The budget ladder may have rebuilt the packing phase: read it afresh,
  // so a degraded report counts the packs its analysis actually ran with.
  const PackingPhase &P = buildPacks();
  Timer AssemblyTimer; // Every phase timed itself; this times the rest.
  R.PackStats = P.PackCensus;
  R.Alarms = E.Alarms;
  R.Stats = E.Stats;
  R.AnalysisSeconds = E.AnalysisSeconds;
  R.PeakAbstractBytes = E.PeakAbstractBytes;
  R.MemoryBudgetConfigured = In.Options.MemoryBudgetBytes != 0;
  R.DegradeSteps = E.DegradeSteps;
  R.Stats.set("frontend.folded_exprs", F.FoldedExprs);
  R.Stats.set("frontend.const_loads_replaced", F.ConstLoadsReplaced);
  R.Stats.set("frontend.globals_deleted", F.GlobalsDeleted);

  // ---- Main loop invariant, pack usefulness, variable ranges ----
  const ir::Program &Prog = *F.Program;
  const memory::CellLayout &Cells = *L.Layout;
  const DomainRegistry &Registry = *P.Registry;

  uint32_t MainLoop = findMainLoop(Prog);
  const AbstractEnv *Inv = nullptr;
  auto InvIt = E.LoopInvariants.find(MainLoop);
  if (InvIt != E.LoopInvariants.end()) {
    R.HasMainLoop = true;
    Inv = &InvIt->second;
  }
  const AbstractEnv &Census = Inv ? *Inv : E.Final;
  R.MainLoopCensus = censusInvariant(Census, Cells, Registry);
  R.MainLoopInvariant = dumpInvariant(Census, Cells, Registry);

  // Sect. 7.2.2: "our analyzer outputs, as part of the result, whether each
  // octagon actually improved the precision of the analysis". The transfer
  // tracks usefulness uniformly per registered domain; pick the octagon row.
  int OctDomain = Registry.indexOf(DomainKind::Octagon);
  if (OctDomain >= 0) {
    const std::vector<uint8_t> &Improved =
        E.RelPackImproved[static_cast<size_t>(OctDomain)];
    for (uint32_t Id = 0; Id < Improved.size(); ++Id)
      if (Improved[Id])
        R.UsefulOctPacks.push_back(Id);
  }

  for (CellId C = 0; C < Cells.numCells(); ++C) {
    const memory::CellInfo &CI = Cells.cell(C);
    if (!Prog.var(CI.Var).IsPersistent || CI.IsVolatile)
      continue;
    R.VariableRanges.push_back({CI.Name, Census.cellInterval(C)});
  }

  // Sum of the memoized phase timings plus this assembly: re-entrant
  // callers see only the phases that actually ran for this report.
  double TotalSeconds = F.Seconds + L.Seconds + P.Seconds +
                        E.AnalysisSeconds + AssemblyTimer.seconds();
  R.Stats.set("analysis.total_ms", static_cast<uint64_t>(TotalSeconds * 1e3));
  return R;
}

//===----------------------------------------------------------------------===//
// Batch analysis
//===----------------------------------------------------------------------===//

std::vector<AnalysisResult>
AnalysisSession::analyzeBatch(const std::vector<AnalysisInput> &Inputs) {
  std::vector<AnalysisResult> Results(Inputs.size());
  if (Inputs.empty())
    return Results;

  // One pool for the whole batch, sized by the widest request; Jobs == 0
  // anywhere means "hardware concurrency" (Scheduler::effectiveJobs, the
  // one resolver of the 0 convention).
  unsigned Jobs = 1;
  for (const AnalysisInput &I : Inputs)
    Jobs = std::max(Jobs, Scheduler::effectiveJobs(I.Options.Jobs));
  std::shared_ptr<Scheduler> Pool = Scheduler::create(Jobs);

  // Whole files are the tasks (Monniaux's coarse-grained dispatch); a
  // file's own partition dispatch runs inline on its worker, so one pool
  // serves both granularities without oversubscription.
  Pool->parallelFor(Inputs.size(), [&](size_t I) {
    AnalysisSession S(Inputs[I]);
    S.setScheduler(Pool);
    Results[I] = S.report();
  });
  return Results;
}
