//===- analyzer/AnalysisSession.h - Phased analysis pipeline -----*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The phased top-level API. Where Analyzer::analyze runs the whole
/// pipeline in one shot, an AnalysisSession exposes the pipeline of Sect. 5
/// as separately-invokable phases, each returning a typed artifact:
///
///   runFrontend()          -> FrontendPhase   (tokens -> AST -> IR)
///   layoutCells()          -> LayoutPhase     (the Sect. 6.1.1 memory model)
///   buildPacks()           -> PackingPhase    (Sect. 7.2 packs + registry)
///   runAbstractExecution() -> ExecutionPhase  (fixpoint, checking, alarms)
///   report()               -> AnalysisResult  (the aggregate report)
///
/// Invoking a phase runs every missing predecessor first, so `report()`
/// alone reproduces Analyzer::analyze. The value of the seam is re-entry:
/// `setOptions()` invalidates only from the first phase whose option
/// fingerprint (optionsFingerprint) the new parametrization changes — a
/// domain-ablation sweep pays the frontend once and re-runs from
/// buildPacks() per configuration, while a --jobs change re-runs the
/// execution phase alone.
///
/// Artifact sharing (the service mode's cache seam): the frontend, the cell
/// layout and the packing phase (packs, domain registry, census) are
/// immutable once built and are held by shared_ptr —
/// shareFrontend()/shareLayout()/sharePacking() expose them,
/// adoptFrontend()/adoptPacking() seed a fresh session with artifacts from
/// an earlier one (same content key), skipping those phases entirely. Only
/// the execution artifact and the session's work meter are per session,
/// so concurrent sessions sharing artifacts never share meters.
///
/// Execution policy: AnalyzerOptions::Jobs selects the Scheduler
/// (Scheduler.h) installed for the abstract-execution phase. The trace
/// partitions of a straight-line `If` (no loop, call or jump in either
/// branch) inside an `@astral partition` function and the per-thread runs
/// of an interference round then fan out over it, and
/// analyzeBatch() schedules whole files across the same pool. The analysis
/// semantics — alarms, ranges, invariants, pack census, everything the
/// report layer prints — are byte-identical for every Jobs value: every
/// worker's effects are merged in partition (or thread-declaration) order.
/// Work-metering figures are not: the dispatch counters count only what
/// actually fanned out. The octagon closure counts and the peak abstract
/// bytes come from one per-session meter (a memtrack::Counter that the
/// Scheduler re-installs on every worker running the session's tasks),
/// reset at the start of each execution attempt — so batch files,
/// concurrent daemon requests and re-executions meter their own work.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_ANALYZER_ANALYSISSESSION_H
#define ASTRAL_ANALYZER_ANALYSISSESSION_H

#include "analyzer/Analyzer.h"
#include "analyzer/DomainRegistry.h"
#include "analyzer/Packing.h"
#include "analyzer/Scheduler.h"
#include "ir/Ir.h"
#include "lang/Ast.h"
#include "memory/AbstractEnv.h"
#include "memory/Cell.h"
#include "support/Cancellation.h"
#include "support/MemoryTracker.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace astral {

/// Version of the JSON report schema and of the shareable artifact layout —
/// bumped together, since both describe what the pipeline's phases produce.
/// Reports carry it as "schema_version"; the service's artifact cache bakes
/// it into every cache key and the client checks it on every response, so a
/// daemon from another build vintage misses cleanly instead of serving
/// artifacts the caller would misinterpret.
inline constexpr uint32_t ReportSchemaVersion = 1;

class AnalysisSession {
public:
  /// Frontend artifact: the lowered program plus the frontend census. When
  /// !Ok, Program is null and Errors carries the diagnostics. The AST arena
  /// rides along because the IR shares its Type nodes — the artifact keeps
  /// both alive for every later phase (and any caller holding the program).
  /// Immutable once built; shareable across sessions and threads.
  struct FrontendPhase {
    bool Ok = false;
    std::string Errors;
    uint64_t SourceLines = 0;
    uint64_t NumVariables = 0;
    uint64_t NumUsedVariables = 0;
    uint64_t FoldedExprs = 0;
    uint64_t ConstLoadsReplaced = 0;
    uint64_t GlobalsDeleted = 0;
    double Seconds = 0.0;
    std::unique_ptr<AstContext> Ast;
    std::unique_ptr<ir::Program> Program;
  };

  /// Cell-layout artifact (Sect. 6.1.1 memory model). Immutable once built.
  struct LayoutPhase {
    std::unique_ptr<memory::CellLayout> Layout;
    uint64_t NumCells = 0;
    uint64_t ExpandedArrayCells = 0;
    double Seconds = 0.0;
  };

  /// Packing artifact: the packs, the stateless registry of enabled
  /// relational domains over them, and the per-domain pack census.
  /// Immutable once built; shareable across sessions and threads.
  struct PackingPhase {
    std::unique_ptr<const Packing> Packs;
    std::unique_ptr<const DomainRegistry> Registry;
    std::map<DomainKind, DomainPackStats> PackCensus;
    double Seconds = 0.0;
  };

  /// Abstract-execution artifact: the final environment, per-loop-head
  /// invariants, alarms, statistics, and the per-domain pack-usefulness
  /// flags (Sect. 7.2.2).
  struct ExecutionPhase {
    Statistics Stats;
    std::vector<Alarm> Alarms;
    memory::AbstractEnv Final;
    std::map<uint32_t, memory::AbstractEnv> LoopInvariants;
    std::vector<std::vector<uint8_t>> RelPackImproved;
    double AnalysisSeconds = 0.0;
    uint64_t PeakAbstractBytes = 0;
    /// Precision-shedding steps the memory-budget ladder applied before
    /// this artifact was produced, in order (empty = no budget, or the run
    /// fit it). See runAbstractExecution.
    std::vector<std::string> DegradeSteps;
  };

  /// The pipeline phases, in dependency order. Used by the invalidation
  /// matrix (setOptions) and by the per-phase option fingerprints that the
  /// service cache keys derive from.
  enum class Phase : uint8_t { Frontend, Layout, Packing, Execution };

  explicit AnalysisSession(AnalysisInput In);
  ~AnalysisSession();

  AnalysisSession(const AnalysisSession &) = delete;
  AnalysisSession &operator=(const AnalysisSession &) = delete;

  const AnalysisInput &input() const { return In; }
  const AnalyzerOptions &options() const { return In.Options; }

  /// Re-parametrizes the session, invalidating exactly the phases whose
  /// option fingerprint the new options change: each phase is stale iff
  /// optionsFingerprint(old, P) != optionsFingerprint(new, P) (fingerprints
  /// are cumulative, so staleness cascades down the pipeline). Identical
  /// options invalidate nothing; a --jobs change re-runs only the execution
  /// phase; a domain change re-runs from buildPacks(); an entry-function
  /// change re-runs everything.
  void setOptions(const AnalyzerOptions &O);

  /// Serializes the option subset that phase \p P (and its predecessors)
  /// depends on. This is the single source of truth for both setOptions()
  /// invalidation and the service cache keys: two option sets with equal
  /// fingerprints for P produce identical phase-P artifacts for identical
  /// content. Fingerprints are cumulative: fingerprint(Execution) covers
  /// every option field.
  static std::string optionsFingerprint(const AnalyzerOptions &O, Phase P);

  /// Content-hash cache keys (service mode): SHA-256 over the report schema
  /// version, file name, source, headers, and the phase's option
  /// fingerprint. Equal keys guarantee an equal artifact; any content or
  /// relevant-option drift misses.
  static std::string frontendCacheKey(const AnalysisInput &In);
  static std::string packingCacheKey(const AnalysisInput &In);

  /// Shares an externally-owned scheduler (the batch pool). When unset, the
  /// session builds its own from options().Jobs.
  void setScheduler(std::shared_ptr<Scheduler> S);

  /// Injects an externally-owned cancellation token, installed as the
  /// ambient cancel::Token for the abstract-execution phase. The serve
  /// daemon anchors a request's deadline at arrival and hands each
  /// per-file session its token here; without one, the session builds its
  /// own from options().DeadlineMs / MemoryBudgetBytes, anchored at phase
  /// start. The session arms the token's byte budget against its own
  /// meter either way.
  void setCancelToken(std::shared_ptr<cancel::Token> T);

  // -- Phases (each runs missing predecessors; artifacts are memoized) -----
  const FrontendPhase &runFrontend();
  /// Precondition of the analysis phases: runFrontend().Ok. They throw
  /// std::logic_error on a failed frontend; report() instead degrades to an
  /// error result, so drivers need no special-casing.
  const LayoutPhase &layoutCells();
  const PackingPhase &buildPacks();
  const ExecutionPhase &runAbstractExecution();
  AnalysisResult report();

  // -- Artifact sharing (the service cache seam) ---------------------------
  /// Runs the phase if needed and returns shared ownership of its immutable
  /// artifact.
  std::shared_ptr<const FrontendPhase> shareFrontend();
  std::shared_ptr<const LayoutPhase> shareLayout();
  std::shared_ptr<const PackingPhase> sharePacking();
  /// Seeds a fresh session with a frontend artifact produced from the same
  /// frontendCacheKey(); the frontend phase then never runs here. Must be
  /// called before any phase ran.
  void adoptFrontend(std::shared_ptr<const FrontendPhase> F);
  /// Seeds the layout and packing phases from the same packingCacheKey();
  /// neither phase then runs here. Requires an adopted (or already-run)
  /// frontend from the same content key — the pack tables index into that
  /// program's cells.
  void adoptPacking(std::shared_ptr<const LayoutPhase> L,
                    std::shared_ptr<const PackingPhase> P);

  /// Artifact-presence observers (the setOptions invalidation matrix is
  /// asserted through these).
  bool hasFrontendArtifact() const { return Frontend != nullptr; }
  bool hasLayoutArtifact() const { return Layout != nullptr; }
  bool hasPackingArtifact() const { return Packs != nullptr; }
  bool hasExecutionArtifact() const { return Exec.has_value(); }

  /// Analyzes every input, scheduling whole files across one shared pool
  /// sized by the maximum Jobs of the batch. Results are in input order
  /// and semantically identical to analyzing each file alone. The
  /// per-session work meter (the octagon closure counts, the
  /// peak-abstract-bytes figure) stays per-file.
  static std::vector<AnalysisResult>
  analyzeBatch(const std::vector<AnalysisInput> &Inputs);

private:
  Scheduler *schedulerForRun();
  /// One attempt of the abstract-execution phase under the current options.
  /// Unwinds via cancel::AnalysisCancelled when the ambient token fires;
  /// runAbstractExecution wraps it in the budget-degradation retry loop.
  ExecutionPhase executeOnce();

  AnalysisInput In;
  std::shared_ptr<Scheduler> Sched;     ///< Owned or injected pool.
  bool SchedulerInjected = false;
  unsigned SchedulerJobs = ~0u;         ///< Jobs value Sched was built for.

  std::shared_ptr<const FrontendPhase> Frontend;
  std::shared_ptr<const LayoutPhase> Layout;
  std::shared_ptr<const PackingPhase> Packs;
  std::optional<ExecutionPhase> Exec;
  /// Per-session work meter: abstract-state bytes and octagon closures.
  memtrack::Counter Mem;
  std::shared_ptr<cancel::Token> ExternalCancel; ///< Injected, or null.
};

} // namespace astral

#endif // ASTRAL_ANALYZER_ANALYSISSESSION_H
