//===- analyzer/Options.h - Analyzer parametrization -------------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All the analyzer parameters of Sect. 3.2 and 7 ("adaptation by
/// parametrization"): domain selection (for the refinement-order
/// experiments), widening thresholds, delayed widening, floating iteration
/// perturbation, loop unrolling, trace partitioning, packing limits,
/// environment specifications (volatile input ranges, maximal operating
/// time) and the pack-usefulness restriction of Sect. 7.2.2.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_ANALYZER_OPTIONS_H
#define ASTRAL_ANALYZER_OPTIONS_H

#include "domains/Interval.h"
#include "domains/RelationalDomain.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace astral {

struct AnalyzerOptions {
  // -- Abstract domain selection (Sect. 6.2; the refinement sequence of the
  //    alarm experiment E2 ablates these one by one) ------------------------
  /// The enabled abstract domains, driven by --domains= / the `@astral
  /// domains` spec directive. The DomainRegistry instantiates exactly the
  /// pack-based members of this set; the interval base domain is always on.
  DomainSet Domains = DomainSet::all();
  bool domainEnabled(DomainKind K) const { return Domains.has(K); }

  bool EnableLinearization = true; ///< Symbolic linearization (6.3) — an
                                   ///< expression rewrite, not a domain.

  // -- Widening / iteration strategy (Sect. 5.5, 7.1) -----------------------
  // The static constants are the paper's parameters that no flag or
  // directive sets.
  bool WideningWithThresholds = true; ///< Off = plain interval widening.
  /// T = +/- alpha * lambda^k (7.1.2).
  static constexpr double ThresholdAlpha = 1.0;
  static constexpr double ThresholdLambda = 4.0;
  static constexpr unsigned ThresholdCount = 64;
  std::vector<double> ExtraThresholds; ///< End-user supplied values.
  /// N0 union iterations first (7.1.3).
  static constexpr unsigned DelayedWideningSteps = 2;
  bool DelayedWidening = true; ///< Hold widening for newly-stable
                               ///< variables (7.1.3).
  /// Max consecutive holds (livelock fairness condition, 7.1.3).
  static constexpr unsigned DelayedWideningFairness = 8;
  unsigned MaxIterations = 500; ///< Safety cap (then plain widening).
  /// Decreasing iterations (5.5).
  static constexpr unsigned NarrowingIterations = 2;
  /// epsilon of F-hat (7.1.4).
  static constexpr double FloatPerturbation = 1e-6;

  // -- Loop unrolling (7.1.1) ------------------------------------------------
  unsigned DefaultUnroll = 1; ///< Iterations peeled off every loop.

  // -- Trace partitioning (7.1.5) --------------------------------------------
  std::set<std::string> PartitionFunctions; ///< End-user selected functions.
  unsigned MaxPartitions = 16;

  // -- Memory model (6.1.1) ---------------------------------------------------
  unsigned ArrayExpandLimit = 256; ///< Larger arrays are shrunk.

  // -- Packing (7.2) -----------------------------------------------------------
  unsigned MaxOctPackSize = 8;
  unsigned MaxBoolsPerTreePack = 3; ///< The 7.2.3 sweet spot.
  static constexpr unsigned MaxNumsPerTreePack = 4;
  /// When engaged, only these octagon pack ids are instantiated — possibly
  /// none (the Sect. 7.2.2 optimization: reuse the useful-pack list of a
  /// previous run).
  std::optional<std::set<uint32_t>> RestrictOctPacks;

  // -- Environment specification (Sect. 4) -------------------------------------
  /// Ranges of volatile inputs ("essentially ranges of values for a few
  /// hardware registers"), keyed by variable name. Unlisted volatiles get
  /// their full machine-type range.
  std::map<std::string, Interval> VolatileRanges;
  /// Maximal number of clock ticks ("a maximal execution time to limit the
  /// possible number of iterations in the external loop").
  double ClockMax = 3.6e6;

  // -- Execution policy ---------------------------------------------------------
  /// Worker threads for AnalysisSession::analyzeBatch, for the
  /// trace-partition fan-out of straight-line `If` statements (no loop,
  /// call or jump in either branch) inside `@astral partition` functions,
  /// and for the interference rounds of threaded programs
  /// (Monniaux's parallel Astrée direction). 1 = sequential (default);
  /// 0 = one per hardware thread (std::thread::hardware_concurrency,
  /// resolved by Scheduler::effectiveJobs). Requests above the hardware
  /// thread count warn once — oversubscription only adds contention to the
  /// CPU-bound stages. Any value produces the same analysis semantics byte
  /// for byte — alarms, ranges, invariants, pack census, everything the
  /// report layer prints — via a merge in partition order. Work-metering
  /// statistics (dispatch counts, octagon closures) meter the execution
  /// strategy itself and are outside that guarantee.
  unsigned Jobs = 1;

  // -- Resource governance (deadlines + memory budgets) -------------------------
  /// Wall-clock deadline for the abstract-execution phase, in milliseconds;
  /// 0 = none. One-shot runs anchor the deadline at phase start; the serve
  /// daemon anchors it at request arrival (queue wait counts). Expiry
  /// unwinds via cancel::AnalysisCancelled — exit code 4 from the CLI, a
  /// structured `timeout` error response from the daemon.
  uint64_t DeadlineMs = 0;

  /// Abstract-state byte budget checked against the session's deterministic
  /// memtrack live figure at master-thread sequential points (never wall
  /// clock, never worker-local state — that is what keeps budget outcomes
  /// byte-identical across --jobs); 0 = none. The --memory-budget-mb flag
  /// sets this in whole MiB; tests set bytes directly for precise trigger
  /// points.
  uint64_t MemoryBudgetBytes = 0;

  /// What crossing the budget does (--on-budget=degrade|fail):
  ///  - Degrade (default): shed precision deterministically — drop
  ///    ellipsoid packs, then decision-tree packs, then octagon packs, then
  ///    tighten MaxPartitions to 1 — restarting the execution phase after
  ///    each step, and finish with a sound, honestly-labeled report
  ///    (`degraded` report field, analysis.degraded stats). A budget too
  ///    small for even the fully-degraded run is waived on the last rung:
  ///    the contract is "always terminate with a sound result", not "never
  ///    exceed the number".
  ///  - Fail: unwind with AnalysisCancelled(OverBudget) — a structured
  ///    `over-budget` error from the daemon, exit code 4 one-shot.
  enum class BudgetAction : uint8_t { Degrade, Fail };
  BudgetAction OnBudget = BudgetAction::Degrade;

  // -- Concurrency (interference analysis) --------------------------------------
  /// Declared threads as (name, entry-function) pairs, in declaration order
  /// (`@astral thread <name> <entry>` / --threads=name:entry,...). Non-empty
  /// switches the execution phase to the ConcurrentAnalysis interference
  /// rounds: the entry function runs first (startup), then every declared
  /// thread is analyzed from its final state under the rival threads'
  /// accumulated write interferences.
  std::vector<std::pair<std::string, std::string>> Threads;

  // -- Misc ----------------------------------------------------------------------
  std::string EntryFunction = "main";
  unsigned MaxCallDepth = 64;
};

} // namespace astral

#endif // ASTRAL_ANALYZER_OPTIONS_H
