//===- analyzer/Analyzer.h - Top-level analyzer driver -----------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-shot entry point: Analyzer::analyze runs the two phases of
/// Sect. 5 — preprocessing and parsing (mini-cpp, parser, Sema, lowering,
/// constant folding, unused global deletion) followed by the analysis phase
/// (cell layout, packing, abstract execution with checking) — and packages
/// alarms, statistics, pack usefulness and the main-loop invariant census
/// into an AnalysisResult.
///
/// It is a convenience wrapper over AnalysisSession (AnalysisSession.h),
/// which exposes the same pipeline as separately-invokable phases so
/// callers can re-enter at any phase (one frontend run shared across
/// domain-ablation sweeps, batch analysis over a worker pool, ...).
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_ANALYZER_ANALYZER_H
#define ASTRAL_ANALYZER_ANALYZER_H

#include "analyzer/Alarm.h"
#include "analyzer/InvariantStats.h"
#include "analyzer/Options.h"
#include "support/Statistics.h"

#include <map>
#include <string>
#include <vector>

namespace astral {

struct AnalysisInput {
  std::string Source;
  std::string FileName = "program.c";
  /// In-memory headers for #include (the "simple linker" of Sect. 5.1).
  std::map<std::string, std::string> Headers;
  AnalyzerOptions Options;
};

/// Pack census of one registered relational domain.
struct DomainPackStats {
  uint64_t Count = 0;    ///< Packs instantiated for the domain.
  double AvgCells = 0.0; ///< Mean cells per pack (0 when no packs).
};

struct AnalysisResult {
  // -- Frontend --------------------------------------------------------------
  bool FrontendOk = false;
  std::string FrontendErrors;
  uint64_t SourceLines = 0;
  uint64_t NumVariables = 0;
  uint64_t NumUsedVariables = 0;
  uint64_t NumCells = 0;
  uint64_t ExpandedArrayCells = 0;

  // -- Packing ----------------------------------------------------------------
  /// Pack census per registered relational domain, keyed by DomainKind.
  /// Domains that are disabled (or pack-less, like the base domains) have
  /// no entry. The report layer maps this back onto the stable
  /// octagon/tree/ellipsoid JSON fields.
  std::map<DomainKind, DomainPackStats> PackStats;
  uint64_t packCount(DomainKind K) const {
    auto It = PackStats.find(K);
    return It == PackStats.end() ? 0 : It->second.Count;
  }
  double avgPackCells(DomainKind K) const {
    auto It = PackStats.find(K);
    return It == PackStats.end() ? 0.0 : It->second.AvgCells;
  }
  /// Octagon packs that actually carried relational information at the main
  /// loop head (the Sect. 7.2.2 usefulness census).
  std::vector<uint32_t> UsefulOctPacks;

  // -- Analysis ----------------------------------------------------------------
  std::vector<Alarm> Alarms;
  Statistics Stats;
  double AnalysisSeconds = 0.0;
  uint64_t PeakAbstractBytes = 0;

  // -- Resource governance -----------------------------------------------------
  /// Whether a memory budget was configured for this run. The report layer
  /// emits the `degraded` fields only when this is set, so budget-less
  /// reports (the goldens) are byte-identical to pre-governance builds.
  bool MemoryBudgetConfigured = false;
  /// The precision-shedding steps the budget ladder applied, in order
  /// (empty = the run fit its budget). Deterministic for every --jobs
  /// value — see docs/robustness.md.
  std::vector<std::string> DegradeSteps;
  bool degraded() const { return !DegradeSteps.empty(); }

  // -- Main loop invariant -----------------------------------------------------
  bool HasMainLoop = false;
  InvariantCensus MainLoopCensus;
  /// Interval of every named persistent scalar at the main loop head (or at
  /// program end when there is no loop).
  std::vector<std::pair<std::string, Interval>> VariableRanges;
  /// Full textual invariant.
  std::string MainLoopInvariant;

  size_t alarmCount() const { return Alarms.size(); }
};

class Analyzer {
public:
  /// Runs the full pipeline on \p Input (a one-shot AnalysisSession).
  static AnalysisResult analyze(const AnalysisInput &Input);
};

} // namespace astral

#endif // ASTRAL_ANALYZER_ANALYZER_H
