//===- analyzer/DomainRegistry.h - Registered abstract domains ---*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer-side half of the pluggable-domain API: one RelationalDomain
/// adapter per pack-based abstract domain (octagons 6.2.2, decision trees
/// 6.2.4, ellipsoids 6.2.3) — the factory that knows the domain's packs and
/// creates its DomainStates — and the DomainRegistry that owns the ordered
/// set of adapters enabled by AnalyzerOptions::Domains. The iterator and the
/// environment only ever talk to the registry and the uniform DomainState
/// signature; adding a domain means adding an adapter here and a line to the
/// registry constructor, nothing else.
///
/// The concrete DomainState wrappers are exposed so tests and tools can
/// build and inspect states; analysis code must not downcast them.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_ANALYZER_DOMAINREGISTRY_H
#define ASTRAL_ANALYZER_DOMAINREGISTRY_H

#include "analyzer/Packing.h"
#include "domains/DecisionTree.h"
#include "domains/Ellipsoid.h"
#include "domains/Octagon.h"
#include "domains/RelationalDomain.h"

#include <array>
#include <memory>

namespace astral {

struct AnalyzerOptions;
struct InvariantCensus;

//===----------------------------------------------------------------------===//
// Concrete domain states
//===----------------------------------------------------------------------===//

/// Octagon-pack state (6.2.2).
class OctagonState final : public DomainState {
public:
  explicit OctagonState(const Octagon &O) : Oct(O) {}
  const Octagon &value() const { return Oct; }

  DomainKind kind() const override { return DomainKind::Octagon; }
  bool isBottom() const override { return Oct.isBottom(); }
  Ptr bottomLike() const override;
  bool leq(const DomainState &O) const override;
  bool equal(const DomainState &O) const override;
  Ptr join(const DomainState &O) const override;
  Ptr widen(const DomainState &O, const Thresholds &T,
            bool WithThresholds) const override;
  Ptr narrow(const DomainState &O) const override;
  Ptr assignCell(const RelAssign &A, const DomainEvalContext &Ctx,
                 ReductionChannel &Out) const override;
  Ptr forget(CellId C, const Interval &V,
             const DomainEvalContext &Ctx) const override;
  Ptr guard(const RelGuard &G, const DomainEvalContext &Ctx,
            ReductionChannel &Out) const override;
  void refineOut(ReductionChannel &Out) const override;
  bool hasRelationalInfo() const override { return Oct.hasRelationalInfo(); }
  std::string toString() const override { return Oct.toString(); }

private:
  Octagon Oct;
};

/// Decision-tree-pack state (6.2.4). Owns every per-leaf transfer detail
/// (leaf overlays, condition-driven leaf refinement) that used to be
/// hand-wired into the iterator's Transfer.
class DecisionTreeState final : public DomainState {
public:
  explicit DecisionTreeState(const DecisionTree &T) : Tree(T) {}
  const DecisionTree &value() const { return Tree; }

  DomainKind kind() const override { return DomainKind::DecisionTree; }
  bool isBottom() const override { return Tree.isBottom(); }
  Ptr bottomLike() const override;
  bool leq(const DomainState &O) const override;
  bool equal(const DomainState &O) const override;
  Ptr join(const DomainState &O) const override;
  Ptr widen(const DomainState &O, const Thresholds &T,
            bool WithThresholds) const override;
  Ptr narrow(const DomainState &O) const override;
  Ptr assignCell(const RelAssign &A, const DomainEvalContext &Ctx,
                 ReductionChannel &Out) const override;
  Ptr forget(CellId C, const Interval &V,
             const DomainEvalContext &Ctx) const override;
  Ptr guard(const RelGuard &G, const DomainEvalContext &Ctx,
            ReductionChannel &Out) const override;
  Ptr guardBool(CellId C, bool Positive,
                ReductionChannel &Out) const override;
  void refineOut(ReductionChannel &Out) const override;
  bool hasRelationalInfo() const override {
    return Tree.hasRelationalInfo();
  }
  std::string toString() const override { return Tree.toString(); }

private:
  DecisionTree Tree;
};

/// Ellipsoid-pack state (6.2.3): the constraint map plus the pack's filter
/// parameters. Carries an explicit bottom flag (the constraint map itself
/// has no bottom representation).
class EllipsoidPackState final : public DomainState {
public:
  EllipsoidPackState(EllipsoidState S, const FilterParams &P,
                     bool Bottom = false)
      : Map(std::move(S)), Params(P), Bot(Bottom) {}
  const EllipsoidState &value() const { return Map; }
  const FilterParams &params() const { return Params; }

  DomainKind kind() const override { return DomainKind::Ellipsoid; }
  bool isBottom() const override { return Bot; }
  Ptr bottomLike() const override;
  bool leq(const DomainState &O) const override;
  bool equal(const DomainState &O) const override;
  Ptr join(const DomainState &O) const override;
  Ptr widen(const DomainState &O, const Thresholds &T,
            bool WithThresholds) const override;
  Ptr narrow(const DomainState &O) const override;
  Ptr assignCell(const RelAssign &A, const DomainEvalContext &Ctx,
                 ReductionChannel &Out) const override;
  Ptr forget(CellId C, const Interval &V,
             const DomainEvalContext &Ctx) const override;
  void refineOut(ReductionChannel &Out) const override;
  Ptr preJoinWith(const DomainState &Other,
                  const DomainEvalContext &Ctx) const override;
  bool hasRelationalInfo() const override;
  std::string toString() const override;

private:
  EllipsoidState Map;
  FilterParams Params;
  bool Bot = false;
};

//===----------------------------------------------------------------------===//
// Domain adapters
//===----------------------------------------------------------------------===//

/// One registered pack-based relational domain: pack enumeration, state
/// construction and the guard-planning hook. Stateless apart from the
/// borrowed Packing tables; must outlive no longer than the Packing.
class RelationalDomain {
public:
  explicit RelationalDomain(DomainKind K) : Kind(K) {}
  virtual ~RelationalDomain();

  DomainKind kind() const { return Kind; }
  const char *name() const { return domainKindName(Kind); }

  virtual size_t numPacks() const = 0;
  /// Pack ids are dense: 0 .. numPacks()-1, in pack order.
  template <typename FnT> void forEachPack(FnT &&F) const {
    for (PackId P = 0; P < numPacks(); ++P)
      F(P);
  }
  /// Packs containing \p C (empty when none).
  virtual const std::vector<memory::PackId> &packsOf(CellId C) const = 0;
  /// Number of cells in pack \p P (the per-domain pack census of the
  /// analysis report).
  virtual size_t packCellCount(memory::PackId P) const = 0;
  /// The top state of pack \p P.
  virtual DomainState::Ptr topFor(memory::PackId P) const = 0;

  /// Prepares the domain-specific fields of \p G (linearized difference
  /// forms, resolved load cells, ...) and returns the packs an atomic
  /// comparison may refine, sorted and unique. Default: none.
  virtual std::vector<memory::PackId>
  planGuard(RelGuard &G, const DomainEvalContext &Ctx) const;
  /// Whether preJoinReduce must visit this domain's packs (the ellipsoid
  /// pre-union reduction). Default off, so joins skip the pack scan.
  virtual bool usesPreJoinReduction() const { return false; }

  /// Invariant census contribution of one state (Sect. 9.4.1).
  virtual void census(const DomainState &S, InvariantCensus &C,
                      const std::function<void(double)> &NoteConst) const = 0;
  /// Textual dump contribution of one state.
  virtual void dump(const DomainState &S, memory::PackId Id,
                    std::string &Out) const = 0;

private:
  DomainKind Kind;
};

/// The ordered set of enabled relational-domain adapters. Order is
/// semantically meaningful (reductions run in registry order) and mirrors
/// the paper's presentation: octagons, decision trees, ellipsoids.
/// Immutable once built and stateless beyond the borrowed Packing, so one
/// registry serves every session that shares the packing artifact.
class DomainRegistry {
public:
  DomainRegistry(const Packing &Packs, const AnalyzerOptions &Opts);

  size_t size() const { return Domains.size(); }
  const RelationalDomain &domain(size_t D) const { return *Domains[D]; }
  /// Registry index of \p K, or -1 when the domain is not enabled.
  int indexOf(DomainKind K) const {
    return Index[static_cast<size_t>(K)];
  }

private:
  std::vector<std::unique_ptr<RelationalDomain>> Domains;
  std::array<int, NumDomainKinds> Index;
};

} // namespace astral

#endif // ASTRAL_ANALYZER_DOMAINREGISTRY_H
