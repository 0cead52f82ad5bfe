//===- domains/RelationalDomain.h - Uniform relational-domain API -*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform signature every relational abstract domain implements
/// (Sect. 6: the analyzer is an *extensible reduced product* — each domain
/// implements one common interface and communicates refinements to its peers
/// through partial reductions, so new domains can be added without touching
/// the iterator).
///
/// Three pieces:
///  - DomainKind / DomainSet: the identity of each abstract domain and the
///    enabled subset ("--domains=interval,clocked,octagon,tree,ellipsoid").
///  - ReductionChannel: per-cell interval facts a domain publishes
///    (refineOut), so domains exchange reductions without knowing each
///    other's types — the paper's partial-reduction mechanism between the
///    interval environment and the relational packs.
///  - DomainState: one immutable abstract value of one domain for one pack,
///    with the common lattice (join/widen/narrow/leq/equal) and transfer
///    (assignCell/guard/forget) signature. Binary operations return null to
///    mean "unchanged — keep the receiver", which preserves the
///    physical-equality sharing short-cuts of Sect. 6.1.2.
///
/// The per-domain factories (pack enumeration, topFor) live in the
/// analyzer's DomainRegistry; this header is the domain-side contract only.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_DOMAINS_RELATIONALDOMAIN_H
#define ASTRAL_DOMAINS_RELATIONALDOMAIN_H

#include "domains/LinearForm.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace astral {

class Thresholds;

namespace ir {
class Expr;
enum class BinOp : uint8_t;
} // namespace ir

//===----------------------------------------------------------------------===//
// Domain identity and selection
//===----------------------------------------------------------------------===//

/// Every abstract domain of Sect. 6.2. Interval and Clocked are the per-cell
/// base domains (their reduced product is the cell abstraction of 6.1);
/// Octagon, DecisionTree and Ellipsoid are the pack-based relational domains
/// registered with the DomainRegistry.
enum class DomainKind : uint8_t {
  Interval,     ///< Base interval domain (6.2.1) — always enabled.
  Clocked,      ///< Clocked domain x +/- clock (6.2.1).
  Octagon,      ///< Octagon packs (6.2.2).
  DecisionTree, ///< Boolean decision trees (6.2.4).
  Ellipsoid,    ///< Filter ellipsoids (6.2.3).
};

inline constexpr size_t NumDomainKinds = 5;

/// Canonical name of a domain kind ("interval", "clocked", "octagon",
/// "tree", "ellipsoid").
const char *domainKindName(DomainKind K);

/// The set of enabled abstract domains — the refinement-order experiments of
/// Sect. 9.2 ablate these one by one. The interval domain is the base the
/// reduced product collapses onto and can never be disabled.
class DomainSet {
public:
  /// Everything on (the paper's full configuration).
  static DomainSet all() {
    DomainSet S;
    S.Mask = 0x1F;
    return S;
  }
  /// Plain interval analysis (the starting-point analyzer of Sect. 2).
  static DomainSet intervalOnly() { return DomainSet(); }

  bool has(DomainKind K) const {
    return (Mask & bit(K)) != 0 || K == DomainKind::Interval;
  }
  DomainSet &enable(DomainKind K, bool On = true) {
    if (On)
      Mask |= bit(K);
    else if (K != DomainKind::Interval)
      Mask &= static_cast<uint8_t>(~bit(K));
    return *this;
  }

  bool operator==(const DomainSet &O) const { return Mask == O.Mask; }

  /// Parses a comma-separated domain list ("interval,octagon,tree"). Returns
  /// nullopt on an unknown name or an empty list.
  static std::optional<DomainSet> parse(const std::string &List);
  /// Canonical comma-separated rendering.
  std::string toString() const;

private:
  static uint8_t bit(DomainKind K) {
    return static_cast<uint8_t>(1u << static_cast<unsigned>(K));
  }
  uint8_t Mask = bit(DomainKind::Interval);
};

//===----------------------------------------------------------------------===//
// Reduction channels
//===----------------------------------------------------------------------===//

/// Per-cell interval facts exchanged between domains during reduction. A
/// domain publishes the interval consequences of its own constraints
/// (refineOut) — e.g. an octagon publishes the unary bounds implied by its
/// closed DBM — and the iterator meets them into the cell environment, from
/// where every other domain reads them (DomainEvalContext). Facts are applied
/// in publication order. markBottom() signals that the publishing domain
/// proved the state unreachable. Domains may also attach statistics notes so
/// counting stays inside the domain implementation.
class ReductionChannel {
public:
  void publish(CellId C, const Interval &I) { Facts.push_back({C, I}); }
  void markBottom() { Bottom = true; }
  bool isBottom() const { return Bottom; }
  bool empty() const { return Facts.empty() && !Bottom; }

  /// The fact published for \p C, or null. Linear scan: channels are small
  /// (one pack's worth of cells).
  const Interval *fact(CellId C) const {
    for (const auto &[Cell, I] : Facts)
      if (Cell == C)
        return &I;
    return nullptr;
  }

  template <typename FnT> void forEachFact(FnT &&F) const {
    for (const auto &[C, I] : Facts)
      F(C, I);
  }

  void noteStat(const char *Key, uint64_t N = 1) {
    StatNotes.push_back({Key, N});
  }
  template <typename FnT> void forEachStat(FnT &&F) const {
    for (const auto &[Key, N] : StatNotes)
      F(Key, N);
  }

private:
  std::vector<std::pair<CellId, Interval>> Facts;
  std::vector<std::pair<const char *, uint64_t>> StatNotes;
  bool Bottom = false;
};

//===----------------------------------------------------------------------===//
// Evaluation context
//===----------------------------------------------------------------------===//

/// Optional cell-interval overlay used for per-leaf decision-tree
/// evaluation: returns a replacement interval for a cell, or null.
using CellOverlay = std::function<const Interval *(CellId)>;

/// What a domain's transfer functions may ask of the surrounding analysis:
/// the current interval of any cell, silent expression evaluation (under an
/// optional overlay), linearization (Sect. 6.3), and lvalue resolution. The
/// iterator's Transfer implements this; domains stay ignorant of the
/// environment representation and of each other.
class DomainEvalContext {
public:
  virtual ~DomainEvalContext() = default;
  /// Current interval abstraction of \p C.
  virtual Interval cellInterval(CellId C) const = 0;
  /// Silent (non-alarming) abstract evaluation of \p E.
  virtual Interval eval(const ir::Expr *E,
                        const CellOverlay *Overlay = nullptr) const = 0;
  /// Interval linear form of \p E (LinearForm::invalid() when not
  /// linearizable).
  virtual LinearForm linearize(const ir::Expr *E) const = 0;
  /// The single cell a Load expression strongly designates, or NoCellId.
  virtual CellId strongLoadCell(const ir::Expr *E) const = 0;
};

inline constexpr CellId NoCellId = UINT32_MAX;

//===----------------------------------------------------------------------===//
// Transfer-function requests
//===----------------------------------------------------------------------===//

/// A strong single-cell assignment Target := Rhs, pre-digested by the
/// iterator: \p Form is the linearized right-hand side (may be invalid), \p
/// Value its interval, \p Rhs the expression (null for interval-only
/// assignments such as parameter passing).
struct RelAssign {
  CellId Target = NoCellId;
  const LinearForm *Form = nullptr;
  Interval Value;
  const ir::Expr *Rhs = nullptr;
};

/// An atomic comparison guard A op B (op already negation-normalized). The
/// domain's planGuard fills the lazy fields it needs — the linearized
/// difference forms for octagons, the strongly-resolved load cells for
/// decision trees — so each domain prepares exactly once per guard, after
/// the reductions of the domains before it in the registry order.
struct RelGuard {
  const ir::Expr *A = nullptr;
  const ir::Expr *B = nullptr;
  ir::BinOp Op{};
  bool IsInt = false;
  // Filled by RelationalDomain::planGuard:
  LinearForm Diff = LinearForm::invalid();    ///< A - B (octagons).
  LinearForm NegDiff = LinearForm::invalid(); ///< B - A (octagons).
  CellId CellA = NoCellId, CellB = NoCellId;  ///< Strong load cells (trees).
};

//===----------------------------------------------------------------------===//
// DomainState
//===----------------------------------------------------------------------===//

/// One immutable abstract value of one relational domain for one pack.
/// Instances are shared across environments (copy-on-write behind
/// shared_ptr<const>); every operation returns a fresh state, or null for
/// "unchanged — keep the receiver" (binary lattice operations and transfer
/// functions alike), which the persistent-map sharing short-cuts rely on.
///
/// Binary operations are only ever applied to two states of the same domain
/// and the same pack; implementations downcast the argument unchecked.
class DomainState {
public:
  using Ptr = std::shared_ptr<const DomainState>;

  virtual ~DomainState();

  virtual DomainKind kind() const = 0;
  virtual bool isBottom() const = 0;

  /// The bottom (unreachable) state of the same pack shape.
  virtual Ptr bottomLike() const = 0;

  // -- Lattice -----------------------------------------------------------
  virtual bool leq(const DomainState &O) const = 0;
  virtual bool equal(const DomainState &O) const = 0;
  virtual Ptr join(const DomainState &O) const = 0;
  virtual Ptr widen(const DomainState &O, const Thresholds &T,
                    bool WithThresholds) const = 0;
  virtual Ptr narrow(const DomainState &O) const = 0;

  // -- Transfer ----------------------------------------------------------
  /// Strong single-cell assignment; the target is guaranteed to belong to
  /// this state's pack. Interval consequences go out through \p Out.
  virtual Ptr assignCell(const RelAssign &A, const DomainEvalContext &Ctx,
                         ReductionChannel &Out) const = 0;
  /// Invalidation for a weak store to \p C (new value bounded by \p V).
  virtual Ptr forget(CellId C, const Interval &V,
                     const DomainEvalContext &Ctx) const = 0;
  /// Refinement by an atomic comparison (fields prepared by planGuard).
  /// Default: no refinement.
  virtual Ptr guard(const RelGuard &G, const DomainEvalContext &Ctx,
                    ReductionChannel &Out) const;
  /// Refinement by a bare boolean test on cell \p C. Default: none.
  virtual Ptr guardBool(CellId C, bool Positive,
                        ReductionChannel &Out) const;

  // -- Reduction ---------------------------------------------------------
  /// Publishes the per-cell interval facts implied by this state (the
  /// octagon -> interval and tree-leaf -> interval reductions).
  virtual void refineOut(ReductionChannel &Out) const = 0;
  /// The paper's pre-union reduction ("before computing the union between
  /// two abstract elements"): refine from a sibling state of the same pack
  /// plus the local interval information. Default: none.
  virtual Ptr preJoinWith(const DomainState &Other,
                          const DomainEvalContext &Ctx) const;

  // -- Introspection -----------------------------------------------------
  /// True when the state carries information the plain interval environment
  /// does not (pack usefulness, Sect. 7.2.2).
  virtual bool hasRelationalInfo() const = 0;
  virtual std::string toString() const = 0;
};

} // namespace astral

#endif // ASTRAL_DOMAINS_RELATIONALDOMAIN_H
