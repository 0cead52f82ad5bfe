//===- domains/RelationalDomain.cpp - Uniform relational-domain API ---------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "domains/RelationalDomain.h"

using namespace astral;

const char *astral::domainKindName(DomainKind K) {
  switch (K) {
  case DomainKind::Interval:
    return "interval";
  case DomainKind::Clocked:
    return "clocked";
  case DomainKind::Octagon:
    return "octagon";
  case DomainKind::DecisionTree:
    return "tree";
  case DomainKind::Ellipsoid:
    return "ellipsoid";
  }
  return "?";
}

std::optional<DomainSet> DomainSet::parse(const std::string &List) {
  DomainSet S; // Interval only; named domains are added.
  size_t At = 0;
  bool Any = false;
  while (At <= List.size()) {
    size_t Comma = List.find(',', At);
    std::string Name = List.substr(
        At, Comma == std::string::npos ? std::string::npos : Comma - At);
    At = Comma == std::string::npos ? List.size() + 1 : Comma + 1;
    if (Name.empty())
      continue;
    Any = true;
    if (Name == "interval")
      S.enable(DomainKind::Interval);
    else if (Name == "clocked")
      S.enable(DomainKind::Clocked);
    else if (Name == "octagon")
      S.enable(DomainKind::Octagon);
    else if (Name == "tree")
      S.enable(DomainKind::DecisionTree);
    else if (Name == "ellipsoid")
      S.enable(DomainKind::Ellipsoid);
    else if (Name == "all")
      S = DomainSet::all();
    else
      return std::nullopt;
  }
  if (!Any)
    return std::nullopt;
  return S;
}

std::string DomainSet::toString() const {
  std::string Out = "interval";
  static constexpr DomainKind Order[] = {
      DomainKind::Clocked, DomainKind::Octagon, DomainKind::DecisionTree,
      DomainKind::Ellipsoid};
  for (DomainKind K : Order)
    if (has(K)) {
      Out += ',';
      Out += domainKindName(K);
    }
  return Out;
}

DomainState::~DomainState() = default;

DomainState::Ptr DomainState::guard(const RelGuard &, const DomainEvalContext &,
                                    ReductionChannel &) const {
  return nullptr;
}

DomainState::Ptr DomainState::guardBool(CellId, bool,
                                        ReductionChannel &) const {
  return nullptr;
}

DomainState::Ptr DomainState::preJoinWith(const DomainState &,
                                          const DomainEvalContext &) const {
  return nullptr;
}
