//===- analyzer/Alarm.h - Run-time error alarms ------------------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Alarms raised in checking mode (Sect. 5.3): "the iterator issues a
/// warning for each operator application that may give an error on the
/// concrete level". One alarm is recorded per (program point, category);
/// re-visiting the same operation (e.g. in an inlined callee from another
/// call site) keeps the first record and counts the repetition.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_ANALYZER_ALARM_H
#define ASTRAL_ANALYZER_ALARM_H

#include "support/SourceLocation.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace astral {

enum class AlarmKind : uint8_t {
  IntOverflow,    ///< Machine integer wrap-around.
  FloatOverflow,  ///< |result| exceeds the float type's largest finite value.
  DivByZero,      ///< Integer or float division / modulo by zero.
  ArrayBounds,    ///< Out-of-bounds subscript.
  InvalidShift,   ///< Shift amount outside [0, width-1].
  ConvOverflow,   ///< Conversion target cannot represent the value.
  AssertFail,     ///< __astral_assert may fail.
  DataRace,       ///< Unsynchronized rival access to a shared cell.
  CrossThreadRange, ///< Error reachable only via rival threads' writes.
};

inline const char *alarmKindName(AlarmKind K) {
  switch (K) {
  case AlarmKind::IntOverflow: return "integer-overflow";
  case AlarmKind::FloatOverflow: return "float-overflow";
  case AlarmKind::DivByZero: return "division-by-zero";
  case AlarmKind::ArrayBounds: return "array-out-of-bounds";
  case AlarmKind::InvalidShift: return "invalid-shift";
  case AlarmKind::ConvOverflow: return "conversion-overflow";
  case AlarmKind::AssertFail: return "assertion-failure";
  case AlarmKind::DataRace: return "data-race";
  case AlarmKind::CrossThreadRange: return "cross-thread-range";
  }
  return "unknown";
}

struct Alarm {
  uint32_t Point = 0;
  SourceLocation Loc;
  AlarmKind Kind = AlarmKind::IntOverflow;
  std::string Message;
  /// True when the error occurs on every execution reaching the point.
  bool Definite = false;
  /// Times the same (point, kind) was re-reported (polyvariant contexts).
  uint32_t Repeats = 0;
};

/// Deduplicating alarm collection.
class AlarmSet {
public:
  void report(uint32_t Point, SourceLocation Loc, AlarmKind Kind,
              const std::string &Message, bool Definite) {
    auto [It, Inserted] = Index.try_emplace(
        std::make_pair(Point, static_cast<uint8_t>(Kind)), Alarms.size());
    if (!Inserted) {
      Alarm &A = Alarms[It->second];
      ++A.Repeats;
      A.Definite = A.Definite || Definite;
      return;
    }
    Alarms.push_back(Alarm{Point, Loc, Kind, Message, Definite, 0});
  }

  /// Folds another set's alarms into this one: equivalent to re-issuing
  /// every report of \p O, in \p O's report order. Partition workers buffer
  /// alarms into private sets; the master merges them back in canonical
  /// partition order, so the combined record/repeat/definite state is
  /// byte-identical to the sequential run.
  void merge(const AlarmSet &O) {
    for (const Alarm &A : O.Alarms) {
      auto [It, Inserted] = Index.try_emplace(
          std::make_pair(A.Point, static_cast<uint8_t>(A.Kind)),
          Alarms.size());
      if (!Inserted) {
        Alarm &M = Alarms[It->second];
        M.Repeats += A.Repeats + 1;
        M.Definite = M.Definite || A.Definite;
        continue;
      }
      Alarms.push_back(A);
    }
  }

  const std::vector<Alarm> &alarms() const { return Alarms; }
  size_t size() const { return Alarms.size(); }
  bool empty() const { return Alarms.empty(); }

  size_t countOf(AlarmKind K) const {
    size_t N = 0;
    for (const Alarm &A : Alarms)
      if (A.Kind == K)
        ++N;
    return N;
  }

private:
  std::vector<Alarm> Alarms;
  std::map<std::pair<uint32_t, uint8_t>, size_t> Index;
};

} // namespace astral

#endif // ASTRAL_ANALYZER_ALARM_H
