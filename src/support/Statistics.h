//===- support/Statistics.h - Analysis statistics registry -------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named counters collected during an analysis run (fixpoint iterations,
/// widening applications, octagon closures split by discipline
/// (`analysis.octagon_closures_full` /
/// `analysis.octagon_closures_incremental`), alarms by category, ...). The
/// registry is per-run, not global, so benches and batch analyses can run
/// many analyses and compare counters side by side without
/// cross-contamination.
///
/// Accumulation is thread-safe: scheduler tasks (partition workers, thread
/// runs of the interference rounds) bump counters concurrently. Because every
/// mutation is a commutative add or max (or an idempotent set outside the
/// parallel phases), totals are independent of task interleaving — a
/// requirement of the `--jobs=N` determinism guarantee.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SUPPORT_STATISTICS_H
#define ASTRAL_SUPPORT_STATISTICS_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace astral {

/// A per-run bag of named counters.
class Statistics {
public:
  Statistics() = default;
  Statistics(const Statistics &O) : Counters(O.snapshot()) {}
  Statistics &operator=(const Statistics &O) {
    if (this != &O) {
      std::map<std::string, uint64_t> Copy = O.snapshot();
      std::lock_guard<std::mutex> L(Mu);
      Counters = std::move(Copy);
    }
    return *this;
  }

  void add(const std::string &Name, uint64_t Delta = 1) {
    std::lock_guard<std::mutex> L(Mu);
    Counters[Name] += Delta;
  }
  void set(const std::string &Name, uint64_t Value) {
    std::lock_guard<std::mutex> L(Mu);
    Counters[Name] = Value;
  }
  /// Raises \p Name to \p Value when that is higher: a high-water mark.
  void max(const std::string &Name, uint64_t Value) {
    std::lock_guard<std::mutex> L(Mu);
    uint64_t &C = Counters[Name];
    C = std::max(C, Value);
  }
  uint64_t get(const std::string &Name) const {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }
  /// A consistent copy of every counter (sorted by name).
  std::map<std::string, uint64_t> all() const { return snapshot(); }

  /// Renders "name = value" lines sorted by name.
  std::string toString() const;

private:
  std::map<std::string, uint64_t> snapshot() const {
    std::lock_guard<std::mutex> L(Mu);
    return Counters;
  }

  mutable std::mutex Mu;
  std::map<std::string, uint64_t> Counters;
};

} // namespace astral

#endif // ASTRAL_SUPPORT_STATISTICS_H
