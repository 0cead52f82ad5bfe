//===- e2ebench/Harness.h - Pure helpers of bench_e2e ----------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The side-effect-free pieces of bench_e2e: sample statistics, report
/// normalization, the family oracles, the statistics dump parser and span
/// self-time arithmetic. They
/// live apart from the process plumbing so `bench_e2e --self-test` can
/// check each one on synthetic inputs.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_E2EBENCH_HARNESS_H
#define ASTRAL_E2EBENCH_HARNESS_H

#include "service/Json.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e {

//===----------------------------------------------------------------------===//
// Sample statistics
//===----------------------------------------------------------------------===//

/// Median with Python's statistics.median convention (mean of the two
/// middle values for an even count). 0 for an empty sample.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// The three cut points of Python's statistics.quantiles(V, n=4) with its
/// default 'exclusive' method, so spreads computed here match the ones
/// Python computes from the result files.
inline std::array<double, 3> quartiles(std::vector<double> V) {
  std::array<double, 3> Q{0, 0, 0};
  if (V.empty())
    return Q;
  std::sort(V.begin(), V.end());
  if (V.size() == 1)
    return {V[0], V[0], V[0]};
  const long Ld = static_cast<long>(V.size());
  const long M = Ld + 1;
  for (long I = 1; I < 4; ++I) {
    long J = std::clamp(I * M / 4, 1L, Ld - 1);
    long Delta = I * M - J * 4;
    Q[I - 1] = (V[J - 1] * double(4 - Delta) + V[J] * double(Delta)) / 4.0;
  }
  return Q;
}

/// A nearest-rank percentile and the number of samples strictly beyond it.
/// A tail percentile is trusted only with at least ten samples beyond it;
/// Beyond lets the caller state how many there were.
struct Percentile {
  double Value = 0.0;
  size_t Beyond = 0;
};

inline Percentile percentile(std::vector<double> V, double P) {
  Percentile R;
  if (V.empty())
    return R;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * double(V.size())));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  R.Value = V[Rank - 1];
  R.Beyond = V.size() - Rank;
  return R;
}

//===----------------------------------------------------------------------===//
// Report normalization
//===----------------------------------------------------------------------===//

/// Rewrites every `"<Key>": <value>` so that <value> becomes \p Replacement.
/// \p ValueEnd returns the end of the value text starting at a position.
template <typename EndFn>
void replaceField(std::string &S, const std::string &Key,
                  const std::string &Replacement, EndFn ValueEnd) {
  const std::string Needle = "\"" + Key + "\": ";
  size_t Pos = 0;
  while ((Pos = S.find(Needle, Pos)) != std::string::npos) {
    size_t Begin = Pos + Needle.size();
    size_t End = ValueEnd(S, Begin);
    if (End == Begin) {
      Pos = Begin;
      continue;
    }
    S.replace(Begin, End - Begin, Replacement);
    Pos = Begin + Replacement.size();
  }
}

/// The golden normalization of tests/golden/run_golden.cmake: the
/// wall-clock `analysis_seconds` and the input path in `file` are the only
/// fields that may differ between two runs of one analysis.
inline std::string normalizeReport(std::string S) {
  replaceField(S, "analysis_seconds", "\"<time>\"",
               [](const std::string &T, size_t B) {
                 size_t E = B;
                 while (E < T.size() &&
                        std::string_view("0123456789.eE+-").find(T[E]) !=
                            std::string_view::npos)
                   ++E;
                 return E;
               });
  replaceField(S, "file", "\"<input>\"", [](const std::string &T, size_t B) {
    if (B >= T.size() || T[B] != '"')
      return B;
    size_t Close = T.find('"', B + 1);
    return Close == std::string::npos ? B : Close + 1;
  });
  return S;
}

/// The report's `analysis_seconds` (abstract execution only), or 0.
inline double reportAnalysisSeconds(const std::string &Report) {
  const std::string Needle = "\"analysis_seconds\": ";
  size_t Pos = Report.find(Needle);
  if (Pos == std::string::npos)
    return 0.0;
  return std::strtod(Report.c_str() + Pos + Needle.size(), nullptr);
}

//===----------------------------------------------------------------------===//
// Family oracles
//===----------------------------------------------------------------------===//

/// The marker FamilyGenerator puts on every injected division by zero.
inline constexpr const char *InjectedBugMarker = "/* real division by zero */";

/// 1-based line numbers of the injected bugs in the text the analyzer reads.
inline std::vector<unsigned> injectedBugLines(const std::string &Text) {
  std::vector<unsigned> Lines;
  unsigned Line = 1;
  size_t Begin = 0;
  while (Begin <= Text.size()) {
    size_t End = Text.find('\n', Begin);
    if (End == std::string::npos)
      End = Text.size();
    if (std::string_view(Text).substr(Begin, End - Begin).find(
            InjectedBugMarker) != std::string_view::npos)
      Lines.push_back(Line);
    Begin = End + 1;
    ++Line;
  }
  return Lines;
}

/// Outcome of checking one family report against its generator's ground
/// truth: every alarm off an injected-bug line is false, and every
/// injected-bug line without a division-by-zero alarm is a missed bug.
struct FamilyVerdict {
  bool Parsed = false;
  bool FrontendOk = false;
  unsigned FalseAlarms = 0;
  unsigned MissedBugs = 0;

  bool ok() const {
    return Parsed && FrontendOk && FalseAlarms == 0 && MissedBugs == 0;
  }
};

inline FamilyVerdict checkFamilyReport(const std::string &Report,
                                       const std::vector<unsigned> &BugLines) {
  FamilyVerdict V;
  std::string Err;
  std::optional<astral::service::JsonValue> Doc =
      astral::service::JsonValue::parse(Report, Err);
  if (!Doc || !Doc->isObject())
    return V;
  const astral::service::JsonValue *Ok = Doc->find("frontend_ok");
  const astral::service::JsonValue *Alarms = Doc->find("alarms");
  if (!Ok || !Ok->isBool())
    return V;
  V.FrontendOk = Ok->asBool();
  if (V.FrontendOk && (!Alarms || !Alarms->isArray()))
    return V;
  V.Parsed = true;
  if (!V.FrontendOk)
    return V;

  std::set<unsigned> Bugs(BugLines.begin(), BugLines.end());
  std::set<unsigned> Caught;
  for (const astral::service::JsonValue &A : Alarms->items()) {
    const astral::service::JsonValue *Kind = A.find("kind");
    const astral::service::JsonValue *Line = A.find("line");
    unsigned L = Line && Line->isNumber() ? unsigned(Line->asNumber()) : 0;
    if (!Bugs.count(L)) {
      ++V.FalseAlarms;
      continue;
    }
    if (Kind && Kind->isString() && Kind->asString() == "division-by-zero")
      Caught.insert(L);
  }
  V.MissedBugs = unsigned(Bugs.size() - Caught.size());
  return V;
}

/// The counters of astral-cli's `--dump-stats` stderr block
/// (`<name> = <value>` lines); other lines are skipped.
inline std::map<std::string, double> parseStatsDump(const std::string &Err) {
  std::map<std::string, double> Counters;
  size_t Begin = 0;
  while (Begin < Err.size()) {
    size_t End = Err.find('\n', Begin);
    if (End == std::string::npos)
      End = Err.size();
    std::string Line = Err.substr(Begin, End - Begin);
    size_t Eq = Line.find(" = ");
    if (Eq != std::string::npos && Eq > 0 && Line.find(' ') == Eq) {
      char *Rest = nullptr;
      double V = std::strtod(Line.c_str() + Eq + 3, &Rest);
      if (Rest && *Rest == '\0')
        Counters[Line.substr(0, Eq)] = V;
    }
    Begin = End + 1;
  }
  return Counters;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One timed interval of a request. Parent indexes the same vector (-1 for
/// a root); times are steady-clock nanoseconds, which child processes share
/// with bench_e2e on Linux (CLOCK_MONOTONIC).
struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int Parent = -1;
};

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once, and
/// the parts of a child outside its parent are ignored).
inline std::vector<int64_t> selfTimesNs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && size_t(S.Parent) < Spans.size())
      Kids[size_t(S.Parent)].push_back({S.StartNs, S.EndNs});
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    std::vector<std::pair<int64_t, int64_t>> &K = Kids[I];
    std::sort(K.begin(), K.end());
    int64_t Covered = 0, Reach = P.StartNs;
    for (auto [B, E] : K) {
      B = std::max(B, Reach);
      E = std::min(E, P.EndNs);
      if (E > B) {
        Covered += E - B;
        Reach = E;
      }
    }
    Self[I] = (P.EndNs - P.StartNs) - Covered;
  }
  return Self;
}

} // namespace e2e

#endif // ASTRAL_E2EBENCH_HARNESS_H
