//===- e2ebench/Compare.cpp - Do two sets of runs agree? ------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
//   bench_e2e --compare A1.json A2.json ... -- B1.json B2.json ...
//             [--benchmark=BENCHMARK.json] [--out=summary.json]
//
// Each file is a --result file. Per workload and metric, prints each set's
// median and quartiles and whether the medians agree within the metric's
// bound in BENCHMARK.json (per-layer metrics have no bound and are shown
// for information). Exits 1 when any bounded metric disagrees.
//
//===----------------------------------------------------------------------===//

#include "Modes.h"
#include "Harness.h"

#include "analyzer/CliOptions.h"

#include <cstdio>
#include <map>

using astral::service::JsonValue;

namespace {

std::optional<JsonValue> readJson(const std::string &Path) {
  std::optional<std::string> Text = astral::cli::readFile(Path);
  if (!Text) {
    std::fprintf(stderr, "bench_e2e: cannot read '%s'\n", Path.c_str());
    return std::nullopt;
  }
  std::string Err;
  std::optional<JsonValue> Doc = JsonValue::parse(*Text, Err);
  if (!Doc || !Doc->isObject())
    std::fprintf(stderr, "bench_e2e: '%s' is not a JSON object: %s\n",
                 Path.c_str(), Err.c_str());
  return Doc;
}

/// (workload, metric) -> values, one per run; plus each metric's unit.
using Samples = std::map<std::pair<std::string, std::string>,
                         std::vector<double>>;

bool collect(const std::vector<std::string> &Files, Samples &Out,
             std::map<std::string, std::string> &Units, JsonValue &Host,
             JsonValue &Jobs) {
  for (const std::string &F : Files) {
    std::optional<JsonValue> Doc = readJson(F);
    if (!Doc || !Doc->isObject())
      return false;
    const JsonValue *Runs = Doc->find("runs");
    if (!Runs || !Runs->isArray()) {
      std::fprintf(stderr, "bench_e2e: '%s' has no runs\n", F.c_str());
      return false;
    }
    if (Host.isNull())
      if (const JsonValue *H = Doc->find("host"))
        Host = *H;
    for (const JsonValue &Run : Runs->items()) {
      const JsonValue *W = Run.find("workload");
      const JsonValue *M = Run.find("metrics");
      if (!W || !W->isString() || !M || !M->isObject())
        continue;
      if (const JsonValue *J = Run.find("jobs"))
        Jobs[W->asString()] = *J;
      for (const auto &[Name, V] : M->members()) {
        const JsonValue *Value = V.find("value");
        const JsonValue *Unit = V.find("unit");
        if (!Value || !Value->isNumber())
          continue;
        Out[{W->asString(), Name}].push_back(Value->asNumber());
        if (Unit && Unit->isString())
          Units[Name] = Unit->asString();
      }
    }
  }
  return true;
}

JsonValue summary(const std::vector<double> &V) {
  std::array<double, 3> Q = e2e::quartiles(V);
  JsonValue S = JsonValue::object();
  S["median"] = JsonValue(e2e::median(V));
  S["q1"] = JsonValue(Q[0]);
  S["q3"] = JsonValue(Q[2]);
  S["n"] = JsonValue(uint64_t(V.size()));
  return S;
}

} // namespace

int e2e::runCompare(const std::vector<std::string> &Args) {
  std::vector<std::string> A, B;
  std::string BenchmarkPath = "BENCHMARK.json", OutPath;
  bool SecondSet = false;
  for (const std::string &Arg : Args) {
    if (Arg == "--")
      SecondSet = true;
    else if (Arg.rfind("--benchmark=", 0) == 0)
      BenchmarkPath = Arg.substr(12);
    else if (Arg.rfind("--out=", 0) == 0)
      OutPath = Arg.substr(6);
    else
      (SecondSet ? B : A).push_back(Arg);
  }
  if (A.empty() || B.empty()) {
    std::fprintf(stderr, "usage: bench_e2e --compare <runs A...> -- "
                         "<runs B...> [--benchmark=<file>] [--out=<file>]\n");
    return 2;
  }

  // Metric -> bound; per-layer metrics have none.
  std::map<std::string, double> Bounds;
  std::optional<JsonValue> Bench = readJson(BenchmarkPath);
  if (!Bench || !Bench->isObject())
    return 2;
  if (const JsonValue *E2E = Bench->find("end_to_end"))
    for (const JsonValue &M : E2E->items()) {
      const JsonValue *Name = M.find("name");
      const JsonValue *Share = M.find("bound");
      if (Name && Name->isString() && Share && Share->isNumber())
        Bounds[Name->asString()] = Share->asNumber();
    }

  Samples SA, SB;
  std::map<std::string, std::string> Units;
  JsonValue HostA, HostB, Jobs = JsonValue::object();
  if (!collect(A, SA, Units, HostA, Jobs) ||
      !collect(B, SB, Units, HostB, Jobs))
    return 2;

  JsonValue Out = JsonValue::object();
  Out["host_a"] = HostA;
  Out["host_b"] = HostB;
  Out["jobs"] = Jobs;
  JsonValue Workloads = JsonValue::object();
  bool AllAgree = true;
  std::string Current;
  for (const auto &[Key, VA] : SA) {
    const auto &[Workload, Metric] = Key;
    auto ItB = SB.find(Key);
    if (ItB == SB.end())
      continue;
    const std::vector<double> &VB = ItB->second;
    if (Workload != Current) {
      std::printf("\n%-34s %-9s %27s %27s %8s %6s\n", Workload.c_str(),
                  "unit", "A median [q1, q3] n", "B median [q1, q3] n",
                  "B/A-1", "bound");
      Current = Workload;
    }
    double MA = median(VA), MB = median(VB);
    std::array<double, 3> QA = quartiles(VA), QB = quartiles(VB);
    double Delta = MA != 0.0 ? MB / MA - 1.0 : (MB == 0.0 ? 0.0 : 1.0);
    auto BIt = Bounds.find(Metric);
    bool Bounded = BIt != Bounds.end();
    bool Agree = !Bounded || std::fabs(Delta) <= BIt->second;
    AllAgree = AllAgree && Agree;
    char BoundText[16] = "-";
    if (Bounded)
      std::snprintf(BoundText, sizeof(BoundText), "%.0f%%",
                    BIt->second * 100);
    std::printf("  %-32s %-9s %10.4g [%.4g, %.4g] %zu %10.4g [%.4g, %.4g] "
                "%zu %+7.2f%% %6s %s\n",
                Metric.c_str(), Units[Metric].c_str(), MA, QA[0], QA[2],
                VA.size(), MB, QB[0], QB[2], VB.size(), Delta * 100,
                BoundText, Bounded ? (Agree ? "agree" : "DISAGREE") : "");

    JsonValue Row = JsonValue::object();
    Row["unit"] = JsonValue(Units[Metric]);
    Row["a"] = summary(VA);
    Row["b"] = summary(VB);
    Row["delta"] = JsonValue(Delta);
    if (Bounded) {
      Row["bound"] = JsonValue(BIt->second);
      Row["agree"] = JsonValue(Agree);
    }
    if (!Workloads.find(Workload))
      Workloads[Workload] = JsonValue::object();
    Workloads[Workload][Metric] = Row;
  }
  Out["workloads"] = Workloads;
  std::printf("\n%s\n", AllAgree ? "every bounded metric agrees"
                                 : "some bounded metric DISAGREES");

  if (!OutPath.empty()) {
    std::FILE *F = std::fopen(OutPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "bench_e2e: cannot write '%s'\n", OutPath.c_str());
      return 2;
    }
    std::string Text = Out.serialize();
    std::fprintf(F, "%s\n", Text.c_str());
    std::fclose(F);
  }
  return AllAgree ? 0 : 1;
}
