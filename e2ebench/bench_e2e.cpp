//===- e2ebench/bench_e2e.cpp - The end-to-end benchmark ------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// One single-threaded, closed-loop program: it generates every input from
// --seed, spawns astral-cli for each analysis (or talks to one
// `astral-cli serve` daemon), checks every output against an oracle that
// does not come from the run under test, and prints one
// `<workload> <metric> <value> <unit>` line per metric followed by a JSON
// result line. See e2ebench/README.md for the workloads and metrics.
//
//   bench_e2e [--workload <name>] [--seed <n>] [--seconds <s>]
//             [--trace <0|1|file>] [--keep-reports=<dir>] [--result=<file>]
//   bench_e2e --self-test
//   bench_e2e --compare <runs A...> -- <runs B...>
//
// Without --workload every workload runs in turn; with --trace each one
// also runs through the traced child (TracedChild.cpp).
//
//===----------------------------------------------------------------------===//

#include "Modes.h"
#include "Harness.h"
#include "Process.h"

#include "analyzer/AnalysisSession.h"
#include "analyzer/CliOptions.h"
#include "codegen/FamilyGenerator.h"
#include "service/Protocol.h"
#include "support/Sha256.h"

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <limits>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

using namespace astral;
using service::JsonValue;
namespace fs = std::filesystem;

namespace {

using namespace e2e;

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Kind { Family, GoldensCli, GoldensServe };

struct Workload {
  const char *Name;
  Kind K;
  /// --jobs of each analysis (family) or of the daemon's pool (serve),
  /// capped at the host's hardware threads.
  unsigned MaxJobs;
};

const Workload Workloads[] = {
    {"family_j1", Kind::Family, 1},
    {"family_j4", Kind::Family, 4},
    {"goldens_cli", Kind::GoldensCli, 1},
    {"goldens_serve", Kind::GoldensServe, 2},
};

/// Equal-size members, so the per-member figures compare like with like.
/// With hashed generator seeds (memberSeed) the cost per kLOC of one member
/// varies by about 7% (coefficient of variation); eight members bring the
/// seed-to-seed spread of a run's total to about 3%. Each member is timed
/// once per pass and its fastest sample counts: on a shared host two
/// samples a pass apart halve the spread that contention adds. A family
/// run is exactly these passes, whatever --seconds says, so every commit
/// times the same analyses the same number of times.
constexpr unsigned FamilyMembers = 8;
constexpr unsigned FamilyPasses = 2;
constexpr unsigned FamilyTargetLines = 1000;
constexpr unsigned EditEvery = 4;
/// The goldens workloads fill --seconds with whole passes, at least this
/// many untraced; each input's fastest sample is taken over all of them.
constexpr unsigned MinGoldensPasses = 2;
/// Set-up samples per run. They are spread over the run, so that a spell of
/// contention on a shared host weighs on them as it does on the requests.
constexpr unsigned SetupRuns = 31;
constexpr double RequestTimeoutS = 150.0;
/// No new request starts this long after the invocation began, so every
/// invocation ends well within three minutes.
constexpr double InvocationLimitS = 150.0;
constexpr unsigned MaxFailureMessages = 20;

const char *const GoldenCases[] = {
    "quickstart",         "filter_verification", "alarm_investigation",
    "flight_control",     "interp_table",        "rate_limiter_clocked",
    "partitioned_switch", "thread_handoff",      "thread_mode_table"};

/// The statistics counters of the three within-file grains.
const char *const PartitionsDispatched = "parallel.partitions.dispatched";
const char *const SweepGroupsDispatched = "parallel.sweep_groups_dispatched";
const char *const CallsDispatched = "call_dispatch.dispatched";

struct Options {
  std::vector<std::string> WorkloadNames;
  uint64_t Seed = 1;
  double Seconds = 12.0;
  bool Trace = false;
  std::string TraceFile;
  std::string KeepReports;
  std::string ResultFile;
  std::string WorkDir = ".bench_build/e2e";
  std::string Root = ASTRAL_SOURCE_ROOT; ///< The checkout being measured.
  std::string Cli = ASTRAL_CLI_PATH;     ///< Its astral-cli build.
  std::string Self; ///< This binary, for the traced child.
};

const int64_t InvocationStartNs = nowNs();

double sinceStartS() { return double(nowNs() - InvocationStartNs) / 1e9; }

std::string readText(const std::string &Path) {
  std::optional<std::string> T = cli::readFile(Path);
  return T ? *T : std::string();
}

bool writeText(const std::string &Path, const std::string &Text) {
  std::ofstream F(Path, std::ios::binary);
  F << Text;
  return bool(F);
}

double lineCount(const std::string &Text) {
  return 1.0 + double(std::count(Text.begin(), Text.end(), '\n'));
}

/// The family member exactly as `astral-cli emit-family` renders it: the
/// environment specification as @astral directives, then the program.
/// emit-family cannot inject bugs, so the benchmark renders the members
/// itself; checkRenderer() holds this copy to emit-family's output.
std::string renderFamilyMember(const codegen::FamilyProgram &FP) {
  std::string Out = "/* Generated member of the Sect. 4 program family "
                    "(astral-cli emit-family). */\n";
  char Buf[192];
  for (const auto &[Name, R] : FP.VolatileRanges) {
    std::snprintf(Buf, sizeof(Buf), "// @astral volatile %s %.17g %.17g\n",
                  Name.c_str(), R.Lo, R.Hi);
    Out += Buf;
  }
  for (const std::string &Fn : FP.PartitionFunctions) {
    std::snprintf(Buf, sizeof(Buf), "// @astral partition %s\n", Fn.c_str());
    Out += Buf;
  }
  for (double T : FP.DocumentedThresholds) {
    std::snprintf(Buf, sizeof(Buf), "// @astral threshold %.17g\n", T);
    Out += Buf;
  }
  Out += "// @astral clock-max 1e6\n";
  Out += FP.Source;
  return Out;
}

/// The generator seed of family member \p I, hashed from --seed with
/// splitmix64. The generator seeds xorshift64* directly, and neighbouring
/// small seeds give it correlated draws, so consecutive seeds would make
/// the members of one run resemble each other and their total swing with
/// --seed.
uint64_t memberSeed(uint64_t Seed, unsigned I) {
  uint64_t X = 100 * Seed + I + 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// Appends ` /* edit <N> */` to the last line: new content for the serve
/// cache, the same report.
std::string editSource(const std::string &S, uint64_t N) {
  size_t End = S.size();
  if (End && S[End - 1] == '\n')
    --End;
  std::string R = S;
  R.insert(End, " /* edit " + std::to_string(N) + " */");
  return R;
}

//===----------------------------------------------------------------------===//
// Host facts
//===----------------------------------------------------------------------===//

/// The measured commit, with `-dirty` when tracked files differ from it. A
/// checkout without .git (an exported tree) says so instead.
std::string gitRevision(const Options &O, const std::string &Scratch) {
  if (!fs::exists(O.Root + "/.git"))
    return "none (not a git checkout)";
  ProcessResult R = runProcess({"git", "-C", O.Root, "describe", "--always",
                                "--dirty", "--abbrev=40"},
                               Scratch + "/git.err", 10.0);
  std::string Rev = R.Out.substr(0, R.Out.find('\n'));
  if (R.ExitCode == 0 && !Rev.empty())
    return Rev;
  std::fprintf(stderr, "bench_e2e: cannot read the git revision of %s: %s\n",
               O.Root.c_str(), R.Spawned ? R.Err.c_str() : "git not found");
  return "unreadable";
}

JsonValue hostFacts(const Options &O, const std::string &Scratch) {
  JsonValue H = JsonValue::object();
  H["nproc"] = JsonValue(uint64_t(std::thread::hardware_concurrency()));
  H["compiler"] = JsonValue(__VERSION__);
  H["build_type"] = JsonValue(ASTRAL_BUILD_TYPE);
  H["git_revision"] = JsonValue(gitRevision(O, Scratch));
  char Date[32];
  std::time_t Now = std::time(nullptr);
  std::strftime(Date, sizeof(Date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&Now));
  H["date"] = JsonValue(Date);
  H["seed"] = JsonValue(O.Seed);
  H["seconds"] = JsonValue(O.Seconds);
  return H;
}

//===----------------------------------------------------------------------===//
// Trace log: spans kept in memory, written as Chrome trace-event JSON
//===----------------------------------------------------------------------===//

class TraceLog {
public:
  /// Records a span; returns its id for children to name as parent.
  int add(const std::string &Name, int64_t Start, int64_t End,
          const std::string &Request, int Parent) {
    Events.push_back({Name, Start, End, Request, int(Events.size()), Parent});
    return int(Events.size()) - 1;
  }

  bool write(const std::string &Path, const JsonValue &Host) const {
    JsonValue Doc = JsonValue::object();
    JsonValue List = JsonValue::array();
    for (const Event &E : Events) {
      JsonValue J = JsonValue::object();
      J["name"] = JsonValue(E.Name);
      J["ph"] = JsonValue("X");
      J["ts"] = JsonValue(double(E.Start - InvocationStartNs) / 1e3);
      J["dur"] = JsonValue(double(E.End - E.Start) / 1e3);
      J["pid"] = JsonValue(uint64_t(1));
      J["tid"] = JsonValue(uint64_t(1));
      JsonValue Args = JsonValue::object();
      Args["request"] = JsonValue(E.Request);
      Args["span_id"] = JsonValue(int64_t(E.Id));
      Args["parent_id"] = JsonValue(int64_t(E.Parent));
      J["args"] = Args;
      List.push(std::move(J));
    }
    Doc["traceEvents"] = List;
    Doc["displayTimeUnit"] = JsonValue("ms");
    Doc["otherData"] = Host;
    return writeText(Path, Doc.serialize() + "\n");
  }

private:
  struct Event {
    std::string Name;
    int64_t Start, End;
    std::string Request;
    int Id, Parent;
  };
  std::vector<Event> Events;
};

//===----------------------------------------------------------------------===//
// One run of one workload
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct RunResult {
  std::string Workload;
  bool Traced = false;
  unsigned Jobs = 1;
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Lines printed besides the metrics (oracle totals, sample counts).
  std::vector<std::string> Notes;
  /// (input name, normalized report) for --keep-reports, and for
  /// family_j4's --jobs=1 oracle when family_j1 ran first.
  std::vector<std::pair<std::string, std::string>> Reports;
};

struct Input {
  std::string Name;
  std::string Path;
  std::string Source; ///< Analyzable source (serve payload).
  std::map<std::string, std::string> Headers;
  double Kloc = 0.0;
  std::vector<unsigned> BugLines; ///< Family: injected-bug lines.
  std::string Expected;           ///< Goldens: normalized expected report.
};

/// One timed analysis request.
struct Sample {
  size_t Input;
  double WallS;
  double CpuS; ///< The child's; serve: the daemon's plus this client's.
  long RssKb;  ///< One-shot only; serve reports the daemon's peak.
  double AnalysisS;
  bool Edited; ///< Serve: new content, so the daemon's caches miss.
};

/// What the traced child measured for one request.
struct TracedSample {
  size_t Input;
  double WallS;
  std::map<std::string, double> SelfMs; ///< Per span name.
  double MainSelfMs = 0.0;
  std::map<std::string, double> Counters;
};

class WorkloadRun {
public:
  /// \p FamilyJ1 is family_j1's result from the same invocation, if any:
  /// family_j4 then takes its --jobs=1 oracle from those reports.
  WorkloadRun(const Options &O, const Workload &W, bool Traced,
              std::string Scratch, TraceLog &Log, const RunResult *FamilyJ1)
      : O(O), W(W), Traced(Traced), Scratch(std::move(Scratch)), Log(Log),
        FamilyJ1(FamilyJ1), Rng(O.Seed) {
    unsigned N = std::max(1u, std::thread::hardware_concurrency());
    Jobs = std::min(W.MaxJobs, N);
    Res.Workload = W.Name;
    Res.Traced = Traced;
    Res.Jobs = Jobs;
  }

  RunResult run();

private:
  bool prepareInputs();
  void checkRenderer(uint64_t GeneratorSeed);
  void setupSample();
  void catchUpSetup(double Progress);
  void referenceReports();
  void request(size_t I, uint64_t N);
  void oneShot(size_t I, uint64_t N);
  void serveRequest(size_t I, uint64_t N);
  void tracedRequest(size_t I, uint64_t N);
  void measureServiceCodec(size_t I, const std::string &Report,
                           const std::string &RequestId);
  bool checkReport(size_t I, const std::string &Report, std::string &Why);
  void checkGrains();
  void fail(const std::string &What);
  std::vector<std::string> oneShotArgv(const std::string &Path) const;
  void untracedMetrics(double BoxS);
  void tracedMetrics();
  void metric(const std::string &Name, double Value, const char *Unit) {
    Res.Metrics.push_back({Name, Value, Unit});
  }

  const Options &O;
  const Workload &W;
  bool Traced;
  std::string Scratch;
  TraceLog &Log;
  const RunResult *FamilyJ1;
  std::mt19937_64 Rng;
  unsigned Jobs = 1;
  RunResult Res;

  std::vector<Input> Inputs;
  std::vector<std::string> FirstReport; ///< Normalized, per input.
  std::vector<std::string> JobsOneReport; ///< family_j4's --jobs=1 oracle.
  std::vector<unsigned> FalseAlarms, MissedBugs; ///< Per input, worst seen.
  std::vector<unsigned> Sent; ///< Serve: requests sent, per input.
  /// Family: the grain counters of every one-shot's --dump-stats, summed.
  std::map<std::string, double> Dispatched;

  unsigned SetupAttempts = 0;
  std::vector<double> SetupTimes;
  std::vector<Sample> Samples;     ///< The workload's own requests.
  std::vector<Sample> Baseline;    ///< Traced runs: untraced one-shots.
  std::vector<TracedSample> Traces;
  std::vector<double> CodecMs, CacheKeyMs;

  Daemon Serve;
  std::unique_ptr<service::Client> Conn;
};

void WorkloadRun::fail(const std::string &What) {
  ++Res.Failed;
  Res.Correct = false;
  if (Res.Failed <= MaxFailureMessages)
    std::fprintf(stderr, "bench_e2e: %s: FAILED: %s\n", W.Name, What.c_str());
}

std::vector<std::string>
WorkloadRun::oneShotArgv(const std::string &Path) const {
  if (W.K != Kind::Family)
    return {O.Cli, Path, "--json", "--jobs=1"};
  // The statistics go to stderr, outside the report, and show which grains
  // fanned out (checkGrains).
  return {O.Cli, Path, "--json", "--jobs=" + std::to_string(Jobs),
          "--dump-stats"};
}

bool WorkloadRun::prepareInputs() {
  if (W.K == Kind::Family) {
    for (unsigned I = 0; I < FamilyMembers; ++I) {
      codegen::GeneratorConfig C;
      C.TargetLines = FamilyTargetLines;
      C.Seed = memberSeed(O.Seed, I);
      C.InjectedBugs = 1;
      Input In;
      In.Name = "member" + std::to_string(I);
      In.Path = Scratch + "/" + In.Name + ".c";
      In.Source = renderFamilyMember(codegen::generateFamilyProgram(C));
      In.Kloc = lineCount(In.Source) / 1000.0;
      In.BugLines = injectedBugLines(In.Source);
      if (!writeText(In.Path, In.Source) || In.BugLines.empty()) {
        fail("cannot write family member " + In.Path);
        return false;
      }
      Inputs.push_back(std::move(In));
    }
    checkRenderer(memberSeed(O.Seed, 0));
  } else {
    for (const char *Case : GoldenCases) {
      Input In;
      In.Name = Case;
      In.Path = O.Root + "/examples/" + Case + ".cpp";
      cli::CliOptions Cli;
      Cli.Json = true;
      Cli.InputPaths = {In.Path};
      std::vector<std::string> Notes;
      std::string Err;
      auto Files = cli::loadInputFiles(Cli, Notes, Err);
      std::optional<std::string> Expected =
          cli::readFile(O.Root + "/tests/golden/" + Case + ".expected.json");
      if (!Files || !Expected) {
        fail(std::string("cannot load golden case ") + Case);
        return false;
      }
      In.Source = Files->front().Source;
      In.Headers = Files->front().Headers;
      In.Kloc = lineCount(In.Source) / 1000.0;
      In.Expected = *Expected;
      Inputs.push_back(std::move(In));
    }
  }
  FirstReport.assign(Inputs.size(), "");
  JobsOneReport.assign(Inputs.size(), "");
  FalseAlarms.assign(Inputs.size(), 0);
  MissedBugs.assign(Inputs.size(), 0);
  Sent.assign(Inputs.size(), 0);
  return true;
}

/// Holds renderFamilyMember to `astral-cli emit-family` on the bug-free
/// twin of a member, so the two renderings cannot drift apart unnoticed.
void WorkloadRun::checkRenderer(uint64_t GeneratorSeed) {
  codegen::GeneratorConfig C;
  C.TargetLines = FamilyTargetLines;
  C.Seed = GeneratorSeed;
  ProcessResult R = runProcess(
      {O.Cli, "emit-family", "--lines=" + std::to_string(C.TargetLines),
       "--seed=" + std::to_string(C.Seed)},
      Scratch + "/stderr.txt", 60.0);
  ++Res.Attempted;
  if (R.ExitCode != 0 ||
      R.Out != renderFamilyMember(codegen::generateFamilyProgram(C)))
    fail("the members are not rendered as astral-cli emit-family renders "
         "them");
}

bool WorkloadRun::checkReport(size_t I, const std::string &Report,
                              std::string &Why) {
  const Input &In = Inputs[I];
  std::string Norm = normalizeReport(Report);
  if (W.K == Kind::Family) {
    FamilyVerdict V = checkFamilyReport(Report, In.BugLines);
    FalseAlarms[I] = std::max(FalseAlarms[I], V.FalseAlarms);
    MissedBugs[I] = std::max(MissedBugs[I], V.MissedBugs);
    if (!V.ok()) {
      Why = V.Parsed ? (V.FrontendOk ? std::to_string(V.FalseAlarms) +
                                           " false alarm(s), " +
                                           std::to_string(V.MissedBugs) +
                                           " missed bug(s)"
                                     : "frontend failed")
                     : "report is not JSON";
      return false;
    }
    if (!JobsOneReport[I].empty() && Norm != JobsOneReport[I]) {
      Why = "report differs from the member's --jobs=1 report";
      return false;
    }
  } else if (Norm != In.Expected) {
    Why = "report differs from tests/golden/" + In.Name + ".expected.json";
    return false;
  }
  if (FirstReport[I].empty()) {
    FirstReport[I] = Norm;
  } else if (Norm != FirstReport[I]) {
    Why = "report differs from the input's first report in this run";
    return false;
  }
  return true;
}

/// family_j4 must fan out on the partition grain, the only within-file
/// grain the family reaches; family_j1 builds no pool and must not.
void WorkloadRun::checkGrains() {
  double Partitions = Dispatched[PartitionsDispatched];
  double Any = Partitions + Dispatched[SweepGroupsDispatched] +
               Dispatched[CallsDispatched];
  ++Res.Attempted;
  if (Jobs > 1 && Partitions == 0)
    fail("no partition was dispatched to the pool at --jobs=" +
         std::to_string(Jobs));
  else if (Jobs == 1 && Any > 0)
    fail("a grain fanned out at --jobs=1");
  char Line[200];
  std::snprintf(Line, sizeof(Line),
                "# dispatched to the pool over the run: %.0f partitions, "
                "%.0f pack groups, %.0f calls",
                Partitions, Dispatched[SweepGroupsDispatched],
                Dispatched[CallsDispatched]);
  Res.Notes.push_back(Line);
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// One start of the program as the workload starts it: astral-cli on an
/// empty program at the workload's --jobs, or a serve daemon from spawn to
/// its first `status` reply.
void WorkloadRun::setupSample() {
  ++SetupAttempts;
  ++Res.Attempted;
  if (W.K != Kind::GoldensServe) {
    std::string Empty = Scratch + "/empty.c";
    if (!fs::exists(Empty))
      writeText(Empty, "int main(void) { return 0; }\n");
    ProcessResult R =
        runProcess(oneShotArgv(Empty), Scratch + "/stderr.txt", 60.0);
    if (R.ExitCode != 0) {
      fail("astral-cli on an empty program exited " +
           std::to_string(R.ExitCode));
      return;
    }
    SetupTimes.push_back(R.wallS());
    return;
  }
  Daemon D;
  std::string Socket = Scratch + "/setup.sock", Err;
  if (!D.start({O.Cli, "serve", "--socket=" + Socket,
                "--jobs=" + std::to_string(Jobs), "--quiet"},
               Scratch + "/setup-serve.log")) {
    fail("cannot spawn the serve daemon");
    return;
  }
  std::unique_ptr<service::Client> C = D.connect(Socket, 30.0, Err);
  service::Request Status;
  Status.Operation = service::Request::Op::Status;
  std::optional<JsonValue> Doc;
  if (C)
    Doc = C->roundTrip(Status, Err);
  const JsonValue *Ok = Doc ? Doc->find("ok") : nullptr;
  if (!Ok || !Ok->isBool() || !Ok->asBool()) {
    fail("serve daemon status: " + Err);
    return;
  }
  SetupTimes.push_back(double(nowNs() - D.StartNs) / 1e9);
  if (!D.stop(*C, Err))
    fail("serve daemon shutdown: " + Err);
}

/// Takes set-up samples until their share of SetupRuns matches
/// \p Progress, the share of the run done. Traced runs report no set-up.
void WorkloadRun::catchUpSetup(double Progress) {
  if (Traced)
    return;
  while (SetupAttempts < std::ceil(SetupRuns * std::min(1.0, Progress)))
    setupSample();
}

/// family_j4's determinism oracle: every member is also analyzed at
/// --jobs=1, untimed, and each parallel report must equal that one byte for
/// byte after normalization. family_j1's reports from the same invocation
/// serve when there are any.
void WorkloadRun::referenceReports() {
  if (FamilyJ1)
    for (const auto &[Name, Report] : FamilyJ1->Reports)
      for (size_t I = 0; I < Inputs.size(); ++I)
        if (Inputs[I].Name == Name)
          JobsOneReport[I] = Report;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    if (!JobsOneReport[I].empty())
      continue;
    ProcessResult R = runProcess({O.Cli, Inputs[I].Path, "--json", "--jobs=1"},
                                 Scratch + "/stderr.txt", RequestTimeoutS);
    ++Res.Attempted;
    FamilyVerdict V = checkFamilyReport(R.Out, Inputs[I].BugLines);
    if (R.ExitCode != 0 || !V.ok()) {
      fail(Inputs[I].Name + " at --jobs=1: " +
           (R.ExitCode != 0 ? "exit " + std::to_string(R.ExitCode)
                            : std::string("fails the family oracle")));
      continue;
    }
    JobsOneReport[I] = normalizeReport(R.Out);
  }
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

std::string requestId(const Workload &W, const Input &In, uint64_t N) {
  return std::string(W.Name) + "/" + In.Name + "/" + std::to_string(N);
}

/// The workload's own request for input \p I, and in a traced run the
/// traced child beside an untraced one-shot.
void WorkloadRun::request(size_t I, uint64_t N) {
  if (W.K == Kind::GoldensServe)
    serveRequest(I, N);
  if (Traced) {
    // Alternate which side runs first, so neither always runs warm.
    if (N % 2)
      tracedRequest(I, N);
    oneShot(I, N);
    if (N % 2 == 0)
      tracedRequest(I, N);
  } else if (W.K != Kind::GoldensServe) {
    oneShot(I, N);
  }
}

void WorkloadRun::oneShot(size_t I, uint64_t N) {
  const Input &In = Inputs[I];
  ProcessResult R = runProcess(oneShotArgv(In.Path), Scratch + "/stderr.txt",
                               RequestTimeoutS);
  ++Res.Attempted;
  std::string Why;
  if (!R.Spawned || R.TimedOut || R.ExitCode != 0) {
    fail(In.Name + ": astral-cli " +
         (R.TimedOut ? std::string("timed out")
                     : "exited " + std::to_string(R.ExitCode)));
    return;
  }
  if (!checkReport(I, R.Out, Why)) {
    fail(In.Name + ": " + Why);
    return;
  }
  if (W.K == Kind::Family)
    for (const auto &[Name, V] : parseStatsDump(R.Err))
      if (Name == PartitionsDispatched || Name == SweepGroupsDispatched ||
          Name == CallsDispatched)
        Dispatched[Name] += V;
  (Traced ? Baseline : Samples)
      .push_back({I, R.wallS(), R.CpuS, R.MaxRssKb,
                  reportAnalysisSeconds(R.Out), false});
  if (Traced)
    Log.add("oneshot", R.StartNs, R.EndNs, requestId(W, In, N), -1);
}

void WorkloadRun::serveRequest(size_t I, uint64_t N) {
  const Input &In = Inputs[I];
  // Every EditEvery-th request of each input, so the mix of edited entries
  // in the daemon's cache, and with it the daemon's memory, does not depend
  // on the shuffle.
  bool Edited = Sent[I]++ % EditEvery == EditEvery - 1;
  service::Request R;
  R.Operation = service::Request::Op::Analyze;
  R.Args = {"--json", "--jobs=1"};
  R.Files.push_back(
      {In.Path, Edited ? editSource(In.Source, N) : In.Source, In.Headers});
  // The request's CPU: the daemon's, all threads, plus this client's.
  std::string Err;
  double Daemon0 = Serve.cpuS(), Client0 = processCpuS(0);
  int64_t T0 = nowNs();
  std::optional<JsonValue> Doc = Conn->roundTrip(R, Err);
  int64_t T1 = nowNs();
  double Daemon1 = Serve.cpuS(), Client1 = processCpuS(0);
  ++Res.Attempted;
  if (!Doc) {
    fail(In.Name + ": transport: " + Err);
    return;
  }
  if (Daemon0 < 0 || Daemon1 < 0 || Client0 < 0 || Client1 < 0) {
    fail("cannot read the CPU clock of the serve daemon or of bench_e2e");
    return;
  }
  const JsonValue *Ok = Doc->find("ok");
  const JsonValue *Code = Doc->find("exit_code");
  const JsonValue *Out = Doc->find("stdout");
  if (!Ok || !Ok->isBool() || !Ok->asBool() || !Code || !Code->isNumber() ||
      Code->asNumber() != 0 || !Out || !Out->isString()) {
    const JsonValue *Kind = Doc->find("error_kind");
    fail(In.Name + ": serve error " +
         (Kind && Kind->isString() ? Kind->asString() : Doc->serialize()));
    return;
  }
  std::string Why;
  if (!checkReport(I, Out->asString(), Why)) {
    fail(In.Name + (Edited ? " (edited): " : ": ") + Why);
    return;
  }
  Samples.push_back({I, double(T1 - T0) / 1e9,
                     (Daemon1 - Daemon0) + (Client1 - Client0), 0,
                     reportAnalysisSeconds(Out->asString()), Edited});
  if (Traced)
    Log.add("serve.roundtrip", T0, T1, requestId(W, In, N), -1);
}

void WorkloadRun::tracedRequest(size_t I, uint64_t N) {
  const Input &In = Inputs[I];
  const std::string TraceOut = Scratch + "/child.trace";
  std::vector<std::string> Argv = {O.Self, "child", "--trace-out=" + TraceOut};
  std::vector<std::string> Rest = oneShotArgv(In.Path);
  Argv.insert(Argv.end(), Rest.begin() + 1, Rest.end());
  std::error_code EC;
  fs::remove(TraceOut, EC);
  ProcessResult R = runProcess(Argv, Scratch + "/stderr.txt", RequestTimeoutS);
  ++Res.Attempted;
  std::string Why;
  if (!R.Spawned || R.TimedOut || R.ExitCode != 0) {
    fail(In.Name + ": traced child " +
         (R.TimedOut ? std::string("timed out")
                     : "exited " + std::to_string(R.ExitCode)));
    return;
  }
  if (!checkReport(I, R.Out, Why)) {
    fail(In.Name + " (traced): " + Why);
    return;
  }

  // request -> {process.start, main -> {child spans}, process.exit}
  std::vector<Span> Spans = {{"request", R.StartNs, R.EndNs, -1}};
  TracedSample T;
  T.Input = I;
  T.WallS = R.wallS();
  std::istringstream Lines(readText(TraceOut));
  std::string Tag, Name;
  while (Lines >> Tag >> Name) {
    if (Tag == "span") {
      long long B = 0, E = 0;
      Lines >> B >> E;
      if (Name == "main") {
        Spans.push_back({"process.start", R.StartNs, B, 0});
        Spans.push_back({"main", B, E, 0});
        Spans.push_back({"process.exit", E, R.EndNs, 0});
      } else {
        Spans.push_back({Name, B, E, 2});
      }
    } else {
      double V = 0;
      Lines >> V;
      T.Counters[Name] = V;
    }
  }
  if (Spans.size() < 4 || Spans[2].Name != "main") {
    fail(In.Name + ": traced child wrote no spans");
    return;
  }
  std::vector<int64_t> Self = selfTimesNs(Spans);
  std::string Id = requestId(W, In, N);
  std::vector<int> Ids(Spans.size());
  for (size_t K = 0; K < Spans.size(); ++K) {
    const Span &S = Spans[K];
    Ids[K] = Log.add(S.Name, S.StartNs, S.EndNs, Id,
                     S.Parent < 0 ? -1 : Ids[size_t(S.Parent)]);
    // process.exit joins process.start: both are the child's wall time
    // outside its own root span.
    const std::string Key = S.Name == "process.exit" ? "process.start" : S.Name;
    T.SelfMs[Key] += double(Self[K]) / 1e6;
  }
  T.MainSelfMs = double(Self[2]) / 1e6;
  Traces.push_back(std::move(T));
  measureServiceCodec(I, R.Out, Id);
}

/// The service layer's per-request work on this input, timed in-process:
/// encoding and decoding an analyze request and its response frame, and
/// the frontend + packing cache keys the daemon derives from it.
void WorkloadRun::measureServiceCodec(size_t I, const std::string &Report,
                                      const std::string &Id) {
  const Input &In = Inputs[I];
  service::Request Req;
  Req.Operation = service::Request::Op::Analyze;
  Req.Args = {"--json", "--jobs=1"};
  Req.Files.push_back({In.Path, In.Source, In.Headers});
  cli::CliOptions Cli;
  cli::parseArgs(Req.Args, Cli);
  std::vector<std::string> Warnings;
  AnalysisInput AI;
  AI.FileName = In.Path;
  AI.Source = In.Source;
  AI.Headers = In.Headers;
  AI.Options = cli::assembleOptions(Cli, In.Path, In.Source, Warnings);

  std::string Err;
  int64_t T0 = nowNs();
  std::optional<service::Request> Decoded =
      service::decodeRequest(service::encodeRequest(Req), Err);
  JsonValue Resp = JsonValue::object();
  Resp["ok"] = JsonValue(true);
  Resp["op"] = JsonValue("analyze");
  Resp["schema_version"] = JsonValue(uint64_t(ReportSchemaVersion));
  Resp["exit_code"] = JsonValue(uint64_t(0));
  Resp["stdout"] = JsonValue(Report);
  Resp["stderr"] = JsonValue("");
  std::optional<JsonValue> Parsed = JsonValue::parse(Resp.serialize(), Err);
  int64_t T1 = nowNs();
  std::string Keys = AnalysisSession::frontendCacheKey(AI) +
                     AnalysisSession::packingCacheKey(AI);
  int64_t T2 = nowNs();
  if (!Decoded || !Parsed || Keys.size() != 128)
    fail(In.Name + ": service codec round trip failed: " + Err);
  CodecMs.push_back(double(T1 - T0) / 1e6);
  CacheKeyMs.push_back(double(T2 - T1) / 1e6);
  Log.add("service.codec", T0, T1, Id, -1);
  Log.add("service.cache_key", T1, T2, Id, -1);
}

//===----------------------------------------------------------------------===//
// The closed loop
//===----------------------------------------------------------------------===//

RunResult WorkloadRun::run() {
  if (!prepareInputs())
    return Res;
  if (W.K == Kind::GoldensServe) {
    const std::string Socket = Scratch + "/serve.sock";
    std::string Err;
    if (!Serve.start({O.Cli, "serve", "--socket=" + Socket,
                      "--jobs=" + std::to_string(Jobs), "--quiet"},
                     Scratch + "/serve.log") ||
        !(Conn = Serve.connect(Socket, 30.0, Err))) {
      fail("cannot start the measured serve daemon: " + Err);
      return Res;
    }
  }
  if (W.K == Kind::Family && Jobs > 1)
    referenceReports();

  // The family: FamilyPasses passes over the members, in order (one pass
  // when traced). The goldens: passes of a seeded shuffle until the box is
  // full; after the first MinGoldensPasses, a pass starts only if at least
  // half of it fits, so every input has the same number of samples.
  const bool Family = W.K == Kind::Family;
  std::vector<size_t> Order(Inputs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  const int64_t BoxStart = nowNs();
  uint64_t N = 0;
  unsigned Passes = 0;
  auto Progress = [&] {
    return Family ? double(N) / double(Inputs.size() * FamilyPasses)
                  : double(nowNs() - BoxStart) / 1e9 / O.Seconds;
  };
  for (bool Done = false; !Done;) {
    if (!Family)
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[Rng() % I]);
    for (size_t I : Order) {
      if (sinceStartS() > InvocationLimitS) {
        fail("the invocation ran out of time before its pass was done");
        Done = true;
        break;
      }
      catchUpSetup(Progress());
      request(I, N++);
    }
    ++Passes;
    double Elapsed = double(nowNs() - BoxStart) / 1e9;
    double PassS = Elapsed / Passes;
    if (Family)
      Done = Done || Passes >= (Traced ? 1 : FamilyPasses);
    else
      Done = Done || (Passes >= (Traced ? 1 : MinGoldensPasses) &&
                      (Elapsed + 0.5 * PassS >= O.Seconds ||
                       sinceStartS() + PassS > InvocationLimitS));
  }
  const double BoxS = double(nowNs() - BoxStart) / 1e9;
  catchUpSetup(1.0);

  if (W.K == Kind::GoldensServe) {
    std::string Err;
    if (!Serve.stop(*Conn, Err))
      fail("serve daemon shutdown: " + Err);
    Conn.reset();
  }
  if (Family)
    checkGrains();

  if (Traced)
    tracedMetrics();
  else
    untracedMetrics(BoxS);

  char Line[160];
  std::snprintf(Line, sizeof(Line), "fail_frac %.6g ratio",
                Res.Attempted ? double(Res.Failed) / double(Res.Attempted)
                              : 1.0);
  Res.Notes.push_back(Line);
  if (Family) {
    unsigned FA = 0, MB = 0;
    for (size_t I = 0; I < Inputs.size(); ++I) {
      FA += FalseAlarms[I];
      MB += MissedBugs[I];
    }
    Res.Notes.push_back("false_alarms " + std::to_string(FA) + " count");
    Res.Notes.push_back("missed_bugs " + std::to_string(MB) + " count");
  }
  std::snprintf(Line, sizeof(Line),
                "# %u passes over %zu inputs in %.2f s, --jobs=%u",
                Passes, Inputs.size(), BoxS, Jobs);
  Res.Notes.push_back(Line);
  for (size_t I = 0; I < Inputs.size(); ++I)
    if (!FirstReport[I].empty())
      Res.Reports.push_back({Inputs[I].Name, FirstReport[I]});
  return Res;
}

void WorkloadRun::untracedMetrics(double BoxS) {
  // The gated timings use each input's fastest sample of the run: on a
  // shared host, contention only ever adds time, and medians over whole
  // runs move by tens of percent from one minute to the next while
  // per-input fastest times repeat. A family member has FamilyPasses
  // samples. Medians and tails over every sample are printed beside them.
  const double Inf = std::numeric_limits<double>::infinity();
  std::vector<double> BestWall(Inputs.size(), Inf), BestCpu(Inputs.size(), Inf);
  std::vector<long> PeakRss(Inputs.size(), 0);
  std::vector<double> LatMs, HitMs, MissMs;
  for (const Sample &S : Samples) {
    BestWall[S.Input] = std::min(BestWall[S.Input], S.WallS);
    BestCpu[S.Input] = std::min(BestCpu[S.Input], S.CpuS);
    PeakRss[S.Input] = std::max(PeakRss[S.Input], S.RssKb);
    LatMs.push_back(S.WallS * 1e3);
    (S.Edited ? MissMs : HitMs).push_back(S.WallS * 1e3);
  }
  double Kloc = 0.0, WallS = 0.0, CpuS = 0.0;
  std::vector<double> BestMs, RssMb;
  for (size_t I = 0; I < Inputs.size(); ++I)
    if (BestWall[I] < Inf) {
      Kloc += Inputs[I].Kloc;
      WallS += BestWall[I];
      CpuS += BestCpu[I];
      BestMs.push_back(BestWall[I] * 1e3);
      RssMb.push_back(double(PeakRss[I]) / 1024.0);
    }
  bool Serving = W.K == Kind::GoldensServe;
  metric("kloc_per_s", WallS > 0 ? Kloc / WallS : 0.0, "kLOC/s");
  metric("cpu_s_per_kloc", Kloc > 0 ? CpuS / Kloc : 0.0, "s/kLOC");
  metric("verdict_ms_p50", median(BestMs), "ms");
  metric("peak_rss_mb",
         Serving ? double(Serve.MaxRssKb) / 1024.0 : median(RssMb), "MB");
  metric("setup_s", median(SetupTimes), "s");

  Percentile P99 = percentile(LatMs, 99);
  char Line[240];
  std::snprintf(Line, sizeof(Line),
                "# every sample: latency p50 %.4g ms, p99 %.4g ms (%zu "
                "samples, %zu beyond p99%s), %.4g files/s",
                median(LatMs), P99.Value, LatMs.size(), P99.Beyond,
                P99.Beyond < 10 ? ": p99 is a tail sample" : "",
                BoxS > 0 ? double(Samples.size()) / BoxS : 0.0);
  Res.Notes.push_back(Line);
  std::snprintf(Line, sizeof(Line), "# set-up: %zu samples, median %.4g ms",
                SetupTimes.size(), median(SetupTimes) * 1e3);
  Res.Notes.push_back(Line);
  if (Serving) {
    std::snprintf(Line, sizeof(Line),
                  "# cache hits: %zu, p50 %.4g ms; misses (edited): %zu, "
                  "p50 %.4g ms",
                  HitMs.size(), median(HitMs), MissMs.size(), median(MissMs));
    Res.Notes.push_back(Line);
  }
}

void WorkloadRun::tracedMetrics() {
  auto SpanMedian = [&](const std::string &Name) {
    std::vector<double> V;
    for (const TracedSample &T : Traces) {
      auto It = T.SelfMs.find(Name);
      V.push_back(It == T.SelfMs.end() ? 0.0 : It->second);
    }
    return median(V);
  };
  metric("process.start_ms", SpanMedian("process.start"), "ms");
  metric("cli.parse_ms", SpanMedian("cli.parse"), "ms");
  metric("cli.load_ms", SpanMedian("cli.load"), "ms");
  metric("cli.options_ms", SpanMedian("cli.options"), "ms");
  metric("session.create_ms", SpanMedian("session.create"), "ms");
  metric("frontend.self_ms", SpanMedian("frontend"), "ms");
  metric("layout.self_ms", SpanMedian("layout"), "ms");
  metric("packing.self_ms", SpanMedian("packing"), "ms");
  metric("execution.self_ms", SpanMedian("execution"), "ms");
  metric("report.self_ms", SpanMedian("report"), "ms");
  metric("teardown.self_ms", SpanMedian("teardown"), "ms");
  metric("render.self_ms", SpanMedian("render"), "ms");

  std::vector<double> Share;
  double Unattributed = 0.0;
  for (const TracedSample &T : Traces) {
    auto It = T.SelfMs.find("execution");
    Share.push_back((It == T.SelfMs.end() ? 0.0 : It->second) /
                    (T.WallS * 1e3));
    Unattributed = std::max(Unattributed, T.MainSelfMs / (T.WallS * 1e3));
  }
  metric("execution.share", median(Share), "ratio");

  // The workload's own requests: one-shot spawns, or daemon round trips.
  std::vector<double> Overhead;
  for (const Sample &S :
       W.K == Kind::GoldensServe ? Samples : Baseline)
    Overhead.push_back((S.WallS - S.AnalysisS) * 1e3);
  metric("request.overhead_ms", median(Overhead), "ms");
  metric("service.codec_ms", median(CodecMs), "ms");
  metric("service.cache_key_ms", median(CacheKeyMs), "ms");

  // Counters: one analysis of every input (its first traced sample).
  std::map<std::string, double> Sum;
  double PeakBytes = 0.0, ExecWallMs = 0.0;
  std::vector<bool> Seen(Inputs.size(), false);
  for (const TracedSample &T : Traces) {
    if (Seen[T.Input])
      continue;
    Seen[T.Input] = true;
    for (const auto &[Name, V] : T.Counters)
      Sum[Name] += V;
    auto P = T.Counters.find("bench.peak_abstract_bytes");
    if (P != T.Counters.end())
      PeakBytes = std::max(PeakBytes, P->second);
    auto E = T.SelfMs.find("execution");
    if (E != T.SelfMs.end())
      ExecWallMs += E->second;
  }
  const std::pair<const char *, const char *> Counters[] = {
      {"iterator.calls_inlined", "iterator.calls_inlined"},
      {"fixpoint.iterations", "fixpoint.iterations"},
      {"fixpoint.widenings", "fixpoint.widenings"},
      {"transfer.assignments", "transfer.assignments"},
      {"partitioning.delayed_merges", "partitioning.delayed_merges"},
      {"octagon.closures_full", "analysis.octagon_closures_full"},
      {"octagon.closures_incremental",
       "analysis.octagon_closures_incremental"},
      {"octagon.assignments", "octagon.assignments"},
      {"dtree.assignments", "dtree.assignments"},
      {"ellipsoid.filter_steps", "ellipsoid.filter_steps"},
      {"scheduler.partitions_dispatched", PartitionsDispatched},
      {"concurrency.rounds", "concurrency.rounds"},
  };
  for (const auto &[Metric, Stat] : Counters)
    metric(Metric, Sum[Stat], "count");
  double Hits = Sum["iterator.call_memo_hits"];
  double Lookups = Hits + Sum["iterator.call_memo_misses"];
  metric("iterator.call_memo_hit_ratio", Lookups > 0 ? Hits / Lookups : 0.0,
         "ratio");
  metric("scheduler.cpu_per_wall",
         ExecWallMs > 0 ? Sum["bench.exec_cpu_ns"] / 1e6 / ExecWallMs : 0.0,
         "ratio");
  metric("memory.abstract_peak_mb", PeakBytes / 1048576.0, "MB");

  // Tracing overhead: traced child against untraced astral-cli on the same
  // inputs, from per-input medians.
  std::vector<std::vector<double>> TracedWall(Inputs.size()),
      PlainWall(Inputs.size());
  for (const TracedSample &T : Traces)
    TracedWall[T.Input].push_back(T.WallS);
  for (const Sample &S : Baseline)
    PlainWall[S.Input].push_back(S.WallS);
  double SumTraced = 0.0, SumPlain = 0.0;
  for (size_t I = 0; I < Inputs.size(); ++I)
    if (!TracedWall[I].empty() && !PlainWall[I].empty()) {
      SumTraced += median(TracedWall[I]);
      SumPlain += median(PlainWall[I]);
    }
  metric("trace.overhead_frac", SumPlain > 0 ? SumTraced / SumPlain - 1.0 : 0.0,
         "ratio");
  metric("trace.unattributed_frac", Unattributed, "ratio");

  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "# %zu traced requests; span self times leave at most "
                "%.2f%% of a request unattributed",
                Traces.size(), Unattributed * 100);
  Res.Notes.push_back(Line);
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--workload <name>]... [--seed <n>] "
               "[--seconds <s>] [--trace <0|1|file>]\n"
               "                 [--keep-reports=<dir>] [--result=<file>] "
               "[--work-dir=<dir>]\n"
               "       bench_e2e --self-test\n"
               "       bench_e2e --compare <runs A...> -- <runs B...> "
               "[--benchmark=<file>] [--out=<file>]\n"
               "workloads: family_j1 family_j4 goldens_cli goldens_serve\n");
}

bool parseOptions(const std::vector<std::string> &Args, Options &O) {
  for (size_t I = 0; I < Args.size(); ++I) {
    std::string A = Args[I], V;
    size_t Eq = A.find('=');
    if (A.rfind("--", 0) != 0)
      return false;
    if (Eq != std::string::npos) {
      V = A.substr(Eq + 1);
      A = A.substr(0, Eq);
    } else if (I + 1 < Args.size()) {
      V = Args[++I];
    } else {
      return false;
    }
    try {
      if (A == "--workload")
        O.WorkloadNames.push_back(V);
      else if (A == "--seed")
        O.Seed = std::stoull(V);
      else if (A == "--seconds")
        O.Seconds = std::stod(V);
      else if (A == "--trace") {
        O.Trace = V != "0";
        if (V != "0" && V != "1")
          O.TraceFile = V;
      } else if (A == "--keep-reports")
        O.KeepReports = V;
      else if (A == "--result")
        O.ResultFile = V;
      else if (A == "--work-dir")
        O.WorkDir = V;
      else
        return false;
    } catch (const std::exception &) {
      return false;
    }
  }
  return O.Seconds > 0;
}

JsonValue metricsJson(const RunResult &R, const std::string &Prefix) {
  JsonValue M = JsonValue::object();
  for (const Metric &X : R.Metrics) {
    JsonValue V = JsonValue::object();
    V["value"] = JsonValue(X.Value);
    V["unit"] = JsonValue(X.Unit);
    M[Prefix + X.Name] = V;
  }
  return M;
}

void keepReports(const std::string &Dir, const RunResult &R) {
  fs::path Out = fs::path(Dir) / R.Workload;
  std::error_code EC;
  fs::create_directories(Out, EC);
  std::string Sums;
  for (const auto &[Name, Report] : R.Reports) {
    writeText((Out / (Name + ".json")).string(), Report);
    Sums += sha256::hexDigest(Report) + "  " + Name + ".json\n";
  }
  writeText((Out / "SHA256SUMS").string(), Sums);
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  std::vector<std::string> Rest;
  if (!Args.empty())
    Rest.assign(Args.begin() + 1, Args.end());
  if (!Args.empty() && Args[0] == "child")
    return e2e::runTracedChild(Rest);
  if (!Args.empty() && Args[0] == "--self-test")
    return e2e::runSelfTest();
  if (!Args.empty() && Args[0] == "--compare")
    return e2e::runCompare(Rest);

  Options O;
  if (!parseOptions(Args, O)) {
    usage();
    return 2;
  }
  std::vector<const Workload *> Selected;
  for (const Workload &W : Workloads)
    if (O.WorkloadNames.empty() ||
        std::count(O.WorkloadNames.begin(), O.WorkloadNames.end(), W.Name))
      Selected.push_back(&W);
  size_t Wanted =
      O.WorkloadNames.empty() ? std::size(Workloads) : O.WorkloadNames.size();
  if (Selected.size() != Wanted) {
    usage();
    return 2;
  }
  std::error_code EC;
  O.Self = fs::read_symlink("/proc/self/exe", EC).string();
  if (!fs::exists(O.Cli) || !fs::exists(O.Root + "/examples") ||
      O.Self.empty()) {
    std::fprintf(stderr, "bench_e2e: astral-cli (%s) or the sources (%s) are "
                         "missing\n",
                 O.Cli.c_str(), O.Root.c_str());
    return 2;
  }
  // bench_e2e talks to the daemon over a socket; a vanished daemon must
  // surface as a failed request, not kill bench_e2e.
  std::signal(SIGPIPE, SIG_IGN);

  const std::string Scratch =
      O.WorkDir + "/run-" + std::to_string(long(getpid()));
  fs::create_directories(Scratch, EC);
  if (EC) {
    std::fprintf(stderr, "bench_e2e: cannot create %s\n", Scratch.c_str());
    return 2;
  }
  JsonValue Host = hostFacts(O, Scratch);
  std::printf("# host nproc=%s compiler=\"%s\" build=%s rev=%s date=%s "
              "seed=%llu seconds=%g\n",
              Host["nproc"].serialize().c_str(), __VERSION__,
              ASTRAL_BUILD_TYPE, Host["git_revision"].asString().c_str(),
              Host["date"].asString().c_str(), (unsigned long long)O.Seed,
              O.Seconds);

  TraceLog Log;
  std::vector<RunResult> Results;
  for (const Workload *W : Selected) {
    const RunResult *FamilyJ1 = nullptr;
    for (const RunResult &R : Results)
      if (R.Workload == "family_j1")
        FamilyJ1 = &R;
    WorkloadRun Run(O, *W, O.Trace, Scratch, Log, FamilyJ1);
    RunResult Done = Run.run();
    Results.push_back(std::move(Done));
    const RunResult &R = Results.back();
    for (const std::string &N : R.Notes)
      std::printf("%s %s\n", R.Workload.c_str(), N.c_str());
    for (const Metric &M : R.Metrics)
      std::printf("%s %s %.6g %s\n", R.Workload.c_str(), M.Name.c_str(),
                  M.Value, M.Unit.c_str());
    std::fflush(stdout);
    if (!O.KeepReports.empty())
      keepReports(O.KeepReports, R);
  }

  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  JsonValue Runs = JsonValue::array();
  JsonValue Metrics = JsonValue::object();
  for (const RunResult &R : Results) {
    Correct = Correct && R.Correct;
    Attempted += R.Attempted;
    Failed += R.Failed;
    JsonValue Run = JsonValue::object();
    Run["workload"] = JsonValue(R.Workload);
    Run["traced"] = JsonValue(R.Traced);
    Run["jobs"] = JsonValue(uint64_t(R.Jobs));
    Run["correct"] = JsonValue(R.Correct);
    Run["attempted"] = JsonValue(R.Attempted);
    Run["failed"] = JsonValue(R.Failed);
    Run["metrics"] = metricsJson(R, "");
    Runs.push(Run);
    JsonValue M =
        metricsJson(R, Results.size() == 1 ? "" : R.Workload + "/");
    for (const auto &[Name, V] : M.members())
      Metrics[Name] = V;
  }

  if (O.Trace) {
    std::string Path = O.TraceFile.empty()
                           ? O.WorkDir + "/trace-" +
                                 (Selected.size() == 1 ? Selected[0]->Name
                                                       : "all") +
                                 "-seed" + std::to_string(O.Seed) + ".json"
                           : O.TraceFile;
    if (Log.write(Path, Host))
      std::printf("# trace written to %s\n", Path.c_str());
    else
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", Path.c_str());
  }
  if (!O.ResultFile.empty()) {
    JsonValue Doc = JsonValue::object();
    Doc["host"] = Host;
    Doc["runs"] = Runs;
    if (!writeText(O.ResultFile, Doc.serialize() + "\n"))
      std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                   O.ResultFile.c_str());
  }
  if (Correct)
    fs::remove_all(Scratch, EC);
  else
    std::fprintf(stderr, "bench_e2e: inputs and logs kept in %s\n",
                 Scratch.c_str());

  JsonValue Result = JsonValue::object();
  Result["correct"] = JsonValue(Correct);
  Result["attempted"] = JsonValue(Attempted);
  Result["failed"] = JsonValue(Failed);
  Result["metrics"] = Metrics;
  std::printf("%s\n", Result.serialize().c_str());
  return Correct ? 0 : 1;
}
