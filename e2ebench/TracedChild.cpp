//===- e2ebench/TracedChild.cpp - The traced one-shot child ---------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Makes the same public calls as astral-cli's one-shot path, in the same
// order, with a span around each: cli::parseArgs, cli::loadInputFiles,
// assembleOptions, the scheduler and session construction, the
// AnalysisSession phases, the session's teardown, and cli::renderRun plus
// the write of its output. Spans and the session's Statistics
// counters go to the --trace-out file after the root span closes; the
// report goes to stdout exactly as astral-cli prints it, so bench_e2e
// applies the same oracles to both.
//
//===----------------------------------------------------------------------===//

#include "Modes.h"
#include "Process.h"

#include "analyzer/AnalysisSession.h"
#include "analyzer/CliOptions.h"
#include "analyzer/Scheduler.h"
#include "support/Cancellation.h"

#include <cstdio>
#include <memory>

using namespace astral;

namespace {

int64_t processCpuNs() {
  rusage Ru{};
  getrusage(RUSAGE_SELF, &Ru);
  return int64_t(e2e::cpuSeconds(Ru) * 1e9);
}

struct ChildSpan {
  const char *Name;
  int64_t Begin;
  int64_t End;
};

} // namespace

int e2e::runTracedChild(const std::vector<std::string> &Args) {
  const int64_t MainBegin = nowNs();
  std::vector<ChildSpan> Spans;
  auto Timed = [&](const char *Name, auto &&F) {
    int64_t B = nowNs();
    F();
    Spans.push_back({Name, B, nowNs()});
  };

  std::string TraceOut;
  std::vector<std::string> CliArgs;
  for (const std::string &A : Args) {
    if (A.rfind("--trace-out=", 0) == 0)
      TraceOut = A.substr(12);
    else
      CliArgs.push_back(A);
  }
  cli::CliOptions Cli;
  cli::ParseOutcome Parsed;
  Timed("cli.parse", [&] { Parsed = cli::parseArgs(CliArgs, Cli); });
  if (TraceOut.empty() || !Parsed.Ok || Cli.InputPaths.size() != 1) {
    std::fprintf(stderr, "bench_e2e child: expected --trace-out=<file> and "
                         "one input with astral-cli flags\n");
    return 1;
  }

  std::vector<std::string> Notes, Warnings;
  std::string LoadErr;
  std::optional<std::vector<cli::LoadedFile>> Files;
  Timed("cli.load", [&] { Files = cli::loadInputFiles(Cli, Notes, LoadErr); });
  if (!Files) {
    std::fprintf(stderr, "%s\n", LoadErr.c_str());
    return 1;
  }
  const cli::LoadedFile &F = Files->front();
  AnalysisInput In;
  In.FileName = F.Path;
  In.Source = F.Source;
  In.Headers = F.Headers;
  Timed("cli.options", [&] {
    In.Options = cli::assembleOptions(Cli, F.Path, F.Source, Warnings);
  });

  // As AnalysisSession::analyzeBatch does for a one-file batch.
  std::shared_ptr<Scheduler> Pool;
  std::unique_ptr<AnalysisSession> Session;
  Timed("session.create", [&] {
    Pool = Scheduler::create(
        std::max(1u, Scheduler::effectiveJobs(In.Options.Jobs)));
    Session = std::make_unique<AnalysisSession>(In);
    Session->setScheduler(Pool);
  });
  AnalysisResult R;
  int64_t ExecCpuNs = 0;
  try {
    bool FrontendOk = false;
    Timed("frontend", [&] { FrontendOk = Session->runFrontend().Ok; });
    if (FrontendOk) {
      Timed("layout", [&] { Session->layoutCells(); });
      Timed("packing", [&] { Session->buildPacks(); });
      int64_t Cpu0 = processCpuNs();
      Timed("execution", [&] { Session->runAbstractExecution(); });
      ExecCpuNs = processCpuNs() - Cpu0;
    }
    Timed("report", [&] { R = Session->report(); });
  } catch (const cancel::AnalysisCancelled &C) {
    std::fprintf(stderr, "bench_e2e child: %s\n", C.what());
    return 4;
  }
  Timed("teardown", [&] {
    Session.reset();
    Pool.reset();
  });

  cli::RunOutput Out;
  Timed("render", [&] {
    Out = cli::renderRun(Cli, {F.Path}, {R});
    std::fwrite(Out.Out.data(), 1, Out.Out.size(), stdout);
    std::fwrite(Out.Err.data(), 1, Out.Err.size(), stderr);
    std::fflush(stdout);
  });
  const int64_t MainEnd = nowNs();

  std::FILE *T = std::fopen(TraceOut.c_str(), "w");
  if (!T)
    return 1;
  std::fprintf(T, "span main %lld %lld\n", (long long)MainBegin,
               (long long)MainEnd);
  for (const ChildSpan &S : Spans)
    std::fprintf(T, "span %s %lld %lld\n", S.Name, (long long)S.Begin,
                 (long long)S.End);
  for (const auto &[Name, Value] : R.Stats.all())
    std::fprintf(T, "counter %s %llu\n", Name.c_str(),
                 (unsigned long long)Value);
  std::fprintf(T, "counter bench.peak_abstract_bytes %llu\n",
               (unsigned long long)R.PeakAbstractBytes);
  std::fprintf(T, "counter bench.exec_cpu_ns %lld\n", (long long)ExecCpuNs);
  std::fclose(T);
  return Out.ExitCode;
}
