//===- tools/astral-cli/AstralCli.cpp - Command-line driver -------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// The driver proper lives in analyzer/CliOptions.{h,cpp} (shared with the
// service daemon); this file only dispatches between the three modes:
//
//   astral-cli <file>... [options]          one-shot analysis (the classic)
//   astral-cli serve --socket=<path> ...    analyzer-as-a-service daemon
//   astral-cli client --socket=<path> <op>  talk to a running daemon
//   astral-cli emit-family [--lines=<n>] [--seed=<n>]
//                                           print a generated member of the
//                                           Sect. 4 program family with its
//                                           environment spec rendered as
//                                           @astral directives (so scripts
//                                           can feed paper-scale inputs to
//                                           either mode; chaos_smoke.sh uses
//                                           the 8-kLOC fig2 member)
//
// One-shot mode: preprocess -> parse -> sema -> lower -> fixpoint -> alarms
// over one or more real input files, with the Sect. 3.2 "adaptation by
// parametrization" exposed as flags and as `@astral` spec directives
// embedded in the input's comments. Several input files form a batch:
// AnalysisSession::analyzeBatch schedules whole files across one worker
// pool (--jobs) and the reports print in input order (a JSON array in
// --json mode).
//
// One grammar for every mode: each analyzer option is declared once in
// cli::options(), which both the flags and the `@astral` directives read,
// and the subcommands walk their own small tables with the same walker
// (cli::walkFlags) and value parsers. A switch is `--name`; a value flag is
// `--name=<v>` or `--name <v>`. A value must parse whole: integers are
// plain decimal digits within the flag's range, numbers are decimal (or
// inf) and never nan. A directive reads its arguments as its flag's value —
// `@astral volatile speed 0 300` as `--volatile speed=0:300`, `@astral
// thread t1 worker` as `--threads=t1:worker`, the other seven as the one
// value — ignoring a trailing `*/`; a refused value makes a flag exit 1
// and a directive warn without applying.
//
// Exit codes: 0 analysis completed (alarms allowed), 1 usage or I/O error,
// 2 frontend (preprocess/parse/sema/lower) failure on any file, 3 alarms
// raised while --fail-on-alarms is active, 4 analysis stopped by resource
// governance (--deadline-ms expiry, or --memory-budget-mb under
// --on-budget=fail).
//
//===----------------------------------------------------------------------===//

#include "analyzer/AnalysisSession.h"
#include "analyzer/CliOptions.h"
#include "codegen/FamilyGenerator.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Cancellation.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

using namespace astral;

namespace {

int runOneShot(const std::vector<std::string> &Args) {
  cli::CliOptions Cli;
  cli::ParseOutcome Parsed = cli::parseArgs(Args, Cli);
  if (Parsed.ShowHelp) {
    cli::printUsage(stdout);
    return 0;
  }
  if (!Parsed.Ok) {
    std::fprintf(stderr, "%s\n", Parsed.Error.c_str());
    if (Parsed.Error.find("unknown flag") != std::string::npos)
      cli::printUsage(stderr);
    return 1;
  }
  if (Cli.InputPaths.empty()) {
    cli::printUsage(stderr);
    return 1;
  }

  std::vector<std::string> Notes;
  std::string LoadErr;
  std::optional<std::vector<cli::LoadedFile>> Files =
      cli::loadInputFiles(Cli, Notes, LoadErr);
  for (const std::string &N : Notes)
    std::fprintf(stderr, "%s\n", N.c_str());
  if (!Files) {
    std::fprintf(stderr, "%s\n", LoadErr.c_str());
    return 1;
  }

  // Build every input up front (the batch is scheduled as a whole).
  std::vector<std::string> Paths;
  std::vector<AnalysisInput> Inputs;
  for (const cli::LoadedFile &F : *Files) {
    AnalysisInput In;
    In.FileName = F.Path;
    In.Source = F.Source;
    In.Headers = F.Headers;
    std::vector<std::string> Warnings;
    In.Options = cli::assembleOptions(Cli, F.Path, F.Source, Warnings);
    for (const std::string &W : Warnings)
      std::fprintf(stderr, "%s\n", W.c_str());
    Paths.push_back(F.Path);
    Inputs.push_back(std::move(In));
  }

  std::vector<AnalysisResult> Results;
  try {
    Results = AnalysisSession::analyzeBatch(Inputs);
  } catch (const cancel::AnalysisCancelled &C) {
    // Resource governance stopped the batch (deadline expiry, or an
    // over-budget run under --on-budget=fail): its own exit code, distinct
    // from usage/frontend/alarm failures, and a reason the service layer
    // spells identically in its error_kind field.
    std::fprintf(stderr, "astral-cli: error: %s (%s)\n", C.what(),
                 cancel::reasonName(C.reason()));
    return 4;
  }

  cli::RunOutput Out = cli::renderRun(Cli, Paths, Results);
  std::fwrite(Out.Out.data(), 1, Out.Out.size(), stdout);
  std::fwrite(Out.Err.data(), 1, Out.Err.size(), stderr);
  return Out.ExitCode;
}

/// Prints a generated family member with its environment specification
/// rendered as `@astral` comment directives, so the produced file is
/// self-specifying: the one-shot CLI and the serve daemon analyze it under
/// exactly the parametrization the generator documented for it (volatile
/// ranges, partitioned functions, thresholds, and the benches' 1e6-tick
/// operating time).
int runEmitFamily(const std::vector<std::string> &Args) {
  // Work and output grow linearly with the line count: the top keeps every
  // accepted request one the generator finishes.
  constexpr uint64_t MaxLines = 1000000;
  codegen::GeneratorConfig C;
  C.TargetLines = 8000;
  C.Seed = 1234; // The benches' 8-kLOC fig2 member by default.
  std::string Err;
  cli::walkFlags(
      Args,
      {cli::unsignedFlag("lines", 0, MaxLines,
                         [&](uint64_t N) { C.TargetLines = unsigned(N); }),
       cli::unsignedFlag("seed", 0, UINT64_MAX,
                         [&](uint64_t N) { C.Seed = N; })},
      "astral-cli",
      [&](const std::string &A) {
        Err = "astral-cli: error: emit-family expects --lines=<n> and/or "
              "--seed=<n>, got '" + A + "'";
        return false;
      },
      Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return 1;
  }
  codegen::FamilyProgram FP = codegen::generateFamilyProgram(C);
  std::string Out;
  Out += "/* Generated member of the Sect. 4 program family "
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
  std::fwrite(Out.data(), 1, Out.size(), stdout);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  if (!Args.empty() && Args[0] == "serve")
    return service::runServeCommand(
        std::vector<std::string>(Args.begin() + 1, Args.end()));
  if (!Args.empty() && Args[0] == "client")
    return service::runClientCommand(
        std::vector<std::string>(Args.begin() + 1, Args.end()));
  if (!Args.empty() && Args[0] == "emit-family")
    return runEmitFamily(
        std::vector<std::string>(Args.begin() + 1, Args.end()));
  return runOneShot(Args);
}
