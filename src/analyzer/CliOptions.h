//===- analyzer/CliOptions.h - Shared CLI option/report layer ----*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line surface of the analyzer, factored out of the astral-cli
/// driver so the service daemon speaks exactly the same dialect:
///
///  - parseArgs: the full flag grammar (--domains, --jobs, the partition
///    dispatch mode, environment specification) producing deferred
///    AnalyzerOptions mutations, applied after the input's @astral spec
///    directives so flags override directives — in ONE place.
///  - loadInputFiles / assembleOptions: file reading (with C++-harness
///    extraction and #include preloading) and the defaults -> directives ->
///    flags option assembly.
///  - renderJsonReport / renderTextReport / renderRun: the report renderers,
///    returning strings rather than printing. The daemon embeds renderRun's
///    output verbatim in its responses and the one-shot driver prints it,
///    so service-mode responses are byte-identical to one-shot runs by
///    construction — the golden suite doubles as protocol conformance.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_ANALYZER_CLIOPTIONS_H
#define ASTRAL_ANALYZER_CLIOPTIONS_H

#include "analyzer/Analyzer.h"

#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace astral {
namespace cli {

struct CliOptions {
  std::vector<std::string> InputPaths;
  bool DumpInvariants = false;
  bool DumpStats = false;
  bool Json = false;
  bool Quiet = false;
  bool FailOnAlarms = false;
  /// Analyzer-option mutations from command-line flags, applied *after* the
  /// input's @astral spec directives so that flags override directives.
  std::vector<std::function<void(AnalyzerOptions &)>> FlagOps;
  /// Every non-input-path token, verbatim and in order — the client forwards
  /// these to the daemon, whose parseArgs reproduces the same FlagOps.
  std::vector<std::string> FlagArgs;
};

/// Outcome of parseArgs. On !Ok, Error holds one formatted
/// "astral-cli: error: ..." line (no trailing newline).
struct ParseOutcome {
  bool Ok = true;
  bool ShowHelp = false;
  std::string Error;
};

ParseOutcome parseArgs(const std::vector<std::string> &Args, CliOptions &Cli);

void printUsage(std::FILE *Out);

/// Reads \p Path ('-' = stdin) fully, or nullopt on I/O failure.
std::optional<std::string> readFile(const std::string &Path);

/// One loaded input: the analyzable source (after C++-harness extraction)
/// plus its preloaded #include closure.
struct LoadedFile {
  std::string Path;
  std::string Source;
  std::map<std::string, std::string> Headers;
};

/// Loads every Cli.InputPaths entry: reads the file, extracts the embedded
/// input program from C++ example harnesses, and preloads the #include
/// closure from the file's directory. Notes land in \p Notes (formatted
/// stderr lines); on failure Error is set and nullopt returned.
std::optional<std::vector<LoadedFile>>
loadInputFiles(const CliOptions &Cli, std::vector<std::string> &Notes,
               std::string &Error);

/// Assembles the effective analyzer options for one input: defaults, then
/// the source's @astral spec directives, then the command-line FlagOps.
/// Directive warnings are appended to \p Warnings as formatted
/// "astral-cli: warning: <path>: ..." lines.
AnalyzerOptions assembleOptions(const CliOptions &Cli, const std::string &Path,
                                const std::string &Source,
                                std::vector<std::string> &Warnings);

/// JSON string escaping (also used by the service protocol encoder).
std::string jsonEscape(const std::string &S);

std::string renderJsonReport(const CliOptions &Cli, const std::string &Path,
                             const AnalysisResult &R);
std::string renderTextReport(const CliOptions &Cli, const std::string &Path,
                             const AnalysisResult &R);

/// Everything a finished run prints: Out is the golden-diffed report stream
/// (batch JSON array wrapping included), Err carries frontend errors and
/// --dump-stats blocks, ExitCode is the driver convention (0 completed,
/// 2 frontend failure, 3 alarms under --fail-on-alarms).
struct RunOutput {
  std::string Out;
  std::string Err;
  int ExitCode = 0;
};

RunOutput renderRun(const CliOptions &Cli,
                    const std::vector<std::string> &Paths,
                    const std::vector<AnalysisResult> &Results);

} // namespace cli
} // namespace astral

#endif // ASTRAL_ANALYZER_CLIOPTIONS_H
