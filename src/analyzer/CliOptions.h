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
///  - options / walkFlags / unsignedFlag / parseInt: the one option
///    grammar. Every analyzer option is declared once, in options(),
///    and both parseArgs and applySpecDirectives walk that table; the serve,
///    client and emit-family subcommands walk small tables of their own with
///    the same walker and the same value parsers.
///  - parseArgs: the flags (--domains, --jobs, environment specification,
///    output) producing deferred AnalyzerOptions mutations, applied after
///    the input's @astral spec directives so flags override directives — in
///    ONE place.
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

#include <cstdint>
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

//===----------------------------------------------------------------------===//
// The one option grammar
//===----------------------------------------------------------------------===//
//
// A switch is spelled `--name`; a value flag `--name=<v>` or `--name <v>`.
// A value must parse whole: no surrounding space, no sign on an unsigned,
// no trailing text, and never NaN. A directive `@astral <name> <args>` is
// its flag with the arguments joined into one value (Option::Join); a
// trailing `*/` is ignored, and any other extra argument makes the value,
// and so the directive, malformed.

/// A decimal int, with an optional leading '-'.
std::optional<int> parseInt(const std::string &V);

/// One flag of a command's table. A malformed value is reported as
/// "--<Name> expects <Expect>, got '<value>'".
struct Flag {
  std::string Name;
  /// The accepted values, for messages; empty for a switch.
  std::string Expect;
  /// Applies the value ("" for a switch); false when it is malformed.
  std::function<bool(const std::string &)> Set;
};

/// A value flag taking a decimal integer in [Min, Max]: digits only.
Flag unsignedFlag(std::string Name, uint64_t Min, uint64_t Max,
                  std::function<void(uint64_t)> Set);

/// Walks \p Args through \p Table. A token that names no flag of the table
/// goes to \p Other, which returns false to end the walk at that token.
/// Returns the index the walk ended at (Args.size() when it ran through).
/// A missing or malformed value ends the walk and sets \p Err to one
/// "<Who>: error: ..." line. The tokens of each applied flag, its separate
/// value included, are appended to \p Consumed when it is given.
size_t walkFlags(const std::vector<std::string> &Args,
                 const std::vector<Flag> &Table, const char *Who,
                 const std::function<bool(const std::string &)> &Other,
                 std::string &Err,
                 std::vector<std::string> *Consumed = nullptr);

/// One option's effect on the analyzer options, applied after parsing.
using OptionOp = std::function<void(AnalyzerOptions &)>;

/// One analyzer option, declared once for the command line and, when it has
/// one, its `@astral` directive.
struct Option {
  std::string Flag;      ///< Spelled --Flag.
  std::string Directive; ///< Spelled `@astral Directive`; empty if none.
  /// How a directive's arguments join into the flag's value: Join[I] goes
  /// between arguments I and I+1, counting from 0, so "=:" reads `volatile
  /// speed 0 300` as `speed=0:300`. Empty: the directive takes the value as
  /// one argument.
  std::string Join;
  /// The accepted values, for messages; empty for a switch.
  std::string Expect;
  /// The value's effect, or nullopt when the value is malformed.
  std::function<std::optional<OptionOp>(const std::string &)> Parse;
  /// Set instead of Parse by the output switches, which shape the report
  /// rather than the analysis.
  bool CliOptions::*Output = nullptr;
};

/// Every option of the one-shot command line, in --help order.
const std::vector<Option> &options();

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

/// JSON string escaping, shared by the report renderers and the service
/// protocol encoder.
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
