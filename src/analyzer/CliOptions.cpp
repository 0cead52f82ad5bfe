//===- analyzer/CliOptions.cpp - Shared CLI option/report layer -------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "analyzer/CliOptions.h"

#include "analyzer/AnalysisSession.h"
#include "analyzer/Scheduler.h"
#include "analyzer/SpecDirectives.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace astral {
namespace cli {

namespace {

/// printf-append onto a std::string — the renderers keep the exact format
/// strings of the historical printf-based driver, so their output stays
/// byte-identical to it.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string &Out, const char *Fmt, ...) {
  va_list Ap, Ap2;
  va_start(Ap, Fmt);
  va_copy(Ap2, Ap);
  int N = std::vsnprintf(nullptr, 0, Fmt, Ap);
  va_end(Ap);
  if (N <= 0) {
    va_end(Ap2);
    return;
  }
  size_t Old = Out.size();
  Out.resize(Old + size_t(N) + 1);
  std::vsnprintf(&Out[Old], size_t(N) + 1, Fmt, Ap2);
  va_end(Ap2);
  Out.resize(Old + size_t(N));
}

std::string dirName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  return Slash == std::string::npos ? std::string(".")
                                    : Path.substr(0, Slash);
}

/// True when the input is a C++ harness (one of examples/*.cpp) rather than
/// an analyzable program: it embeds its input as a raw-string literal.
bool looksLikeCxxHarness(const std::string &Text) {
  return Text.find("using namespace astral") != std::string::npos ||
         Text.find("#include \"analyzer/Analyzer.h\"") != std::string::npos;
}

/// Extracts the longest R"delim( ... )delim" literal — the embedded input
/// program of a C++ example harness. Honors custom delimiters, so an
/// embedded program may itself contain `)"`.
std::optional<std::string> extractRawString(const std::string &Text) {
  std::string Best;
  size_t Pos = 0;
  while ((Pos = Text.find("R\"", Pos)) != std::string::npos) {
    size_t DelimStart = Pos + 2;
    size_t Paren = Text.find('(', DelimStart);
    // A raw-string delimiter is at most 16 chars and contains no space,
    // parenthesis, backslash or quote; anything else is not a raw string.
    if (Paren == std::string::npos || Paren - DelimStart > 16 ||
        Text.substr(DelimStart, Paren - DelimStart)
                .find_first_of(" \t\n\r\\)\"") != std::string::npos) {
      Pos += 2;
      continue;
    }
    std::string Close =
        ")" + Text.substr(DelimStart, Paren - DelimStart) + "\"";
    size_t Start = Paren + 1;
    size_t End = Text.find(Close, Start);
    if (End == std::string::npos)
      break;
    if (End - Start > Best.size())
      Best = Text.substr(Start, End - Start);
    Pos = End + Close.size();
  }
  if (Best.empty())
    return std::nullopt;
  return Best;
}

/// Loads `#include "name"` dependencies of \p Source from disk (relative to
/// \p Dir) into \p Headers, recursively. Missing files are left to the
/// preprocessor to diagnose.
void preloadIncludes(const std::string &Source, const std::string &Dir,
                     std::map<std::string, std::string> &Headers) {
  std::istringstream In(Source);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t H = Line.find_first_not_of(" \t");
    if (H == std::string::npos || Line[H] != '#')
      continue;
    size_t Inc = Line.find("include", H + 1);
    if (Inc == std::string::npos)
      continue;
    size_t Open = Line.find('"', Inc + 7);
    if (Open == std::string::npos)
      continue;
    size_t Close = Line.find('"', Open + 1);
    if (Close == std::string::npos)
      continue;
    std::string Name = Line.substr(Open + 1, Close - Open - 1);
    if (Headers.count(Name))
      continue;
    std::optional<std::string> Text = readFile(Dir + "/" + Name);
    if (!Text)
      continue;
    Headers[Name] = *Text;
    preloadIncludes(*Text, Dir, Headers);
  }
}

/// \p V read whole as a T by std::from_chars, which takes no leading space
/// or '+', no unsigned '-', and no out-of-range value.
template <typename T> std::optional<T> parseWhole(const std::string &V) {
  T X{};
  auto [End, Ec] = std::from_chars(V.data(), V.data() + V.size(), X);
  if (Ec != std::errc() || End != V.data() + V.size())
    return std::nullopt;
  return X;
}

/// A decimal integer in [Min, Max]: digits only.
std::optional<uint64_t> parseUnsigned(const std::string &V, uint64_t Min,
                                      uint64_t Max) {
  std::optional<uint64_t> N = parseWhole<uint64_t>(V);
  return N && *N >= Min && *N <= Max ? N : std::nullopt;
}

/// A decimal floating-point number or an infinity; NaN is refused.
std::optional<double> parseNumber(const std::string &V) {
  std::optional<double> X = parseWhole<double>(V);
  return X && !std::isnan(*X) ? X : std::nullopt;
}

/// A name (a function, a variable, a thread): non-empty, with no space and
/// none of the separators of the flag values — so a directive's stray
/// extra argument can never read as part of a name.
bool isName(const std::string &S) {
  return !S.empty() && S.find_first_of(" \t\r\n\v\f=:,") == std::string::npos;
}

std::optional<std::string> parseName(const std::string &V) {
  return isName(V) ? std::optional<std::string>(V) : std::nullopt;
}

using VolatileRange = std::pair<std::string, Interval>;

/// `<name>=<lo>:<hi>`. An inverted (bottom) range would make the whole
/// analysis vacuous, so lo <= hi.
std::optional<VolatileRange> parseVolatile(const std::string &V) {
  size_t Eq = V.find('=');
  if (Eq == std::string::npos || !isName(V.substr(0, Eq)))
    return std::nullopt;
  size_t Colon = V.find(':', Eq);
  if (Colon == std::string::npos)
    return std::nullopt;
  std::optional<double> Lo = parseNumber(V.substr(Eq + 1, Colon - Eq - 1));
  std::optional<double> Hi = parseNumber(V.substr(Colon + 1));
  if (!Lo || !Hi || *Lo > *Hi)
    return std::nullopt;
  return VolatileRange{V.substr(0, Eq), Interval(*Lo, *Hi)};
}

using ThreadList = std::vector<std::pair<std::string, std::string>>;

/// `<name>:<entry>[,<name>:<entry>...]`.
std::optional<ThreadList> parseThreads(const std::string &V) {
  ThreadList Threads;
  for (size_t Pos = 0; Pos <= V.size();) {
    size_t Comma = std::min(V.find(',', Pos), V.size());
    size_t Colon = V.find(':', Pos);
    if (Colon >= Comma || !isName(V.substr(Pos, Colon - Pos)) ||
        !isName(V.substr(Colon + 1, Comma - Colon - 1)))
      return std::nullopt;
    Threads.emplace_back(V.substr(Pos, Colon - Pos),
                         V.substr(Colon + 1, Comma - Colon - 1));
    Pos = Comma + 1;
  }
  return Threads;
}

std::string integerRange(uint64_t Min, uint64_t Max) {
  return "an integer in [" + std::to_string(Min) + ", " +
         std::to_string(Max) + "]";
}

/// An option whose value \p Parse reads and \p Set applies.
template <typename ParseT, typename SetT>
Option valueOption(const char *Flag, const char *Directive,
                   std::string Expect, ParseT Parse, SetT Set,
                   const char *Join = "") {
  return {Flag, Directive, Join, std::move(Expect),
          [Parse, Set](const std::string &V) -> std::optional<OptionOp> {
            auto X = Parse(V);
            if (!X)
              return std::nullopt;
            return OptionOp([Set, X = *X](AnalyzerOptions &O) { Set(O, X); });
          }};
}

template <typename SetT>
Option unsignedOption(const char *Flag, const char *Directive, uint64_t Min,
                      uint64_t Max, SetT Set) {
  return valueOption(
      Flag, Directive, integerRange(Min, Max),
      [Min, Max](const std::string &V) { return parseUnsigned(V, Min, Max); },
      Set);
}

Option analyzerSwitch(const char *Flag, void (*Set)(AnalyzerOptions &)) {
  return {Flag, "", "", "",
          [Set](const std::string &) { return std::optional<OptionOp>(Set); }};
}

Option outputSwitch(const char *Flag, bool CliOptions::*Field) {
  return {Flag, "", "", "", nullptr, Field};
}

} // namespace

void printUsage(std::FILE *Out) {
  std::fputs(
      "usage: astral-cli <file>... [options]\n"
      "       astral-cli serve --socket=<path> [--jobs=<n>] "
      "[--cache-entries=<n>] [--quiet]\n"
      "       astral-cli client --socket=<path> <request> [args]\n"
      "\n"
      "Runs the full ASTRAL pipeline (preprocess, parse, sema, lower,\n"
      "fixpoint, alarm checking) on each <file> and prints the analysis\n"
      "reports in input order. Several files form a batch scheduled across\n"
      "the --jobs worker pool. C++ example harnesses (examples/*.cpp) are\n"
      "handled by extracting the embedded raw-string input program. `-`\n"
      "reads from stdin.\n"
      "\n"
      "Every value flag is written --<flag>=<v> or --<flag> <v>. A value\n"
      "must parse whole: integers are plain decimal digits within the\n"
      "flag's range, numbers are decimal (or inf), and nan is refused.\n"
      "\n"
      "execution policy:\n"
      "  --jobs <n>, --jobs=<n>       worker threads for scheduling batch\n"
      "                               files, for the trace partitions of\n"
      "                               straight-line `if` statements (no\n"
      "                               loop, call or jump in either branch)\n"
      "                               inside `@astral partition` functions\n"
      "                               and for the thread runs of threaded\n"
      "                               programs\n"
      "                               (default: 1; 0 = one per hardware\n"
      "                               thread, i.e. hardware_concurrency;\n"
      "                               values above the hardware thread\n"
      "                               count warn once). Reports are\n"
      "                               byte-identical for every value.\n"
      "\n"
      "domain selection:\n"
      "  --domains=<list>             enabled abstract domains, a comma-\n"
      "                               separated subset of\n"
      "                               interval,clocked,octagon,tree,ellipsoid\n"
      "                               (default: all; interval is always on).\n"
      "                               Each relational domain can be ablated\n"
      "                               independently, e.g.\n"
      "                               --domains=interval,octagon\n"
      "  --no-linearize               disable symbolic linearization\n"
      "\n"
      "iteration strategy:\n"
      "  --no-thresholds              plain interval widening\n"
      "  --threshold <v>              extra widening threshold (repeatable)\n"
      "  --unroll <n>                 default loop unrolling factor (at\n"
      "                               most 1000)\n"
      "  --max-iterations <n>         fixpoint iteration cap\n"
      "\n"
      "environment specification (Sect. 4):\n"
      "  --volatile <name>=<lo>:<hi>  range of a volatile input (repeatable)\n"
      "  --clock-max <ticks>          maximal operating time in clock ticks\n"
      "  --partition <fn>             trace-partition a function (repeatable)\n"
      "  --entry <fn>                 entry function (default: main)\n"
      "  --threads=<n:f>[,<n:f>...]   declare concurrent threads as\n"
      "                               name:entry-function pairs; any\n"
      "                               declared thread switches the\n"
      "                               execution phase to the interference\n"
      "                               fixpoint rounds (the entry function\n"
      "                               runs first as startup, then every\n"
      "                               thread is re-analyzed under rival\n"
      "                               threads' write interferences until\n"
      "                               the interference map stabilizes).\n"
      "                               Adds data-race and\n"
      "                               cross-thread-range alarm classes.\n"
      "\n"
      "  The same specification can live in the input itself as comment\n"
      "  directives: `/* @astral volatile speed 0 300 */`,\n"
      "  `@astral clock-max 3.6e6`, `@astral partition f`,\n"
      "  `@astral threshold 500`, `@astral entry main`,\n"
      "  `@astral domains interval,octagon`, `@astral jobs 4`,\n"
      "  `@astral unroll 2`, `@astral thread t1 worker` (one thread per\n"
      "  directive). A directive reads its arguments as its flag's value:\n"
      "  `volatile speed 0 300` as --volatile speed=0:300, `thread t1\n"
      "  worker` as --threads=t1:worker, the others as the one value. A\n"
      "  trailing `*/` is ignored; any other extra argument, or a value\n"
      "  the flag would refuse, makes the directive warn and not apply.\n"
      "  Flags override directives.\n"
      "\n"
      "resource governance:\n"
      "  --deadline-ms=<n>            wall-clock deadline for the analysis\n"
      "                               phase (0 = none, the default). A\n"
      "                               one-shot run anchors it at phase\n"
      "                               start and exits 4 on expiry; the\n"
      "                               serve daemon anchors it at request\n"
      "                               arrival and answers a structured\n"
      "                               `timeout` error while continuing to\n"
      "                               serve.\n"
      "  --memory-budget-bytes=<n>    abstract-state byte budget (0 = none,\n"
      "                               the default), checked against the\n"
      "                               session's deterministic byte meter —\n"
      "                               never wall clock — so budget\n"
      "                               outcomes are byte-identical for\n"
      "                               every --jobs value.\n"
      "  --on-budget=<mode>           what crossing the budget does:\n"
      "                               'degrade' (default) sheds precision\n"
      "                               deterministically (drop ellipsoid ->\n"
      "                               tree -> octagon packs -> tighten\n"
      "                               partitioning) and finishes with a\n"
      "                               sound report labeled `degraded`;\n"
      "                               'fail' stops with a structured\n"
      "                               over-budget error (exit 4 one-shot).\n"
      "\n"
      "output:\n"
      "  --dump-invariants            print the main loop invariant\n"
      "  --dump-stats                 print the run's statistics counters\n"
      "                               to stderr (work-metering figures —\n"
      "                               deliberately outside the\n"
      "                               byte-identical report guarantee)\n"
      "  --json                       machine-readable report\n"
      "  --quiet                      only the alarm summary\n"
      "  --fail-on-alarms             exit 3 when any alarm is raised\n"
      "\n"
      "service mode:\n"
      "  `astral-cli serve` starts a long-lived daemon on a Unix-domain\n"
      "  socket: it keeps a content-hash artifact cache (keyed by SHA-256\n"
      "  of the preprocessed source and the option subset each phase\n"
      "  depends on), so resubmitting an unchanged file skips the frontend\n"
      "  and packing phases. `astral-cli client --socket=<path> analyze\n"
      "  <file>... [flags]` submits files and prints exactly what the\n"
      "  one-shot driver would print — byte-identical, same exit codes.\n"
      "  Other requests: status, cache-stats, shutdown.\n",
      Out);
}

std::optional<std::string> readFile(const std::string &Path) {
  if (Path == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    return SS.str();
  }
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::optional<int> parseInt(const std::string &V) {
  return parseWhole<int>(V);
}

Flag unsignedFlag(std::string Name, uint64_t Min, uint64_t Max,
                  std::function<void(uint64_t)> Set) {
  return {std::move(Name), integerRange(Min, Max),
          [Min, Max, Set](const std::string &V) {
            std::optional<uint64_t> N = parseUnsigned(V, Min, Max);
            if (N)
              Set(*N);
            return N.has_value();
          }};
}

size_t walkFlags(const std::vector<std::string> &Args,
                 const std::vector<Flag> &Table, const char *Who,
                 const std::function<bool(const std::string &)> &Other,
                 std::string &Err, std::vector<std::string> *Consumed) {
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    size_t Eq = A.find('=');
    std::string Name = A.rfind("--", 0) == 0 ? A.substr(2, Eq - 2) : "";
    auto F = std::find_if(Table.begin(), Table.end(),
                          [&](const Flag &E) { return E.Name == Name; });
    // A switch given a value is no flag of the table either.
    if (Name.empty() || F == Table.end() ||
        (F->Expect.empty() && Eq != std::string::npos)) {
      if (!Other(A))
        return I;
      continue;
    }
    size_t First = I;
    std::string Value;
    if (Eq != std::string::npos) {
      Value = A.substr(Eq + 1);
    } else if (!F->Expect.empty()) {
      if (I + 1 == Args.size()) {
        Err = std::string(Who) + ": error: " + A + " requires a value";
        return I;
      }
      Value = Args[++I];
    }
    if (!F->Set(Value)) {
      Err = std::string(Who) + ": error: --" + Name + " expects " +
            F->Expect + ", got '" + Value + "'";
      return First;
    }
    if (Consumed)
      Consumed->insert(Consumed->end(), Args.begin() + First,
                       Args.begin() + I + 1);
  }
  return Args.size();
}

const std::vector<Option> &options() {
  using BudgetAction = AnalyzerOptions::BudgetAction;
  constexpr uint64_t U32 = UINT32_MAX;
  // Each unrolled iteration runs a loop body once more, and nested loops
  // multiply: the top keeps every accepted value one the analysis finishes.
  constexpr uint64_t MaxUnroll = 1000;
  static const std::vector<Option> Table = {
      // Execution policy may travel with the input: reports stay
      // byte-identical for every value, so a checked-in `@astral jobs`
      // cannot make a golden run diverge.
      unsignedOption("jobs", "jobs", 0, Scheduler::MaxThreads,
                     [](AnalyzerOptions &O, uint64_t N) { O.Jobs = N; }),
      valueOption("domains", "domains",
                  "a comma-separated subset of "
                  "interval,clocked,octagon,tree,ellipsoid",
                  DomainSet::parse,
                  [](AnalyzerOptions &O, DomainSet S) { O.Domains = S; }),
      analyzerSwitch("no-linearize", [](AnalyzerOptions &O) {
        O.EnableLinearization = false;
      }),
      analyzerSwitch("no-thresholds", [](AnalyzerOptions &O) {
        O.WideningWithThresholds = false;
      }),
      valueOption("threshold", "threshold", "a number", parseNumber,
                  [](AnalyzerOptions &O, double T) {
                    O.ExtraThresholds.push_back(T);
                  }),
      unsignedOption("unroll", "unroll", 0, MaxUnroll,
                     [](AnalyzerOptions &O, uint64_t N) {
                       O.DefaultUnroll = N;
                     }),
      unsignedOption("max-iterations", "", 1, U32,
                     [](AnalyzerOptions &O, uint64_t N) {
                       O.MaxIterations = N;
                     }),
      valueOption("volatile", "volatile", "<name>=<lo>:<hi> with <lo> <= <hi>",
                  parseVolatile,
                  [](AnalyzerOptions &O, const VolatileRange &R) {
                    O.VolatileRanges[R.first] = R.second;
                  },
                  "=:"),
      valueOption("clock-max", "clock-max", "a positive number",
                  [](const std::string &V) {
                    std::optional<double> T = parseNumber(V);
                    return T && *T > 0 ? T : std::nullopt;
                  },
                  [](AnalyzerOptions &O, double T) { O.ClockMax = T; }),
      valueOption("partition", "partition", "a function name", parseName,
                  [](AnalyzerOptions &O, const std::string &F) {
                    O.PartitionFunctions.insert(F);
                  }),
      valueOption("entry", "entry", "a function name", parseName,
                  [](AnalyzerOptions &O, const std::string &F) {
                    O.EntryFunction = F;
                  }),
      // Appends, so a flag adds threads to the input's declarations.
      valueOption("threads", "thread", "<name>:<entry>[,<name>:<entry>...]",
                  parseThreads,
                  [](AnalyzerOptions &O, const ThreadList &T) {
                    O.Threads.insert(O.Threads.end(), T.begin(), T.end());
                  },
                  ":"),
      unsignedOption("deadline-ms", "", 0, U32,
                     [](AnalyzerOptions &O, uint64_t N) { O.DeadlineMs = N; }),
      unsignedOption("memory-budget-bytes", "", 0, UINT64_MAX,
                     [](AnalyzerOptions &O, uint64_t N) {
                       O.MemoryBudgetBytes = N;
                     }),
      valueOption("on-budget", "", "'degrade' or 'fail'",
                  [](const std::string &V) -> std::optional<BudgetAction> {
                    if (V == "degrade")
                      return BudgetAction::Degrade;
                    if (V == "fail")
                      return BudgetAction::Fail;
                    return std::nullopt;
                  },
                  [](AnalyzerOptions &O, BudgetAction A) { O.OnBudget = A; }),
      outputSwitch("dump-invariants", &CliOptions::DumpInvariants),
      outputSwitch("dump-stats", &CliOptions::DumpStats),
      outputSwitch("json", &CliOptions::Json),
      outputSwitch("quiet", &CliOptions::Quiet),
      outputSwitch("fail-on-alarms", &CliOptions::FailOnAlarms),
  };
  return Table;
}

ParseOutcome parseArgs(const std::vector<std::string> &Args, CliOptions &Cli) {
  ParseOutcome Res;
  if (std::any_of(Args.begin(), Args.end(), [](const std::string &A) {
        return A == "--help" || A == "-h";
      })) {
    Res.ShowHelp = true;
    return Res;
  }
  std::vector<Flag> Table;
  for (const Option &O : options())
    Table.push_back({O.Flag, O.Expect, [&Cli, &O](const std::string &V) {
                       if (O.Output) {
                         Cli.*O.Output = true;
                         return true;
                       }
                       std::optional<OptionOp> Op = O.Parse(V);
                       if (Op)
                         Cli.FlagOps.push_back(std::move(*Op));
                       return Op.has_value();
                     }});
  walkFlags(
      Args, Table, "astral-cli",
      [&](const std::string &A) {
        if (A.size() > 1 && A[0] == '-') {
          Res.Error = "astral-cli: error: unknown flag '" + A + "'";
          return false;
        }
        Cli.InputPaths.push_back(A);
        return true;
      },
      Res.Error, &Cli.FlagArgs);
  // A second '-' would read an already-drained stdin as an empty program.
  if (Res.Error.empty() && std::count(Cli.InputPaths.begin(),
                                      Cli.InputPaths.end(),
                                      std::string("-")) > 1)
    Res.Error = "astral-cli: error: stdin ('-') may be given only once";
  Res.Ok = Res.Error.empty();
  return Res;
}

std::optional<std::vector<LoadedFile>>
loadInputFiles(const CliOptions &Cli, std::vector<std::string> &Notes,
               std::string &Error) {
  std::vector<LoadedFile> Files;
  for (const std::string &Path : Cli.InputPaths) {
    std::optional<std::string> Text = readFile(Path);
    if (!Text) {
      Error = "astral-cli: error: cannot read '" + Path + "'";
      return std::nullopt;
    }
    LoadedFile F;
    F.Path = Path;
    F.Source = *Text;
    if (looksLikeCxxHarness(*Text)) {
      std::optional<std::string> Embedded = extractRawString(*Text);
      if (!Embedded) {
        Error = "astral-cli: error: '" + Path +
                "' is a C++ harness with no embedded input program";
        return std::nullopt;
      }
      if (!Cli.Quiet && !Cli.Json)
        Notes.push_back("astral-cli: note: extracted the embedded input "
                        "program from C++ harness '" +
                        Path + "'");
      F.Source = *Embedded;
    }
    preloadIncludes(F.Source, dirName(Path), F.Headers);
    Files.push_back(std::move(F));
  }
  return Files;
}

AnalyzerOptions assembleOptions(const CliOptions &Cli, const std::string &Path,
                                const std::string &Source,
                                std::vector<std::string> &Warnings) {
  // Defaults, then the input's @astral spec directives, then command-line
  // flags — so flags override directives, and directives override defaults.
  AnalyzerOptions O;
  for (const std::string &W : applySpecDirectives(Source, O))
    Warnings.push_back("astral-cli: warning: " + Path + ": " + W);
  for (const auto &Op : Cli.FlagOps)
    Op(O);
  return O;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string renderJsonReport(const CliOptions &Cli, const std::string &Path,
                             const AnalysisResult &R) {
  std::string S;
  appendf(S, "{\n");
  appendf(S, "  \"file\": \"%s\",\n", jsonEscape(Path).c_str());
  appendf(S, "  \"schema_version\": %u,\n",
          static_cast<unsigned>(ReportSchemaVersion));
  appendf(S, "  \"frontend_ok\": %s,\n", R.FrontendOk ? "true" : "false");
  if (!R.FrontendOk) {
    appendf(S, "  \"frontend_errors\": \"%s\"\n",
            jsonEscape(R.FrontendErrors).c_str());
    appendf(S, "}\n");
    return S;
  }
  appendf(S, "  \"source_lines\": %llu,\n",
          static_cast<unsigned long long>(R.SourceLines));
  appendf(S, "  \"variables\": %llu,\n",
          static_cast<unsigned long long>(R.NumVariables));
  appendf(S, "  \"used_variables\": %llu,\n",
          static_cast<unsigned long long>(R.NumUsedVariables));
  appendf(S, "  \"cells\": %llu,\n",
          static_cast<unsigned long long>(R.NumCells));
  appendf(S, "  \"octagon_packs\": %llu,\n",
          static_cast<unsigned long long>(R.packCount(DomainKind::Octagon)));
  appendf(S, "  \"tree_packs\": %llu,\n",
          static_cast<unsigned long long>(
              R.packCount(DomainKind::DecisionTree)));
  appendf(S, "  \"ellipsoid_packs\": %llu,\n",
          static_cast<unsigned long long>(R.packCount(DomainKind::Ellipsoid)));
  appendf(S, "  \"analysis_seconds\": %.6f,\n", R.AnalysisSeconds);
  // Governance fields appear only when a memory budget was configured, so
  // budget-less reports (the goldens above all) are byte-identical to
  // pre-governance builds without a schema bump.
  if (R.MemoryBudgetConfigured) {
    appendf(S, "  \"degraded\": %s,\n", R.degraded() ? "true" : "false");
    appendf(S, "  \"degrade_steps\": [");
    for (size_t I = 0; I < R.DegradeSteps.size(); ++I)
      appendf(S, "%s\"%s\"", I ? ", " : "",
              jsonEscape(R.DegradeSteps[I]).c_str());
    appendf(S, "],\n");
  }
  appendf(S, "  \"has_main_loop\": %s,\n", R.HasMainLoop ? "true" : "false");

  const InvariantCensus &C = R.MainLoopCensus;
  appendf(S, "  \"invariant_census\": {\n");
  appendf(S, "    \"boolean\": %llu,\n",
          static_cast<unsigned long long>(C.BoolAssertions));
  appendf(S, "    \"interval\": %llu,\n",
          static_cast<unsigned long long>(C.IntervalAssertions));
  appendf(S, "    \"clock\": %llu,\n",
          static_cast<unsigned long long>(C.ClockAssertions));
  appendf(S, "    \"oct_additive\": %llu,\n",
          static_cast<unsigned long long>(C.OctAdditive));
  appendf(S, "    \"oct_subtractive\": %llu,\n",
          static_cast<unsigned long long>(C.OctSubtractive));
  appendf(S, "    \"decision_trees\": %llu,\n",
          static_cast<unsigned long long>(C.DecisionTrees));
  appendf(S, "    \"ellipsoids\": %llu\n",
          static_cast<unsigned long long>(C.EllipsoidAssertions));
  appendf(S, "  },\n");

  appendf(S, "  \"ranges\": {\n");
  for (size_t I = 0; I < R.VariableRanges.size(); ++I) {
    const auto &[Name, Itv] = R.VariableRanges[I];
    appendf(S, "    \"%s\": \"%s\"%s\n", jsonEscape(Name).c_str(),
            jsonEscape(Itv.toString()).c_str(),
            I + 1 == R.VariableRanges.size() ? "" : ",");
  }
  appendf(S, "  },\n");

  appendf(S, "  \"alarm_count\": %zu,\n", R.Alarms.size());
  appendf(S, "  \"alarms\": [\n");
  for (size_t I = 0; I < R.Alarms.size(); ++I) {
    const Alarm &A = R.Alarms[I];
    appendf(S, "    {\"kind\": \"%s\", \"line\": %u, \"definite\": %s, "
               "\"message\": \"%s\"}%s\n",
            alarmKindName(A.Kind), A.Loc.Line, A.Definite ? "true" : "false",
            jsonEscape(A.Message).c_str(),
            I + 1 == R.Alarms.size() ? "" : ",");
  }
  appendf(S, "  ]");
  if (Cli.DumpInvariants)
    appendf(S, ",\n  \"invariant\": \"%s\"",
            jsonEscape(R.MainLoopInvariant).c_str());
  appendf(S, "\n}\n");
  return S;
}

std::string renderTextReport(const CliOptions &Cli, const std::string &Path,
                             const AnalysisResult &R) {
  std::string S;
  if (!Cli.Quiet) {
    appendf(S, "== astral: %s ==\n", Path.c_str());
    appendf(S, "  source lines         %llu\n",
            static_cast<unsigned long long>(R.SourceLines));
    appendf(S, "  variables            %llu (%llu used)\n",
            static_cast<unsigned long long>(R.NumVariables),
            static_cast<unsigned long long>(R.NumUsedVariables));
    appendf(S, "  cells                %llu (%llu from array expansion)\n",
            static_cast<unsigned long long>(R.NumCells),
            static_cast<unsigned long long>(R.ExpandedArrayCells));
    appendf(S, "  octagon packs        %llu (avg %.1f vars, %zu useful)\n",
            static_cast<unsigned long long>(R.packCount(DomainKind::Octagon)),
            R.avgPackCells(DomainKind::Octagon), R.UsefulOctPacks.size());
    appendf(S, "  decision-tree packs  %llu\n",
            static_cast<unsigned long long>(
                R.packCount(DomainKind::DecisionTree)));
    appendf(S, "  ellipsoid packs      %llu\n",
            static_cast<unsigned long long>(
                R.packCount(DomainKind::Ellipsoid)));
    appendf(S, "  analysis time        %.3f s\n", R.AnalysisSeconds);
    appendf(S, "  abstract-state peak  %.1f MB\n",
            R.PeakAbstractBytes / 1048576.0);
    if (R.MemoryBudgetConfigured) {
      if (R.degraded()) {
        std::string Steps;
        for (const std::string &Step : R.DegradeSteps) {
          if (!Steps.empty())
            Steps += " -> ";
          Steps += Step;
        }
        appendf(S, "  degraded             yes (%s)\n", Steps.c_str());
      } else {
        appendf(S, "  degraded             no (fit the memory budget)\n");
      }
    }

    const InvariantCensus &C = R.MainLoopCensus;
    appendf(S, "  %s invariant census: boolean %llu / interval %llu / "
               "clock %llu / oct+ %llu / oct- %llu / trees %llu / "
               "ellipsoids %llu\n",
            R.HasMainLoop ? "main-loop" : "program-end",
            static_cast<unsigned long long>(C.BoolAssertions),
            static_cast<unsigned long long>(C.IntervalAssertions),
            static_cast<unsigned long long>(C.ClockAssertions),
            static_cast<unsigned long long>(C.OctAdditive),
            static_cast<unsigned long long>(C.OctSubtractive),
            static_cast<unsigned long long>(C.DecisionTrees),
            static_cast<unsigned long long>(C.EllipsoidAssertions));

    appendf(S, "\n  ranges at the %s:\n",
            R.HasMainLoop ? "main loop head" : "program end");
    for (const auto &[Name, Itv] : R.VariableRanges)
      appendf(S, "    %-20s %s\n", Name.c_str(), Itv.toString().c_str());
    appendf(S, "\n");
  }

  appendf(S, "alarms: %zu\n", R.Alarms.size());
  for (const Alarm &A : R.Alarms)
    appendf(S, "  [%s] line %u: %s%s\n", alarmKindName(A.Kind), A.Loc.Line,
            A.Message.c_str(), A.Definite ? " (definite)" : "");
  if (R.Alarms.empty())
    appendf(S, "  none — the program is proved free of run-time errors "
               "under the specification\n");

  if (Cli.DumpInvariants) {
    appendf(S, "\n%s invariant:\n",
            R.HasMainLoop ? "main loop" : "program end");
    S += R.MainLoopInvariant;
    if (!R.MainLoopInvariant.empty() && R.MainLoopInvariant.back() != '\n')
      appendf(S, "\n");
  }
  return S;
}

RunOutput renderRun(const CliOptions &Cli,
                    const std::vector<std::string> &Paths,
                    const std::vector<AnalysisResult> &Results) {
  RunOutput RO;
  bool Batch = Results.size() > 1;
  bool AnyFrontendError = false, AnyAlarm = false;
  if (Cli.Json && Batch)
    RO.Out += "[\n";
  for (size_t I = 0; I < Results.size(); ++I) {
    const AnalysisResult &R = Results[I];
    const std::string &Path = Paths[I];
    AnyFrontendError = AnyFrontendError || !R.FrontendOk;
    AnyAlarm = AnyAlarm || !R.Alarms.empty();
    if (Cli.Json) {
      RO.Out += renderJsonReport(Cli, Path, R);
      if (Batch && I + 1 < Results.size())
        RO.Out += ",\n";
    } else if (!R.FrontendOk) {
      RO.Err += "astral-cli: frontend errors in '" + Path + "':\n" +
                R.FrontendErrors + "\n";
    } else {
      if (Batch && I > 0)
        RO.Out += "\n";
      RO.Out += renderTextReport(Cli, Path, R);
    }
    // Stats go to stderr: they are work-metering figures outside the
    // byte-identical report guarantee, so they must never contaminate the
    // golden-diffed stdout (notably under --json).
    if (Cli.DumpStats)
      RO.Err += "=== stats: " + Path + " ===\n" + R.Stats.toString();
  }
  if (Cli.Json && Batch)
    RO.Out += "]\n";

  if (AnyFrontendError)
    RO.ExitCode = 2;
  else if (Cli.FailOnAlarms && AnyAlarm)
    RO.ExitCode = 3;
  return RO;
}

} // namespace cli
} // namespace astral
