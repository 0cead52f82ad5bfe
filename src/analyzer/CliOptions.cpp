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

struct VolatileSpec {
  std::string Name;
  double Lo, Hi;
};

std::optional<VolatileSpec> parseVolatileFlag(const std::string &Spec) {
  size_t Eq = Spec.find('=');
  size_t Colon = Spec.find(':', Eq == std::string::npos ? 0 : Eq);
  if (Eq == std::string::npos || Colon == std::string::npos)
    return std::nullopt;
  try {
    size_t LoEnd = 0, HiEnd = 0;
    std::string LoStr = Spec.substr(Eq + 1, Colon - Eq - 1);
    std::string HiStr = Spec.substr(Colon + 1);
    double Lo = std::stod(LoStr, &LoEnd);
    double Hi = std::stod(HiStr, &HiEnd);
    // Reject trailing garbage and inverted (bottom) ranges, which would
    // make the whole analysis vacuous.
    if (LoEnd != LoStr.size() || HiEnd != HiStr.size() || Lo > Hi)
      return std::nullopt;
    return VolatileSpec{Spec.substr(0, Eq), Lo, Hi};
  } catch (const std::exception &) {
    return std::nullopt;
  }
}

/// Strict numeric flag parsing: the whole value must be consumed.
std::optional<double> parseDoubleFlag(const std::string &V) {
  try {
    size_t End = 0;
    double X = std::stod(V, &End);
    if (End != V.size())
      return std::nullopt;
    return X;
  } catch (const std::exception &) {
    return std::nullopt;
  }
}

std::optional<unsigned> parseUnsignedFlag(const std::string &V) {
  try {
    size_t End = 0;
    unsigned long X = std::stoul(V, &End);
    if (End != V.size() || X > 0xffffffffUL)
      return std::nullopt;
    return static_cast<unsigned>(X);
  } catch (const std::exception &) {
    return std::nullopt;
  }
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
      "execution policy:\n"
      "  --jobs <n>, --jobs=<n>       worker threads for scheduling batch\n"
      "                               files, for the trace partitions of\n"
      "                               `if` statements inside `@astral\n"
      "                               partition` functions and for the\n"
      "                               thread runs of threaded programs\n"
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
      "  --unroll <n>                 default loop unrolling factor\n"
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
      "  `@astral thread t1 worker` (one thread per directive; flags\n"
      "  override directives).\n"
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
      "  --memory-budget-mb=<n>       abstract-state byte budget in MiB\n"
      "                               (0 = none, the default), checked\n"
      "                               against the session's deterministic\n"
      "                               byte meter — never wall clock — so\n"
      "                               budget outcomes are byte-identical\n"
      "                               across --jobs and dispatch modes.\n"
      "  --memory-budget-bytes=<n>    same budget with byte granularity\n"
      "                               (test harnesses; overrides/overridden\n"
      "                               by -mb, last one wins).\n"
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

ParseOutcome parseArgs(const std::vector<std::string> &Args, CliOptions &Cli) {
  ParseOutcome Res;

  auto Failf = [&](const char *Fmt, ...) {
    char Buf[512];
    va_list Ap;
    va_start(Ap, Fmt);
    std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
    va_end(Ap);
    Res.Ok = false;
    Res.Error = Buf;
  };

  size_t I = 0;
  auto NextValue = [&](const char *Flag) -> std::optional<std::string> {
    if (I + 1 >= Args.size()) {
      Failf("astral-cli: error: %s requires a value", Flag);
      return std::nullopt;
    }
    return Args[++I];
  };

  for (I = 0; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    bool IsInput = A.empty() || A[0] != '-' || A == "-";
    size_t Start = I;
    if (A == "--help" || A == "-h") {
      Res.ShowHelp = true;
      return Res;
    } else if (A == "--domains" || A.rfind("--domains=", 0) == 0) {
      std::string List;
      if (A == "--domains") {
        auto V = NextValue("--domains");
        if (!V)
          return Res;
        List = *V;
      } else {
        List = A.substr(std::string("--domains=").size());
      }
      std::string Err;
      std::optional<DomainSet> DS = DomainSet::parse(List, Err);
      if (!DS) {
        Failf("astral-cli: error: --domains: %s", Err.c_str());
        return Res;
      }
      Cli.FlagOps.push_back(
          [DS](AnalyzerOptions &O) { O.Domains = *DS; });
    } else if (A == "--jobs" || A.rfind("--jobs=", 0) == 0) {
      std::string Val;
      if (A == "--jobs") {
        auto V = NextValue("--jobs");
        if (!V)
          return Res;
        Val = *V;
      } else {
        Val = A.substr(std::string("--jobs=").size());
      }
      std::optional<unsigned> N = parseUnsignedFlag(Val);
      if (!N || *N > Scheduler::MaxThreads) {
        Failf("astral-cli: error: --jobs expects an integer in [0, %u], "
              "got '%s'",
              Scheduler::MaxThreads, Val.c_str());
        return Res;
      }
      Cli.FlagOps.push_back([N](AnalyzerOptions &O) { O.Jobs = *N; });
    } else if (A == "--threads" || A.rfind("--threads=", 0) == 0) {
      std::string Val;
      if (A == "--threads") {
        auto V = NextValue("--threads");
        if (!V)
          return Res;
        Val = *V;
      } else {
        Val = A.substr(std::string("--threads=").size());
      }
      std::vector<std::pair<std::string, std::string>> Threads;
      bool Bad = Val.empty();
      for (size_t Pos = 0; !Bad && Pos <= Val.size();) {
        size_t Comma = Val.find(',', Pos);
        std::string Item =
            Val.substr(Pos, Comma == std::string::npos ? std::string::npos
                                                       : Comma - Pos);
        size_t Colon = Item.find(':');
        if (Colon == std::string::npos || Colon == 0 ||
            Colon + 1 >= Item.size() ||
            Item.find(':', Colon + 1) != std::string::npos)
          Bad = true;
        else
          Threads.emplace_back(Item.substr(0, Colon),
                               Item.substr(Colon + 1));
        if (Comma == std::string::npos)
          break;
        Pos = Comma + 1;
      }
      if (Bad) {
        Failf("astral-cli: error: --threads expects "
              "name:entry[,name:entry...], got '%s'",
              Val.c_str());
        return Res;
      }
      // Appends, like the `@astral thread` directive accumulates — a flag
      // can add threads on top of the input's declarations.
      Cli.FlagOps.push_back([Threads](AnalyzerOptions &O) {
        for (const auto &T : Threads)
          O.Threads.push_back(T);
      });
    } else if (A == "--deadline-ms" || A.rfind("--deadline-ms=", 0) == 0) {
      std::string Val;
      if (A == "--deadline-ms") {
        auto V = NextValue("--deadline-ms");
        if (!V)
          return Res;
        Val = *V;
      } else {
        Val = A.substr(std::string("--deadline-ms=").size());
      }
      std::optional<unsigned> N = parseUnsignedFlag(Val);
      if (!N) {
        Failf("astral-cli: error: --deadline-ms expects a non-negative "
              "integer of milliseconds, got '%s'",
              Val.c_str());
        return Res;
      }
      Cli.FlagOps.push_back([N](AnalyzerOptions &O) { O.DeadlineMs = *N; });
    } else if (A == "--memory-budget-mb" ||
               A.rfind("--memory-budget-mb=", 0) == 0) {
      std::string Val;
      if (A == "--memory-budget-mb") {
        auto V = NextValue("--memory-budget-mb");
        if (!V)
          return Res;
        Val = *V;
      } else {
        Val = A.substr(std::string("--memory-budget-mb=").size());
      }
      std::optional<unsigned> N = parseUnsignedFlag(Val);
      if (!N) {
        Failf("astral-cli: error: --memory-budget-mb expects a non-negative "
              "integer of MiB, got '%s'",
              Val.c_str());
        return Res;
      }
      Cli.FlagOps.push_back([N](AnalyzerOptions &O) {
        O.MemoryBudgetBytes = uint64_t(*N) << 20;
      });
    } else if (A == "--memory-budget-bytes" ||
               A.rfind("--memory-budget-bytes=", 0) == 0) {
      // Byte-granular sibling of --memory-budget-mb, for test harnesses and
      // chaos scripts that pin budgets below (or between) whole MiB.
      std::string Val;
      if (A == "--memory-budget-bytes") {
        auto V = NextValue("--memory-budget-bytes");
        if (!V)
          return Res;
        Val = *V;
      } else {
        Val = A.substr(std::string("--memory-budget-bytes=").size());
      }
      std::optional<unsigned> N = parseUnsignedFlag(Val);
      if (!N) {
        Failf("astral-cli: error: --memory-budget-bytes expects a "
              "non-negative integer of bytes, got '%s'",
              Val.c_str());
        return Res;
      }
      Cli.FlagOps.push_back(
          [N](AnalyzerOptions &O) { O.MemoryBudgetBytes = *N; });
    } else if (A == "--on-budget" || A.rfind("--on-budget=", 0) == 0) {
      std::string Val;
      if (A == "--on-budget") {
        auto V = NextValue("--on-budget");
        if (!V)
          return Res;
        Val = *V;
      } else {
        Val = A.substr(std::string("--on-budget=").size());
      }
      std::optional<AnalyzerOptions::BudgetAction> Mode;
      if (Val == "degrade")
        Mode = AnalyzerOptions::BudgetAction::Degrade;
      else if (Val == "fail")
        Mode = AnalyzerOptions::BudgetAction::Fail;
      if (!Mode) {
        Failf("astral-cli: error: --on-budget expects 'degrade' or 'fail', "
              "got '%s'",
              Val.c_str());
        return Res;
      }
      Cli.FlagOps.push_back(
          [Mode](AnalyzerOptions &O) { O.OnBudget = *Mode; });
    } else if (A == "--no-linearize") {
      Cli.FlagOps.push_back(
          [](AnalyzerOptions &O) { O.EnableLinearization = false; });
    } else if (A == "--no-thresholds") {
      Cli.FlagOps.push_back(
          [](AnalyzerOptions &O) { O.WideningWithThresholds = false; });
    } else if (A == "--dump-invariants") {
      Cli.DumpInvariants = true;
    } else if (A == "--dump-stats") {
      Cli.DumpStats = true;
    } else if (A == "--json") {
      Cli.Json = true;
    } else if (A == "--quiet") {
      Cli.Quiet = true;
    } else if (A == "--fail-on-alarms") {
      Cli.FailOnAlarms = true;
    } else if (A == "--threshold") {
      auto V = NextValue("--threshold");
      if (!V)
        return Res;
      std::optional<double> T = parseDoubleFlag(*V);
      if (!T) {
        Failf("astral-cli: error: --threshold expects a number, got '%s'",
              V->c_str());
        return Res;
      }
      Cli.FlagOps.push_back(
          [T](AnalyzerOptions &O) { O.ExtraThresholds.push_back(*T); });
    } else if (A == "--unroll") {
      auto V = NextValue("--unroll");
      if (!V)
        return Res;
      std::optional<unsigned> N = parseUnsignedFlag(*V);
      if (!N) {
        Failf("astral-cli: error: --unroll expects a non-negative integer, "
              "got '%s'",
              V->c_str());
        return Res;
      }
      Cli.FlagOps.push_back(
          [N](AnalyzerOptions &O) { O.DefaultUnroll = *N; });
    } else if (A == "--max-iterations") {
      auto V = NextValue("--max-iterations");
      if (!V)
        return Res;
      std::optional<unsigned> N = parseUnsignedFlag(*V);
      if (!N || *N == 0) {
        Failf("astral-cli: error: --max-iterations expects a positive "
              "integer, got '%s'",
              V->c_str());
        return Res;
      }
      Cli.FlagOps.push_back(
          [N](AnalyzerOptions &O) { O.MaxIterations = *N; });
    } else if (A == "--clock-max") {
      auto V = NextValue("--clock-max");
      if (!V)
        return Res;
      std::optional<double> T = parseDoubleFlag(*V);
      if (!T || *T <= 0) {
        Failf("astral-cli: error: --clock-max expects a positive number of "
              "ticks, got '%s'",
              V->c_str());
        return Res;
      }
      Cli.FlagOps.push_back([T](AnalyzerOptions &O) { O.ClockMax = *T; });
    } else if (A == "--entry") {
      auto V = NextValue("--entry");
      if (!V)
        return Res;
      std::string Fn = *V;
      Cli.FlagOps.push_back(
          [Fn](AnalyzerOptions &O) { O.EntryFunction = Fn; });
    } else if (A == "--partition") {
      auto V = NextValue("--partition");
      if (!V)
        return Res;
      std::string Fn = *V;
      Cli.FlagOps.push_back(
          [Fn](AnalyzerOptions &O) { O.PartitionFunctions.insert(Fn); });
    } else if (A == "--volatile") {
      auto V = NextValue("--volatile");
      if (!V)
        return Res;
      std::optional<VolatileSpec> Spec = parseVolatileFlag(*V);
      if (!Spec) {
        Failf("astral-cli: error: --volatile expects name=lo:hi, got '%s'",
              V->c_str());
        return Res;
      }
      Cli.FlagOps.push_back([Spec](AnalyzerOptions &O) {
        O.VolatileRanges[Spec->Name] = Interval(Spec->Lo, Spec->Hi);
      });
    } else if (!IsInput) {
      Failf("astral-cli: error: unknown flag '%s'", A.c_str());
      return Res;
    } else {
      Cli.InputPaths.push_back(A);
    }
    if (!IsInput)
      for (size_t K = Start; K <= I && K < Args.size(); ++K)
        Cli.FlagArgs.push_back(Args[K]);
  }

  // A second '-' would read an already-drained stdin as an empty program.
  if (std::count(Cli.InputPaths.begin(), Cli.InputPaths.end(),
                 std::string("-")) > 1) {
    Failf("astral-cli: error: stdin ('-') may be given only once");
    return Res;
  }
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
  if (Cli.DumpInvariants)
    O.RecordLoopInvariants = true;
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
