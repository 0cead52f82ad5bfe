//===- analyzer/SpecDirectives.cpp - In-source environment specs -----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "analyzer/SpecDirectives.h"

#include "analyzer/CliOptions.h"

#include <algorithm>
#include <sstream>

using namespace astral;

std::vector<std::string>
astral::applySpecDirectives(const std::string &Source, AnalyzerOptions &Opts) {
  std::vector<std::string> Warnings;
  std::istringstream In(Source);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    // A line may carry several directives; each one's arguments run to the
    // next `@astral` marker (or end of line).
    for (size_t At = Line.find("@astral "); At != std::string::npos;) {
      size_t Next = Line.find("@astral ", At + 8);
      std::vector<std::string> Words;
      for (size_t W = At + 8; W < std::min(Next, Line.size());) {
        size_t End =
            std::min({Line.find_first_of(" \t\r\v\f", W), Next, Line.size()});
        if (End > W)
          Words.push_back(Line.substr(W, End - W));
        W = End + 1;
      }
      At = Next;
      std::string Kind = Words.empty() ? std::string() : Words.front();
      const std::vector<cli::Option> &Table = cli::options();
      auto O = std::find_if(Table.begin(), Table.end(),
                            [&](const cli::Option &Opt) {
                              return !Kind.empty() && Opt.Directive == Kind;
                            });
      if (O == Table.end()) {
        Warnings.push_back("line " + std::to_string(LineNo) +
                           ": unknown @astral directive '" + Kind + "'");
        continue;
      }
      // The arguments, joined as the flag's value; any extra argument joins
      // with a space, which no value accepts.
      if (Words.size() > 1 && Words.back() == "*/")
        Words.pop_back();
      std::string Value;
      for (size_t I = 1; I < Words.size(); ++I) {
        if (I > 1)
          Value += I - 2 < O->Join.size() ? O->Join[I - 2] : ' ';
        Value += Words[I];
      }
      if (std::optional<cli::OptionOp> Op = O->Parse(Value))
        (*Op)(Opts);
      else
        Warnings.push_back("line " + std::to_string(LineNo) +
                           ": malformed @astral " + Kind + " directive: --" +
                           O->Flag + " expects " + O->Expect + ", got '" +
                           Value + "'");
    }
  }
  return Warnings;
}
