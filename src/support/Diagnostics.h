//===- support/Diagnostics.h - Diagnostic engine -----------------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Frontend diagnostics: errors, warnings and notes emitted while
/// preprocessing, parsing, type-checking and lowering. Analysis-time alarms
/// use the separate analyzer::Alarm machinery; this engine is for "the input
/// program is malformed / unsupported" messages (Sect. 5.1 of the paper:
/// unsupported constructs are rejected with an error message).
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SUPPORT_DIAGNOSTICS_H
#define ASTRAL_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLocation.h"

#include <string>
#include <vector>

namespace astral {

enum class DiagSeverity { Note, Warning, Error };

/// One frontend diagnostic record.
struct Diagnostic {
  DiagSeverity Severity = DiagSeverity::Error;
  SourceLocation Loc;
  std::string Message;
};

/// Collects diagnostics and interns source file names.
///
/// The engine never throws and never exits; callers check hasErrors() at
/// phase boundaries, mirroring the paper's "rejected at this point with an
/// error message" behaviour.
class DiagnosticsEngine {
public:
  /// Interns \p FileName and returns its id for use in SourceLocations.
  uint32_t addFile(const std::string &FileName);

  /// Returns the interned name for \p FileId ("<unknown>" if out of range).
  const std::string &fileName(uint32_t FileId) const;

  void report(DiagSeverity Severity, SourceLocation Loc,
              const std::string &Message);
  void error(SourceLocation Loc, const std::string &Message) {
    report(DiagSeverity::Error, Loc, Message);
  }
  void warning(SourceLocation Loc, const std::string &Message) {
    report(DiagSeverity::Warning, Loc, Message);
  }
  void note(SourceLocation Loc, const std::string &Message) {
    report(DiagSeverity::Note, Loc, Message);
  }

  bool hasErrors() const { return NumErrors > 0; }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// Renders "file:line:col: severity: message" for \p D.
  std::string format(const Diagnostic &D) const;

  /// Renders every diagnostic, one per line.
  std::string formatAll() const;

private:
  std::vector<std::string> Files;
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace astral

#endif // ASTRAL_SUPPORT_DIAGNOSTICS_H
