//===- analyzer/SpecDirectives.h - In-source environment specs ---*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Sect. 4 environment specification ("ranges of values for a few
/// hardware registers ... a maximal execution time") embedded in the
/// analyzed program itself as `@astral` comment directives, so an input
/// file carries its own spec:
///
///   /* @astral volatile speed 0 300
///      @astral clock-max 3.6e6
///      @astral partition select_gain
///      @astral threshold 500
///      @astral unroll 2
///      @astral domains interval,clocked,octagon,tree,ellipsoid
///      @astral jobs 4
///      @astral thread sampler sample_loop
///      @astral entry main */
///
/// Each directive is the command-line flag of the same option, declared once
/// in cli::options(): its arguments join into the flag's value (`volatile
/// speed 0 300` reads as `--volatile speed=0:300`, `thread sampler
/// sample_loop` as `--threads=sampler:sample_loop`), so a directive accepts
/// exactly the values its flag accepts. A trailing `*/` is ignored.
///
/// Shared by astral-cli and the example harnesses (one source of truth for
/// each embedded program's spec).
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_ANALYZER_SPECDIRECTIVES_H
#define ASTRAL_ANALYZER_SPECDIRECTIVES_H

#include "analyzer/Options.h"

#include <string>
#include <vector>

namespace astral {

/// Applies every `@astral <directive> ...` line found in \p Source
/// (typically inside comments) to \p Opts. Returns one human-readable
/// warning per malformed or unknown directive; a directive that warns is
/// not applied.
std::vector<std::string> applySpecDirectives(const std::string &Source,
                                             AnalyzerOptions &Opts);

} // namespace astral

#endif // ASTRAL_ANALYZER_SPECDIRECTIVES_H
