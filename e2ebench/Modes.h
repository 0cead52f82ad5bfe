//===- e2ebench/Modes.h - The modes of bench_e2e ---------------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_E2EBENCH_MODES_H
#define ASTRAL_E2EBENCH_MODES_H

#include <string>
#include <vector>

namespace e2e {

/// `bench_e2e child --trace-out=<file> <astral-cli one-shot args>`: the
/// traced child process (TracedChild.cpp).
int runTracedChild(const std::vector<std::string> &Args);

/// `bench_e2e --compare <A...> -- <B...>` (Compare.cpp).
int runCompare(const std::vector<std::string> &Args);

/// `bench_e2e --self-test` (SelfTest.cpp).
int runSelfTest();

} // namespace e2e

#endif // ASTRAL_E2EBENCH_MODES_H
