//===- support/MemoryTracker.cpp - Abstract-state memory accounting -------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "support/MemoryTracker.h"

namespace astral {
namespace memtrack {

namespace {
thread_local Counter *Ambient = nullptr;
} // namespace

Counter *currentCounter() { return Ambient; }

CounterScope::CounterScope(Counter *C) : Prev(Ambient) { Ambient = C; }

CounterScope::~CounterScope() { Ambient = Prev; }

void noteAlloc(size_t Bytes) {
  if (Counter *C = Ambient)
    C->noteAlloc(Bytes);
}

void noteFree(size_t Bytes) {
  if (Counter *C = Ambient)
    C->noteFree(Bytes);
}

void noteClosure(bool IsIncremental) {
  if (Counter *C = Ambient)
    C->noteClosure(IsIncremental);
}

} // namespace memtrack
} // namespace astral
