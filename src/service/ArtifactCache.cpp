//===- service/ArtifactCache.cpp - Content-hash artifact cache --------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "service/ArtifactCache.h"

#include "support/FaultInjection.h"

#include <algorithm>

namespace astral {
namespace service {

ArtifactCache::ArtifactCache(size_t MaxEntries)
    : Max(std::max<size_t>(1, MaxEntries)) {}

std::shared_ptr<const AnalysisSession::FrontendPhase>
ArtifactCache::lookupFrontend(const std::string &Key) {
  std::lock_guard<std::mutex> L(Mu);
  if (auto *V = Frontends.touch(Key)) {
    ++Counters.FrontendHits;
    return *V;
  }
  ++Counters.FrontendMisses;
  return nullptr;
}

std::optional<ArtifactCache::PackingArtifact>
ArtifactCache::lookupPacking(const std::string &Key) {
  std::lock_guard<std::mutex> L(Mu);
  if (auto *V = Packings.touch(Key)) {
    ++Counters.PackingHits;
    return *V;
  }
  ++Counters.PackingMisses;
  return std::nullopt;
}

void ArtifactCache::storeFrontend(
    const std::string &Key,
    std::shared_ptr<const AnalysisSession::FrontendPhase> F) {
  if (!F)
    return;
  // Chaos site: an insert failing (allocation, a future persistent backend)
  // must fail the one storing request, never poison the cache or daemon.
  faultinject::fire("cache-insert");
  std::lock_guard<std::mutex> L(Mu);
  if (Frontends.put(Key, std::move(F), Max))
    ++Counters.Evictions;
}

void ArtifactCache::storePacking(const std::string &Key, PackingArtifact P) {
  if (!P.Frontend || !P.Layout || !P.Packs)
    return;
  faultinject::fire("cache-insert");
  std::lock_guard<std::mutex> L(Mu);
  if (Packings.put(Key, std::move(P), Max))
    ++Counters.Evictions;
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return Counters;
}

size_t ArtifactCache::frontendEntries() const {
  std::lock_guard<std::mutex> L(Mu);
  return Frontends.Map.size();
}

size_t ArtifactCache::packingEntries() const {
  std::lock_guard<std::mutex> L(Mu);
  return Packings.Map.size();
}

} // namespace service
} // namespace astral
