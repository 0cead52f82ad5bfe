//===- service/ArtifactCache.h - Content-hash artifact cache -----*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's artifact cache: two LRU maps keyed by the content-hash keys
/// of AnalysisSession (frontendCacheKey / packingCacheKey — SHA-256 over
/// the report schema version, file name, preprocessed source, headers, and
/// the option subset the phase depends on, as derived from the setOptions()
/// invalidation fingerprints). Values are the immutable shareable phase
/// artifacts; a hit hands shared ownership to a fresh session via
/// adoptFrontend/adoptPacking, so resubmitting an unchanged file skips the
/// frontend, the layout and the packing phase (packs, domain registry,
/// census) entirely: a packing hit builds nothing. Only the execution
/// artifact and the work meter are per request.
///
/// Keys embed the schema version, so a cache file of artifacts can never
/// outlive its build vintage — a bumped ReportSchemaVersion makes every old
/// key unreachable. Thread-safe; eviction is size-bounded LRU per map.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SERVICE_ARTIFACTCACHE_H
#define ASTRAL_SERVICE_ARTIFACTCACHE_H

#include "analyzer/AnalysisSession.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace astral {
namespace service {

class ArtifactCache {
public:
  struct Stats {
    uint64_t FrontendHits = 0;
    uint64_t FrontendMisses = 0;
    uint64_t PackingHits = 0;
    uint64_t PackingMisses = 0;
    uint64_t Evictions = 0;
  };

  /// The layout and packing phases of one packingCacheKey, with the
  /// frontend they were built over. Stored together: the pack tables index
  /// into the layout's cells, and the layout's cells point at that
  /// frontend's types, so they only make sense as a triple — the frontend
  /// cached under the same content's frontendCacheKey may be another, equal
  /// build.
  struct PackingArtifact {
    std::shared_ptr<const AnalysisSession::FrontendPhase> Frontend;
    std::shared_ptr<const AnalysisSession::LayoutPhase> Layout;
    std::shared_ptr<const AnalysisSession::PackingPhase> Packs;
  };

  explicit ArtifactCache(size_t MaxEntries = 64);

  /// Lookup bumps the entry to most-recent and counts a hit; a miss counts
  /// too (the request scheduler pairs every miss with a later store).
  std::shared_ptr<const AnalysisSession::FrontendPhase>
  lookupFrontend(const std::string &Key);
  std::optional<PackingArtifact> lookupPacking(const std::string &Key);

  void storeFrontend(const std::string &Key,
                     std::shared_ptr<const AnalysisSession::FrontendPhase> F);
  void storePacking(const std::string &Key, PackingArtifact P);

  Stats stats() const;
  size_t frontendEntries() const;
  size_t packingEntries() const;
  size_t maxEntries() const { return Max; }

private:
  /// One LRU map: Order front = most recent; entries point into Order.
  template <typename V> struct Shelf {
    std::list<std::string> Order;
    struct Entry {
      V Value;
      std::list<std::string>::iterator Where;
    };
    std::unordered_map<std::string, Entry> Map;

    V *touch(const std::string &Key) {
      auto It = Map.find(Key);
      if (It == Map.end())
        return nullptr;
      Order.splice(Order.begin(), Order, It->second.Where);
      return &It->second.Value;
    }
    /// Inserts or refreshes; returns true when an old entry was evicted.
    bool put(const std::string &Key, V Value, size_t Max) {
      auto It = Map.find(Key);
      if (It != Map.end()) {
        It->second.Value = std::move(Value);
        Order.splice(Order.begin(), Order, It->second.Where);
        return false;
      }
      Order.push_front(Key);
      Map.emplace(Key, Entry{std::move(Value), Order.begin()});
      if (Map.size() <= Max)
        return false;
      Map.erase(Order.back());
      Order.pop_back();
      return true;
    }
  };

  const size_t Max;
  mutable std::mutex Mu;
  Shelf<std::shared_ptr<const AnalysisSession::FrontendPhase>> Frontends;
  Shelf<PackingArtifact> Packings;
  Stats Counters;
};

} // namespace service
} // namespace astral

#endif // ASTRAL_SERVICE_ARTIFACTCACHE_H
