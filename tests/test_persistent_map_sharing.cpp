//===- tests/test_persistent_map_sharing.cpp - Structural sharing edges -----===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// Edge cases of the Sect. 6.1.2 sharable-map representation beyond the seed
// suite: empty-map interactions, deep overwrites in large trees (path
// copying must allocate O(log n), not O(n)), iteration order under
// adversarial insertion/erase orders, and short-cut behaviour of combine /
// forEachDiff when one side is a stale deep copy.
//
//===----------------------------------------------------------------------===//

#include "support/MemoryTracker.h"
#include "support/PersistentMap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

using namespace astral;

using IntMap = PersistentMap<int>;

namespace {
std::vector<uint32_t> shuffledKeys(size_t N, uint64_t Seed) {
  std::vector<uint32_t> Keys(N);
  for (size_t I = 0; I < N; ++I)
    Keys[I] = static_cast<uint32_t>(I);
  std::mt19937_64 Rng(Seed);
  std::shuffle(Keys.begin(), Keys.end(), Rng);
  return Keys;
}
} // namespace

TEST(PersistentMapSharing, EmptyMapEdgeCases) {
  IntMap A, B;
  EXPECT_TRUE(A.empty());
  EXPECT_EQ(A.size(), 0u);
  EXPECT_EQ(A.get(0), nullptr);
  // Two default-constructed maps are physically identical (null roots).
  EXPECT_TRUE(A.identicalTo(B));
  EXPECT_TRUE(IntMap::equal(A, B));
  // Erase on empty is a no-op, not a crash.
  IntMap C = A.erase(42);
  EXPECT_TRUE(C.empty());
  // Combine of two empties is empty; combine with one empty side maps the
  // other side through F.
  IntMap D = IntMap::combine(A, B, [](uint32_t, const int *X, const int *Y) {
    return std::optional<int>((X ? *X : 0) + (Y ? *Y : 0));
  });
  EXPECT_TRUE(D.empty());
  IntMap E = B.set(7, 70);
  IntMap F = IntMap::combine(A, E, [](uint32_t, const int *X, const int *Y) {
    return std::optional<int>((X ? *X : 0) + (Y ? *Y : 0));
  });
  ASSERT_NE(F.get(7), nullptr);
  EXPECT_EQ(*F.get(7), 70);
  // forEachDiff with an empty side visits every key of the other side.
  size_t Visited = 0;
  IntMap::forEachDiff(A, E, [&](uint32_t K, const int *InA, const int *InB) {
    ++Visited;
    EXPECT_EQ(K, 7u);
    EXPECT_EQ(InA, nullptr);
    ASSERT_NE(InB, nullptr);
    EXPECT_EQ(*InB, 70);
  });
  EXPECT_EQ(Visited, 1u);
}

TEST(PersistentMapSharing, DeepOverwriteSharesAllButOnePath) {
  constexpr size_t N = 4096;
  IntMap M;
  for (uint32_t K : shuffledKeys(N, /*Seed=*/7))
    M = M.set(K, static_cast<int>(K));

  // Overwriting one deep key must allocate O(log n) fresh nodes (the copied
  // root-to-key path), never O(n).
  memtrack::Counter Meter;
  memtrack::CounterScope Scope(&Meter);
  size_t Before = Meter.liveBytes();
  IntMap M2 = M.set(1234, -1);
  size_t After = Meter.liveBytes();
  size_t NodeSize = 64; // conservative lower bound on sizeof(Node)
  EXPECT_LE(After - Before, 3 * 20 * NodeSize)
      << "overwrite copied far more than one path of a height-~13 AVL";

  // New version sees the write, old version does not; all other keys agree.
  ASSERT_NE(M2.get(1234), nullptr);
  EXPECT_EQ(*M2.get(1234), -1);
  EXPECT_EQ(*M.get(1234), 1234);
  size_t Same = 0;
  IntMap::forEachDiff(M, M2, [&](uint32_t K, const int *, const int *) {
    EXPECT_EQ(K, 1234u);
    ++Same;
  });
  EXPECT_EQ(Same, 1u);
}

TEST(PersistentMapSharing, OverwriteWithSameValueStillComparesEqual) {
  IntMap M;
  for (uint32_t K : shuffledKeys(512, /*Seed=*/3))
    M = M.set(K, 5);
  IntMap M2 = M.set(100, 5); // same value: new root, same content
  EXPECT_FALSE(M.identicalTo(M2));
  EXPECT_TRUE(IntMap::equal(M, M2));
  // forEachDiff prunes identical subtrees and must not report key 100,
  // whose binding compares equal.
  IntMap::forEachDiff(M, M2, [&](uint32_t K, const int *A, const int *B) {
    ADD_FAILURE() << "unexpected diff at key " << K << " (" << (A ? *A : -1)
                  << " vs " << (B ? *B : -1) << ")";
  });
}

TEST(PersistentMapSharing, IterationOrderIsAscendingRegardlessOfHistory) {
  // Ascending, descending and shuffled insertion — plus interleaved erases —
  // must all iterate in strictly ascending key order.
  std::vector<std::vector<uint32_t>> Histories;
  Histories.push_back({});
  for (uint32_t K = 0; K < 200; ++K)
    Histories.back().push_back(K);
  Histories.push_back({});
  for (uint32_t K = 200; K-- > 0;)
    Histories.back().push_back(K);
  Histories.push_back(shuffledKeys(200, /*Seed=*/11));

  for (const auto &History : Histories) {
    IntMap M;
    for (uint32_t K : History)
      M = M.set(K, static_cast<int>(K * 2));
    // Erase every third key.
    for (uint32_t K = 0; K < 200; K += 3)
      M = M.erase(K);

    std::vector<uint32_t> Seen;
    M.forEach([&](uint32_t K, const int &V) {
      EXPECT_EQ(V, static_cast<int>(K * 2));
      Seen.push_back(K);
    });
    ASSERT_EQ(Seen.size(), M.size());
    for (size_t I = 1; I < Seen.size(); ++I)
      ASSERT_LT(Seen[I - 1], Seen[I]) << "iteration order not ascending";
    for (uint32_t K : Seen)
      EXPECT_NE(K % 3, 0u) << "erased key still iterated";
  }
}

TEST(PersistentMapSharing, DrainByEraseInRandomOrder) {
  constexpr size_t N = 300;
  IntMap M;
  for (uint32_t K : shuffledKeys(N, /*Seed=*/23))
    M = M.set(K, 1);
  for (uint32_t K : shuffledKeys(N, /*Seed=*/29)) {
    ASSERT_NE(M.get(K), nullptr);
    M = M.erase(K);
    EXPECT_EQ(M.get(K), nullptr);
  }
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.size(), 0u);
}

TEST(PersistentMapSharing, CombineIdenticalMapIsPhysicalNoop) {
  IntMap M;
  for (uint32_t K : shuffledKeys(256, /*Seed=*/41))
    M = M.set(K, static_cast<int>(K));
  IntMap Copy = M; // shared root
  size_t Calls = 0;
  IntMap Joined =
      IntMap::combine(M, Copy, [&](uint32_t, const int *A, const int *B) {
        ++Calls;
        return std::optional<int>(std::max(A ? *A : 0, B ? *B : 0));
      });
  // Physically identical inputs short-cut: F is never called and the result
  // shares the root.
  EXPECT_EQ(Calls, 0u);
  EXPECT_TRUE(Joined.identicalTo(M));
}

TEST(PersistentMapSharing, CombineStructurallyEqualButDistinctRoots) {
  // A deep copy (same content, no sharing) must still produce a correct
  // merge; the shortcut only fires on physical equality.
  IntMap A, B;
  for (uint32_t K : shuffledKeys(128, /*Seed=*/5))
    A = A.set(K, static_cast<int>(K));
  for (uint32_t K : shuffledKeys(128, /*Seed=*/17)) // different shape
    B = B.set(K, static_cast<int>(K));
  EXPECT_FALSE(A.identicalTo(B));
  EXPECT_TRUE(IntMap::equal(A, B));
  IntMap Sum = IntMap::combine(A, B, [](uint32_t, const int *X, const int *Y) {
    return std::optional<int>((X ? *X : 0) + (Y ? *Y : 0));
  });
  ASSERT_EQ(Sum.size(), 128u);
  Sum.forEach([](uint32_t K, const int &V) {
    EXPECT_EQ(V, static_cast<int>(2 * K));
  });
}
