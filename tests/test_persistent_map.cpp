//===- tests/test_persistent_map.cpp - PersistentMap unit tests -------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Tests the Sect. 6.1.2 functional
// maps: persistence, balanced operations, short-cut merges.
//
//===----------------------------------------------------------------------===//

#include "support/PersistentMap.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>

using namespace astral;

TEST(PersistentMap, EmptyMap) {
  PersistentMap<int> M;
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.get(0), nullptr);
}

TEST(PersistentMap, SetAndGet) {
  PersistentMap<int> M;
  M = M.set(3, 30).set(1, 10).set(2, 20);
  ASSERT_NE(M.get(1), nullptr);
  EXPECT_EQ(*M.get(1), 10);
  EXPECT_EQ(*M.get(2), 20);
  EXPECT_EQ(*M.get(3), 30);
  EXPECT_EQ(M.get(4), nullptr);
  EXPECT_EQ(M.size(), 3u);
}

TEST(PersistentMap, OverwriteKeepsSize) {
  PersistentMap<int> M;
  M = M.set(1, 10).set(1, 99);
  EXPECT_EQ(M.size(), 1u);
  EXPECT_EQ(*M.get(1), 99);
}

TEST(PersistentMap, PersistenceOldVersionUnchanged) {
  PersistentMap<int> M1;
  M1 = M1.set(1, 10).set(2, 20);
  PersistentMap<int> M2 = M1.set(2, 99).set(7, 70);
  EXPECT_EQ(*M1.get(2), 20);
  EXPECT_EQ(M1.get(7), nullptr);
  EXPECT_EQ(*M2.get(2), 99);
  EXPECT_EQ(*M2.get(7), 70);
}

TEST(PersistentMap, Erase) {
  PersistentMap<int> M;
  for (uint32_t I = 0; I < 30; ++I)
    M = M.set(I, static_cast<int>(I) * 10);
  PersistentMap<int> M2 = M.erase(15);
  EXPECT_EQ(M.size(), 30u);
  EXPECT_EQ(M2.size(), 29u);
  EXPECT_EQ(M2.get(15), nullptr);
  EXPECT_EQ(*M2.get(14), 140);
  EXPECT_EQ(*M2.get(16), 160);
}

TEST(PersistentMap, EraseMissingIsNoop) {
  PersistentMap<int> M;
  M = M.set(1, 10);
  PersistentMap<int> M2 = M.erase(99);
  EXPECT_EQ(M2.size(), 1u);
}

TEST(PersistentMap, IdenticalToAfterCopy) {
  PersistentMap<int> M1;
  M1 = M1.set(1, 10);
  PersistentMap<int> M2 = M1;
  EXPECT_TRUE(M1.identicalTo(M2));
  M2 = M2.set(2, 20);
  EXPECT_FALSE(M1.identicalTo(M2));
}

TEST(PersistentMap, ForEachInOrder) {
  PersistentMap<int> M;
  M = M.set(5, 50).set(1, 10).set(9, 90).set(3, 30);
  std::vector<uint32_t> Keys;
  M.forEach([&](uint32_t K, const int &) { Keys.push_back(K); });
  EXPECT_EQ(Keys, (std::vector<uint32_t>{1, 3, 5, 9}));
}

TEST(PersistentMap, CombineJoin) {
  PersistentMap<int> A, B;
  A = A.set(1, 1).set(2, 2);
  B = B.set(2, 20).set(3, 30);
  PersistentMap<int> J = PersistentMap<int>::combine(
      A, B, [](uint32_t, const int *X, const int *Y) -> std::optional<int> {
        if (!X)
          return *Y;
        if (!Y)
          return *X;
        return std::max(*X, *Y);
      });
  EXPECT_EQ(J.size(), 3u);
  EXPECT_EQ(*J.get(1), 1);
  EXPECT_EQ(*J.get(2), 20);
  EXPECT_EQ(*J.get(3), 30);
}

TEST(PersistentMap, CombineDropKeys) {
  // Note: combine() short-cuts physically identical subtrees, so F must be
  // idempotent; key dropping works against a *different* map (here: empty).
  PersistentMap<int> A, Empty;
  for (uint32_t I = 0; I < 10; ++I)
    A = A.set(I, static_cast<int>(I));
  PersistentMap<int> Odd = PersistentMap<int>::combine(
      A, Empty,
      [](uint32_t K, const int *X, const int *) -> std::optional<int> {
        if (K % 2 == 0)
          return std::nullopt;
        return *X;
      });
  EXPECT_EQ(Odd.size(), 5u);
  EXPECT_EQ(Odd.get(4), nullptr);
  EXPECT_NE(Odd.get(5), nullptr);
}

TEST(PersistentMap, CombineShortcutSharesSubtrees) {
  // Combining a map with itself must return the identical root (the F(x,x)
  // = x short-cut of Sect. 6.1.2).
  PersistentMap<int> A;
  for (uint32_t I = 0; I < 100; ++I)
    A = A.set(I, static_cast<int>(I));
  PersistentMap<int> J = PersistentMap<int>::combine(
      A, A, [](uint32_t, const int *X, const int *) -> std::optional<int> {
        return *X;
      });
  EXPECT_TRUE(J.identicalTo(A));
}

TEST(PersistentMap, Equal) {
  PersistentMap<int> A, B;
  for (uint32_t I = 0; I < 20; ++I) {
    A = A.set(I, static_cast<int>(I));
    B = B.set(19 - I, static_cast<int>(19 - I)); // Different insert order.
  }
  EXPECT_TRUE(PersistentMap<int>::equal(A, B));
  B = B.set(5, 99);
  EXPECT_FALSE(PersistentMap<int>::equal(A, B));
}

TEST(PersistentMap, ForEachDiffFindsOnlyChanges) {
  PersistentMap<int> A;
  for (uint32_t I = 0; I < 200; ++I)
    A = A.set(I, 1);
  PersistentMap<int> B = A.set(50, 2).set(120, 3);
  std::vector<uint32_t> Changed;
  PersistentMap<int>::forEachDiff(
      A, B, [&](uint32_t K, const int *, const int *) {
        Changed.push_back(K);
      });
  EXPECT_EQ(Changed, (std::vector<uint32_t>{50, 120}));
}

TEST(PersistentMap, ForEachDiffAbsentSides) {
  PersistentMap<int> A, B;
  A = A.set(1, 10);
  B = B.set(2, 20);
  int SawAOnly = 0, SawBOnly = 0;
  PersistentMap<int>::forEachDiff(
      A, B, [&](uint32_t, const int *X, const int *Y) {
        if (X && !Y)
          ++SawAOnly;
        if (!X && Y)
          ++SawBOnly;
      });
  EXPECT_EQ(SawAOnly, 1);
  EXPECT_EQ(SawBOnly, 1);
}

TEST(PersistentMap, MemoryTrackerSeesNodes) {
  memtrack::Counter Meter;
  memtrack::CounterScope Scope(&Meter);
  size_t Before = Meter.liveBytes();
  {
    PersistentMap<int> M;
    for (uint32_t I = 0; I < 64; ++I)
      M = M.set(I, 1);
    EXPECT_GT(Meter.liveBytes(), Before);
  }
  EXPECT_EQ(Meter.liveBytes(), Before);
}

// Property test: behaves exactly like std::map under random workloads.
class PersistentMapProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PersistentMapProperty, MatchesStdMap) {
  std::mt19937_64 Rng(GetParam());
  PersistentMap<int> M;
  std::map<uint32_t, int> Ref;
  for (int Step = 0; Step < 2000; ++Step) {
    uint32_t K = static_cast<uint32_t>(Rng() % 128);
    switch (Rng() % 3) {
    case 0: {
      int V = static_cast<int>(Rng() % 1000);
      M = M.set(K, V);
      Ref[K] = V;
      break;
    }
    case 1:
      M = M.erase(K);
      Ref.erase(K);
      break;
    default: {
      const int *Got = M.get(K);
      auto It = Ref.find(K);
      if (It == Ref.end()) {
        ASSERT_EQ(Got, nullptr);
      } else {
        ASSERT_NE(Got, nullptr);
        ASSERT_EQ(*Got, It->second);
      }
      break;
    }
    }
    ASSERT_EQ(M.size(), Ref.size());
  }
  // Final full comparison.
  std::map<uint32_t, int> Out;
  M.forEach([&](uint32_t K, const int &V) { Out[K] = V; });
  EXPECT_EQ(Out, Ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistentMapProperty,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));
