#include "common/flat_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace templex {
namespace {

// Keys live with the caller, as they do in the chase: id -> key.
struct Keyed {
  std::vector<uint64_t> keys;
  FlatIndex index;

  int32_t Add(uint64_t hash, uint64_t key) {
    const int32_t id = static_cast<int32_t>(keys.size());
    keys.push_back(key);
    index.Insert(hash, id);
    return id;
  }
  int32_t Find(uint64_t hash, uint64_t key) const {
    return index.Find(hash, [&](int32_t id) { return keys[id] == key; });
  }
};

TEST(FlatIndexTest, EmptyIndexFindsNothing) {
  FlatIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(HashMix(1), [](int32_t) { return true; }), -1);
}

// Ids sharing one hash are told apart only by the caller's equality.
TEST(FlatIndexTest, EqualHashesAreSeparatedByEq) {
  Keyed keyed;
  const uint64_t hash = HashMix(7);
  for (uint64_t key = 0; key < 40; ++key) {
    EXPECT_EQ(keyed.Add(hash, key), static_cast<int32_t>(key));
  }
  EXPECT_EQ(keyed.index.size(), 40u);
  for (uint64_t key = 0; key < 40; ++key) {
    EXPECT_EQ(keyed.Find(hash, key), static_cast<int32_t>(key));
  }
  EXPECT_EQ(keyed.Find(hash, 40), -1);
  // Same key, different hash: not a match, whatever eq says.
  EXPECT_EQ(keyed.Find(HashMix(8), 3), -1);
}

// Hashes that agree in their low bits land in one cluster; a miss whose
// home slot is inside it must probe past every occupant to the empty slot
// after it.
TEST(FlatIndexTest, MissProbesAcrossAFullCluster) {
  Keyed keyed;
  // Twelve ids fill 12 of 16 slots (the 3/4 ceiling) as one run from
  // slot 0; their hashes differ only above the slot bits.
  for (uint64_t i = 0; i < 12; ++i) keyed.Add(i << 32, i);
  for (uint64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(keyed.Find(i << 32, i), static_cast<int32_t>(i));
  }
  EXPECT_EQ(keyed.Find(uint64_t{99} << 32, 99), -1);  // home slot 0
  EXPECT_EQ(keyed.Find((uint64_t{99} << 32) | 5, 99), -1);  // mid-cluster
  int calls = 0;
  const int32_t found = keyed.index.Find(uint64_t{99} << 32, [&](int32_t) {
    ++calls;
    return true;
  });
  EXPECT_EQ(found, -1);
  EXPECT_EQ(calls, 0);  // eq runs only on a full-hash match
}

TEST(FlatIndexTest, EveryIdSurvivesSeveralDoublings) {
  Keyed keyed;
  constexpr uint64_t kCount = 5000;  // 6667 ids: 16 slots doubled ten times
  std::vector<std::pair<uint64_t, int32_t>> added;  // (key, id)
  std::vector<uint64_t> hashes;
  for (uint64_t key = 0; key < kCount; ++key) {
    hashes.push_back(HashMix(key));
    added.emplace_back(key, keyed.Add(hashes.back(), key));
    // Every third key gets a second key under the same hash.
    if (key % 3 == 0) {
      const uint64_t twin = key + kCount;
      hashes.push_back(HashMix(key));
      added.emplace_back(twin, keyed.Add(hashes.back(), twin));
    }
  }
  EXPECT_EQ(keyed.index.size(), added.size());
  for (size_t i = 0; i < added.size(); ++i) {
    ASSERT_EQ(keyed.Find(hashes[i], added[i].first), added[i].second)
        << "key " << added[i].first;
  }
  EXPECT_EQ(keyed.Find(HashMix(kCount), kCount), -1);
  EXPECT_EQ(keyed.Find(HashMix(1), kCount), -1);  // hash held, key absent
}

// WhatIf hands Extend a copy of its base graph: a copy must answer like the
// original and evolve independently of it.
TEST(FlatIndexTest, CopiesAndMovesKeepEveryId) {
  Keyed original;
  for (uint64_t key = 0; key < 100; ++key) original.Add(HashMix(key), key);

  Keyed copy = original;
  copy.Add(HashMix(1000), 1000);
  EXPECT_EQ(copy.Find(HashMix(1000), 1000), 100);
  EXPECT_EQ(original.Find(HashMix(1000), 1000), -1);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(copy.Find(HashMix(key), key), static_cast<int32_t>(key));
    EXPECT_EQ(original.Find(HashMix(key), key), static_cast<int32_t>(key));
  }

  Keyed moved = std::move(copy);
  EXPECT_EQ(moved.index.size(), 101u);
  EXPECT_EQ(moved.Find(HashMix(1000), 1000), 100);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(moved.Find(HashMix(key), key), static_cast<int32_t>(key));
  }

  Keyed assigned;
  assigned.Add(HashMix(5), 5);
  assigned = original;
  EXPECT_EQ(assigned.index.size(), 100u);
  EXPECT_EQ(assigned.Find(HashMix(42), 42), 42);
}

}  // namespace
}  // namespace templex
