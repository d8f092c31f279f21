// StripedMap: lock-free read path, shard striping, collision chains,
// shadowing semantics, and pointer stability — the primitive under the
// parallel engine's memo caches.
#include "support/striped_map.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace feam::support {
namespace {

TEST(StripedMap, FindMissesUntilInserted) {
  StripedMap<std::uint64_t, std::string> map;
  EXPECT_EQ(map.find(7), nullptr);
  const auto [v, inserted] =
      map.get_or_insert(7, [] { return std::string("seven"); });
  EXPECT_TRUE(inserted);
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), "seven");
  EXPECT_EQ(map.find(8), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(StripedMap, GetOrInsertHitsWithoutCallingMake) {
  StripedMap<std::uint64_t, int> map;
  map.get_or_insert(1, [] { return 10; });
  bool made = false;
  const auto [v, inserted] = map.get_or_insert(1, [&made] {
    made = true;
    return 99;
  });
  EXPECT_FALSE(inserted);
  EXPECT_FALSE(made);
  EXPECT_EQ(*v, 10);
}

// All keys hash to one bucket of one shard: chains must still resolve
// exact keys, and find_if must distinguish colliding entries by value.
TEST(StripedMap, CollidingKeysChainCorrectly) {
  struct OneBucket {
    std::size_t operator()(std::uint64_t) const { return 0; }
  };
  StripedMap<std::uint64_t, std::string, OneBucket> map(4, 4);
  for (std::uint64_t k = 0; k < 32; ++k) {
    map.get_or_insert(k, [k] { return "v" + std::to_string(k); });
  }
  for (std::uint64_t k = 0; k < 32; ++k) {
    ASSERT_NE(map.find(k), nullptr) << k;
    EXPECT_EQ(*map.find(k), "v" + std::to_string(k));
  }
  // Same key, distinct identities (the caches' fingerprint-collision
  // case): the predicate picks the right entry.
  map.get_or_insert_if(
      5, [](const std::string& v) { return v == "other-identity"; },
      [] { return std::string("other-identity"); });
  const std::string* exact =
      map.find_if(5, [](const std::string& v) { return v == "v5"; });
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(*exact, "v5");
}

TEST(StripedMap, InsertShadowsButOldPointerStaysValid) {
  StripedMap<std::uint64_t, std::string> map;
  const std::string* first =
      map.get_or_insert(3, [] { return std::string("old"); }).first;
  // A value the old node does not answer for is published in front of
  // it (how a memo replaces a stale entry).
  const std::string* second =
      map.get_or_insert_if(
             3, [](const std::string& v) { return v == "new"; },
             [] { return std::string("new"); })
          .first;
  EXPECT_EQ(*map.find(3), "new");
  EXPECT_EQ(map.find(3), second);
  // The shadowed node is retained, not freed: the old pointer still
  // reads its original value.
  EXPECT_EQ(*first, "old");
  EXPECT_EQ(map.size(), 2u);
}

TEST(StripedMap, PointersSurviveHeavyInsertion) {
  StripedMap<std::uint64_t, std::uint64_t> map(2, 2);  // force long chains
  std::vector<const std::uint64_t*> pointers;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    pointers.push_back(map.get_or_insert(k, [k] { return k * k; }).first);
  }
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(*pointers[k], k * k);
    EXPECT_EQ(map.find(k), pointers[k]);
  }
}

TEST(StripedMap, ForEachVisitsEveryNode) {
  StripedMap<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t k = 0; k < 50; ++k) {
    map.get_or_insert(k, [k] { return k; });
  }
  // Shadowed nodes are visited too.
  map.get_or_insert_if(
      0, [](std::uint64_t v) { return v == 999; },
      [] { return std::uint64_t{999}; });
  std::uint64_t nodes = 0;
  map.for_each([&](const std::uint64_t&, const std::uint64_t&) { ++nodes; });
  EXPECT_EQ(nodes, 51u);
  EXPECT_EQ(map.size(), 51u);
}

// The TSan target: concurrent readers walk chains lock-free while
// writers publish into every shard; get_or_insert races on shared keys
// must produce exactly one insertion per key.
TEST(StripedMap, ConcurrentReadersAndWritersStress) {
  StripedMap<std::uint64_t, std::uint64_t> map(8, 16);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 512;
  std::atomic<std::uint64_t> insertions{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          const std::uint64_t* v = map.find(k);
          if (v != nullptr) {
            // Published values are immutable: a reader can never see a
            // torn or stale payload.
            EXPECT_EQ(*v, k * 7);
          }
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        const auto [v, inserted] =
            map.get_or_insert(k, [k] { return k * 7; });
        EXPECT_EQ(*v, k * 7);
        if (inserted) insertions.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_EQ(insertions.load(), kKeys);
  EXPECT_EQ(map.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_NE(map.find(k), nullptr) << k;
    EXPECT_EQ(*map.find(k), k * 7);
  }
}

// Values with mutable atomic members may be revalidated in place — the
// resolver search memo's fast-path pattern.
TEST(StripedMap, AtomicMembersUpdateInPlaceUnderConcurrency) {
  struct Entry {
    std::uint64_t payload = 0;
    mutable std::atomic<std::uint64_t> checked{0};
    explicit Entry(std::uint64_t p) : payload(p) {}
    // Atomics aren't movable; moves happen only pre-publication, so a
    // value-copying move constructor is race-free.
    Entry(Entry&& other) noexcept
        : payload(other.payload),
          checked(other.checked.load(std::memory_order_relaxed)) {}
  };
  StripedMap<std::uint64_t, Entry> map;
  map.get_or_insert(1, [] { return Entry(42); });
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&map, t] {
      for (int i = 0; i < 1000; ++i) {
        const Entry* e = map.find(1);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->payload, 42u);
        e->checked.store(static_cast<std::uint64_t>(t),
                         std::memory_order_release);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LT(map.find(1)->checked.load(), 4u);
}

}  // namespace
}  // namespace feam::support
