// The shared memo table and the thread-scoped fault witness every cache
// is built on: the counting rule, the fault rule, identity under
// fingerprint collisions, shadowing, the footprint gauge, and racing
// fills.
#include "site/memo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "site/fault.hpp"
#include "site/vfs.hpp"

namespace feam::site {
namespace {

struct TestEntry {
  std::string identity;
  std::uint64_t version = 0;
  static constexpr std::uint64_t kFootprint = 1000;
  std::uint64_t footprint() const { return kFootprint; }
};

// A Vfs whose every read faults, and one file to read.
struct FaultingVfs {
  FaultingVfs() {
    EXPECT_TRUE(vfs.write_file("/data/file", support::Bytes{1, 2, 3}));
    FaultInjector::Options options;
    options.seed = 7;
    options.rate = 1.0;
    injector = std::make_shared<FaultInjector>(options);
    injector->set_enabled(true);
    vfs.set_fault_injector(injector);
  }
  // One injected fault on the calling thread.
  void fault() const { vfs.read_blob("/data/file"); }

  Vfs vfs;
  std::shared_ptr<FaultInjector> injector;
};

auto is(const std::string& identity) {
  return [identity](const TestEntry& e) { return e.identity == identity; };
}

// A clean fill of the entry named `identity` under `key`.
const TestEntry* fill(Memo<TestEntry>& memo, std::uint64_t key,
                      const std::string& identity) {
  return memo.fill(key, "india", FaultWitness(), is(identity),
                   [&] { return TestEntry{identity}; });
}

std::uint64_t series(const char* name, const char* site) {
  return obs::counter(name, {.site = site, .cache = "memotest"}).value();
}

TEST(FaultWitness, FiresOnTheFaultingThreadOnly) {
  const FaultingVfs site;
  std::latch watching(1), faulted(1);
  bool bystander_fired = true;
  std::uint64_t bystander_site_delta = 0;
  std::thread bystander([&] {
    const FaultWitness witness;
    const std::uint64_t site_before = site.injector->fault_count();
    watching.count_down();
    faulted.wait();
    bystander_fired = witness.fired();
    bystander_site_delta = site.injector->fault_count() - site_before;
  });
  watching.wait();
  const FaultWitness witness;
  const std::uint64_t site_before = site.injector->fault_count();
  site.fault();
  EXPECT_TRUE(witness.fired());
  EXPECT_EQ(site.injector->fault_count() - site_before, 1u);
  faulted.count_down();
  bystander.join();
  // The per-site delta the witness replaces blames the bystander too.
  EXPECT_FALSE(bystander_fired);
  EXPECT_EQ(bystander_site_delta, 1u);
}

TEST(Memo, FaultedFillGoesBackUnstoredAndCountsAMiss) {
  const FaultingVfs site;
  Memo<TestEntry> memo("memotest");
  const std::uint64_t site_misses = series("cache.misses", "india");

  const FaultWitness faulted;
  site.fault();
  EXPECT_EQ(memo.fill(1, "india", faulted, is("a"),
                      [] { return TestEntry{"a"}; }),
            nullptr);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(series("cache.misses", "india") - site_misses, 1u);

  // Nothing was published: the next clean lookup misses, then hits.
  EXPECT_EQ(memo.find(1, "india", is("a")), nullptr);
  const TestEntry* filled = fill(memo, 1, "a");
  ASSERT_NE(filled, nullptr);
  EXPECT_EQ(memo.find(1, "india", is("a")), filled);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), 1u);
}

TEST(Memo, HitsAndMissesAreLabeledByTheLookingUpSite) {
  Memo<TestEntry> memo("memotest");
  const std::uint64_t fir_misses = series("cache.misses", "fir");
  const std::uint64_t forge_hits = series("cache.hits", "forge");
  memo.fill(3, "fir", FaultWitness(), is("a"),
            [] { return TestEntry{"a"}; });
  ASSERT_NE(memo.find(3, "forge", is("a")), nullptr);
  EXPECT_EQ(series("cache.misses", "fir") - fir_misses, 1u);
  EXPECT_EQ(series("cache.hits", "forge") - forge_hits, 1u);
}

TEST(Memo, TwoIdentitiesOnOneFingerprintStayTwoEntries) {
  Memo<TestEntry> memo("memotest");
  const TestEntry* a = fill(memo, 9, "a");
  const TestEntry* b = fill(memo, 9, "b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(memo.find(9, "india", is("a")), a);
  EXPECT_EQ(memo.find(9, "india", is("b")), b);
  EXPECT_EQ(memo.find(9, "india", is("c")), nullptr);
  EXPECT_EQ(memo.hits(), 2u);
  EXPECT_EQ(memo.misses(), 2u);
}

TEST(Memo, StaleEntryIsShadowedAndItsPointerStaysValid) {
  Memo<TestEntry> memo("memotest");
  std::uint64_t current = 1;
  const auto answers = [&](const TestEntry& e) {
    return e.identity == "a" && e.version == current;
  };
  const auto make = [&] { return TestEntry{"a", current}; };
  const TestEntry* old = memo.fill(5, "india", FaultWitness(), answers, make);
  ASSERT_NE(old, nullptr);

  current = 2;  // the stamp moved: the entry no longer answers
  EXPECT_EQ(memo.find(5, "india", answers), nullptr);
  const TestEntry* fresh = memo.fill(5, "india", FaultWitness(), answers, make);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, old);
  EXPECT_EQ(memo.find(5, "india", answers), fresh);
  // The shadowed entry is still allocated and unchanged.
  EXPECT_EQ(old->identity, "a");
  EXPECT_EQ(old->version, 1u);
}

TEST(Memo, CacheBytesRisesByEachEntryAndFallsWhenTheMemoDies) {
  obs::Gauge& bytes = obs::gauge("cache.bytes", {.cache = "memotest"});
  const std::uint64_t before = bytes.value();
  {
    Memo<TestEntry> memo("memotest");
    fill(memo, 1, "a");
    EXPECT_EQ(bytes.value() - before, TestEntry::kFootprint);
    fill(memo, 2, "b");
    EXPECT_EQ(bytes.value() - before, 2 * TestEntry::kFootprint);
    // A fill that finds its entry already published adds nothing.
    fill(memo, 2, "b");
    EXPECT_EQ(bytes.value() - before, 2 * TestEntry::kFootprint);
  }
  EXPECT_EQ(bytes.value(), before);
}

TEST(Memo, EightThreadsFillingOneKeyPublishOneEntry) {
  Memo<TestEntry> memo("memotest");
  constexpr int kThreads = 8;
  std::atomic<int> made{0};
  std::vector<const TestEntry*> got(kThreads, nullptr);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = memo.fill(11, "india", FaultWitness(), is("shared"), [&] {
        made.fetch_add(1);
        return TestEntry{"shared"};
      });
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(made.load(), 1);
  for (const TestEntry* entry : got) EXPECT_EQ(entry, got.front());
  EXPECT_EQ(memo.misses(), static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(memo.find(11, "india", is("shared")), got.front());
}

}  // namespace
}  // namespace feam::site
