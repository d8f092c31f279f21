// Unit tests for the memory-observability layer: gauge semantics, the
// phase label and series-name encoding, pre-resolved series handles, the
// tracking allocator's scope attribution, the /proc RSS probes, and the
// Span -> mem.alloc_bytes{phase=...} flush.
#include "obs/memory.hpp"

#include <cstdint>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace feam::obs {
namespace {

// Keeps a heap allocation observable: the interposed operator new may
// otherwise be elided together with its delete under optimization.
void escape(void* p) { asm volatile("" : : "r"(p) : "memory"); }

class TrackingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!alloc_tracking_compiled()) {
      GTEST_SKIP() << "built without FEAM_TRACK_ALLOC";
    }
    set_alloc_tracking(true);
  }
  void TearDown() override { set_alloc_tracking(false); }
};

TEST(Gauge, SetTracksValueAndPeak) {
  Gauge g;
  EXPECT_EQ(g.value(), 0u);
  EXPECT_EQ(g.peak(), 0u);
  g.set(100);
  g.set(40);
  EXPECT_EQ(g.value(), 40u);
  EXPECT_EQ(g.peak(), 100u);
}

TEST(Gauge, AddAndSubAdjust) {
  Gauge g;
  g.add(64);
  g.add(64);
  EXPECT_EQ(g.value(), 128u);
  g.sub(28);
  EXPECT_EQ(g.value(), 100u);
  EXPECT_EQ(g.peak(), 128u);
}

TEST(Gauge, SubSaturatesAtZero) {
  // A mis-paired release must clamp, never wrap a footprint to ~2^64.
  Gauge g;
  g.add(10);
  g.sub(25);
  EXPECT_EQ(g.value(), 0u);
  EXPECT_EQ(g.peak(), 10u);
}

TEST(Gauge, ResetClearsValueAndPeak) {
  Gauge g;
  g.set(77);
  g.reset();
  EXPECT_EQ(g.value(), 0u);
  EXPECT_EQ(g.peak(), 0u);
}

TEST(SeriesNames, PhaseLabelEncodesAndParses) {
  EXPECT_EQ(series_name("mem.alloc_bytes", {.phase = "bdc.describe"}),
            "mem.alloc_bytes{phase=bdc.describe}");
  // Keys stay in fixed alphabetical order regardless of which are set.
  EXPECT_EQ(series_name("mem.alloc_bytes",
                        {.site = "india", .phase = "bdc.describe"}),
            "mem.alloc_bytes{phase=bdc.describe,site=india}");
  const SeriesKey key =
      parse_series("mem.alloc_bytes{phase=bdc.describe,site=india}");
  EXPECT_EQ(key.name, "mem.alloc_bytes");
  EXPECT_EQ(key.phase, "bdc.describe");
  EXPECT_EQ(key.site, "india");
  EXPECT_EQ(key.cache, "");
}

TEST(RegistryGauges, LabeledLookupAndSnapshot) {
  Registry r;
  r.gauge("cache.bytes", {.cache = "bdc"}).set(4096);
  r.gauge("cache.bytes", {.cache = "bdc"}).sub(96);
  const auto values = r.gauge_values();
  const auto it = values.find("cache.bytes{cache=bdc}");
  ASSERT_NE(it, values.end());
  EXPECT_EQ(it->second.value, 4000u);
  EXPECT_EQ(it->second.peak, 4096u);
}

TEST(RegistryGauges, ResetValuesKeepsNames) {
  Registry r;
  r.gauge("cache.bytes", {.cache = "edc"}).set(123);
  r.reset_values();
  const auto values = r.gauge_values();
  const auto it = values.find("cache.bytes{cache=edc}");
  ASSERT_NE(it, values.end());
  EXPECT_EQ(it->second.value, 0u);
  EXPECT_EQ(it->second.peak, 0u);
}

TEST(SeriesHandleTest, AddsToTheResolvedSeries) {
  SeriesHandle handle("memtest.hits", {.site = "sierra", .cache = "bdc"});
  const std::uint64_t before = handle.value();
  handle.add();
  handle.add(4);
  EXPECT_EQ(handle.value(), before + 5);
  EXPECT_EQ(metrics().counter_values().at(
                "memtest.hits{cache=bdc,site=sierra}"),
            before + 5);
}

TEST(SiteSeriesCacheTest, OneHandlePerSite) {
  SiteSeriesCache cache("memtest.lookups", "resolver.search");
  const SeriesHandle& india = cache.at("india");
  const SeriesHandle& fir = cache.at("fir");
  india.add(2);
  fir.add(3);
  // Same site resolves to the same handle (and so the same counter).
  EXPECT_EQ(&cache.at("india"), &india);
  const auto counters = metrics().counter_values();
  EXPECT_GE(counters.at("memtest.lookups{cache=resolver.search,site=india}"),
            2u);
  EXPECT_GE(counters.at("memtest.lookups{cache=resolver.search,site=fir}"),
            3u);
}

TEST_F(TrackingTest, ScopeCountsRequestedBytes) {
  const int token = mem_scope_push();
  char* p = new char[4096];
  escape(p);
  delete[] p;
  const MemScopeTotals totals = mem_scope_pop(token);
  EXPECT_EQ(totals.bytes, 4096u);
  EXPECT_EQ(totals.count, 1u);
}

TEST_F(TrackingTest, InnermostScopeWinsAndFreesAreUntracked) {
  const int outer = mem_scope_push();
  char* a = new char[1024];
  escape(a);
  const int inner = mem_scope_push();
  char* b = new char[2048];
  escape(b);
  const MemScopeTotals inner_totals = mem_scope_pop(inner);
  char* c = new char[512];
  escape(c);
  // Frees deliberately do not reduce the tallies: gross pressure, not
  // footprint.
  delete[] a;
  delete[] b;
  delete[] c;
  const MemScopeTotals outer_totals = mem_scope_pop(outer);
  EXPECT_EQ(inner_totals.bytes, 2048u);
  EXPECT_EQ(inner_totals.count, 1u);
  EXPECT_EQ(outer_totals.bytes, 1024u + 512u);
  EXPECT_EQ(outer_totals.count, 2u);
}

TEST_F(TrackingTest, MismatchedPopFoldsOrphanedFrames) {
  const int outer = mem_scope_push();
  const int inner = mem_scope_push();
  char* p = new char[256];
  escape(p);
  delete[] p;
  (void)inner;
  // Popping the outer token directly folds the un-popped inner frame in,
  // so no allocated byte is dropped.
  const MemScopeTotals totals = mem_scope_pop(outer);
  EXPECT_EQ(totals.bytes, 256u);
  EXPECT_EQ(totals.count, 1u);
}

TEST_F(TrackingTest, NothingIsCountedWhileDisarmed) {
  set_alloc_tracking(false);
  const int token = mem_scope_push();
  char* p = new char[8192];
  escape(p);
  delete[] p;
  const MemScopeTotals totals = mem_scope_pop(token);
  EXPECT_EQ(totals.bytes, 0u);
  EXPECT_EQ(totals.count, 0u);
}

TEST_F(TrackingTest, DepthOverflowFallsBackToTheNearestAncestor) {
  std::vector<int> tokens;
  for (int i = 0; i < 64; ++i) tokens.push_back(mem_scope_push());
  const int overflow = mem_scope_push();
  EXPECT_EQ(overflow, -1);
  char* p = new char[128];
  escape(p);
  delete[] p;
  const MemScopeTotals none = mem_scope_pop(overflow);
  EXPECT_EQ(none.bytes, 0u);
  EXPECT_EQ(none.count, 0u);
  // The allocation landed in the deepest real frame.
  MemScopeTotals deepest = mem_scope_pop(tokens.back());
  tokens.pop_back();
  EXPECT_EQ(deepest.bytes, 128u);
  while (!tokens.empty()) {
    mem_scope_pop(tokens.back());
    tokens.pop_back();
  }
}

TEST_F(TrackingTest, ScopesAreThreadLocal) {
  const int token = mem_scope_push();
  std::thread t([] {
    // A scope-less thread attributes nothing, tracked or not.
    char* p = new char[65536];
    escape(p);
    delete[] p;
  });
  t.join();
  const MemScopeTotals totals = mem_scope_pop(token);
  // The std::thread constructor allocates its shared state here, on the
  // calling thread, and that is correctly ours — but the 64 KiB block
  // allocated on the scope-less worker thread must not be.
  EXPECT_LT(totals.bytes, 65536u);
}

TEST_F(TrackingTest, SpanFlushesPhaseLabeledCounters) {
  const auto before = metrics().counter_values();
  const auto at = [&](const char* name) {
    const auto it = before.find(name);
    return it == before.end() ? 0u : it->second;
  };
  const std::uint64_t bytes0 = at("mem.alloc_bytes");
  const std::uint64_t phase0 = at("mem.alloc_bytes{phase=memtest.span}");
  std::uint64_t span_bytes = 0;
  {
    Span span("memtest.span");
    char* p = new char[3000];
    escape(p);
    delete[] p;
    span.finish();
  }
  const auto after = metrics().counter_values();
  span_bytes = after.at("mem.alloc_bytes{phase=memtest.span}") - phase0;
  EXPECT_GE(span_bytes, 3000u);
  EXPECT_GE(after.at("mem.alloc_bytes") - bytes0, span_bytes);
  EXPECT_GE(after.at("mem.alloc_count{phase=memtest.span}"), 1u);
}

TEST(RssProbes, ReadSomethingPlausibleFromProc) {
  const std::uint64_t rss = read_rss_bytes();
  const std::uint64_t peak = read_rss_peak_bytes();
  if (rss == 0) GTEST_SKIP() << "/proc/self/status unavailable";
  EXPECT_GT(rss, 1024u * 1024u);  // a running gtest binary exceeds 1 MiB
  EXPECT_GE(peak, rss / 2);       // VmHWM is near-or-above VmRSS
}

TEST(RssProbes, SampleFillsTheRegistryGauges) {
  Registry r;
  sample_process_rss(r);
  const auto values = r.gauge_values();
  if (values.empty()) GTEST_SKIP() << "/proc/self/status unavailable";
  ASSERT_TRUE(values.count("process.rss_bytes"));
  EXPECT_GT(values.at("process.rss_bytes").value, 0u);
}

}  // namespace
}  // namespace feam::obs
