// Unit tests for the observability subsystem: span nesting, histogram
// percentiles, counters, level parsing, and both exporter formats.
#include <gtest/gtest.h>

#include <thread>

#include "obs/clock.hpp"
#include "obs/event.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"

namespace feam::obs {
namespace {

// Each test that touches the process-wide collector starts from a clean,
// enabled slate and leaves collection off.
class CollectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    collector().clear();
    collector().set_enabled(true);
  }
  void TearDown() override {
    collector().set_enabled(false);
    collector().clear();
  }
};

TEST(Clock, IsMonotonic) {
  const std::uint64_t a = now_ns();
  const std::uint64_t b = now_ns();
  EXPECT_LE(a, b);
}

TEST(Levels, NameRoundTrip) {
  for (Level level : {Level::kDebug, Level::kInfo, Level::kWarn, Level::kError,
                      Level::kNone}) {
    const auto parsed = parse_level(level_name(level));
    ASSERT_TRUE(parsed.has_value()) << level_name(level);
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(parse_level("verbose").has_value());
  EXPECT_FALSE(parse_level("").has_value());
}

TEST(Event, RenderIncludesLevelNameMessageAndFields) {
  Event e;
  e.level = Level::kWarn;
  e.name = "tec.verdict";
  e.message = "stack mismatch";
  e.fields = {{"site", "fir"}, {"ready", "false"}};
  const std::string text = e.render();
  EXPECT_NE(text.find("[warn]"), std::string::npos);
  EXPECT_NE(text.find("tec.verdict"), std::string::npos);
  EXPECT_NE(text.find("stack mismatch"), std::string::npos);
  EXPECT_NE(text.find("site=fir"), std::string::npos);
  EXPECT_NE(text.find("ready=false"), std::string::npos);
}

TEST(Counter, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, EmptyReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(Histogram, SingleValueIsExactAtEveryPercentile) {
  Histogram h;
  h.record(12345);
  EXPECT_EQ(h.percentile(0.0), 12345u);
  EXPECT_EQ(h.percentile(0.5), 12345u);
  EXPECT_EQ(h.percentile(0.99), 12345u);
  EXPECT_EQ(h.percentile(1.0), 12345u);
  EXPECT_EQ(h.min(), 12345u);
  EXPECT_EQ(h.max(), 12345u);
  EXPECT_EQ(h.mean(), 12345.0);
}

TEST(Histogram, PercentilesLandInTheRightBucket) {
  Histogram h;
  // 90 fast samples (~1000 ns) and 10 slow ones (~1e6 ns).
  for (int i = 0; i < 90; ++i) h.record(1000);
  for (int i = 0; i < 10; ++i) h.record(1000000);
  EXPECT_EQ(h.count(), 100u);
  // p50 falls among the fast samples: interpolation lands below the
  // observed minimum, so the min clamp reports exactly 1000.
  EXPECT_EQ(h.percentile(0.5), 1000u);
  // p99 falls among the slow samples, in the [524288, 1048575] bucket:
  // rank 99 is 9/10ths through the bucket's samples, so interpolation
  // gives 524288 + 0.9 * 524287 — not the old bucket-upper step value.
  EXPECT_GE(h.percentile(0.99), 524288u);
  EXPECT_LE(h.percentile(0.99), 1000000u);
  EXPECT_EQ(h.percentile(0.99), 996146u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000000u);
}

TEST(Histogram, PercentileInterpolatesWithinABucket) {
  Histogram h;
  // Two samples in the same [512, 1023] bucket: interpolation separates
  // them instead of reporting the bucket bound for both.
  h.record(600);
  h.record(1000);
  // rank 1 -> halfway through the bucket (767), above the observed min.
  EXPECT_EQ(h.percentile(0.25), 767u);
  // rank 2 -> the bucket's top, clamped to the observed max.
  EXPECT_EQ(h.percentile(0.9), 1000u);
  EXPECT_LT(h.percentile(0.25), h.percentile(0.9));
}

TEST(HistogramSnapshot, EmptySnapshotReportsZerosEverywhere) {
  const HistogramSnapshot s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.mean(), 0.0);
  for (double p : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(s.percentile(p), 0u) << p;
  }
}

TEST(HistogramSnapshot, SinglePopulatedBucketClampsToObservedRange) {
  Histogram h;
  // All three samples land in the [512, 1023] bucket; every percentile
  // must stay inside the observed [600, 900], never at the bucket bounds.
  h.record(600);
  h.record(700);
  h.record(900);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 2200u);
  for (double p : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    EXPECT_GE(s.percentile(p), 600u) << p;
    EXPECT_LE(s.percentile(p), 900u) << p;
  }
  EXPECT_EQ(s.percentile(1.0), 900u);
}

TEST(HistogramSnapshot, MergeOfDisjointBucketRanges) {
  Histogram small, large;
  for (int i = 0; i < 4; ++i) small.record(10);       // bucket [8, 15]
  for (int i = 0; i < 4; ++i) large.record(1 << 20);  // bucket [2^20, ...]
  HistogramSnapshot merged = small.snapshot();
  merged.merge(large.snapshot());
  EXPECT_EQ(merged.count, 8u);
  EXPECT_EQ(merged.sum, 4u * 10 + 4u * (1 << 20));
  EXPECT_EQ(merged.min(), 10u);
  EXPECT_EQ(merged.max, static_cast<std::uint64_t>(1) << 20);
  // The low half of the distribution reports from the small-value bucket,
  // the high half from the large-value bucket — nothing in between.
  EXPECT_GE(merged.percentile(0.25), 10u);
  EXPECT_LE(merged.percentile(0.25), 15u);  // within the [8, 15] bucket
  EXPECT_EQ(merged.percentile(0.75), static_cast<std::uint64_t>(1) << 20);
  // Merging an empty snapshot changes nothing.
  const HistogramSnapshot before = merged;
  merged.merge(HistogramSnapshot{});
  EXPECT_EQ(merged.count, before.count);
  EXPECT_EQ(merged.min(), before.min());
  EXPECT_EQ(merged.max, before.max);
  EXPECT_EQ(merged.percentile(0.5), before.percentile(0.5));
}

TEST(HistogramSnapshot, PercentileBoundariesAreMinAndMax) {
  Histogram h;
  h.record(100);
  h.record(5000);
  h.record(70000);
  const HistogramSnapshot s = h.snapshot();
  // p1.0 lands exactly on the observed max; p0.0 interpolates within the
  // lowest populated bucket, clamped to stay at or above the observed min.
  EXPECT_EQ(s.percentile(1.0), 70000u);
  EXPECT_GE(s.percentile(0.0), 100u);
  EXPECT_LT(s.percentile(0.0), 5000u);
  // Out-of-range fractions clamp to the p0/p1 answers instead of reading
  // outside the bucket array.
  EXPECT_EQ(s.percentile(-0.5), s.percentile(0.0));
  EXPECT_EQ(s.percentile(1.5), 70000u);
}

TEST(HistogramSnapshot, MergePreservesTailFidelity) {
  Histogram a, b;
  for (int i = 0; i < 90; ++i) a.record(1000);
  for (int i = 0; i < 10; ++i) b.record(1000000);
  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());

  Histogram combined;
  for (int i = 0; i < 90; ++i) combined.record(1000);
  for (int i = 0; i < 10; ++i) combined.record(1000000);

  EXPECT_EQ(merged.count, 100u);
  EXPECT_EQ(merged.sum, combined.sum());
  EXPECT_EQ(merged.min(), 1000u);
  EXPECT_EQ(merged.max, 1000000u);
  for (double p : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged.percentile(p), combined.percentile(p)) << p;
  }
}

TEST(HistogramSnapshot, JsonRoundTripKeepsBucketsAndPercentiles) {
  Histogram h;
  h.record(0);
  h.record(700);
  h.record(5000);
  h.record(123456789);
  const auto parsed =
      support::Json::parse(h.snapshot().to_json().dump());
  ASSERT_TRUE(parsed.has_value());
  const auto restored = HistogramSnapshot::from_json(*parsed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->count, 4u);
  EXPECT_EQ(restored->min(), 0u);
  EXPECT_EQ(restored->max, 123456789u);
  for (double p : {0.25, 0.5, 0.75, 0.99}) {
    EXPECT_EQ(restored->percentile(p), h.percentile(p)) << p;
  }
}

TEST(HistogramSnapshot, FromJsonRejectsInconsistentBuckets) {
  auto j = support::Json::parse(
      R"({"count":3,"sum":10,"min":1,"max":5,"buckets":[1,1]})");
  ASSERT_TRUE(j.has_value());
  EXPECT_FALSE(HistogramSnapshot::from_json(*j).has_value());
  EXPECT_FALSE(HistogramSnapshot::from_json(support::Json("x")).has_value());
}

TEST(HistogramSnapshot, FromJsonRejectsUnrepresentableCounts) {
  // count and buckets, which must be numbers, must also fit a uint64.
  for (const char* text :
       {R"({"count":1e300})", R"({"count":-1e19})", R"({"count":-1})",
        R"({"count":1,"buckets":[1e300]})", R"({"count":1,"buckets":[-1]})",
        R"({"count":0,"buckets":[-1e19]})"}) {
    const auto j = support::Json::parse(text);
    ASSERT_TRUE(j.has_value()) << text;
    EXPECT_FALSE(HistogramSnapshot::from_json(*j).has_value()) << text;
  }
  // sum/min/max default to 0 when absent, and likewise when they do not fit.
  const auto j = support::Json::parse(
      R"({"count":1,"sum":-1,"min":-1e19,"max":1e300,"buckets":[1]})");
  ASSERT_TRUE(j.has_value());
  const auto s = HistogramSnapshot::from_json(*j);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->sum, 0u);
  EXPECT_EQ(s->min(), 0u);
  EXPECT_EQ(s->max, 0u);
}

TEST(HistogramSnapshot, EmptyMergesAndReportsZero) {
  HistogramSnapshot empty;
  HistogramSnapshot other;
  other.merge(empty);
  EXPECT_TRUE(other.empty());
  EXPECT_EQ(other.percentile(0.5), 0u);
  Histogram h;
  h.record(42);
  HistogramSnapshot s = h.snapshot();
  s.merge(empty);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.percentile(0.5), 42u);
  EXPECT_EQ(s.min(), 42u);
}

TEST(Histogram, RecordsZero) {
  Histogram h;
  h.record(0);
  h.record(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Registry, RegistersOnFirstUseAndSerializes) {
  Registry r;
  EXPECT_EQ(r.size(), 0u);
  r.counter("a.count").add(3);
  r.histogram("a.latency_ns").record(500);
  Counter& again = r.counter("a.count");
  EXPECT_EQ(again.value(), 3u);
  EXPECT_EQ(r.size(), 2u);

  const auto parsed = support::Json::parse(render_metrics_json(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ((*parsed)["counters"]["a.count"].as_number(), 3.0);
  EXPECT_EQ((*parsed)["histograms"]["a.latency_ns"]["count"].as_number(), 1.0);
  EXPECT_EQ((*parsed)["histograms"]["a.latency_ns"]["p50"].as_number(), 500.0);

  r.reset_values();
  EXPECT_EQ(r.counter("a.count").value(), 0u);
  EXPECT_EQ(r.histogram("a.latency_ns").count(), 0u);
  EXPECT_EQ(r.size(), 2u);  // names survive a value reset
}

TEST(Registry, EmptySerializesAsObjects) {
  Registry r;
  const auto parsed = support::Json::parse(render_metrics_json(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE((*parsed)["counters"].is_object());
  EXPECT_TRUE((*parsed)["histograms"].is_object());
}

TEST(ScopedTimerTest, FeedsHistogram) {
  Histogram h;
  { ScopedTimer timer(h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST_F(CollectorTest, SpanNestingRecordsParentIds) {
  {
    Span outer("outer");
    {
      Span inner("inner", {{"k", "v"}});
      { Span leaf("leaf"); }
    }
    Span sibling("sibling");
  }
  const auto spans = collector().spans();
  ASSERT_EQ(spans.size(), 4u);  // recorded in finish order
  EXPECT_EQ(spans[0].name, "leaf");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[3].name, "outer");
  const auto& outer = spans[3];
  const auto& inner = spans[1];
  const auto& leaf = spans[0];
  const auto& sibling = spans[2];
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(inner.parent_id, outer.id);
  EXPECT_EQ(leaf.parent_id, inner.id);
  EXPECT_EQ(sibling.parent_id, outer.id);
  // Time containment.
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
  ASSERT_EQ(inner.fields.size(), 1u);
  EXPECT_EQ(inner.fields[0].first, "k");
}

TEST_F(CollectorTest, FinishEndsTheSpanOnce) {
  Span span("explicit");
  span.add_field("answer", "42");
  span.finish();
  span.finish();  // second call is a no-op
  const auto spans = collector().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "explicit");
  ASSERT_EQ(spans[0].fields.size(), 1u);
  EXPECT_EQ(spans[0].fields[0].second, "42");
}

TEST_F(CollectorTest, DisabledCollectorRecordsNothingButClockStillRuns) {
  collector().set_enabled(false);
  Span span("invisible");
  EXPECT_GE(span.elapsed_ns(), 0u);
  span.finish();
  emit(Level::kInfo, "invisible.event", "dropped");
  EXPECT_TRUE(collector().spans().empty());
  EXPECT_TRUE(collector().events().empty());
}

TEST_F(CollectorTest, EmitStoresEventsWithTimestamps) {
  emit(Level::kInfo, "test.event", "hello", {{"a", "1"}});
  const auto events = collector().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.event");
  EXPECT_EQ(events[0].message, "hello");
  EXPECT_GT(events[0].t_ns, 0u);
}

TEST_F(CollectorTest, SpansOnDifferentThreadsDoNotNestAcrossThreads) {
  Span outer("main_thread_outer");
  SpanRecord worker_record;
  std::thread worker([&] {
    Span inner("worker_span");
    inner.finish();
  });
  worker.join();
  outer.finish();
  const auto spans = collector().spans();
  ASSERT_EQ(spans.size(), 2u);
  // The worker's span must not claim the main thread's open span as parent.
  EXPECT_EQ(spans[0].name, "worker_span");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST_F(CollectorTest, JsonlExportIsOneValidObjectPerLine) {
  emit(Level::kWarn, "a.b", "first", {{"k", "v"}});
  emit(Level::kInfo, "c.d", "second");
  const std::string jsonl = render_jsonl(collector().events());
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(start, end - start);
    const auto parsed = support::Json::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_TRUE((*parsed)["name"].is_string());
    EXPECT_TRUE((*parsed)["level"].is_string());
    EXPECT_TRUE((*parsed)["fields"].is_object());
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 2u);
}

TEST_F(CollectorTest, ExportersSurviveNonUtf8FieldValues) {
  // A synthetic ELF .comment section can carry arbitrary bytes; both
  // exporters must still produce valid JSON.
  const std::string nasty = "GCC: \x93\xff \"quoted\" back\\slash \x01\xed\xa0\x80";
  {
    Span span("bdc.describe", {{"comment", nasty}});
  }
  emit(Level::kWarn, "bdc.comment", nasty, {{"raw", nasty}});

  const std::string jsonl = render_jsonl(collector().events());
  for (const auto& line : [&] {
         std::vector<std::string> lines;
         std::size_t start = 0;
         while (start < jsonl.size()) {
           std::size_t end = jsonl.find('\n', start);
           if (end == std::string::npos) end = jsonl.size();
           lines.push_back(jsonl.substr(start, end - start));
           start = end + 1;
         }
         return lines;
       }()) {
    EXPECT_TRUE(support::Json::parse(line).has_value()) << line;
  }

  const std::string trace =
      render_chrome_trace(collector().spans(), collector().events());
  EXPECT_TRUE(support::Json::parse(trace).has_value());
}

TEST_F(CollectorTest, ChromeTraceExportHasSpansAndInstants) {
  {
    Span outer("outer");
    Span inner("inner", {{"site", "fir"}});
  }
  emit(Level::kInfo, "point.event", "message");
  const std::string trace =
      render_chrome_trace(collector().spans(), collector().events());
  const auto parsed = support::Json::parse(trace);
  ASSERT_TRUE(parsed.has_value());
  const auto& events = (*parsed)["traceEvents"].as_array();
  ASSERT_EQ(events.size(), 3u);
  std::size_t complete = 0, instant = 0;
  for (const auto& e : events) {
    const std::string ph = e.get_string("ph");
    if (ph == "X") {
      ++complete;
      EXPECT_TRUE(e["ts"].is_number());
      EXPECT_TRUE(e["dur"].is_number());
      EXPECT_TRUE(e["args"].is_object());
    } else if (ph == "i") {
      ++instant;
      EXPECT_EQ(e.get_string("s"), "t");
    }
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(instant, 1u);
}

}  // namespace
}  // namespace feam::obs
