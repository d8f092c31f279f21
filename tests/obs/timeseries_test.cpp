// TimeseriesSampler under fire: series encoding, delta exactness, and the
// concurrent-stress invariant the stream is built on — with writers
// hammering counters and histograms while the sampler runs flat out, the
// sum of every serialized delta must telescope to the final totals
// exactly (no drops, no double counts). Run under TSan in CI.
#include "obs/timeseries.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "report/timeseries.hpp"

namespace feam::obs {
namespace {

// Collects emitted lines under a lock, mirroring the CLI's file sink.
class LineBuffer {
 public:
  void operator()(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    text_ += line;
  }
  std::string text() {
    std::lock_guard<std::mutex> lock(mutex_);
    return text_;
  }

 private:
  std::mutex mutex_;
  std::string text_;
};

TEST(SeriesName, EncodesLabelsInFixedOrder) {
  EXPECT_EQ(series_name("cache.hits", {}), "cache.hits");
  EXPECT_EQ(series_name("cache.hits", {.site = "india", .cache = "bdc"}),
            "cache.hits{cache=bdc,site=india}");
  EXPECT_EQ(series_name("tec.checks", {.determinant = "ISA"}),
            "tec.checks{determinant=ISA}");
}

TEST(SeriesName, ParseInvertsEncode) {
  const Labels labels{.site = "fir", .cache = "resolver.ldd"};
  const SeriesKey key = parse_series(series_name("cache.hits", labels));
  EXPECT_EQ(key.name, "cache.hits");
  EXPECT_EQ(key.site, "fir");
  EXPECT_EQ(key.cache, "resolver.ldd");
  EXPECT_EQ(key.determinant, "");

  const SeriesKey bare = parse_series("phase.target_runs");
  EXPECT_EQ(bare.name, "phase.target_runs");
  EXPECT_TRUE(bare.site.empty() && bare.cache.empty() &&
              bare.determinant.empty());
}

TEST(Registry, ZeroLabelAliasesUnlabeled) {
  Registry registry;
  registry.counter("c").add(3);
  registry.counter("c", Labels{}).add(4);
  EXPECT_EQ(registry.counter("c").value(), 7u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(HistogramSnapshotDelta, DiffsBucketsAndBoundsWindow) {
  Histogram h;
  h.record(10);
  h.record(1000);
  const HistogramSnapshot before = h.snapshot();
  h.record(500);
  h.record(500);
  const HistogramSnapshot delta = h.snapshot().delta_since(before);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 1000u);
  // Window bounds are the tightest provable: both samples fell in the
  // 512-bucket, clamped to the cumulative extremes.
  EXPECT_LE(delta.min(), 500u);
  EXPECT_GE(delta.max, 500u);
  // A delta must survive the serialized round trip (count == bucket sum).
  const auto round = HistogramSnapshot::from_json(delta.to_json());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->count, 2u);
}

TEST(TimeseriesSampler, EmitsMetaThenSamplesThenFinal) {
  Registry registry;
  LineBuffer sink;
  {
    TimeseriesSampler::Options options;
    options.interval_ms = 1;
    options.source = "unit test";
    TimeseriesSampler sampler(registry, options,
                              [&sink](const std::string& l) { sink(l); });
    registry.counter("work").add(5);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }  // destructor stops and flushes the final sample
  const report::Timeseries series = report::parse_timeseries(sink.text());
  EXPECT_TRUE(series.saw_meta);
  EXPECT_TRUE(series.saw_final);
  EXPECT_EQ(series.source, "unit test");
  EXPECT_EQ(series.malformed_lines, 0u);
  ASSERT_FALSE(series.samples.empty());
  EXPECT_TRUE(series.samples.back().final_sample);
  EXPECT_EQ(series.final_counter_totals().at("work"), 5u);
  EXPECT_TRUE(series.consistency_issues().empty());
}

TEST(TimeseriesSampler, StopIsIdempotent) {
  Registry registry;
  LineBuffer sink;
  TimeseriesSampler sampler(registry, {.interval_ms = 1, .source = {}},
                            [&sink](const std::string& l) { sink(l); });
  registry.counter("once").add(1);
  sampler.stop();
  const std::uint64_t emitted = sampler.samples_emitted();
  sampler.stop();
  sampler.stop();
  EXPECT_EQ(sampler.samples_emitted(), emitted);
  const report::Timeseries series = report::parse_timeseries(sink.text());
  std::size_t finals = 0;
  for (const auto& sample : series.samples) finals += sample.final_sample;
  EXPECT_EQ(finals, 1u);
}

// The headline invariant: concurrent writers + live sampler, and the
// serialized deltas still telescope exactly to the final totals — for
// unlabeled counters, labeled counters, and histogram counts alike.
// Additionally, each labeled family must sum to its unlabeled legacy
// series (writers record both, like the migration hot paths do).
TEST(TimeseriesStress, SumOfDeltasEqualsFinalCountersUnderConcurrency) {
  constexpr int kWriters = 8;
  constexpr int kIterations = 4000;
  static constexpr const char* kSites[] = {"india", "fir", "sierra", "tope"};

  Registry registry;
  LineBuffer sink;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  {
    TimeseriesSampler sampler(registry, {.interval_ms = 1, .source = {}},
                              [&sink](const std::string& l) { sink(l); });
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&registry, &go, w] {
        while (!go.load(std::memory_order_acquire)) {}
        const Labels labels{.site = kSites[w % 4], .cache = "bdc"};
        Counter& legacy = registry.counter("cache.hits");
        Counter& labeled = registry.counter("cache.hits", labels);
        Histogram& wait = registry.histogram("lease.wait_ns");
        for (int i = 0; i < kIterations; ++i) {
          legacy.add();
          labeled.add();
          wait.record(static_cast<std::uint64_t>(i % 1024));
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : writers) t.join();
  }  // sampler stops: all writers joined first, final sample is quiescent

  const report::Timeseries series = report::parse_timeseries(sink.text());
  EXPECT_TRUE(series.saw_final);
  EXPECT_EQ(series.malformed_lines, 0u);

  // Every delta line parsed while writers were mid-flight was internally
  // consistent, and the deltas telescope to the totals exactly.
  EXPECT_TRUE(series.consistency_issues().empty())
      << series.consistency_issues().front();

  const auto totals = series.final_counter_totals();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kWriters) * kIterations;
  EXPECT_EQ(totals.at("cache.hits"), expected);

  // sum over labels == unlabeled total.
  std::uint64_t labeled_sum = 0;
  for (const auto& [name, total] : totals) {
    if (name.rfind("cache.hits{", 0) == 0) labeled_sum += total;
  }
  EXPECT_EQ(labeled_sum, expected);

  EXPECT_EQ(series.final_histogram_counts().at("lease.wait_ns"), expected);
  // Merged histogram deltas over the whole run carry every sample too.
  const auto merged =
      series.merged_histogram("lease.wait_ns", 0, series.samples.size());
  EXPECT_EQ(merged.count, expected);
  EXPECT_LE(merged.max, 1023u);
}

}  // namespace
}  // namespace feam::obs
