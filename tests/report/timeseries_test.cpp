// Reader + trend-metric tests over synthetic feam.timeseries/1 streams:
// incremental tailing with torn lines, malformed-line accounting, windowed
// aggregation, and the trend gate's core promise — trend metrics bounded
// by a feam.report_baseline/1 document fail an injected steady-state
// slowdown and pass the clean run.
#include "report/timeseries.hpp"

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "report/gate.hpp"
#include "report/trend.hpp"
#include "support/json.hpp"

namespace feam::report {
namespace {

std::string meta_line() {
  return R"({"interval_ms":100,"schema":"feam.timeseries/1","source":"synthetic","t_ns":0,"type":"meta"})"
         "\n";
}

// One sample line with a counter delta and a single-bucket histogram delta
// whose every sample is `value` (bucket index chosen loosely: one synthetic
// bucket carrying the full count, min=max=value — from_json accepts it).
std::string sample_line(std::uint64_t seq, std::uint64_t hits_delta,
                        std::uint64_t hits_total, std::uint64_t misses_delta,
                        std::uint64_t misses_total, std::uint64_t lat_count,
                        std::uint64_t lat_value, std::uint64_t lat_total,
                        bool final_sample = false) {
  support::Json hist;
  hist.set("count", lat_count);
  hist.set("sum", lat_count * lat_value);
  hist.set("min", lat_value);
  hist.set("max", lat_value);
  support::Json line;
  line.set("schema", "feam.timeseries/1");
  line.set("type", "sample");
  line.set("seq", seq);
  line.set("t_ns", std::uint64_t{(seq + 1) * 100'000'000ull});
  line.set("dt_ns", std::uint64_t{100'000'000});
  line.set("final", final_sample);
  support::Json counters{support::Json::Object{}};
  support::Json hits;
  hits.set("d", hits_delta);
  hits.set("t", hits_total);
  counters.set("cache.hits{cache=bdc,site=india}", std::move(hits));
  support::Json misses;
  misses.set("d", misses_delta);
  misses.set("t", misses_total);
  counters.set("cache.misses{cache=bdc,site=india}", std::move(misses));
  line.set("counters", std::move(counters));
  support::Json histograms{support::Json::Object{}};
  support::Json entry;
  entry.set("d", std::move(hist));
  entry.set("t", lat_total);
  histograms.set("phase.target_ns", std::move(entry));
  line.set("histograms", std::move(histograms));
  return line.dump() + "\n";
}

// 20 samples: hit rate and latency steady by default; `degrade` makes the
// late half of the steady span drift (latency x4, hit rate collapsing).
// steady_state() keeps samples 4..18, so the late half starts at 11.
std::string synthetic_stream(bool degrade) {
  std::string text = meta_line();
  std::uint64_t hits = 0, misses = 0, lat_total = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const bool late = i >= 11;
    const std::uint64_t hit_d = degrade && late ? 2 : 8;
    const std::uint64_t miss_d = degrade && late ? 8 : 2;
    const std::uint64_t lat = degrade && late ? 4'000'000 : 1'000'000;
    hits += hit_d;
    misses += miss_d;
    lat_total += 10;
    text += sample_line(i, hit_d, hits, miss_d, misses, 10, lat, lat_total,
                        /*final_sample=*/i == 19);
  }
  return text;
}

support::Json trend_baseline() {
  const auto parsed = support::Json::parse(R"({
    "schema": "feam.report_baseline/1",
    "metrics": {
      "trend.steady_samples": {"min": 6},
      "trend.hist.phase.target_ns.p99.drift": {"max": 0.5},
      "trend.hitrate.cache.drift": {"min": -0.2},
      "trend.hitrate.cache.late": {"min": 0.5},
      "trend.rate.cache.hits{cache=bdc,site=india}.drift": {"min": -0.95}
    }})");
  return *parsed;
}

// What `feam report --baseline` does: read every trend.* name the
// baseline lists off the stream, then make one run_gate call.
std::map<std::string, double> read_trends(const Timeseries& series,
                                          const support::Json& baseline) {
  std::map<std::string, double> measured;
  for (const auto& [name, spec] : baseline["metrics"].as_object()) {
    const auto value = trend_metric(series, name);
    EXPECT_TRUE(value.has_value()) << name;
    if (value) measured[name] = *value;
  }
  return measured;
}

support::Result<GateResult> gate_trends(const Timeseries& series,
                                        const support::Json& baseline) {
  return run_gate(read_trends(series, baseline), baseline);
}

const MetricCheck* find_check(const GateResult& result,
                              std::string_view name) {
  for (const auto& check : result.checks) {
    if (check.name == name) return &check;
  }
  return nullptr;
}

TEST(TimeseriesParse, ReadsMetaSamplesAndFinal) {
  const Timeseries series = parse_timeseries(synthetic_stream(false));
  EXPECT_TRUE(series.saw_meta);
  EXPECT_TRUE(series.saw_final);
  EXPECT_EQ(series.interval_ms, 100u);
  EXPECT_EQ(series.source, "synthetic");
  EXPECT_EQ(series.samples.size(), 20u);
  EXPECT_EQ(series.malformed_lines, 0u);
  EXPECT_TRUE(series.consistency_issues().empty());
  EXPECT_EQ(
      series.final_counter_totals().at("cache.hits{cache=bdc,site=india}"),
      160u);
  EXPECT_EQ(series.final_histogram_counts().at("phase.target_ns"), 200u);
}

TEST(TimeseriesParse, CountsMalformedLinesAndForeignSchemas) {
  std::string text = meta_line();
  text += "not json at all\n";
  text += R"({"schema":"somebody.else/9","type":"sample"})" "\n";
  text += R"({"schema":"feam.timeseries/1","type":"mystery"})" "\n";
  const Timeseries series = parse_timeseries(text);
  EXPECT_TRUE(series.saw_meta);
  EXPECT_EQ(series.malformed_lines, 3u);
  EXPECT_TRUE(series.samples.empty());
}

TEST(TimeseriesParse, DetectsBrokenTelescoping) {
  std::string text = meta_line();
  text += sample_line(0, 5, 5, 0, 0, 1, 100, 1);
  text += sample_line(1, 5, 12, 0, 0, 1, 100, 2);  // 5+5 != 12
  const Timeseries series = parse_timeseries(text);
  const auto issues = series.consistency_issues();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("cache.hits{cache=bdc,site=india}"),
            std::string::npos);
}

TEST(TimeseriesTailTest, BuffersTornLinesAcrossFeeds) {
  const std::string text = synthetic_stream(false);
  TimeseriesTail tail;
  // Drip-feed in 7-byte chunks: every line boundary lands mid-chunk.
  for (std::size_t at = 0; at < text.size(); at += 7) {
    tail.feed(std::string_view(text).substr(at, 7));
  }
  EXPECT_EQ(tail.series().samples.size(), 20u);
  EXPECT_TRUE(tail.series().saw_final);
  EXPECT_EQ(tail.series().malformed_lines, 0u);

  // A trailing partial line stays buffered, not misparsed.
  TimeseriesTail torn;
  torn.feed(meta_line() + R"({"schema":"feam.time)");
  EXPECT_EQ(torn.series().malformed_lines, 0u);
  EXPECT_TRUE(torn.series().saw_meta);
}

TEST(TimeseriesWindows, CacheRollupAndMergedHistograms) {
  const Timeseries series = parse_timeseries(synthetic_stream(false));
  const auto caches = cache_windows(series, 0, series.samples.size());
  ASSERT_TRUE(caches.count("bdc"));
  EXPECT_EQ(caches.at("bdc").hits, 160u);
  EXPECT_EQ(caches.at("bdc").misses, 40u);
  EXPECT_DOUBLE_EQ(caches.at("bdc").rate(), 0.8);

  const auto merged = series.merged_histogram("phase.target_ns", 0, 10);
  EXPECT_EQ(merged.count, 100u);
  EXPECT_DOUBLE_EQ(series.span_seconds(0, 10), 1.0);
  EXPECT_EQ(series.counter_delta_sum("cache.hits{cache=bdc,site=india}",
                                     0, 10),
            80u);
}

// One sample line carrying a gauge level and (optionally) a site-labeled
// histogram delta — the shapes the memory-observability stream adds.
std::string gauge_sample_line(std::uint64_t seq, std::uint64_t rss,
                              std::uint64_t rss_peak, bool with_gauge,
                              std::uint64_t site_a_count,
                              std::uint64_t site_b_count,
                              std::uint64_t lat_value,
                              std::uint64_t& a_total, std::uint64_t& b_total,
                              bool final_sample) {
  support::Json line;
  line.set("schema", "feam.timeseries/1");
  line.set("type", "sample");
  line.set("seq", seq);
  line.set("t_ns", std::uint64_t{(seq + 1) * 100'000'000ull});
  line.set("dt_ns", std::uint64_t{100'000'000});
  line.set("final", final_sample);
  if (with_gauge || final_sample) {
    support::Json gauges{support::Json::Object{}};
    support::Json rss_entry;
    rss_entry.set("v", rss);
    rss_entry.set("p", rss_peak);
    gauges.set("process.rss_bytes", std::move(rss_entry));
    line.set("gauges", std::move(gauges));
  }
  support::Json histograms{support::Json::Object{}};
  const auto hist_entry = [&](std::uint64_t count, std::uint64_t value,
                              std::uint64_t total) {
    support::Json h;
    h.set("count", count);
    h.set("sum", count * value);
    h.set("min", value);
    h.set("max", value);
    support::Json entry;
    entry.set("d", std::move(h));
    entry.set("t", total);
    return entry;
  };
  if (site_a_count > 0) {
    a_total += site_a_count;
    histograms.set("phase.target_ns{site=india}",
                   hist_entry(site_a_count, lat_value, a_total));
  }
  if (site_b_count > 0) {
    b_total += site_b_count;
    histograms.set("phase.target_ns{site=sierra}",
                   hist_entry(site_b_count, 4 * lat_value, b_total));
  }
  line.set("histograms", std::move(histograms));
  return line.dump() + "\n";
}

// 20 samples with an RSS gauge written only when it changes (every 4th
// sample) and two site-labeled phase.target_ns series. `leak` makes the
// RSS level climb through the back half.
std::string gauge_stream(bool leak) {
  std::string text = meta_line();
  std::uint64_t a_total = 0, b_total = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::uint64_t rss =
        leak && i >= 10 ? 100'000'000 + (i - 9) * 30'000'000 : 100'000'000;
    text += gauge_sample_line(i, rss, rss, /*with_gauge=*/i % 4 == 0,
                              /*site_a_count=*/6, /*site_b_count=*/2,
                              /*lat_value=*/1'000'000, a_total, b_total,
                              /*final_sample=*/i == 19);
  }
  return text;
}

TEST(TimeseriesGauges, ParsesAndCarriesLevelsForward) {
  const Timeseries series = parse_timeseries(gauge_stream(false));
  ASSERT_EQ(series.samples.size(), 20u);
  EXPECT_TRUE(series.consistency_issues().empty());
  const auto track = series.gauge_track("process.rss_bytes");
  ASSERT_EQ(track.size(), 20u);
  // Samples between writes carry the last reported level forward.
  EXPECT_EQ(track[0].value, 100'000'000u);
  EXPECT_EQ(track[1].value, 100'000'000u);
  EXPECT_EQ(track[19].value, 100'000'000u);
  const auto finals = series.final_gauge_values();
  ASSERT_TRUE(finals.count("process.rss_bytes"));
  EXPECT_EQ(finals.at("process.rss_bytes").peak, 100'000'000u);
  // An unknown gauge yields an all-zero track of the same length.
  const auto missing = series.gauge_track("no.such.gauge");
  ASSERT_EQ(missing.size(), 20u);
  EXPECT_EQ(missing[19].value, 0u);
}

TEST(TimeseriesGauges, FlagsMalformedAndRegressingPeaks) {
  // peak < value on one line, and a later line whose peak moves backwards.
  std::string text = meta_line();
  text += R"({"schema":"feam.timeseries/1","type":"sample","seq":0,)"
          R"("t_ns":100,"dt_ns":100,"final":false,)"
          R"("gauges":{"cache.bytes{cache=bdc}":{"v":500,"p":400}}})" "\n";
  text += R"({"schema":"feam.timeseries/1","type":"sample","seq":1,)"
          R"("t_ns":200,"dt_ns":100,"final":true,)"
          R"("gauges":{"cache.bytes{cache=bdc}":{"v":100,"p":200}}})" "\n";
  const Timeseries series = parse_timeseries(text);
  const auto issues = series.consistency_issues();
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_NE(issues[0].find("cache.bytes{cache=bdc}"), std::string::npos);
}

TEST(TimeseriesWindows, MergedHistogramBaseSpansLabeledSeries) {
  const Timeseries series = parse_timeseries(gauge_stream(false));
  // Per window: india records 6 samples at 1ms, sierra 2 at 4ms. The
  // base-merged view over 10 windows carries all 80.
  const auto merged =
      series.merged_histogram_base("phase.target_ns", 0, 10,
                                   /*include_unlabeled=*/false);
  EXPECT_EQ(merged.count, 80u);
  EXPECT_EQ(merged.min(), 1'000'000u);
  EXPECT_EQ(merged.max, 4'000'000u);
  // p50 falls in the india mass, p99 in sierra's slower tail.
  EXPECT_LT(merged.percentile(0.5), 2'000'000u);
  EXPECT_GT(merged.percentile(0.99), 2'000'000u);
  // A single labeled series still reads exactly through the plain merge.
  const auto india =
      series.merged_histogram("phase.target_ns{site=india}", 0, 10);
  EXPECT_EQ(india.count, 60u);
  // No unlabeled variant exists, so include_unlabeled changes nothing
  // here; a full-range merge sees every window.
  const auto all = series.merged_histogram_base("phase.target_ns", 0, 20,
                                                /*include_unlabeled=*/true);
  EXPECT_EQ(all.count, 160u);
}

TEST(TrendGate, GaugeSelectorCatchesSteadyStateRssGrowth) {
  const auto baseline = *support::Json::parse(R"({
    "schema": "feam.report_baseline/1",
    "metrics": {
      "trend.gauge.process.rss_bytes.mean.drift": {"max": 0.2}
    }})");
  const Timeseries steady = parse_timeseries(gauge_stream(false));
  const auto ok = gate_trends(steady, baseline);
  ASSERT_TRUE(ok.ok()) << ok.error();
  EXPECT_TRUE(ok.value().pass) << ok.value().render();

  const Timeseries leaking = parse_timeseries(gauge_stream(true));
  const auto bad = gate_trends(leaking, baseline);
  ASSERT_TRUE(bad.ok()) << bad.error();
  EXPECT_FALSE(bad.value().pass) << bad.value().render();
  ASSERT_EQ(bad.value().checks.size(), 1u);
  EXPECT_GT(bad.value().checks[0].measured, 0.2);
}

TEST(TrendGate, RejectsUnknownGaugeStats) {
  const Timeseries series = parse_timeseries(gauge_stream(false));
  EXPECT_TRUE(
      trend_metric(series, "trend.gauge.process.rss_bytes.mean.drift"));
  EXPECT_FALSE(
      trend_metric(series, "trend.gauge.process.rss_bytes.median.drift"));
}

TEST(LooksLikeTimeseries, DiscriminatesFromEventLogs) {
  EXPECT_TRUE(looks_like_timeseries(synthetic_stream(false)));
  EXPECT_FALSE(looks_like_timeseries(
      R"({"level":"info","name":"phase.start"})" "\n"));
  EXPECT_FALSE(looks_like_timeseries(""));
}

TEST(TrendGate, PassesOnACleanSteadyState) {
  const Timeseries series = parse_timeseries(synthetic_stream(false));
  // A quarter of warm-up off the front, the final flush sample off the
  // back.
  const SampleSpan steady = steady_state(series);
  EXPECT_EQ(steady.from, 4u);
  EXPECT_EQ(steady.to, 19u);
  EXPECT_EQ(trend_metric(series, "trend.steady_samples").value_or(-1), 15.0);
  EXPECT_DOUBLE_EQ(
      trend_metric(series, "trend.hitrate.cache.early").value_or(-1), 0.8);
  EXPECT_DOUBLE_EQ(
      trend_metric(series, "trend.hitrate.cache.late").value_or(-1), 0.8);
  EXPECT_EQ(trend_metric(series, "trend.hitrate.cache.drift").value_or(-1),
            0.0);

  const auto result = gate_trends(series, trend_baseline());
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_TRUE(result.value().pass) << result.value().render();
  EXPECT_EQ(result.value().failures(), 0u);
  EXPECT_EQ(result.value().checks.size(), 5u);
  for (const auto& check : result.value().checks) {
    EXPECT_TRUE(check.have_measured) << check.name;
  }
}

TEST(TrendGate, FailsOnInjectedSteadyStateSlowdown) {
  const Timeseries series = parse_timeseries(synthetic_stream(true));
  const auto result = gate_trends(series, trend_baseline());
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_FALSE(result.value().pass);
  const MetricCheck* latency =
      find_check(result.value(), "trend.hist.phase.target_ns.p99.drift");
  ASSERT_NE(latency, nullptr);
  EXPECT_FALSE(latency->pass) << result.value().render();
  EXPECT_GT(latency->measured, 0.5);
  const MetricCheck* hitrate =
      find_check(result.value(), "trend.hitrate.cache.drift");
  ASSERT_NE(hitrate, nullptr);
  EXPECT_FALSE(hitrate->pass) << result.value().render();
}

TEST(TrendGate, FailsWhenTooFewSteadySamples) {
  std::string text = meta_line();
  text += sample_line(0, 1, 1, 0, 0, 1, 100, 1);
  const Timeseries series = parse_timeseries(text);
  const auto result = gate_trends(series, trend_baseline());
  ASSERT_TRUE(result.ok()) << result.error();
  // A stream too short to have a steady state fails; it does not pass
  // vacuously.
  EXPECT_FALSE(result.value().pass);
  const MetricCheck* samples =
      find_check(result.value(), "trend.steady_samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_FALSE(samples->pass);
  EXPECT_EQ(samples->measured, 1.0);
  EXPECT_NE(result.value().render().find("FAIL trend.steady_samples"),
            std::string::npos)
      << result.value().render();
}

TEST(TrendGate, RejectsMalformedBaselines) {
  const Timeseries series = parse_timeseries(synthetic_stream(false));
  EXPECT_FALSE(run_gate({}, *support::Json::parse(R"({"schema":"wrong/1"})"))
                   .ok());
  EXPECT_FALSE(
      run_gate({{"trend.steady_samples", 15.0}},
               *support::Json::parse(
                   R"({"schema":"feam.report_baseline/1","metrics":
                       {"trend.steady_samples": {"max_drift": 1}}})"))
          .ok());
  EXPECT_FALSE(trend_metric(series, "trend.bogus.selector.drift"));
  EXPECT_FALSE(trend_metric(series, "trend.hitrate.cache.median"));
  EXPECT_FALSE(trend_metric(series, "trend.hitrate"));
  EXPECT_FALSE(trend_metric(series, "hitrate.cache.drift"));
}

TEST(TrendGate, FlattensMetricsForBenchRecords) {
  const Timeseries series = parse_timeseries(synthetic_stream(false));
  const support::Json baseline = trend_baseline();
  const auto measured = read_trends(series, baseline);
  const auto result = run_gate(measured, baseline);
  ASSERT_TRUE(result.ok()) << result.error();
  const auto record = bench_record(measured, &result.value(), 1);
  EXPECT_TRUE(record["gate"]["pass"].as_bool());
  EXPECT_EQ(record["metrics"]["trend.steady_samples"].as_number(), 15.0);
  EXPECT_TRUE(record["metrics"]["trend.hitrate.cache.late"].is_number());
  EXPECT_TRUE(
      record["metrics"]["trend.hist.phase.target_ns.p99.drift"].is_number());
}

}  // namespace
}  // namespace feam::report
