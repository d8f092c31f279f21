#include "report/trend.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace feam::report {

namespace {

// Evaluates one selector over a window; nullopt for unknown selectors.
std::optional<double> evaluate(const Timeseries& series,
                               std::string_view selector,
                               const SampleSpan& window) {
  if (selector.rfind("hist.", 0) == 0) {
    const std::string_view rest = selector.substr(5);
    const auto dot = rest.rfind('.');
    if (dot == std::string_view::npos) return std::nullopt;
    const std::string_view name = rest.substr(0, dot);
    const std::string_view stat = rest.substr(dot + 1);
    const obs::HistogramSnapshot merged =
        series.merged_histogram(name, window.from, window.to);
    if (stat == "count") return static_cast<double>(merged.count);
    if (stat == "mean") return merged.mean();
    if (stat == "p50") return static_cast<double>(merged.percentile(0.50));
    if (stat == "p90") return static_cast<double>(merged.percentile(0.90));
    if (stat == "p99") return static_cast<double>(merged.percentile(0.99));
    return std::nullopt;
  }
  if (selector.rfind("rate.", 0) == 0) {
    const std::string_view name = selector.substr(5);
    const double seconds = series.span_seconds(window.from, window.to);
    if (seconds <= 0.0) return 0.0;
    return static_cast<double>(
               series.counter_delta_sum(name, window.from, window.to)) /
           seconds;
  }
  if (selector.rfind("gauge.", 0) == 0) {
    // gauge.<series>.<mean|max|last> — evaluated over the carry-forward
    // level track (a gauge is only written when it changes), so a gauge
    // that went quiet still contributes its held value to every window.
    const std::string_view rest = selector.substr(6);
    const auto dot = rest.rfind('.');
    if (dot == std::string_view::npos) return std::nullopt;
    const std::string_view name = rest.substr(0, dot);
    const std::string_view stat = rest.substr(dot + 1);
    if (stat != "mean" && stat != "max" && stat != "last") return std::nullopt;
    const std::vector<obs::GaugeValue> track = series.gauge_track(name);
    const std::size_t to = std::min(window.to, track.size());
    if (window.from >= to) return 0.0;
    if (stat == "last") return static_cast<double>(track[to - 1].value);
    double sum = 0.0;
    std::uint64_t max_value = 0;
    for (std::size_t i = window.from; i < to; ++i) {
      sum += static_cast<double>(track[i].value);
      max_value = std::max(max_value, track[i].value);
    }
    if (stat == "max") return static_cast<double>(max_value);
    return sum / static_cast<double>(to - window.from);
  }
  if (selector.rfind("hitrate.", 0) == 0) {
    // The dimensional family PREFIX.hits / PREFIX.misses, summed over
    // labels (`hitrate.cache` rolls up every cache.hits{cache=...,site=...}).
    const std::string prefix{selector.substr(8)};
    std::uint64_t hits = 0, misses = 0;
    const std::size_t to = std::min(window.to, series.samples.size());
    for (std::size_t i = window.from; i < to; ++i) {
      for (const auto& [name, delta] : series.samples[i].counter_deltas) {
        const std::string base = obs::parse_series(name).name;
        if (base == prefix + ".hits") {
          hits += delta;
        } else if (base == prefix + ".misses") {
          misses += delta;
        }
      }
    }
    const std::uint64_t total = hits + misses;
    return total == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(total);
  }
  return std::nullopt;
}

}  // namespace

SampleSpan steady_state(const Timeseries& series) {
  std::size_t end = series.samples.size();
  if (end > 0 && series.samples[end - 1].final_sample) --end;
  return {end / 4, end};
}

std::optional<double> trend_metric(const Timeseries& series,
                                   std::string_view name) {
  constexpr std::string_view kPrefix = "trend.";
  if (name.rfind(kPrefix, 0) != 0) return std::nullopt;
  name.remove_prefix(kPrefix.size());
  const SampleSpan steady = steady_state(series);
  if (name == "steady_samples") return static_cast<double>(steady.size());

  const auto dot = name.rfind('.');
  if (dot == std::string_view::npos) return std::nullopt;
  const std::string_view selector = name.substr(0, dot);
  const std::string_view stat = name.substr(dot + 1);
  // The steady span splits into equal halves: early, then late.
  const std::size_t middle = steady.from + steady.size() / 2;
  const auto early = evaluate(series, selector, {steady.from, middle});
  const auto late = evaluate(series, selector, {middle, steady.to});
  if (!early || !late) return std::nullopt;
  if (stat == "early") return *early;
  if (stat == "late") return *late;
  if (stat == "drift") return *early == 0.0 ? 0.0 : (*late - *early) / *early;
  return std::nullopt;
}

}  // namespace feam::report
