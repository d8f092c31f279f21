#include "report/trend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

namespace feam::report {

namespace {

// Evaluation window: sample indices [from, to) of the steady-state group.
struct Window {
  std::size_t from = 0;
  std::size_t to = 0;
};

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Evaluates one selector over a window; nullopt for unknown selectors.
std::optional<double> evaluate(const Timeseries& series,
                               std::string_view selector,
                               const Window& window) {
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

std::size_t TrendGateResult::failures() const {
  std::size_t n = 0;
  for (const auto& check : checks) {
    if (!check.pass) ++n;
  }
  return n;
}

std::string TrendGateResult::render() const {
  std::string out = "trend gate: ";
  out += pass ? "PASS" : "FAIL";
  out += " (" + std::to_string(steady_samples) + " steady samples)\n";
  for (const auto& check : checks) {
    out += "  " + check.verdict + "\n";
  }
  return out;
}

support::Result<TrendGateResult> run_trend_gate(
    const Timeseries& series, const support::Json& baseline) {
  if (!baseline.is_object() ||
      baseline.get_string("schema") != kTrendBaselineSchema) {
    return support::Result<TrendGateResult>::failure(
        "trend baseline: expected schema \"" +
        std::string(kTrendBaselineSchema) + "\"");
  }
  const auto& metrics = baseline["metrics"];
  if (!metrics.is_object()) {
    return support::Result<TrendGateResult>::failure(
        "trend baseline: missing \"metrics\" object");
  }

  double skip_head = 0.25;
  std::size_t min_samples = 8;
  const auto& steady = baseline["steady_state"];
  if (steady.is_object()) {
    if (steady["skip_head_fraction"].is_number()) {
      skip_head = steady["skip_head_fraction"].as_number();
    }
    if (steady["min_samples"].is_number()) {
      min_samples = static_cast<std::size_t>(steady.get_int("min_samples"));
    }
    if (skip_head < 0.0 || skip_head >= 1.0) {
      return support::Result<TrendGateResult>::failure(
          "trend baseline: skip_head_fraction must be in [0, 1)");
    }
  }

  // Warmup is skipped, then the steady span splits into equal halves; the
  // final (flush) sample is excluded — its window is not interval-shaped.
  std::size_t end = series.samples.size();
  if (end > 0 && series.samples[end - 1].final_sample) --end;
  const std::size_t head =
      static_cast<std::size_t>(static_cast<double>(end) * skip_head);

  TrendGateResult result;
  result.steady_samples = end > head ? end - head : 0;
  const bool enough = result.steady_samples >= min_samples &&
                      result.steady_samples >= 2;
  const Window early{head, head + result.steady_samples / 2};
  const Window late{head + result.steady_samples / 2, end};

  for (const auto& [metric, spec] : metrics.as_object()) {
    if (!spec.is_object()) {
      return support::Result<TrendGateResult>::failure(
          "trend baseline: metric \"" + metric + "\" spec must be an object");
    }
    TrendCheck check;
    check.metric = metric;
    if (!enough) {
      check.skipped = true;
      check.verdict = "skip " + metric + " (only " +
                      std::to_string(result.steady_samples) +
                      " steady samples, need " + std::to_string(min_samples) +
                      ")";
      result.checks.push_back(std::move(check));
      continue;
    }
    const auto early_value = evaluate(series, metric, early);
    const auto late_value = evaluate(series, metric, late);
    if (!early_value || !late_value) {
      return support::Result<TrendGateResult>::failure(
          "trend baseline: unknown metric selector \"" + metric + "\"");
    }
    check.early = *early_value;
    check.late = *late_value;
    check.drift =
        check.early == 0.0 ? 0.0 : (check.late - check.early) / check.early;

    std::string reason;
    if (spec["max_drift"].is_number() &&
        check.drift > spec["max_drift"].as_number()) {
      reason = "drift " + format_value(check.drift) + " > max_drift " +
               format_value(spec["max_drift"].as_number());
    }
    if (reason.empty() && spec["max_drop"].is_number() &&
        -check.drift > spec["max_drop"].as_number()) {
      reason = "drop " + format_value(-check.drift) + " > max_drop " +
               format_value(spec["max_drop"].as_number());
    }
    if (reason.empty() && spec["min_late"].is_number() &&
        check.late < spec["min_late"].as_number()) {
      reason = "late " + format_value(check.late) + " < min_late " +
               format_value(spec["min_late"].as_number());
    }
    if (reason.empty() && spec["max_late"].is_number() &&
        check.late > spec["max_late"].as_number()) {
      reason = "late " + format_value(check.late) + " > max_late " +
               format_value(spec["max_late"].as_number());
    }
    check.pass = reason.empty();
    if (!check.pass) result.pass = false;
    check.verdict = (check.pass ? "ok   " : "FAIL ") + metric + " early=" +
                    format_value(check.early) + " late=" +
                    format_value(check.late) + " drift=" +
                    format_value(check.drift) +
                    (reason.empty() ? "" : " (" + reason + ")");
    result.checks.push_back(std::move(check));
  }
  return result;
}

std::map<std::string, double> trend_metrics(const TrendGateResult& result) {
  std::map<std::string, double> out;
  out["trend.pass"] = result.pass ? 1.0 : 0.0;
  out["trend.steady_samples"] = static_cast<double>(result.steady_samples);
  for (const auto& check : result.checks) {
    if (check.skipped) continue;
    out["trend." + check.metric + ".early"] = check.early;
    out["trend." + check.metric + ".late"] = check.late;
    out["trend." + check.metric + ".drift"] = check.drift;
  }
  return out;
}

}  // namespace feam::report
