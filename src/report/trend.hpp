// The trend gate: regression detection over a run's *steady state*, not
// just its endpoint totals. A timeseries stream is split into warmup +
// steady windows, the steady windows into an early and a late group, and
// each baseline metric is evaluated on both groups — so slow drift (p99
// creeping up, a hit rate decaying as the run ages) fails CI even when
// the whole-run aggregates still look healthy.
//
// Baseline schema (feam.trend_baseline/1):
//   {"schema": "feam.trend_baseline/1",
//    "steady_state": {"skip_head_fraction": 0.25, "min_samples": 8},
//    "metrics": {
//      "hist.phase.target_ns.p99":  {"max_drift": 1.0},
//      "hitrate.cache":             {"max_drop": 0.2, "min_late": 0.4},
//      "rate.phase.target_runs":    {"max_drop": 0.5}}}
//
// Metric selectors (evaluated over a group of sample windows):
//   hist.<series>.<p50|p90|p99|mean|count> — merged histogram deltas
//   rate.<series>                          — counter deltas per second
//   gauge.<series>.<mean|max|last>         — gauge level over the window's
//     carry-forward track (e.g. gauge.process.rss_bytes.mean catches
//     steady-state RSS growth that endpoint totals hide)
//   hitrate.<prefix>                       — hits/(hits+misses) where a
//     series' base name is <prefix>.hits|.misses, summed across label
//     values (so `hitrate.cache` rolls up the whole dimensional
//     cache.hits/cache.misses family)
// Spec keys:
//   max_drift — larger-is-worse: (late-early)/early must not exceed it
//   max_drop  — larger-is-better: (early-late)/early must not exceed it
//   min_late / max_late — absolute bounds on the late-group value
// A stream with fewer than min_samples steady windows passes vacuously
// (each check reports "skipped"): short smoke runs should not flake, and
// the bench's sampled leg guarantees a long-enough stream where it
// matters.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "report/timeseries.hpp"
#include "support/json.hpp"
#include "support/result.hpp"

namespace feam::report {

inline constexpr std::string_view kTrendBaselineSchema =
    "feam.trend_baseline/1";

struct TrendCheck {
  std::string metric;
  double early = 0.0;
  double late = 0.0;
  double drift = 0.0;  // signed (late-early)/early; 0 when early == 0
  bool skipped = false;
  bool pass = true;
  std::string verdict;  // human-readable "ok ..." / "FAIL ..." line
};

struct TrendGateResult {
  bool pass = true;
  std::size_t steady_samples = 0;
  std::vector<TrendCheck> checks;

  std::size_t failures() const;
  std::string render() const;
};

// Applies the baseline to the stream; fails on a malformed baseline
// document or an unknown metric selector.
support::Result<TrendGateResult> run_trend_gate(const Timeseries& series,
                                                const support::Json& baseline);

// Flattened view for bench records: trend.<metric>.{early,late,drift} per
// evaluated check, plus trend.pass / trend.steady_samples.
std::map<std::string, double> trend_metrics(const TrendGateResult& result);

}  // namespace feam::report
