// Trend metrics: regression detection over a run's *steady state*, not
// just its endpoint totals. A timeseries stream's steady span splits into
// an early and a late half, and each selector is evaluated on both — so
// slow drift (p99 creeping up, a hit rate decaying as the run ages) fails
// CI even when the whole-run aggregates still look healthy.
//
// Trend metrics are ordinary gate metrics: a feam.report_baseline/1
// document bounds them like any other (see report/gate.hpp), and
// `feam report --baseline` reads each `trend.*` name the baseline lists
// off the ingested stream before its one run_gate call:
//   "trend.steady_samples":                 {"min": 8},
//   "trend.hist.phase.target_ns.p99.drift": {"max": 3.0},
//   "trend.hitrate.cache.drift":            {"min": -0.5},
//   "trend.hitrate.cache.late":             {"min": 0.3}
//
// Names:
//   trend.steady_samples         — samples in the steady span
//   trend.<selector>.early|late  — the selector over each half
//   trend.<selector>.drift       — signed (late-early)/early; 0 when
//                                  early == 0
// Selectors:
//   hist.<series>.<p50|p90|p99|mean|count> — merged histogram deltas
//   rate.<series>                          — counter deltas per second
//   gauge.<series>.<mean|max|last>         — gauge level over the window's
//     carry-forward track (e.g. gauge.process.rss_bytes.mean catches
//     steady-state RSS growth that endpoint totals hide)
//   hitrate.<prefix>                       — hits/(hits+misses) where a
//     series' base name is <prefix>.hits|.misses, summed across label
//     values (so `hitrate.cache` rolls up the whole dimensional
//     cache.hits/cache.misses family)
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "report/timeseries.hpp"

namespace feam::report {

// Sample indices [from, to) of a stream; from <= to.
struct SampleSpan {
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t size() const { return to - from; }
};

// The steady span: the first quarter of the samples is warm-up, and the
// final flush sample is dropped — its window is not interval-shaped.
SampleSpan steady_state(const Timeseries& series);

// Evaluates one trend.* name over the stream's steady span; nullopt when
// the name is not a trend metric (unknown selector or statistic).
std::optional<double> trend_metric(const Timeseries& series,
                                   std::string_view name);

}  // namespace feam::report
