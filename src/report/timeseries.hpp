// Reader side of the `feam.timeseries/1` stream (see obs/timeseries.hpp
// for the producer and the line schema): parsing, incremental tailing,
// windowed aggregation, and the delta/total consistency check. Pure
// data-in/data-out — `feam top`, `feam report`, trend metrics, and the
// bench's sampled leg all consume streams through this one module.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace feam::report {

inline constexpr std::string_view kTimeseriesSchema = "feam.timeseries/1";

struct TimeseriesSample {
  std::uint64_t seq = 0;
  std::uint64_t t_ns = 0;
  std::uint64_t dt_ns = 0;
  bool final_sample = false;
  // Window deltas and running totals per encoded series name. Sample
  // lines omit unchanged series; the final line carries every series.
  std::map<std::string, std::uint64_t> counter_deltas;
  std::map<std::string, std::uint64_t> counter_totals;
  std::map<std::string, obs::HistogramSnapshot> hist_deltas;
  std::map<std::string, std::uint64_t> hist_totals;  // cumulative counts
  // Gauge levels as of this sample. The producer only writes a gauge when
  // it changed (plus the final line), so absence means "carry the previous
  // value forward" — use Timeseries::gauge_track for the filled-in view.
  std::map<std::string, obs::GaugeValue> gauges;
};

struct Timeseries {
  bool saw_meta = false;
  bool saw_final = false;
  std::uint64_t interval_ms = 0;
  std::uint64_t meta_t_ns = 0;
  std::string source;
  std::vector<TimeseriesSample> samples;
  std::size_t malformed_lines = 0;

  bool empty() const { return samples.empty(); }
  // Last sample time minus the meta line's anchor (0 without both).
  std::uint64_t duration_ns() const;

  // Ingests one line (no trailing newline needed). Unknown schemas and
  // syntax errors count as malformed; parse_timeseries and
  // TimeseriesTail both funnel through here.
  void feed_line(std::string_view line);

  // Sum of counter deltas for `series` over sample indices [from, to).
  std::uint64_t counter_delta_sum(std::string_view series, std::size_t from,
                                  std::size_t to) const;
  // Merged histogram deltas for `series` over [from, to): percentiles on
  // the result are the windowed percentiles of that span of the run.
  obs::HistogramSnapshot merged_histogram(std::string_view series,
                                          std::size_t from,
                                          std::size_t to) const;
  // Wall time covered by samples [from, to), in seconds.
  double span_seconds(std::size_t from, std::size_t to) const;

  // Merged histogram deltas over [from, to) for every series whose name is
  // `base` or a labeled variant "base{...}" — the windowed distribution
  // across all label combinations of one metric. Sums labeled and
  // unlabeled variants, so pass a base that is recorded one way or the
  // other, not both (the producer records both; callers that want "all
  // sites of phase.target_ns" should merge only the labeled variants —
  // see include_unlabeled).
  obs::HistogramSnapshot merged_histogram_base(std::string_view base,
                                               std::size_t from,
                                               std::size_t to,
                                               bool include_unlabeled) const;

  // Gauge level per sample with carry-forward applied: element i is the
  // last value reported at or before sample i ({0,0} before the first
  // report). Size equals samples.size().
  std::vector<obs::GaugeValue> gauge_track(std::string_view series) const;

  // Running totals as of the last sample mentioning each series.
  std::map<std::string, std::uint64_t> final_counter_totals() const;
  std::map<std::string, std::uint64_t> final_histogram_counts() const;
  // Last reported level per gauge (carry-forward endpoint).
  std::map<std::string, obs::GaugeValue> final_gauge_values() const;

  // The stream's core invariant: per series, the deltas must telescope
  // exactly to the last reported total (counters and histogram counts
  // alike). Returns one message per violated series; empty == consistent.
  std::vector<std::string> consistency_issues() const;
};

// Per-cache hit/miss roll-up over a sample range, keyed by the `cache`
// label of the dimensional `cache.hits` / `cache.misses` series (summed
// across sites).
struct CacheWindow {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};
std::map<std::string, CacheWindow> cache_windows(const Timeseries& series,
                                                 std::size_t from,
                                                 std::size_t to);

// True when the first non-blank line carries the feam.timeseries/1
// schema — how `feam report` tells a timeseries .jsonl from an event log.
bool looks_like_timeseries(std::string_view text);

// Whole-document parse. A trailing line without '\n' is assumed to be a
// concurrent writer's partial line and ignored (not malformed).
Timeseries parse_timeseries(std::string_view text);

// Incremental parser for tailing a growing file: feed appended bytes as
// they arrive; complete lines are folded into series() immediately and a
// trailing partial line is buffered until its newline shows up.
class TimeseriesTail {
 public:
  // Folds `bytes` in; returns the number of complete lines consumed.
  std::size_t feed(std::string_view bytes);

  const Timeseries& series() const { return series_; }

 private:
  Timeseries series_;
  std::string pending_;
};

}  // namespace feam::report
