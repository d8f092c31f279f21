// Process-wide metrics: named counters and latency histograms.
//
// Counters and histograms are lock-free (relaxed atomics) so they can sit
// on hot paths — ELF parsing, library resolution — without perturbing the
// numbers they measure. The registry itself takes a mutex only on
// first-lookup of a name; hot code should hold the returned reference
// (references are stable for the life of the registry).
//
// Histograms use power-of-two buckets: record() costs three atomic adds,
// memory is fixed (64 buckets), and percentiles interpolate linearly
// within the enclosing bucket, clamped to the observed min/max so
// single-valued histograms report exactly.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "obs/clock.hpp"
#include "support/json.hpp"
#include "support/striped_map.hpp"

namespace feam::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// The fixed label set of the dimensional metrics layer. Four keys only —
// `site`, `cache`, `determinant`, `phase` — each with a bounded value
// domain (the fleet's site names; the cache families
// bdc/edc/resolver.*/source; the four determinant kinds; the recorded
// span-name set), so total series cardinality stays O(sites × caches) and
// the registry, sampler, and timeseries stream can enumerate every series
// cheaply. There is deliberately no free-form key/value API: unbounded
// labels would turn the registry into a leak.
//
// A labeled metric is a *separate series* from the unlabeled one. Callers
// that re-key a hot series per site and still need the total record both
// (lease.wait_ns), so `sum over labels == unlabeled total` is a checkable
// invariant of the stream. The memo families have no unlabeled twin:
// cache.hits/cache.misses exist only per {cache, site}, consumers sum
// over labels (the `trend.hitrate.cache.*` metrics), and each memo's
// hits()/misses() equal those sums.
struct Labels {
  std::string_view site{};
  std::string_view cache{};
  std::string_view determinant{};
  std::string_view phase{};

  bool empty() const {
    return site.empty() && cache.empty() && determinant.empty() &&
           phase.empty();
  }
};

// Canonical encoded series name:
// `name{cache=c,determinant=d,phase=p,site=s}` with keys in fixed
// (alphabetical) order and empty labels omitted; a label-less call returns
// `name` unchanged. This string is the registry key, the
// timeseries/metrics-JSON field name, and what parse_series inverts.
std::string series_name(std::string_view name, const Labels& labels);

// A series name split back into its base name and label values. Strings
// without a `{...}` suffix parse as the bare name with empty labels.
struct SeriesKey {
  std::string name;
  std::string site;
  std::string cache;
  std::string determinant;
  std::string phase;
};
SeriesKey parse_series(std::string_view series);

// A level, not a tally: gauges carry *current* and *peak* values (cache
// footprints, resident-set size) — state that goes down as well as up,
// which counters cannot express and histograms would mis-summarize.
// set()/add()/sub() are lock-free; peak() is the high-water mark of every
// value the gauge ever held (monotone until reset()).
class Gauge {
 public:
  void set(std::uint64_t value);
  // Saturating adjustments (sub clamps at 0 rather than wrapping, so a
  // mis-paired release can never turn a footprint into ~2^64).
  void add(std::uint64_t delta);
  void sub(std::uint64_t delta);

  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  std::uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  void reset();

 private:
  void raise_peak(std::uint64_t value);

  std::atomic<std::uint64_t> value_{0};
  std::atomic<std::uint64_t> peak_{0};
};

// Plain-value copy of a gauge, the unit the sampler/reader layers move.
struct GaugeValue {
  std::uint64_t value = 0;
  std::uint64_t peak = 0;
};

// A plain-value copy of a histogram's state. Snapshots are the mergeable
// unit of the aggregation layer: serialize the buckets, merge snapshots
// from N processes, and percentiles on the merged result keep the same
// per-bucket fidelity a single process would have had.
struct HistogramSnapshot {
  static constexpr int kBuckets = 64;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min_raw = UINT64_MAX;  // UINT64_MAX when empty
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  bool empty() const { return count == 0; }
  std::uint64_t min() const { return count == 0 ? 0 : min_raw; }
  double mean() const;

  // Value at or below which fraction `p` (0..1] of samples fall: linearly
  // interpolated within the enclosing power-of-two bucket, clamped to
  // [min, max].
  std::uint64_t percentile(double p) const;

  // Accumulates `other` into this snapshot.
  void merge(const HistogramSnapshot& other);

  // {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,"p90":..,
  //  "p99":..,"buckets":[..]} — buckets trimmed of trailing zeros so the
  // summary stays mergeable without bloating records.
  support::Json to_json() const;

  // Accepts to_json() output; summaries without "buckets" (the pre-
  // aggregation format) load with all samples in one synthetic bucket.
  static std::optional<HistogramSnapshot> from_json(const support::Json& j);

  // The window of samples recorded between `earlier` (a previous snapshot
  // of the same histogram) and this one. Counts, sums, and buckets diff
  // exactly; `count` is defined as the diffed buckets' total, so a delta
  // serialized while writers are mid-record is still internally
  // consistent (to_json/from_json round-trips). The window's min/max are
  // the tightest provable bounds: the first/last non-empty diffed
  // bucket's range, clamped to the cumulative min/max.
  HistogramSnapshot delta_since(const HistogramSnapshot& earlier) const;
};

class Histogram {
 public:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;

  void record(std::uint64_t value);

  std::uint64_t count() const;
  std::uint64_t sum() const;
  std::uint64_t min() const;  // 0 when empty
  std::uint64_t max() const;
  double mean() const;  // 0 when empty

  // Value at or below which fraction `p` (0..1] of samples fall; linearly
  // interpolated within the enclosing power-of-two bucket, clamped to
  // [min, max].
  std::uint64_t percentile(double p) const;

  // Consistent plain-value copy for serialization and merging.
  HistogramSnapshot snapshot() const;

  void reset();

  // HistogramSnapshot::to_json of a snapshot taken now.
  support::Json to_json() const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

// Named metric registry. Lookup registers on first use; references stay
// valid for the registry's lifetime.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);
  Gauge& gauge(std::string_view name);

  // Labeled lookups: the series registered (and exported) under
  // series_name(name, labels). The zero-label case is byte-identical to
  // the unlabeled overloads, so `counter(n, {})` and `counter(n)` are the
  // same series. Returned references are stable; hot paths should resolve
  // once and hold them.
  Counter& counter(std::string_view name, const Labels& labels);
  Histogram& histogram(std::string_view name, const Labels& labels);
  Gauge& gauge(std::string_view name, const Labels& labels);

  std::size_t size() const;  // distinct registered names

  // Plain-value copies of the current state, for serialization/merging.
  std::map<std::string, std::uint64_t> counter_values() const;
  std::map<std::string, HistogramSnapshot> histogram_snapshots() const;
  std::map<std::string, GaugeValue> gauge_values() const;

  // Zeroes every value; registered names survive.
  void reset_values();

  // {"counters": {name: value, ...}, "histograms": {name: {...}, ...},
  //  "gauges": {name: {"value":..,"peak":..}, ...}} — the gauges object is
  // omitted while no gauge is registered, so pre-gauge consumers keep
  // parsing byte-identical documents.
  support::Json to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

// The process-wide registry and shorthands into it.
Registry& metrics();
Counter& counter(std::string_view name);
Histogram& histogram(std::string_view name);
Gauge& gauge(std::string_view name);
Counter& counter(std::string_view name, const Labels& labels);
Histogram& histogram(std::string_view name, const Labels& labels);
Gauge& gauge(std::string_view name, const Labels& labels);

// Counters for one `name{cache=...,site=<varies>}` family, resolved in
// the registry on a site's first use. Lock-free afterwards: a lookup is
// one chain walk, so a memo hit labeled by the looking-up site costs one
// relaxed atomic.
class SiteSeriesCache {
 public:
  SiteSeriesCache(std::string name, std::string cache_label)
      : name_(std::move(name)), cache_label_(std::move(cache_label)) {}

  Counter& at(std::string_view site);

 private:
  struct Slot {
    std::string site;
    Counter* counter;
  };
  std::string name_;
  std::string cache_label_;
  support::StripedMap<std::uint64_t, Slot> slots_;  // key: fnv1a(site)
};

// Ready-made support::ThreadPool::TaskObserver: records each task's
// submit→start queue wait into "pool.queue_wait_ns" and its run time into
// "pool.task_run_ns". Injected by pool owners because support (where the
// pool lives) cannot link obs.
std::function<void(std::uint64_t queue_wait_ns, std::uint64_t run_ns)>
pool_task_recorder();

// RAII: records obs::now_ns() elapsed between construction and destruction
// into a histogram. The standard way to time a scope on the span clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(histogram), start_ns_(now_ns()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { histogram_.record(now_ns() - start_ns_); }

 private:
  Histogram& histogram_;
  std::uint64_t start_ns_;
};

}  // namespace feam::obs
