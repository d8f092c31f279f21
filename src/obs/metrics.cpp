#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>

#include "support/rng.hpp"

namespace feam::obs {

namespace {

// Bucket 0 holds the value 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].
int bucket_index(std::uint64_t value) {
  return value == 0 ? 0 : std::bit_width(value);
}

std::uint64_t bucket_lower_bound(int index) {
  if (index == 0) return 0;
  return std::uint64_t{1} << (index - 1);
}

std::uint64_t bucket_upper_bound(int index) {
  if (index == 0) return 0;
  if (index >= Histogram::kBuckets - 1) return UINT64_MAX;
  return (std::uint64_t{1} << index) - 1;
}

void atomic_min(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t current = slot.load(std::memory_order_relaxed);
  while (value < current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t current = slot.load(std::memory_order_relaxed);
  while (value > current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string series_name(std::string_view name, const Labels& labels) {
  if (labels.empty()) return std::string(name);
  std::string out(name);
  out += '{';
  bool first = true;
  const auto append = [&](const char* key, std::string_view value) {
    if (value.empty()) return;
    if (!first) out += ',';
    first = false;
    out += key;
    out += '=';
    out += value;
  };
  append("cache", labels.cache);
  append("determinant", labels.determinant);
  append("phase", labels.phase);
  append("site", labels.site);
  out += '}';
  return out;
}

SeriesKey parse_series(std::string_view series) {
  SeriesKey key;
  const auto brace = series.find('{');
  if (brace == std::string_view::npos || series.back() != '}') {
    key.name = std::string(series);
    return key;
  }
  key.name = std::string(series.substr(0, brace));
  std::string_view body = series.substr(brace + 1, series.size() - brace - 2);
  while (!body.empty()) {
    const auto comma = body.find(',');
    const std::string_view pair =
        comma == std::string_view::npos ? body : body.substr(0, comma);
    body = comma == std::string_view::npos ? std::string_view{}
                                           : body.substr(comma + 1);
    const auto eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string_view label = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    if (label == "site") key.site = std::string(value);
    else if (label == "cache") key.cache = std::string(value);
    else if (label == "determinant") key.determinant = std::string(value);
    else if (label == "phase") key.phase = std::string(value);
  }
  return key;
}

double HistogramSnapshot::mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

std::uint64_t HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the sample the percentile asks for (1-based, ceil).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(p * static_cast<double>(count) + 0.999999));
  std::uint64_t before = 0;
  double result = static_cast<double>(max);
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t in_bucket = buckets[static_cast<std::size_t>(i)];
    if (in_bucket != 0 && before + in_bucket >= rank) {
      // Interpolate by rank position within the bucket's value range, so
      // percentiles are not step functions at bucket boundaries.
      const double lower = static_cast<double>(bucket_lower_bound(i));
      const double upper = static_cast<double>(bucket_upper_bound(i));
      const double fraction = static_cast<double>(rank - before) /
                              static_cast<double>(in_bucket);
      result = lower + fraction * (upper - lower);
      break;
    }
    before += in_bucket;
  }
  // Clamp in double space: the top bucket's upper bound exceeds what a
  // uint64 cast can represent.
  const double lo = static_cast<double>(min());
  const double hi = static_cast<double>(max);
  if (result <= lo) return min();
  if (result >= hi) return max;
  return static_cast<std::uint64_t>(result);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  min_raw = std::min(min_raw, other.min_raw);
  max = std::max(max, other.max);
  for (int i = 0; i < kBuckets; ++i) {
    buckets[static_cast<std::size_t>(i)] +=
        other.buckets[static_cast<std::size_t>(i)];
  }
}

support::Json HistogramSnapshot::to_json() const {
  support::Json out;
  out.set("count", count);
  out.set("sum", sum);
  out.set("min", min());
  out.set("max", max);
  out.set("mean", mean());
  out.set("p50", percentile(0.50));
  out.set("p90", percentile(0.90));
  out.set("p99", percentile(0.99));
  int last = kBuckets;
  while (last > 0 && buckets[static_cast<std::size_t>(last - 1)] == 0) --last;
  support::Json::Array bucket_counts;
  bucket_counts.reserve(static_cast<std::size_t>(last));
  for (int i = 0; i < last; ++i) {
    bucket_counts.push_back(
        support::Json(buckets[static_cast<std::size_t>(i)]));
  }
  out.set("buckets", support::Json(std::move(bucket_counts)));
  return out;
}

std::optional<HistogramSnapshot> HistogramSnapshot::from_json(
    const support::Json& j) {
  if (!j.is_object()) return std::nullopt;
  HistogramSnapshot s;
  if (!j["count"].is_number()) return std::nullopt;
  s.count = static_cast<std::uint64_t>(j["count"].as_number());
  s.sum = static_cast<std::uint64_t>(j["sum"].as_number());
  s.max = static_cast<std::uint64_t>(j["max"].as_number());
  const std::uint64_t stored_min =
      static_cast<std::uint64_t>(j["min"].as_number());
  s.min_raw = s.count == 0 ? UINT64_MAX : stored_min;
  if (j["buckets"].is_array()) {
    const auto& counts = j["buckets"].as_array();
    if (counts.size() > static_cast<std::size_t>(kBuckets)) return std::nullopt;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (!counts[i].is_number()) return std::nullopt;
      s.buckets[i] = static_cast<std::uint64_t>(counts[i].as_number());
      total += s.buckets[i];
    }
    if (total != s.count) return std::nullopt;
  } else if (s.count != 0) {
    // Bucket-less summary: place every sample at the max's bucket so the
    // merge stays count-consistent (percentiles degrade to [min, max]).
    s.buckets[static_cast<std::size_t>(
        std::min(bucket_index(s.max), kBuckets - 1))] = s.count;
  }
  return s;
}

HistogramSnapshot HistogramSnapshot::delta_since(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot d;
  int first_bucket = -1;
  int last_bucket = -1;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t now = buckets[static_cast<std::size_t>(i)];
    const std::uint64_t then = earlier.buckets[static_cast<std::size_t>(i)];
    const std::uint64_t diff = now >= then ? now - then : 0;
    d.buckets[static_cast<std::size_t>(i)] = diff;
    if (diff != 0) {
      if (first_bucket < 0) first_bucket = i;
      last_bucket = i;
    }
    d.count += diff;
  }
  d.sum = sum >= earlier.sum ? sum - earlier.sum : 0;
  if (d.count != 0) {
    d.min_raw = std::max(bucket_lower_bound(first_bucket), min());
    d.max = std::min(bucket_upper_bound(last_bucket), max);
    if (d.min_raw > d.max) d.min_raw = d.max;  // single-sample windows
  }
  return d;
}

void Gauge::raise_peak(std::uint64_t value) { atomic_max(peak_, value); }

void Gauge::set(std::uint64_t value) {
  value_.store(value, std::memory_order_relaxed);
  raise_peak(value);
}

void Gauge::add(std::uint64_t delta) {
  const std::uint64_t now =
      value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  raise_peak(now);
}

void Gauge::sub(std::uint64_t delta) {
  std::uint64_t current = value_.load(std::memory_order_relaxed);
  std::uint64_t next;
  do {
    next = current >= delta ? current - delta : 0;
  } while (!value_.compare_exchange_weak(current, next,
                                         std::memory_order_relaxed));
}

void Gauge::reset() {
  value_.store(0, std::memory_order_relaxed);
  peak_.store(0, std::memory_order_relaxed);
}

void Histogram::record(std::uint64_t value) {
  const int index = std::min(bucket_index(value), kBuckets - 1);
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

std::uint64_t Histogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::sum() const {
  return sum_.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::min() const {
  const std::uint64_t v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

std::uint64_t Histogram::max() const {
  return max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::uint64_t Histogram::percentile(double p) const {
  return snapshot().percentile(p);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min_raw = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  for (int i = 0; i < kBuckets; ++i) {
    s.buckets[static_cast<std::size_t>(i)] =
        buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

support::Json Histogram::to_json() const { return snapshot().to_json(); }

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Counter& Registry::counter(std::string_view name, const Labels& labels) {
  if (labels.empty()) return counter(name);
  return counter(series_name(name, labels));
}

Histogram& Registry::histogram(std::string_view name, const Labels& labels) {
  if (labels.empty()) return histogram(name);
  return histogram(series_name(name, labels));
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels) {
  if (labels.empty()) return gauge(name);
  return gauge(series_name(name, labels));
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + histograms_.size() + gauges_.size();
}

std::map<std::string, std::uint64_t> Registry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

std::map<std::string, HistogramSnapshot> Registry::histogram_snapshots()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, histogram] : histograms_) {
    out[name] = histogram->snapshot();
  }
  return out;
}

std::map<std::string, GaugeValue> Registry::gauge_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, GaugeValue> out;
  for (const auto& [name, gauge] : gauges_) {
    out[name] = GaugeValue{gauge->value(), gauge->peak()};
  }
  return out;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
}

support::Json Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  support::Json counters{support::Json::Object{}};
  for (const auto& [name, counter] : counters_) {
    counters.set(name, counter->value());
  }
  support::Json histograms{support::Json::Object{}};
  for (const auto& [name, histogram] : histograms_) {
    histograms.set(name, histogram->to_json());
  }
  support::Json out;
  out.set("counters", std::move(counters));
  out.set("histograms", std::move(histograms));
  if (!gauges_.empty()) {
    support::Json gauges{support::Json::Object{}};
    for (const auto& [name, gauge] : gauges_) {
      support::Json entry;
      entry.set("value", gauge->value());
      entry.set("peak", gauge->peak());
      gauges.set(name, std::move(entry));
    }
    out.set("gauges", std::move(gauges));
  }
  return out;
}

Registry& metrics() {
  static Registry registry;
  return registry;
}

Counter& counter(std::string_view name) { return metrics().counter(name); }

Histogram& histogram(std::string_view name) {
  return metrics().histogram(name);
}

Counter& counter(std::string_view name, const Labels& labels) {
  return metrics().counter(name, labels);
}

Histogram& histogram(std::string_view name, const Labels& labels) {
  return metrics().histogram(name, labels);
}

Gauge& gauge(std::string_view name) { return metrics().gauge(name); }

Gauge& gauge(std::string_view name, const Labels& labels) {
  return metrics().gauge(name, labels);
}

Counter& SiteSeriesCache::at(std::string_view site) {
  const std::uint64_t key = support::fnv1a(site);
  const auto matches = [&](const Slot& slot) { return slot.site == site; };
  // Lock-free once the site has a slot: get_or_insert_if looks up first.
  const auto make = [&] {
    Counter& series =
        metrics().counter(name_, {.site = site, .cache = cache_label_});
    return Slot{std::string(site), &series};
  };
  return *slots_.get_or_insert_if(key, matches, make).first->counter;
}

std::function<void(std::uint64_t, std::uint64_t)> pool_task_recorder() {
  // References into the registry are stable for its lifetime, so resolve
  // the names once instead of on every task completion.
  Histogram& queue_wait = histogram("pool.queue_wait_ns");
  Histogram& task_run = histogram("pool.task_run_ns");
  return [&queue_wait, &task_run](std::uint64_t queue_wait_ns,
                                  std::uint64_t run_ns) {
    queue_wait.record(queue_wait_ns);
    task_run.record(run_ns);
  };
}

}  // namespace feam::obs
