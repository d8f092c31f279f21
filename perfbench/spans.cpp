#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_tracer{1};

// The calling thread's log in the newest tracer that saw it. Tracer ids
// are never reused, so a log of a destroyed tracer is never returned.
struct LocalLog {
  std::uint64_t tracer = 0;
  Tracer::ThreadLog* log = nullptr;
};
thread_local LocalLog t_local;

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer() : id_(g_next_tracer.fetch_add(1)) {}

Tracer::ThreadLog& Tracer::local() {
  if (t_local.tracer == id_) return *t_local.log;
  std::lock_guard<std::mutex> lock(mutex_);
  auto log = std::make_unique<ThreadLog>();
  log->thread = static_cast<int>(logs_.size());
  log->spans.reserve(256);
  t_local = {id_, log.get()};
  logs_.push_back(std::move(log));
  return *t_local.log;
}

std::vector<const Tracer::ThreadLog*> Tracer::logs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const ThreadLog*> out;
  out.reserve(logs_.size());
  for (const auto& log : logs_) out.push_back(log.get());
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const ThreadLog* log : logs()) {
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& s = log->spans[i];
      std::fprintf(file,
                   "{\"name\":\"%s\",\"thread\":%d,\"index\":%zu,"
                   "\"parent\":%d,\"tag\":%lld,\"start_ns\":%llu,"
                   "\"end_ns\":%llu}\n",
                   kLayerNames[static_cast<std::size_t>(s.layer)],
                   log->thread, i, s.parent, static_cast<long long>(s.tag),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(file) == 0;
}

Span::Span(Tracer& tracer, Layer layer, std::int64_t tag)
    : log_(tracer.local()),
      index_(static_cast<std::int32_t>(log_.spans.size())) {
  SpanRecord record;
  record.layer = layer;
  if (!log_.open.empty()) {
    record.parent = log_.open.back();
    if (tag < 0) tag = log_.spans[static_cast<std::size_t>(record.parent)].tag;
  }
  record.tag = tag;
  log_.open.push_back(index_);
  log_.spans.push_back(record);
  // Read the clock last so the bookkeeping above stays outside the span.
  log_.spans.back().start_ns = now_ns();
}

Span::~Span() {
  log_.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  log_.open.pop_back();
}

TraceSummary summarize(const Tracer& tracer, std::uint64_t start_ns,
                       std::uint64_t end_ns, int jobs,
                       std::size_t pairs_per_survey) {
  TraceSummary out;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> roots;
  std::map<std::int64_t, std::uint64_t> survey_wall;  // workload -> ns
  std::map<std::int64_t, std::uint64_t> survey_busy;  // workload -> ns
  for (const Tracer::ThreadLog* log : tracer.logs()) {
    std::vector<std::uint64_t> child_ns(log->spans.size(), 0);
    for (const SpanRecord& s : log->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& s = log->spans[i];
      const std::uint64_t duration = s.end_ns - s.start_ns;
      auto& stats = out.layers[static_cast<std::size_t>(s.layer)];
      ++stats.calls;
      stats.self_ns += duration - std::min(duration, child_ns[i]);
      if (s.parent < 0) {
        out.busy_ns += duration;
        roots.emplace_back(s.start_ns, s.end_ns);
      }
      if (s.layer == Layer::kPair) {
        out.pair_busy_ns += duration;
        out.pair_us.push_back(static_cast<double>(duration) / 1e3);
        if (pairs_per_survey > 0) {
          survey_busy[s.tag / static_cast<std::int64_t>(pairs_per_survey)] +=
              duration;
        }
      } else if (s.layer == Layer::kSurvey) {
        out.survey_ms.push_back(static_cast<double>(duration) / 1e6);
        survey_wall[s.tag] = duration;
      }
    }
  }

  // Union of the root spans, clipped to the run phase.
  std::sort(roots.begin(), roots.end());
  std::uint64_t reach = start_ns;
  for (auto [begin, end] : roots) {
    begin = std::max(begin, reach);
    end = std::min(end, end_ns);
    if (end > begin) {
      out.covered_ns += end - begin;
      reach = end;
    }
  }

  for (const auto& [workload, wall] : survey_wall) {
    const double busy_per_job =
        static_cast<double>(survey_busy[workload]) / std::max(jobs, 1);
    const double tail = static_cast<double>(wall) - busy_per_job;
    if (tail > 0) out.survey_tail_ns += static_cast<std::uint64_t>(tail);
  }
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(rank));
  const auto upper = static_cast<std::size_t>(std::ceil(rank));
  return values[lower] +
         (values[upper] - values[lower]) * (rank - static_cast<double>(lower));
}

}  // namespace perfbench
