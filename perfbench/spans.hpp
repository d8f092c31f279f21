// In-memory spans for the benchmark's traced run.
//
// The traced run times FEAM from outside: each span wraps one call into a
// module's public functions and is named module.call. Spans stay in
// per-thread logs (no lock on the recording path, nothing written until
// the run is over) and are reduced afterwards to per-layer call counts and
// self time, the pair and survey latency distributions, and the share of
// the run no span covers. FEAM's own obs span collector stays off, so the
// program does the same work as in the untraced run.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kCompile,
  kSourcePhase,
  kSurvey,
  kPair,
  kWrite,
  kTargetPhase,
  kBdc,
  kEdc,
  kTec,
  kMpiexec,
  kRestore,
  kDrift,
  kSerialize,
};

inline constexpr std::array<const char*, 13> kLayerNames = {
    "toolchain.compile", "feam.source_phase", "feam.survey",
    "eval.pair",         "site.write",        "feam.target_phase",
    "feam.bdc.describe", "feam.edc.discover", "feam.tec.evaluate",
    "toolchain.mpiexec", "site.restore",      "fleet.drift",
    "report.serialize"};

// Nanoseconds on std::chrono::steady_clock.
std::uint64_t now_ns();

struct SpanRecord {
  Layer layer = Layer::kPair;
  std::int32_t parent = -1;  // index in the same thread's log; -1 = root
  // Pair id for eval.pair and every span under it, the workload index for
  // feam.survey, -1 otherwise.
  std::int64_t tag = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class Tracer {
 public:
  struct ThreadLog {
    int thread = 0;  // registration order
    std::vector<SpanRecord> spans;
    std::vector<std::int32_t> open;  // indices of the open spans, innermost last
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The calling thread's log, registered on first use.
  ThreadLog& local();

  // Every thread's log. Call only once no thread records any more.
  std::vector<const ThreadLog*> logs() const;

  // One JSON object per line: name, thread, index, parent, tag, start_ns,
  // end_ns. False when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// Times the enclosing scope as one span of `layer` on the calling thread.
// A span opened inside another inherits its tag unless given one.
class Span {
 public:
  Span(Tracer& tracer, Layer layer, std::int64_t tag = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadLog& log_;
  std::int32_t index_;
};

// One traced run reduced over its run phase [start_ns, end_ns].
struct TraceSummary {
  struct LayerStats {
    std::uint64_t calls = 0;
    std::uint64_t self_ns = 0;  // duration minus same-thread child spans
  };
  std::array<LayerStats, kLayerNames.size()> layers{};
  std::uint64_t busy_ns = 0;       // root-span time summed over all threads
  std::uint64_t pair_busy_ns = 0;  // eval.pair time summed over all threads
  std::uint64_t covered_ns = 0;    // run-phase time under at least one root
  // Per survey: wall time minus its pairs' busy time over `jobs`, summed.
  std::uint64_t survey_tail_ns = 0;
  std::vector<double> pair_us;    // eval.pair durations
  std::vector<double> survey_ms;  // feam.survey durations
};

// `pairs_per_survey` maps an eval.pair tag to its survey (tag / it); 0
// when the run has no surveys.
TraceSummary summarize(const Tracer& tracer, std::uint64_t start_ns,
                       std::uint64_t end_ns, int jobs,
                       std::size_t pairs_per_survey);

// Linear interpolation between closest ranks; 0 for no values.
double percentile(std::vector<double> values, double p);

}  // namespace perfbench
