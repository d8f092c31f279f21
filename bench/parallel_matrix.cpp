// Sequential-vs-pooled timing of the full migration matrix (the perf
// claim of the parallel migration engine): after one untimed warm-up
// pass, runs the NPB + SPEC matrix the legacy way (jobs=1, no caches)
// and pooled with the BDC/EDC/resolver memoization on, interleaved
// best-of-two each, asserts the run records are bit-identical, and
// reports wall times, speedup (with a hardware-scaled 8-job target —
// parallel scaling needs cores), and cache hit rates as a feam.bench/1
// record (BENCH_8.json). Both legs run one task per binary, which runs
// the binary's source phase once and reuses it for its other targets. A
// speedup-vs-jobs sweep at 1/2/4/8 workers follows in the same warm
// process.
//
// A third, sequential leg repeats the matrix with 0.2% Vfs fault injection
// (the robustness claim): every pair must finish with a clean or io/parse
// attribution, and every *unfaulted* pair must serialize record-for-record
// identically to the fault-free sequential baseline — proof that faulted
// computations never poison the caches. The rate is per Vfs operation; at
// 0.2% about half the pairs fault (440 clean / 354 io of 794), so both
// checks have hundreds of pairs to look at, where 5% left none clean. This
// leg runs with jobs=1 so those counts repeat exactly: which operations
// fault depends on the order they reach each injector.
//
// A fourth, profiled leg reruns the pooled configuration with the span
// collector and metric registry live (the contention-aware profiling
// claim): results must stay bit-identical to the pooled leg, profiling
// overhead must stay under 2% of an uninstrumented reference run, and the
// contention metrics the profile exposes — pool idle share, lease waits,
// cache hit rates — are gated against the baseline. All three overhead
// gates (legs 4/5/6) compare best-of-three *process CPU time*: wall
// times are printed for context, but wall minima swing several percent
// on a shared runner, which would make a 1-2% gate flake on noise the
// instrumentation did not cause.
//
// A fifth, sampled leg reruns the pooled configuration with the
// TimeseriesSampler live (the live-telemetry claim): a background thread
// snapshots the metric registry every --timeseries-interval ms and emits
// the feam.timeseries/1 delta stream while the workers run. Results must
// stay bit-identical, the stream must telescope (sum of window deltas ==
// final totals, checked by the reader), and sampling must cost under
// 5 cpu-ms per snapshot against a fresh uninstrumented reference (same
// interleaved best-of-three discipline as leg 4). Steady-state metrics —
// late-window
// throughput, cache hit rates, lease p99 — come from the stream itself
// and land in the bench record (BENCH_7.json).
//
// A sixth, memory leg reruns the pooled configuration with only the
// tracking allocator armed (the memory-observability claim): every heap
// allocation is attributed to the innermost active span, and the gate
// bounds exactly that cost — results bit-identical, under 100 ns of CPU
// per tracked allocation vs a fresh uninstrumented reference
// (interleaved best-of-three). An
// untimed measurement pass with tracking + collector on captures the
// allocation flamegraph, the per-cache cache.bytes footprints (read while
// the Experiment is alive), gross allocation volume per migration, and
// the process peak RSS, all gated as ceilings in the baseline.
//
// Each leg runs in its own scope and the Experiment is destroyed before
// the next leg starts: keeping earlier legs' results and Vfs images
// resident measurably inflates later legs' wall time (3–5x in testing),
// which would poison any overhead comparison. For the same reason the
// overhead gate compares the instrumented run against a *fresh*
// uninstrumented reference run back to back (interleaved order across
// three rounds, best-of-three each) rather than against leg 2. The
// overhead gates themselves bound instrumentation cost per unit of
// work (cpu-ms per sample, ns per tracked allocation) rather than as a
// ratio of the reference: the ratio's denominator is the workload, so
// every hot-path win inflates it without the instrumentation changing.
//
// Every acceptance condition above is a bound in
// bench/parallel_baseline.json, and --baseline decides the exit status:
// 1 when the gate fails. Without --baseline the bench prints its legs and
// exits 0, like every other bench binary.
//
// Flags:
//   --jobs N           worker threads for the pooled leg (default 4)
//   --fault-rate R     Vfs fault probability for the faulted leg (default 0.002)
//   --bench-out F      write the feam.bench/1 record to F
//   --baseline F       gate the metrics against a feam.report_baseline/1
//                      file; the gate's verdict is the exit status
//   --pr N             PR number stamped into the bench record (default 6)
//   --profile-table F  write the profiled leg's profile table to F
//   --folded F         write collapsed-stack flamegraph text to F
//   --svg F            write a self-contained flamegraph SVG to F
//   --timeseries-out F       write the sampled leg's best-run stream to F
//   --timeseries-interval MS sampler tick for the sampled leg (default 25)
//   --mem-folded F     write byte-weighted collapsed stacks to F
//   --mem-svg F        write the allocation flamegraph SVG to F
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/run_records.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "report/gate.hpp"
#include "report/timeseries.hpp"
#include "report/trend.hpp"
#include "support/json.hpp"

using namespace feam;
using namespace feam::eval;

namespace {

// Stable serialization of every migration outcome; equal strings mean the
// two runs agreed on every record, field for field.
std::string records_dump(const std::vector<MigrationResult>& results) {
  return report::records_jsonl(to_run_records(results));
}

// One migration's record line, for per-pair comparisons.
std::string record_line(const MigrationResult& result) {
  const report::RunRecord record = to_run_record(result);
  return report::records_jsonl({&record, 1});
}

double elapsed_ms(std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Process CPU time, all threads, in ms. The overhead gates compare CPU
// time rather than wall time: instrumentation costs cycles, and on a
// shared runner wall-clock minima swing several percent run to run
// (scheduler interference, CPU steal) while CPU time stays stable — a
// <2% wall gate would flake on noise the instrumentation didn't cause.
double process_cpu_ms() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double rate(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

// Plain-value copy of an experiment's cache counters, so the Experiment
// itself can be destroyed between legs.
struct CacheStats {
  std::uint64_t bdc_hits = 0, bdc_misses = 0;
  std::uint64_t edc_hits = 0, edc_misses = 0;
  std::uint64_t resolver_hits = 0, resolver_misses = 0;
  std::uint64_t source_hits = 0, source_misses = 0;

  static CacheStats of(const Experiment& e) {
    CacheStats s;
    const auto* c = e.caches();
    s.bdc_hits = c->bdc.hits();
    s.bdc_misses = c->bdc.misses();
    s.edc_hits = c->edc.hits();
    s.edc_misses = c->edc.misses();
    s.resolver_hits = c->resolver.hits();
    s.resolver_misses = c->resolver.misses();
    s.source_hits = e.source_phase_hits();
    s.source_misses = e.source_phase_misses();
    return s;
  }
};

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 4;
  int pr_number = 7;
  double fault_rate = 0.002;
  int timeseries_interval_ms = 25;
  std::string bench_out;
  std::string baseline_path;
  std::string profile_table_out;
  std::string folded_out;
  std::string svg_out;
  std::string timeseries_out;
  std::string mem_folded_out;
  std::string mem_svg_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--jobs" && i + 1 < argc) jobs = std::atoi(argv[++i]);
    else if (flag == "--fault-rate" && i + 1 < argc) fault_rate = std::atof(argv[++i]);
    else if (flag == "--bench-out" && i + 1 < argc) bench_out = argv[++i];
    else if (flag == "--baseline" && i + 1 < argc) baseline_path = argv[++i];
    else if (flag == "--pr" && i + 1 < argc) pr_number = std::atoi(argv[++i]);
    else if (flag == "--profile-table" && i + 1 < argc) profile_table_out = argv[++i];
    else if (flag == "--folded" && i + 1 < argc) folded_out = argv[++i];
    else if (flag == "--svg" && i + 1 < argc) svg_out = argv[++i];
    else if (flag == "--timeseries-out" && i + 1 < argc) timeseries_out = argv[++i];
    else if (flag == "--timeseries-interval" && i + 1 < argc)
      timeseries_interval_ms = std::max(1, std::atoi(argv[++i]));
    else if (flag == "--mem-folded" && i + 1 < argc) mem_folded_out = argv[++i];
    else if (flag == "--mem-svg" && i + 1 < argc) mem_svg_out = argv[++i];
    else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 1;
    }
  }
  if (jobs < 1) jobs = 1;

  const auto pair_key = [](const MigrationResult& r) {
    return r.binary_name + "|" + r.home_site + "|" + r.target_site;
  };

  ExperimentOptions par_options;
  par_options.jobs = jobs;
  par_options.use_caches = true;

  // Warm-up pass, untimed and discarded: the first matrix run in a fresh
  // process pays for growing the heap to its high-water mark (GBs of
  // page faults and arena mmaps that every later identical run reuses
  // for free) — 3-4x wall in testing. Timing the first passes would
  // measure that slope, not the engine, and it lands on whichever leg
  // runs first. One full pooled pass up front puts every timed leg on
  // the same warm footing the overhead legs already enjoy by running
  // late in the process.
  {
    Experiment warm(par_options);
    warm.build_test_set();
    warm.run();
  }

  const auto keep_best = [](double& slot, double value) {
    slot = slot == 0.0 ? value : std::min(slot, value);
  };

  // Leg 1 — legacy: strictly sequential, no memoization. Leg 2 — the
  // parallel engine: one pooled task per binary under subtree leases and
  // thread-private shell sessions, with the blob-keyed BDC cache, the
  // fingerprint-keyed EDC memo and the resolver caches. The two legs
  // interleave best-of-two (seq, pooled, seq, pooled) so residual warm-up
  // favours neither side of the speedup ratio.
  double sequential_ms = 0.0;
  std::size_t migrations = 0;
  std::string sequential_dump;
  std::map<std::string, std::string> baseline_by_pair;
  const auto run_sequential = [&]() {
    ExperimentOptions seq_options;
    seq_options.jobs = 1;
    seq_options.use_caches = false;
    Experiment sequential(seq_options);
    sequential.build_test_set();
    const auto t0 = std::chrono::steady_clock::now();
    sequential.run();
    const auto t1 = std::chrono::steady_clock::now();
    keep_best(sequential_ms, elapsed_ms(t0, t1));
    if (sequential_dump.empty()) {
      migrations = sequential.results().size();
      sequential_dump = records_dump(sequential.results());
      for (const auto& result : sequential.results()) {
        baseline_by_pair[pair_key(result)] = record_line(result);
      }
    }
  };
  double parallel_ms = 0.0;
  std::string pooled_dump;
  CacheStats pooled_caches;
  const auto run_pooled = [&]() {
    Experiment pooled(par_options);
    pooled.build_test_set();
    const auto t2 = std::chrono::steady_clock::now();
    pooled.run();
    const auto t3 = std::chrono::steady_clock::now();
    keep_best(parallel_ms, elapsed_ms(t2, t3));
    if (pooled_dump.empty()) {
      pooled_dump = records_dump(pooled.results());
      pooled_caches = CacheStats::of(pooled);
    }
  };
  run_sequential();
  run_pooled();
  run_sequential();
  run_pooled();

  // Speedup-vs-jobs sweep: the pooled configuration again at 1/2/4/8
  // workers (each with fresh caches, timed like leg 2, records checked
  // against the sequential dump). The main `--jobs` leg's time is reused
  // when the count matches, so the sweep adds at most three extra runs.
  std::map<int, double> sweep_ms;
  bool sweep_identical = true;
  for (const int sweep_jobs : {1, 2, 4, 8}) {
    if (sweep_jobs == jobs) {
      sweep_ms[sweep_jobs] = parallel_ms;
      continue;
    }
    ExperimentOptions sweep_options;
    sweep_options.jobs = sweep_jobs;
    sweep_options.use_caches = true;
    Experiment pooled(sweep_options);
    pooled.build_test_set();
    const auto t0 = std::chrono::steady_clock::now();
    pooled.run();
    const auto t1 = std::chrono::steady_clock::now();
    sweep_ms[sweep_jobs] = elapsed_ms(t0, t1);
    if (records_dump(pooled.results()) != sequential_dump) {
      sweep_identical = false;
    }
  }

  // The pooled speedup is two multiplicative components: work reduction
  // (caches and zero-copy parsing — visible even on one core) and
  // parallel scaling, which is bounded by min(jobs, hardware threads).
  // The 8-job target therefore scales with the machine: the full 6x is
  // demanded only where 8 hardware threads exist; smaller runners are
  // held to what their core count can express, down to the pure
  // work-reduction floor on a single core.
  const unsigned hw_threads =
      std::max(1u, std::thread::hardware_concurrency());
  const double speedup_jobs8 =
      sweep_ms[8] > 0 ? sequential_ms / sweep_ms[8] : 0.0;
  const double speedup_jobs8_target =
      hw_threads >= 8 ? 6.0 : hw_threads >= 4 ? 4.0 : hw_threads >= 2 ? 3.0
                                                                      : 1.7;
  const bool speedup_jobs8_target_met = speedup_jobs8 >= speedup_jobs8_target;

  // Leg 3 — robustness: the same matrix, sequential, with Vfs fault
  // injection at every site. Every pair must come back attributed (clean,
  // io, or parse), and the clean pairs must be bit-identical to the
  // fault-free baseline — faulted computations never enter the caches.
  double faulted_ms = 0.0;
  std::size_t faulted_total = 0;
  std::size_t clean_pairs = 0, io_pairs = 0, parse_pairs = 0;
  std::size_t unknown_attr = 0, clean_mismatches = 0;
  {
    ExperimentOptions fault_options;
    fault_options.jobs = 1;
    fault_options.use_caches = true;
    fault_options.vfs_fault_rate = fault_rate;
    Experiment faulted(fault_options);
    faulted.build_test_set();
    const auto t4 = std::chrono::steady_clock::now();
    faulted.run();
    const auto t5 = std::chrono::steady_clock::now();
    faulted_ms = elapsed_ms(t4, t5);
    faulted_total = faulted.results().size();
    for (const auto& result : faulted.results()) {
      if (result.failure_attribution == "io") {
        ++io_pairs;
      } else if (result.failure_attribution == "parse") {
        ++parse_pairs;
      } else if (!result.failure_attribution.empty()) {
        ++unknown_attr;
      } else {
        ++clean_pairs;
        const auto it = baseline_by_pair.find(pair_key(result));
        if (it == baseline_by_pair.end() ||
            it->second != record_line(result)) {
          ++clean_mismatches;
        }
      }
    }
  }
  // With a positive rate over ~800 migrations some pairs must fault and
  // some must stay clean, or the baseline comparison checks nothing; all
  // attributions must be io/parse; no clean pair may drift from baseline.
  const bool fault_ok =
      clean_mismatches == 0 && unknown_attr == 0 &&
      (fault_rate <= 0.0 || (io_pairs + parse_pairs > 0 && clean_pairs > 0));

  // Leg 4 — profiled: the pooled configuration with the span collector
  // and metric registry live, against a fresh uninstrumented reference.
  // Three rounds, interleaved so warm-up favours neither side; wall times
  // are reported best-of-three, while the overhead gate compares
  // best-of-three *process CPU time* (see process_cpu_ms). Only run()
  // sits in the timed window (collection enabled right before it), so the
  // comparison isolates what observability costs.
  double ref_ms = 0.0;
  double ref_cpu_ms = 0.0;
  double profiled_ms = 0.0;
  double profiled_cpu_ms = 0.0;
  double profiled_wall_ms = 0.0;  // wall of the run the metrics belong to
  std::string profiled_dump;
  std::vector<obs::SpanRecord> profile_spans;
  std::map<std::string, obs::HistogramSnapshot> profiled_hists;
  CacheStats profiled_caches;
  std::size_t profile_events = 0;
  const auto best = [](double& slot, double value) {
    slot = slot == 0.0 ? value : std::min(slot, value);
  };
  const auto run_reference = [&]() {
    Experiment e(par_options);
    e.build_test_set();
    const double cpu0 = process_cpu_ms();
    const auto a = std::chrono::steady_clock::now();
    e.run();
    const auto b = std::chrono::steady_clock::now();
    best(ref_ms, elapsed_ms(a, b));
    best(ref_cpu_ms, process_cpu_ms() - cpu0);
  };
  const auto run_instrumented = [&]() {
    Experiment e(par_options);
    e.build_test_set();
    obs::metrics().reset_values();
    obs::collector().clear();
    obs::collector().set_enabled(true);
    const double cpu0 = process_cpu_ms();
    const auto a = std::chrono::steady_clock::now();
    e.run();
    const auto b = std::chrono::steady_clock::now();
    obs::collector().set_enabled(false);
    const double ms = elapsed_ms(a, b);
    best(profiled_ms, ms);
    best(profiled_cpu_ms, process_cpu_ms() - cpu0);
    profiled_wall_ms = ms;
    profile_spans = obs::collector().spans();
    profile_events = obs::collector().events().size();
    profiled_hists = obs::metrics().histogram_snapshots();
    profiled_dump = records_dump(e.results());
    profiled_caches = CacheStats::of(e);
  };
  run_reference();
  run_instrumented();
  run_instrumented();
  run_reference();
  run_reference();
  run_instrumented();

  // Leg 5 — sampled: the pooled configuration with the timeseries sampler
  // live. Only run() sits in the timed window; the sampler thread starts
  // just before it and is stopped (final flush) just after, so the
  // comparison isolates what live streaming costs while workers are hot.
  // The retained stream is the faster run's — the one the overhead number
  // describes.
  double sampled_ms = 0.0;
  double sampled_cpu_ms = 0.0;
  double sampled_ref_ms = 0.0;
  double sampled_ref_cpu_ms = 0.0;
  bool sampled_identical = true;
  std::string sampled_stream;
  const auto run_sampled_reference = [&]() {
    Experiment e(par_options);
    e.build_test_set();
    const double cpu0 = process_cpu_ms();
    const auto a = std::chrono::steady_clock::now();
    e.run();
    const auto b = std::chrono::steady_clock::now();
    best(sampled_ref_ms, elapsed_ms(a, b));
    best(sampled_ref_cpu_ms, process_cpu_ms() - cpu0);
  };
  const auto run_sampled = [&]() {
    Experiment e(par_options);
    e.build_test_set();
    obs::metrics().reset_values();
    std::mutex stream_mutex;
    std::string stream;
    obs::TimeseriesSampler::Options sampler_options;
    sampler_options.interval_ms =
        static_cast<std::uint64_t>(timeseries_interval_ms);
    sampler_options.source =
        "bench/parallel_matrix --jobs " + std::to_string(jobs);
    std::chrono::steady_clock::time_point a, b;
    double cpu0 = 0.0, cpu1 = 0.0;
    {
      obs::TimeseriesSampler sampler(
          obs::metrics(), sampler_options, [&](const std::string& line) {
            const std::lock_guard<std::mutex> lock(stream_mutex);
            stream += line;
          });
      cpu0 = process_cpu_ms();
      a = std::chrono::steady_clock::now();
      e.run();
      b = std::chrono::steady_clock::now();
      cpu1 = process_cpu_ms();
      sampler.stop();
    }
    const double ms = elapsed_ms(a, b);
    if (sampled_ms == 0.0 || ms < sampled_ms) {
      sampled_ms = ms;
      sampled_stream = std::move(stream);
    }
    best(sampled_cpu_ms, cpu1 - cpu0);
    if (records_dump(e.results()) != pooled_dump) sampled_identical = false;
  };
  run_sampled_reference();
  run_sampled();
  run_sampled();
  run_sampled_reference();
  run_sampled_reference();
  run_sampled();

  // Leg 6 — memory: the pooled configuration with only the tracking
  // allocator armed (no collector, no sampler). Every allocation pays a
  // relaxed load and a thread-local bump; each span pop flushes four
  // counters. The gate bounds exactly that cost against a fresh
  // uninstrumented reference (interleaved best-of-three CPU time — the
  // delta being bounded is ~1%, under wall-clock noise on a shared box),
  // and the records must stay bit-identical — attribution observes,
  // never perturbs.
  double mem_ref_ms = 0.0;
  double mem_ref_cpu_ms = 0.0;
  double tracked_ms = 0.0;
  double tracked_cpu_ms = 0.0;
  bool tracked_identical = true;
  const auto run_mem_reference = [&]() {
    Experiment e(par_options);
    e.build_test_set();
    const double cpu0 = process_cpu_ms();
    const auto a = std::chrono::steady_clock::now();
    e.run();
    const auto b = std::chrono::steady_clock::now();
    best(mem_ref_ms, elapsed_ms(a, b));
    best(mem_ref_cpu_ms, process_cpu_ms() - cpu0);
  };
  const auto run_tracked = [&]() {
    Experiment e(par_options);
    e.build_test_set();
    obs::set_alloc_tracking(true);
    const double cpu0 = process_cpu_ms();
    const auto a = std::chrono::steady_clock::now();
    e.run();
    const auto b = std::chrono::steady_clock::now();
    obs::set_alloc_tracking(false);
    best(tracked_ms, elapsed_ms(a, b));
    best(tracked_cpu_ms, process_cpu_ms() - cpu0);
    if (records_dump(e.results()) != pooled_dump) tracked_identical = false;
  };
  run_mem_reference();
  run_tracked();
  run_tracked();
  run_mem_reference();
  run_mem_reference();
  run_tracked();

  // Measurement pass, untimed: tracking + collector on to capture the
  // allocation flamegraph, gross allocation volume, and the per-cache
  // cache.bytes footprints — read while the Experiment (and so its
  // caches) is still alive, after a registry reset so the gauge peaks
  // describe this pass alone.
  std::vector<obs::SpanRecord> mem_spans;
  std::map<std::string, obs::GaugeValue> mem_gauges;
  std::uint64_t alloc_bytes_total = 0;
  std::uint64_t alloc_count_total = 0;
  {
    obs::metrics().reset_values();
    obs::collector().clear();
    Experiment e(par_options);
    e.build_test_set();
    obs::collector().set_enabled(true);
    obs::set_alloc_tracking(true);
    e.run();
    obs::set_alloc_tracking(false);
    obs::collector().set_enabled(false);
    mem_spans = obs::collector().spans();
    mem_gauges = obs::metrics().gauge_values();
    const auto counters = obs::metrics().counter_values();
    const auto counter_of = [&](const char* name) {
      const auto it = counters.find(name);
      return it == counters.end() ? std::uint64_t{0} : it->second;
    };
    alloc_bytes_total = counter_of("mem.alloc_bytes");
    alloc_count_total = counter_of("mem.alloc_count");
  }
  const std::uint64_t peak_rss = obs::read_rss_peak_bytes();
  const double mem_overhead =
      mem_ref_cpu_ms > 0.0
          ? std::max(0.0, (tracked_cpu_ms - mem_ref_cpu_ms) / mem_ref_cpu_ms)
          : 0.0;
  // Same per-unit discipline as the sampler gate: the tracking
  // allocator's cost is a constant handful of ns per allocation, so
  // that — not its share of a shrinking total — is what the gate bounds.
  const double alloc_tracking_ns_per_alloc =
      alloc_count_total > 0
          ? std::max(0.0, tracked_cpu_ms - mem_ref_cpu_ms) * 1e6 /
                static_cast<double>(alloc_count_total)
          : 0.0;
  const double bytes_per_migration =
      migrations > 0 ? static_cast<double>(alloc_bytes_total) /
                           static_cast<double>(migrations)
                     : 0.0;
  const auto cache_peak_bytes = [&](const char* label) {
    const auto it =
        mem_gauges.find(std::string("cache.bytes{cache=") + label + "}");
    return it == mem_gauges.end() ? std::uint64_t{0} : it->second.peak;
  };

  // Steady-state view of the retained stream, over the span trend
  // metrics read: the first quarter (cold caches) and the final flush
  // sample are left out.
  const report::Timeseries timeseries =
      report::parse_timeseries(sampled_stream);
  const bool timeseries_consistent = timeseries.saw_final &&
                                     timeseries.malformed_lines == 0 &&
                                     timeseries.consistency_issues().empty();
  const report::SampleSpan steady = report::steady_state(timeseries);
  const double steady_s = timeseries.span_seconds(steady.from, steady.to);
  const double steady_rate =
      steady_s > 0.0
          ? static_cast<double>(timeseries.counter_delta_sum(
                "phase.target_runs", steady.from, steady.to)) /
                steady_s
          : 0.0;
  const auto steady_caches =
      report::cache_windows(timeseries, steady.from, steady.to);
  const auto steady_cache_rate = [&](const char* name) {
    const auto it = steady_caches.find(name);
    return it == steady_caches.end() ? 0.0 : it->second.rate();
  };
  const auto steady_lease =
      timeseries.merged_histogram("lease.wait_ns", steady.from, steady.to);
  const double sampler_overhead =
      sampled_ref_cpu_ms > 0.0
          ? std::max(0.0, (sampled_cpu_ms - sampled_ref_cpu_ms) /
                              sampled_ref_cpu_ms)
          : 0.0;
  // Gate the sampler on what a snapshot costs, not on the overhead
  // ratio: the ratio's denominator is the workload itself, so every
  // hot-path win inflates it without the sampler regressing (this pass
  // cut the pooled run ~2x, which alone doubles the ratio). Cost per
  // sample is invariant to how fast the workload underneath it got.
  const double sampler_cpu_ms_per_sample =
      !timeseries.samples.empty()
          ? std::max(0.0, sampled_cpu_ms - sampled_ref_cpu_ms) /
                static_cast<double>(timeseries.samples.size())
          : 0.0;

  const obs::Profile profile = obs::build_profile(profile_spans);
  const auto hist_of = [&](const char* name) {
    const auto it = profiled_hists.find(name);
    return it == profiled_hists.end() ? obs::HistogramSnapshot{} : it->second;
  };

  // Idle share of the pool: 1 − (worker busy time / worker capacity).
  // The mean submit→start wait is useless here — a submit-all-upfront
  // FIFO queue makes every task "wait" for most of the run by design —
  // so the gated number is how much of jobs × wall the workers spent
  // NOT running tasks.
  const obs::HistogramSnapshot task_run = hist_of("pool.task_run_ns");
  const obs::HistogramSnapshot queue_wait = hist_of("pool.queue_wait_ns");
  const obs::HistogramSnapshot lease_wait = hist_of("lease.wait_ns");
  const double capacity_ns = profiled_wall_ms * 1e6 * jobs;
  const double queue_wait_share =
      capacity_ns > 0.0
          ? std::max(0.0, (capacity_ns - static_cast<double>(task_run.sum)) /
                              capacity_ns)
          : 0.0;
  const double profile_overhead =
      ref_cpu_ms > 0.0
          ? std::max(0.0, (profiled_cpu_ms - ref_cpu_ms) / ref_cpu_ms)
          : 0.0;
  const bool profiled_identical = profiled_dump == pooled_dump;
  const double p_bdc_rate =
      rate(profiled_caches.bdc_hits, profiled_caches.bdc_misses);
  const double p_edc_rate =
      rate(profiled_caches.edc_hits, profiled_caches.edc_misses);
  const double p_resolver_rate =
      rate(profiled_caches.resolver_hits, profiled_caches.resolver_misses);

  const bool identical = sequential_dump == pooled_dump;
  const double speedup = parallel_ms > 0 ? sequential_ms / parallel_ms : 0.0;
  const double bdc_rate = rate(pooled_caches.bdc_hits, pooled_caches.bdc_misses);
  const double edc_rate = rate(pooled_caches.edc_hits, pooled_caches.edc_misses);
  const double resolver_rate =
      rate(pooled_caches.resolver_hits, pooled_caches.resolver_misses);

  std::printf("Full matrix: %zu migrations\n", migrations);
  std::printf("  sequential (jobs=1, no caches): %9.1f ms\n", sequential_ms);
  std::printf("  pooled     (jobs=%d, caches):   %9.1f ms\n", jobs,
              parallel_ms);
  std::printf("  speedup: %.2fx\n", speedup);
  std::printf("  BDC cache:    %llu hits / %llu misses (%.0f%% hit rate)\n",
              static_cast<unsigned long long>(pooled_caches.bdc_hits),
              static_cast<unsigned long long>(pooled_caches.bdc_misses),
              100.0 * bdc_rate);
  std::printf("  EDC memo:     %llu hits / %llu misses (%.0f%% hit rate)\n",
              static_cast<unsigned long long>(pooled_caches.edc_hits),
              static_cast<unsigned long long>(pooled_caches.edc_misses),
              100.0 * edc_rate);
  std::printf("  resolver:     %llu hits / %llu misses (%.0f%% hit rate)\n",
              static_cast<unsigned long long>(pooled_caches.resolver_hits),
              static_cast<unsigned long long>(pooled_caches.resolver_misses),
              100.0 * resolver_rate);
  std::printf("  source phase: %llu hits / %llu misses\n",
              static_cast<unsigned long long>(pooled_caches.source_hits),
              static_cast<unsigned long long>(pooled_caches.source_misses));
  std::printf("  results bit-identical to sequential run: %s\n",
              identical ? "yes" : "NO");
  std::printf("  speedup vs jobs:");
  for (const auto& [sweep_jobs, ms] : sweep_ms) {
    std::printf("  %dx%.2f", sweep_jobs, ms > 0 ? sequential_ms / ms : 0.0);
  }
  std::printf("  (sweep records identical: %s)\n",
              sweep_identical ? "yes" : "NO");
  std::printf("  8-job target: %.1fx on %u hardware thread%s: %s "
              "(measured %.2fx)\n",
              speedup_jobs8_target, hw_threads, hw_threads == 1 ? "" : "s",
              speedup_jobs8_target_met ? "met" : "MISSED", speedup_jobs8);
  std::printf("Faulted leg (sequential, %.1f%% Vfs faults): %9.1f ms\n",
              100.0 * fault_rate, faulted_ms);
  std::printf("  pairs: %zu clean / %zu io / %zu parse (of %zu)\n",
              clean_pairs, io_pairs, parse_pairs, faulted_total);
  std::printf("  clean pairs identical to baseline: %s (%zu mismatches)\n",
              clean_mismatches == 0 ? "yes" : "NO", clean_mismatches);
  std::printf("Profiled leg (jobs=%d, collector + metrics on): %9.1f ms vs "
              "%9.1f ms reference (cpu overhead %.1f%%: %.0f vs %.0f ms)\n",
              jobs, profiled_ms, ref_ms, 100.0 * profile_overhead,
              profiled_cpu_ms, ref_cpu_ms);
  std::printf("  spans: %zu, events: %zu; critical path: %.1f ms "
              "(%.0f%% of wall)\n",
              profile_spans.size(), profile_events,
              static_cast<double>(profile.critical_path_ns()) / 1e6,
              profile.wall_ns > 0
                  ? 100.0 * static_cast<double>(profile.critical_path_ns()) /
                        static_cast<double>(profile.wall_ns)
                  : 0.0);
  std::printf("  pool: %llu tasks, idle share %.2f, queue wait p99 %.1f ms\n",
              static_cast<unsigned long long>(task_run.count),
              queue_wait_share,
              static_cast<double>(queue_wait.percentile(0.99)) / 1e6);
  std::printf("  lease waits: %llu acquisitions, mean %.1f us, max %.1f ms\n",
              static_cast<unsigned long long>(lease_wait.count),
              lease_wait.mean() / 1e3,
              static_cast<double>(lease_wait.max) / 1e6);
  std::printf("  results bit-identical to pooled run: %s\n",
              profiled_identical ? "yes" : "NO");
  std::printf("Sampled leg (jobs=%d, %dms timeseries sampler): %9.1f ms vs "
              "%9.1f ms reference (cpu overhead %.2f%%: %.0f vs %.0f ms)\n",
              jobs, timeseries_interval_ms, sampled_ms, sampled_ref_ms,
              100.0 * sampler_overhead, sampled_cpu_ms, sampled_ref_cpu_ms);
  std::printf("  stream: %zu samples at %.2f cpu-ms each, %s\n",
              timeseries.samples.size(), sampler_cpu_ms_per_sample,
              timeseries_consistent
                  ? "deltas telescope to final totals"
                  : "INCONSISTENT (telescoping broken or no final sample)");
  std::printf("  steady state (samples %zu..%zu, %.2fs): %.1f target/s, "
              "BDC %.0f%% / EDC %.0f%% / resolver.ldd %.0f%% hit rate, "
              "lease wait p99 %.1f us\n",
              steady.from, steady.to, steady_s, steady_rate,
              100.0 * steady_cache_rate("bdc"),
              100.0 * steady_cache_rate("edc"),
              100.0 * steady_cache_rate("resolver.ldd"),
              static_cast<double>(steady_lease.percentile(0.99)) / 1e3);
  std::printf("  results bit-identical to pooled run: %s\n",
              sampled_identical ? "yes" : "NO");
  std::printf("Memory leg (jobs=%d, tracking allocator %s): %9.1f ms vs "
              "%9.1f ms reference (cpu overhead %.2f%%: %.0f vs %.0f ms)\n",
              jobs,
              obs::alloc_tracking_compiled() ? "armed" : "NOT COMPILED IN",
              tracked_ms, mem_ref_ms, 100.0 * mem_overhead, tracked_cpu_ms,
              mem_ref_cpu_ms);
  std::printf("  allocations: %.1f MB gross / %llu allocs "
              "(%.1f KB per migration, tracking cost %.1f ns/alloc)\n",
              static_cast<double>(alloc_bytes_total) / 1e6,
              static_cast<unsigned long long>(alloc_count_total),
              bytes_per_migration / 1e3, alloc_tracking_ns_per_alloc);
  std::printf("  cache footprint peaks: bdc %.1f MB, edc %.1f KB, resolver "
              "search/ldd/parse %.1f/%.1f/%.1f MB\n",
              static_cast<double>(cache_peak_bytes("bdc")) / 1e6,
              static_cast<double>(cache_peak_bytes("edc")) / 1e3,
              static_cast<double>(cache_peak_bytes("resolver.search")) / 1e6,
              static_cast<double>(cache_peak_bytes("resolver.ldd")) / 1e6,
              static_cast<double>(cache_peak_bytes("resolver.parse")) / 1e6);
  std::printf("  process peak RSS: %.1f MB\n",
              static_cast<double>(peak_rss) / 1e6);
  std::printf("  results bit-identical to pooled run: %s\n",
              tracked_identical ? "yes" : "NO");

  std::map<std::string, double> metrics;
  metrics["bench.jobs"] = jobs;
  metrics["bench.migrations"] = static_cast<double>(migrations);
  metrics["bench.sequential_ms"] = sequential_ms;
  metrics["bench.parallel_ms"] = parallel_ms;
  metrics["bench.speedup"] = speedup;
  metrics["bench.identical"] = identical ? 1 : 0;
  for (const auto& [sweep_jobs, ms] : sweep_ms) {
    metrics["bench.speedup_jobs" + std::to_string(sweep_jobs)] =
        ms > 0 ? sequential_ms / ms : 0.0;
    metrics["bench.parallel_ms_jobs" + std::to_string(sweep_jobs)] = ms;
  }
  metrics["bench.sweep_identical"] = sweep_identical ? 1 : 0;
  metrics["bench.hw_threads"] = static_cast<double>(hw_threads);
  metrics["bench.speedup_jobs8_target"] = speedup_jobs8_target;
  metrics["bench.speedup_jobs8_target_met"] = speedup_jobs8_target_met ? 1 : 0;
  metrics["bench.bdc_hits"] = static_cast<double>(pooled_caches.bdc_hits);
  metrics["bench.bdc_misses"] = static_cast<double>(pooled_caches.bdc_misses);
  metrics["bench.bdc_hit_rate"] = bdc_rate;
  metrics["bench.edc_hits"] = static_cast<double>(pooled_caches.edc_hits);
  metrics["bench.edc_misses"] = static_cast<double>(pooled_caches.edc_misses);
  metrics["bench.edc_hit_rate"] = edc_rate;
  metrics["bench.resolver_hits"] =
      static_cast<double>(pooled_caches.resolver_hits);
  metrics["bench.resolver_misses"] =
      static_cast<double>(pooled_caches.resolver_misses);
  metrics["bench.resolver_hit_rate"] = resolver_rate;
  metrics["bench.source_phase_hits"] =
      static_cast<double>(pooled_caches.source_hits);
  metrics["bench.source_phase_misses"] =
      static_cast<double>(pooled_caches.source_misses);
  metrics["bench.fault_rate"] = fault_rate;
  metrics["bench.fault_leg_ms"] = faulted_ms;
  metrics["bench.fault_clean_pairs"] = static_cast<double>(clean_pairs);
  metrics["bench.fault_io_pairs"] = static_cast<double>(io_pairs);
  metrics["bench.fault_parse_pairs"] = static_cast<double>(parse_pairs);
  metrics["bench.fault_clean_mismatches"] =
      static_cast<double>(clean_mismatches);
  metrics["bench.fault_ok"] = fault_ok ? 1 : 0;
  metrics["bench.profiled_ms"] = profiled_ms;
  metrics["bench.profile_ref_ms"] = ref_ms;
  metrics["bench.profiled_cpu_ms"] = profiled_cpu_ms;
  metrics["bench.profile_ref_cpu_ms"] = ref_cpu_ms;
  metrics["bench.profile_overhead"] = profile_overhead;
  metrics["bench.profile_spans"] = static_cast<double>(profile_spans.size());
  metrics["bench.profiled_identical"] = profiled_identical ? 1 : 0;
  metrics["bench.critical_path_ns"] =
      static_cast<double>(profile.critical_path_ns());
  metrics["bench.queue_wait_share"] = queue_wait_share;
  metrics["bench.pool_tasks"] = static_cast<double>(task_run.count);
  metrics["bench.lease_waits"] = static_cast<double>(lease_wait.count);
  metrics["bench.lease_wait_mean_ns"] = lease_wait.mean();
  metrics["bench.lease_wait_max_ns"] = static_cast<double>(lease_wait.max);
  metrics["bench.lease_wait_p99_ns"] =
      static_cast<double>(lease_wait.percentile(0.99));
  metrics["bench.profiled_bdc_hit_rate"] = p_bdc_rate;
  metrics["bench.profiled_edc_hit_rate"] = p_edc_rate;
  metrics["bench.profiled_resolver_hit_rate"] = p_resolver_rate;
  metrics["bench.sampled_ms"] = sampled_ms;
  metrics["bench.sampled_ref_ms"] = sampled_ref_ms;
  metrics["bench.sampled_cpu_ms"] = sampled_cpu_ms;
  metrics["bench.sampled_ref_cpu_ms"] = sampled_ref_cpu_ms;
  metrics["bench.sampler_overhead"] = sampler_overhead;
  metrics["bench.sampler_cpu_ms_per_sample"] = sampler_cpu_ms_per_sample;
  metrics["bench.sampled_identical"] = sampled_identical ? 1 : 0;
  metrics["bench.timeseries_samples"] =
      static_cast<double>(timeseries.samples.size());
  metrics["bench.timeseries_consistent"] = timeseries_consistent ? 1 : 0;
  metrics["bench.steady_samples"] = static_cast<double>(steady.size());
  metrics["bench.steady_target_rate"] = steady_rate;
  metrics["bench.steady_bdc_hit_rate"] = steady_cache_rate("bdc");
  metrics["bench.steady_edc_hit_rate"] = steady_cache_rate("edc");
  metrics["bench.steady_lease_p99_ns"] =
      static_cast<double>(steady_lease.percentile(0.99));
  metrics["bench.mem_ref_ms"] = mem_ref_ms;
  metrics["bench.tracked_ms"] = tracked_ms;
  metrics["bench.mem_ref_cpu_ms"] = mem_ref_cpu_ms;
  metrics["bench.tracked_cpu_ms"] = tracked_cpu_ms;
  metrics["bench.mem_overhead"] = mem_overhead;
  metrics["bench.alloc_tracking_ns_per_alloc"] = alloc_tracking_ns_per_alloc;
  metrics["bench.tracked_identical"] = tracked_identical ? 1 : 0;
  metrics["bench.alloc_tracking_compiled"] =
      obs::alloc_tracking_compiled() ? 1 : 0;
  metrics["bench.alloc_bytes"] = static_cast<double>(alloc_bytes_total);
  metrics["bench.alloc_count"] = static_cast<double>(alloc_count_total);
  metrics["bench.alloc_bytes_per_migration"] = bytes_per_migration;
  metrics["bench.peak_rss_bytes"] = static_cast<double>(peak_rss);
  metrics["bench.cache_peak_bytes_bdc"] =
      static_cast<double>(cache_peak_bytes("bdc"));
  metrics["bench.cache_peak_bytes_edc"] =
      static_cast<double>(cache_peak_bytes("edc"));
  metrics["bench.cache_peak_bytes_resolver_search"] =
      static_cast<double>(cache_peak_bytes("resolver.search"));
  metrics["bench.cache_peak_bytes_resolver_ldd"] =
      static_cast<double>(cache_peak_bytes("resolver.ldd"));
  metrics["bench.cache_peak_bytes_resolver_parse"] =
      static_cast<double>(cache_peak_bytes("resolver.parse"));

  report::GateResult gate;
  const report::GateResult* gate_ptr = nullptr;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto baseline = support::Json::parse(buffer.str());
    if (!in || !baseline) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    auto result = report::run_gate(metrics, *baseline);
    if (!result.ok()) {
      std::fprintf(stderr, "gate error: %s\n", result.error().c_str());
      return 1;
    }
    gate = std::move(result).take();
    gate_ptr = &gate;
    std::printf("\n%s", gate.render().c_str());
  }

  if (!bench_out.empty()) {
    std::ofstream out(bench_out, std::ios::binary);
    out << report::bench_record(metrics, gate_ptr, pr_number).dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", bench_out.c_str());
      return 1;
    }
  }
  if (!profile_table_out.empty() &&
      !write_file(profile_table_out, profile.render_table())) {
    return 1;
  }
  if (!folded_out.empty() && !write_file(folded_out, profile.folded_stacks())) {
    return 1;
  }
  if (!svg_out.empty() &&
      !write_file(svg_out, obs::render_flamegraph_svg(
                               profile.flame, "parallel matrix, profiled leg"))) {
    return 1;
  }
  if (!timeseries_out.empty() && !write_file(timeseries_out, sampled_stream)) {
    return 1;
  }
  if (!mem_folded_out.empty() || !mem_svg_out.empty()) {
    const obs::Profile mem_profile = obs::build_profile(mem_spans);
    if (!mem_folded_out.empty() &&
        !write_file(mem_folded_out,
                    mem_profile.folded_stacks(obs::FlameWeight::kAllocBytes))) {
      return 1;
    }
    if (!mem_svg_out.empty() &&
        !write_file(mem_svg_out,
                    obs::render_flamegraph_svg(
                        mem_profile.flame, "parallel matrix, allocated bytes",
                        obs::FlameWeight::kAllocBytes))) {
      return 1;
    }
  }
  return gate_ptr == nullptr || gate.pass ? 0 : 1;
}
