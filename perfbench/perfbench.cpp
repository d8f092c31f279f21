// The repository benchmark's main program: runs one FEAM workload for a fixed
// measurement window, checks every run's output, and prints one JSON
// document as its last stdout line. run.py builds and invokes it.
//
//   feam_perfbench --workload fleet-frozen|fleet-drift|paper-matrix
//                  --seed N --seconds S --trace 0|1
//                  [--shape full|tiny] [--pins FILE] [--spans-out FILE]
//
// Each run is one batch submitted from this process, as `feam fleet` and
// the Table III bench submit theirs:
//   fleet-*       set-up: generate_fleet, 100 sites x 100 workloads (see
//                 generate()); run: eval::run_fleet at kJobs, then
//                 records_jsonl(). fleet-drift applies drift rate 1.0
//                 between surveys.
//   paper-matrix  set-up: the Table II testbed with fault seed = seed (the
//                 paper's 20130613 for seed 0), and build_test_set(); run:
//                 Experiment::run at kJobs, then to_run_records()
//                 serialized.
//
// --trace 0 makes one untimed warm-up run, then repeats set-up + run over
// whole cycles of the seed's instances (see kFleetsPerSeed) while another
// cycle fits in the window (the first always runs), and prints the
// end-to-end metrics as medians over the runs.
// --trace 1 makes an untraced reference run on the first instance, then
// alternates traced replica runs (replica.hpp) with untraced runs, and
// prints the per-layer metrics of the last traced run. A run whose check
// fails counts all its pairs as failed and is left out of the timings.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/fleet.hpp"
#include "eval/run_records.hpp"
#include "eval/tables.hpp"
#include "fleet/generate.hpp"
#include "obs/metrics.hpp"
#include "replica.hpp"
#include "spans.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "toolchain/testbed.hpp"

namespace {

namespace eval = feam::eval;
namespace fleet = feam::fleet;
namespace obs = feam::obs;
namespace report = feam::report;
using feam::support::Json;
using perfbench::now_ns;

// The fleet shape: at least 100 workloads so feam.survey.ms.p90 has ten
// samples beyond it; 100 sites keeps peak RSS near 2.5 GiB.
constexpr int kFleetSites = 100;
constexpr int kFleetWorkloads = 100;

// Every run submits its pairs to a pool of this many workers.
constexpr int kJobs = 4;

enum class Workload { kFleetFrozen, kFleetDrift, kPaper };

struct Options {
  Workload workload = Workload::kFleetFrozen;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;
  std::string pins_path;
  std::string spans_out;
};

// Binary sizes are log-uniform over a 52x range, so the total bytes of 100
// workloads drawn at random swing peak RSS and CPU by 20% between seeds.
// The fleet instead keeps one workload from each size stratum of a pool
// four times larger: every fleet spans NAS-to-SPEC sizes evenly.
constexpr int kWorkloadPool = 4;

// Even so, one fleet's site mix moves its CPU by about 10% and its peak RSS
// by 15% against another seed's fleet. Each fleet-* seed therefore stands
// for kFleetsPerSeed fleets (generator seeds seed * kFleetsPerSeed + k)
// that the timed runs cycle through, so each median covers all of them and
// the peak covers the heaviest. The paper matrix is one fixed test set.
constexpr int kFleetsPerSeed = 8;

int instances(const Options& o) {
  return o.workload == Workload::kPaper ? 1 : kFleetsPerSeed;
}

fleet::Fleet generate(const Options& o, std::uint64_t fleet_seed) {
  fleet::FleetSpec spec;
  spec.name = "perfbench";
  spec.sites = o.tiny ? 10 : kFleetSites;
  const std::size_t keep = o.tiny ? 5 : kFleetWorkloads;
  spec.workloads = static_cast<int>(keep) * kWorkloadPool;
  spec.drift_rate = o.workload == Workload::kFleetDrift ? 1.0 : 0.0;
  fleet::Fleet f = fleet::generate_fleet(spec, fleet_seed);

  std::vector<std::size_t> by_size(f.workloads.size());
  for (std::size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
  std::stable_sort(by_size.begin(), by_size.end(),
                   [&](std::size_t a, std::size_t b) {
                     return f.workloads[a].program.text_size <
                            f.workloads[b].program.text_size;
                   });
  std::vector<std::size_t> picked;
  for (std::size_t k = 0; k < keep; ++k) {
    picked.push_back(by_size[k * kWorkloadPool + kWorkloadPool / 2]);
  }
  std::sort(picked.begin(), picked.end());
  std::vector<feam::workloads::Workload> workloads;
  std::vector<int> build_stack;
  for (const std::size_t i : picked) {
    workloads.push_back(std::move(f.workloads[i]));
    build_stack.push_back(f.build_stack[i]);
  }
  f.workloads = std::move(workloads);
  f.build_stack = std::move(build_stack);
  f.spec.workloads = static_cast<int>(keep);
  return f;
}

// Fault seed 0 turns the testbed's system errors and mpiexec retries off
// (make_testbed), which would be another workload, so --seed 0 runs the
// paper's own fault seed instead.
constexpr std::uint64_t kPaperFaultSeed = 20130613;

// The seed the workload's inputs are made from: the fleet seed, or the
// paper matrix's fault seed.
std::uint64_t workload_seed(const Options& o) {
  if (o.workload == Workload::kPaper && o.seed == 0) return kPaperFaultSeed;
  return o.seed;
}

eval::ExperimentOptions paper_options(const Options& o) {
  eval::ExperimentOptions options;
  options.fault_seed = workload_seed(o);
  options.jobs = kJobs;
  if (o.tiny) options.only_benchmarks = {"is.B", "104.milc"};
  return options;
}

// One set-up workload, consumed by one run.
struct Instance {
  int index = 0;  // which of the seed's instances(o)
  std::optional<fleet::Fleet> fleet;
  std::unique_ptr<eval::Experiment> experiment;
};

Instance set_up(const Options& o, int index) {
  Instance in;
  in.index = index;
  if (o.workload == Workload::kPaper) {
    in.experiment = std::make_unique<eval::Experiment>(paper_options(o));
    in.experiment->build_test_set();
  } else {
    in.fleet.emplace(generate(
        o, o.seed * kFleetsPerSeed + static_cast<std::uint64_t>(index)));
  }
  return in;
}

struct ProcSample {
  double cpu_s = 0;  // user + system, all threads
  double sys_s = 0;
  std::uint64_t minor_faults = 0;
};

ProcSample proc_sample() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {seconds(ru.ru_utime) + seconds(ru.ru_stime), seconds(ru.ru_stime),
          static_cast<std::uint64_t>(ru.ru_minflt)};
}

// VmHWM: the process's resident-set high-water mark, in MiB.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double median(std::vector<double> values) {
  return perfbench::percentile(std::move(values), 0.5);
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

std::string digest(const std::string& records) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(feam::support::fnv1a(records)));
  return buf;
}

// Work a run's loop does that repeats exactly between runs at any job count:
// lookups per memo (hits + misses; the split varies at jobs > 1) and drift
// ops. The traced replica must do the same work as the program.
struct WorkCounts {
  std::map<std::string, std::uint64_t> lookups;
  std::uint64_t drift_ops = 0;

  bool operator==(const WorkCounts&) const = default;
};

WorkCounts fleet_work(const eval::FleetRunResult& r) {
  const eval::FleetCacheStats& c = r.caches;
  return {{{"bdc", c.bdc_hits + c.bdc_misses},
           {"edc", c.edc_hits + c.edc_misses},
           {"resolver", c.resolver_hits + c.resolver_misses}},
          r.drift_log.size()};
}

WorkCounts paper_work(const eval::Experiment& ex) {
  const feam::MigrationCaches& c = *ex.caches();
  const feam::binutils::ResolverCache& r = c.resolver;
  return {{{"bdc", c.bdc.hits() + c.bdc.misses()},
           {"edc", c.edc.hits() + c.edc.misses()},
           {"resolver_search", r.search_hits() + r.search_misses()},
           {"resolver_ldd", r.ldd_hits() + r.ldd_misses()},
           {"resolver_parse", r.parse_hits() + r.parse_misses()},
           {"source", ex.source_phase_hits() + ex.source_phase_misses()}},
          0};
}

// The replica's counts under `program`'s keys; "resolver" is the sum of the
// resolver's three memos, as FleetCacheStats reports it.
WorkCounts replica_work(const perfbench::ReplicaResult& r,
                        const WorkCounts& program) {
  const auto lookups = [&](const std::string& memo) -> std::uint64_t {
    const auto it = r.memos.find(memo);
    return it == r.memos.end() ? 0 : it->second.hits + it->second.misses;
  };
  WorkCounts out;
  for (const auto& [memo, count] : program.lookups) {
    out.lookups[memo] = memo == "resolver" ? lookups("resolver_search") +
                                                 lookups("resolver_ldd") +
                                                 lookups("resolver_parse")
                                           : lookups(memo);
  }
  out.drift_ops = r.drift_ops;
  return out;
}

std::string describe(const WorkCounts& w) {
  std::string out;
  for (const auto& [memo, count] : w.lookups) {
    out += memo + "=" + std::to_string(count) + " ";
  }
  return out + "drift_ops=" + std::to_string(w.drift_ops);
}

// What one run produced and what its check found.
struct RunOutput {
  std::string records;  // feam.run_record/1 JSONL, the byte-identity witness
  WorkCounts work;
  std::size_t pairs = 0;
  std::size_t failed = 0;
  double wall_s = 0;
  ProcSample usage;  // run-phase deltas
  Json facts = Json(Json::Object{});
  std::vector<std::string> problems;

  void fail_all(std::string why) {
    problems.push_back(std::move(why));
    failed = pairs;
  }
};

// Complete matrix in fleet order, one verdict per pair.
void check_fleet(const std::vector<report::RunRecord>& records,
                 const fleet::Fleet& f, RunOutput& out) {
  const std::size_t sites = f.sites.size();
  out.pairs = sites * f.workloads.size();
  if (records.size() != out.pairs) {
    out.fail_all("matrix has " + std::to_string(records.size()) +
                 " records, expected " + std::to_string(out.pairs));
    return;
  }
  std::size_t ready = 0;
  for (std::size_t w = 0; w < f.workloads.size(); ++w) {
    for (std::size_t i = 0; i < sites; ++i) {
      const report::RunRecord& r = records[w * sites + i];
      const bool in_place = r.binary == f.workloads[w].program.name &&
                            r.target_site == f.sites[i]->name;
      if (!in_place || !r.has_prediction || r.exit_code != 0) ++out.failed;
      if (r.ready) ++ready;
    }
  }
  out.facts.set("pairs", out.pairs);
  out.facts.set("ready_pairs", ready);
}

// Every test binary against every other site with its MPI implementation,
// each pair once, none attributed to an io or parse failure.
void check_paper(eval::Experiment& ex, RunOutput& out) {
  std::set<std::tuple<std::string, std::string, std::string>> expected;
  for (const auto& binary : ex.test_set()) {
    for (const auto& name : feam::toolchain::testbed_site_names()) {
      if (name == binary.home_site) continue;
      const auto& stacks = ex.site(name).stacks;
      if (std::any_of(stacks.begin(), stacks.end(), [&](const auto& s) {
            return s.impl == binary.stack.impl;
          })) {
        expected.emplace(
            binary.workload.program.name + "." + binary.stack.slug(),
            binary.home_site, name);
      }
    }
  }
  out.pairs = expected.size();
  const auto& results = ex.results();
  if (results.size() != expected.size()) {
    out.fail_all("matrix has " + std::to_string(results.size()) +
                 " migrations, expected " + std::to_string(expected.size()));
    return;
  }
  for (const auto& r : results) {
    const bool found =
        expected.erase({r.binary_name, r.home_site, r.target_site}) == 1;
    if (!found || !r.failure_attribution.empty()) ++out.failed;
  }
  const eval::Table3 t3 = eval::compute_table3(results);
  const auto cell = [](const eval::AccuracyCell& c) {
    return Json(Json::Array{Json(c.correct), Json(c.total)});
  };
  out.facts.set("pairs", out.pairs);
  out.facts.set("basic_nas", cell(t3.basic_nas));
  out.facts.set("extended_nas", cell(t3.extended_nas));
  out.facts.set("basic_spec", cell(t3.basic_spec));
  out.facts.set("extended_spec", cell(t3.extended_spec));
  out.facts.set("mpi_matching_always_correct",
                ex.mpi_matching_always_correct());
}

// At a workload's committed seed and full shape, every pinned fact of the
// instance must match: the record-stream digest and the verdict counts.
void check_pins(const Options& o, const Json& pins, int index,
                RunOutput& out) {
  out.facts.set("digest", digest(out.records));
  const Json& pin = pins[o.workload_name];
  if (o.tiny || !pin.is_object() ||
      pin.get_int("seed", -1) != static_cast<std::int64_t>(workload_seed(o))) {
    return;
  }
  const Json::Array& pinned = pin["instances"].as_array();
  if (static_cast<std::size_t>(index) >= pinned.size()) {
    out.fail_all("no pins for instance " + std::to_string(index));
    return;
  }
  for (const auto& [key, value] : pinned[index].as_object()) {
    if (out.facts[key].dump() != value.dump()) {
      out.fail_all("pinned " + key + " is " + value.dump() + ", run gave " +
                   out.facts[key].dump());
    }
  }
}

RunOutput run_untraced(Instance& in, const Options& o, const Json& pins) {
  RunOutput out;
  const ProcSample before = proc_sample();
  const std::uint64_t start = now_ns();
  const auto stop = [&] {
    out.wall_s = static_cast<double>(now_ns() - start) / 1e9;
    const ProcSample after = proc_sample();
    out.usage = {after.cpu_s - before.cpu_s, after.sys_s - before.sys_s,
                 after.minor_faults - before.minor_faults};
  };
  if (in.fleet) {
    eval::FleetRunOptions run_options;
    run_options.jobs = kJobs;
    const eval::FleetRunResult result = eval::run_fleet(*in.fleet, run_options);
    out.records = result.records_jsonl();
    stop();
    out.work = fleet_work(result);
    check_fleet(result.records, *in.fleet, out);
  } else {
    in.experiment->run();
    for (const auto& record : eval::to_run_records(in.experiment->results())) {
      out.records += record.to_json().dump();
      out.records += '\n';
    }
    stop();
    out.work = paper_work(*in.experiment);
    check_paper(*in.experiment, out);
  }
  check_pins(o, pins, in.index, out);
  return out;
}

struct TracedRun {
  std::unique_ptr<perfbench::Tracer> tracer;
  perfbench::ReplicaResult replica;
  perfbench::TraceSummary summary;
  double wall_s = 0;
};

TracedRun run_traced(Instance& in, const Options& o) {
  TracedRun out;
  out.tracer = std::make_unique<perfbench::Tracer>();
  const std::uint64_t start = now_ns();
  out.replica =
      in.fleet ? perfbench::traced_fleet(*in.fleet, kJobs, *out.tracer)
               : perfbench::traced_paper(*in.experiment, paper_options(o),
                                         *out.tracer);
  const std::uint64_t end = now_ns();
  out.wall_s = static_cast<double>(end - start) / 1e9;
  out.summary = perfbench::summarize(*out.tracer, start, end, kJobs,
                                     in.fleet ? in.fleet->sites.size() : 0);
  return out;
}

// Totals over every checked run of the invocation.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void add(const RunOutput& run) {
    attempted += run.pairs;
    failed += run.failed;
    problems.insert(problems.end(), run.problems.begin(), run.problems.end());
  }
};

void put(Json& metrics, const std::string& name, double value,
         const char* unit) {
  Json::Object m;
  m.emplace("value", Json(value));
  m.emplace("unit", Json(unit));
  metrics.set(name, Json(std::move(m)));
}

Json end_to_end(const Options& o, const Json& pins, Tally& tally,
                Json& info) {
  {
    // Warm-up: the first run in a fresh process pays page-fault and clock
    // ramp costs later runs do not; it is checked but not timed.
    Instance in = set_up(o, 0);
    tally.add(run_untraced(in, o, pins));
  }
  // Whole cycles over the seed's instances, so each weighs the same. The
  // first cycle always runs; another starts only if one as long as the last
  // still fits in the window.
  std::vector<double> setup_s, pairs_per_s, cpu_s, sys_s;
  Json::Array facts(static_cast<std::size_t>(instances(o)));
  const std::uint64_t window = now_ns();
  for (bool more = true; more;) {
    const std::uint64_t cycle = now_ns();
    for (int index = 0; index < instances(o); ++index) {
      const std::uint64_t t0 = now_ns();
      Instance in = set_up(o, index);
      const double setup = seconds_since(t0);
      const RunOutput run = run_untraced(in, o, pins);
      tally.add(run);
      facts[static_cast<std::size_t>(index)] = run.facts;
      if (run.failed != 0) continue;
      setup_s.push_back(setup);
      pairs_per_s.push_back(static_cast<double>(run.pairs) / run.wall_s);
      cpu_s.push_back(run.usage.cpu_s);
      sys_s.push_back(run.usage.sys_s);
    }
    more = seconds_since(window) + seconds_since(cycle) <= o.seconds;
  }
  info.set("window_s", seconds_since(window));

  Json metrics(Json::Object{});
  put(metrics, "pairs_per_s", median(pairs_per_s), "pairs/s");
  put(metrics, "cpu_s", median(cpu_s), "s");
  put(metrics, "peak_rss_mb", peak_rss_mib(), "MiB");
  put(metrics, "setup_s", median(setup_s), "s");
  const auto samples = [](const std::vector<double>& v) {
    Json::Array a;
    for (double x : v) a.emplace_back(x);
    return Json(std::move(a));
  };
  info.set("timed_runs", setup_s.size());
  info.set("setup_s", samples(setup_s));
  info.set("pairs_per_s", samples(pairs_per_s));
  info.set("cpu_s", samples(cpu_s));
  info.set("sys_s", samples(sys_s));
  info.set("facts", Json(std::move(facts)));
  return metrics;
}

Json per_layer(const Options& o, const Json& pins, Tally& tally, Json& info) {
  // The reference run doubles as the warm-up. The cache footprint gauges
  // are the program's own accounting, so they are read around an untraced
  // run (the replica's source memo does not feed them).
  const char* kGauges[] = {"resolver.parse", "bdc", "source"};
  std::string reference;
  WorkCounts reference_work;
  std::size_t pairs = 0;
  double gauge_mib[3] = {0, 0, 0};
  {
    Instance in = set_up(o, 0);
    for (const char* cache : kGauges) {
      obs::gauge("cache.bytes", {.cache = cache}).reset();
    }
    RunOutput run = run_untraced(in, o, pins);
    for (int i = 0; i < 3; ++i) {
      gauge_mib[i] = static_cast<double>(
                         obs::gauge("cache.bytes", {.cache = kGauges[i]})
                             .peak()) /
                     (1024.0 * 1024.0);
    }
    tally.add(run);
    info.set("facts", Json(Json::Array{run.facts}));
    pairs = run.pairs;
    reference = std::move(run.records);
    reference_work = run.work;
  }

  // Traced and untraced runs alternate so both see the same machine state;
  // the overhead compares their medians. The traced replica must give the
  // untraced record stream and do the same memo lookups and drift ops. As
  // in end_to_end, a round starts only if one as long as the last fits.
  std::vector<double> traced_s, untraced_s;
  TracedRun traced;
  ProcSample untraced_usage;
  const std::uint64_t window = now_ns();
  for (bool more = true; more;) {
    const std::uint64_t round = now_ns();
    {
      Instance in = set_up(o, 0);
      traced = run_traced(in, o);
      RunOutput check;
      check.pairs = pairs;
      if (traced.replica.records_jsonl != reference) {
        check.fail_all("traced record stream differs from the untraced run");
      }
      const WorkCounts work = replica_work(traced.replica, reference_work);
      if (work != reference_work) {
        check.fail_all("traced replica did " + describe(work) +
                       ", the program " + describe(reference_work));
      }
      tally.add(check);
      if (check.failed == 0) traced_s.push_back(traced.wall_s);
    }
    {
      Instance in = set_up(o, 0);
      RunOutput run = run_untraced(in, o, pins);
      if (run.records != reference) {
        run.fail_all("untraced record stream differs between runs");
      }
      if (run.work != reference_work) {
        run.fail_all("untraced runs did " + describe(run.work) + " and " +
                     describe(reference_work));
      }
      tally.add(run);
      if (run.failed == 0) {
        untraced_s.push_back(run.wall_s);
        untraced_usage = run.usage;
      }
    }
    more = seconds_since(window) + seconds_since(round) <= o.seconds;
  }
  info.set("window_s", seconds_since(window));

  const perfbench::TraceSummary& sum = traced.summary;
  const double busy =
      static_cast<double>(std::max<std::uint64_t>(1, sum.busy_ns));
  const double wall_ns = traced.wall_s * 1e9;
  Json metrics(Json::Object{});
  for (std::size_t i = 0; i < perfbench::kLayerNames.size(); ++i) {
    const std::string name = perfbench::kLayerNames[i];
    const auto& layer = sum.layers[i];
    put(metrics, name + ".calls", static_cast<double>(layer.calls), "count");
    put(metrics, name + ".self_ms", static_cast<double>(layer.self_ns) / 1e6,
        "ms");
    put(metrics, name + ".share", static_cast<double>(layer.self_ns) / busy,
        "share");
  }
  put(metrics, "eval.pair.us.p50", perfbench::percentile(sum.pair_us, 0.50),
      "us");
  put(metrics, "eval.pair.us.p99", perfbench::percentile(sum.pair_us, 0.99),
      "us");
  put(metrics, "feam.survey.ms.p50",
      perfbench::percentile(sum.survey_ms, 0.50), "ms");
  put(metrics, "feam.survey.ms.p90",
      perfbench::percentile(sum.survey_ms, 0.90), "ms");
  put(metrics, "feam.survey.tail_ms",
      static_cast<double>(sum.survey_tail_ns) / 1e6, "ms");
  put(metrics, "pool.busy_share",
      static_cast<double>(sum.pair_busy_ns) / (kJobs * wall_ns), "share");
  put(metrics, "fleet.drift.ops",
      static_cast<double>(traced.replica.drift_ops), "count");
  for (const auto& [memo, counts] : traced.replica.memos) {
    const double lookups = static_cast<double>(counts.hits + counts.misses);
    put(metrics, "cache." + memo + ".hit_rate",
        lookups > 0 ? static_cast<double>(counts.hits) / lookups : 0.0,
        "share");
    put(metrics, "cache." + memo + ".lookups", lookups, "count");
  }
  put(metrics, "cache.bytes.resolver_parse_mb", gauge_mib[0], "MiB");
  put(metrics, "cache.bytes.bdc_mb", gauge_mib[1], "MiB");
  put(metrics, "cache.bytes.source_mb", gauge_mib[2], "MiB");
  put(metrics, "proc.sys_s", untraced_usage.sys_s, "s");
  put(metrics, "proc.minor_faults",
      static_cast<double>(untraced_usage.minor_faults), "count");
  put(metrics, "trace.unaccounted_share",
      1.0 - static_cast<double>(sum.covered_ns) / wall_ns, "share");
  // No ratio when every run of one kind failed its check (correct is false).
  put(metrics, "trace.overhead",
      traced_s.empty() || untraced_s.empty()
          ? 0.0
          : median(traced_s) / median(untraced_s) - 1.0,
      "share");

  Json::Array traced_samples, untraced_samples;
  for (double x : traced_s) traced_samples.emplace_back(x);
  for (double x : untraced_s) untraced_samples.emplace_back(x);
  info.set("traced_run_s", Json(std::move(traced_samples)));
  info.set("untraced_run_s", Json(std::move(untraced_samples)));
  if (!o.spans_out.empty() && !traced.tracer->write_jsonl(o.spans_out)) {
    tally.problems.push_back("cannot write " + o.spans_out);
  }
  return metrics;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "feam_perfbench: %s\n"
               "usage: feam_perfbench --workload fleet-frozen|fleet-drift|"
               "paper-matrix --seed N --seconds S --trace 0|1\n"
               "         [--shape full|tiny] [--pins FILE] [--spans-out FILE]\n",
               why);
  std::exit(64);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = true;
      o.workload_name = value;
      if (value == "fleet-frozen") o.workload = Workload::kFleetFrozen;
      else if (value == "fleet-drift") o.workload = Workload::kFleetDrift;
      else if (value == "paper-matrix") o.workload = Workload::kPaper;
      else usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      have_seed = true;
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      have_seconds = true;
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) usage("--seconds takes a number > 0");
    } else if (flag == "--trace") {
      have_trace = true;
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--shape") {
      if (value != "full" && value != "tiny") usage("--shape takes full or tiny");
      o.tiny = value == "tiny";
    } else if (flag == "--pins") {
      o.pins_path = value;
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  Json pins(Json::Object{});
  if (!o.pins_path.empty()) {
    std::ifstream in(o.pins_path);
    std::stringstream text;
    text << in.rdbuf();
    auto parsed = Json::parse(text.str());
    if (!in || !parsed || !parsed->is_object()) {
      std::fprintf(stderr, "feam_perfbench: cannot read pins %s\n",
                   o.pins_path.c_str());
      return 1;
    }
    pins = std::move(*parsed);
  }

  Tally tally;
  Json info(Json::Object{});
  Json metrics = o.trace ? per_layer(o, pins, tally, info)
                         : end_to_end(o, pins, tally, info);

  info.set("workload", o.workload_name);
  info.set("seed", std::to_string(o.seed));
  info.set("shape", o.tiny ? "tiny" : "full");
  info.set("jobs", kJobs);
  info.set("compiler", PERFBENCH_COMPILER);
  info.set("build_type", PERFBENCH_BUILD_TYPE);
  info.set("failed_share", tally.attempted == 0
                               ? 1.0
                               : static_cast<double>(tally.failed) /
                                     static_cast<double>(tally.attempted));
  Json::Array problems;
  for (const auto& p : tally.problems) problems.emplace_back(p);
  info.set("problems", Json(std::move(problems)));

  Json result(Json::Object{});
  result.set("correct", tally.failed == 0 && tally.problems.empty() &&
                            tally.attempted > 0);
  result.set("attempted", tally.attempted);
  result.set("failed", tally.failed);
  result.set("metrics", std::move(metrics));
  result.set("info", std::move(info));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
