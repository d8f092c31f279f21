// Fleet-scale gate for the procedural generator (5 sites -> 500): the
// 500x100 site/workload matrix must generate reproducibly, survey under
// a CPU-time ceiling, aggregate without quadratic blowup, and stay
// byte-deterministic — and the rolling-upgrade drift legs must show the
// caches re-verifying drifted sites instead of serving stale scans.
//
// Legs:
//   1. Reproducibility — generate the big fleet twice from (spec, seed);
//      the feam.fleet_manifest/1 dumps must be byte-identical.
//   2. Big matrix — run the full survey (drift on) and time it; gates a
//      pairs-per-CPU-second floor and a CPU ceiling. CPU time, not wall:
//      wall minima swing on a shared runner while CPU stays stable, and
//      a CPU ceiling is meaningful on any core count.
//   3. Aggregation — feed all 50k records through the report pipeline and
//      time aggregate+render; the ceiling fails fast if aggregation ever
//      goes quadratic in the record count.
//   4. Determinism — a fresh fleet from the same (spec, seed), surveyed
//      at a different job count, must reproduce the record stream byte
//      for byte (drift included: rounds land at barriers between surveys).
//   5. Drift sweep — the medium fleet at drift rates 0 / 0.25 / 1.0,
//      each run cached and uncached on identical twin fleets. Byte
//      equality of the two record streams at every rate is the
//      stale-serving proof: a drifted site's fingerprint moved, so every
//      EDC memo entry for it re-verified. EDC/BDC hit rates are recorded
//      per rate and floored at drift 0 (hot) and 1.0 (still warm — only
//      drifted sites re-scan).
//   6. Provenance — diff the drift-0.25 medium run against its frozen
//      (drift-0) twin with the drift log attached: every verdict flip
//      must be attributable to a drift op (unattributed == 0), and the
//      serialized provenance sections must stay within a bounded
//      record-size overhead versus the provenance-stripped stream.
//   7. Memory — the process peak RSS over all legs, gated by a ceiling.
//
// Every leg's condition is a pin or bound in bench/fleet_baseline.json,
// and --baseline decides the exit status: 1 when the gate fails. Without
// --baseline the bench prints its legs and exits 0, like every other
// bench binary.
//
// Flags:
//   --sites N / --workloads N   big-leg fleet shape (default 500x100)
//   --medium-sites N / --medium-workloads N   drift-sweep shape (50x20)
//   --seed N          master seed (default 42)
//   --jobs N          survey worker threads for the big leg (default 8)
//   --bench-out F     write the feam.bench/1 record to F
//   --baseline F      gate against a feam.report_baseline/1 file; the
//                     gate's verdict is the exit status
//   --pr N            PR number stamped into the bench record (default 10)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "eval/fleet.hpp"
#include "fleet/drift.hpp"
#include "fleet/generate.hpp"
#include "fleet/manifest.hpp"
#include "fleet/spec.hpp"
#include "obs/memory.hpp"
#include "report/aggregate.hpp"
#include "report/diff.hpp"
#include "report/gate.hpp"
#include "support/json.hpp"

using namespace feam;

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Process CPU time, all threads, in ms (same discipline as the
// parallel_matrix overhead gates: ceilings compare CPU, wall is context).
double process_cpu_ms() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  int sites = 500;
  int workloads = 100;
  int medium_sites = 50;
  int medium_workloads = 20;
  int jobs = 8;
  int pr_number = 10;
  std::uint64_t seed = 42;
  std::string bench_out;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--sites" && i + 1 < argc) sites = std::atoi(argv[++i]);
    else if (flag == "--workloads" && i + 1 < argc) workloads = std::atoi(argv[++i]);
    else if (flag == "--medium-sites" && i + 1 < argc) medium_sites = std::atoi(argv[++i]);
    else if (flag == "--medium-workloads" && i + 1 < argc) medium_workloads = std::atoi(argv[++i]);
    else if (flag == "--jobs" && i + 1 < argc) jobs = std::atoi(argv[++i]);
    else if (flag == "--seed" && i + 1 < argc) seed = std::strtoull(argv[++i], nullptr, 10);
    else if (flag == "--bench-out" && i + 1 < argc) bench_out = argv[++i];
    else if (flag == "--baseline" && i + 1 < argc) baseline_path = argv[++i];
    else if (flag == "--pr" && i + 1 < argc) pr_number = std::atoi(argv[++i]);
    else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 1;
    }
  }
  if (sites < 2) sites = 2;
  if (workloads < 1) workloads = 1;
  if (jobs < 1) jobs = 1;

  fleet::FleetSpec big_spec;
  big_spec.name = "bigfleet";
  big_spec.sites = sites;
  big_spec.workloads = workloads;
  big_spec.drift_rate = 0.25;

  // Leg 1 — reproducibility: the manifest is a pure function of
  // (spec, seed). Generation is timed so site-provisioning regressions
  // show up here rather than polluting the survey leg.
  const auto g0 = std::chrono::steady_clock::now();
  fleet::Fleet first = fleet::generate_fleet(big_spec, seed);
  const auto g1 = std::chrono::steady_clock::now();
  const double generate_ms = elapsed_ms(g0, g1);
  const std::string manifest_dump = fleet::fleet_manifest(first).dump(2);
  const bool manifest_identical = [&] {
    const fleet::Fleet twin = fleet::generate_fleet(big_spec, seed);
    return fleet::fleet_manifest(twin).dump(2) == manifest_dump;
  }();

  // Leg 2 — the big matrix, drift on, timed in CPU and wall.
  eval::FleetRunOptions run_options;
  run_options.jobs = jobs;
  const double cpu0 = process_cpu_ms();
  const auto t0 = std::chrono::steady_clock::now();
  const eval::FleetRunResult big = eval::run_fleet(first, run_options);
  const auto t1 = std::chrono::steady_clock::now();
  const double run_ms = elapsed_ms(t0, t1);
  const double run_cpu_ms = process_cpu_ms() - cpu0;
  const std::string big_records = big.records_jsonl();
  const double pairs_per_cpu_sec =
      run_cpu_ms > 0.0
          ? static_cast<double>(big.pairs()) / (run_cpu_ms / 1e3)
          : 0.0;

  // Leg 3 — aggregation at 50k records: linear or bust. The ceiling is
  // per-record CPU, so it fails fast on quadratic behaviour at any scale.
  std::vector<report::RunRecord> to_aggregate = big.records;
  const double acpu0 = process_cpu_ms();
  const report::Aggregate aggregate =
      report::aggregate_records(std::move(to_aggregate));
  const std::string matrix = report::render_readiness_matrix(aggregate);
  const double aggregate_cpu_ms = process_cpu_ms() - acpu0;
  const double aggregate_us_per_record =
      big.pairs() > 0
          ? aggregate_cpu_ms * 1e3 / static_cast<double>(big.pairs())
          : 0.0;

  // Leg 4 — determinism: twin fleet, different job count, byte-equal
  // records. (Drift is on: its schedule is a function of the fleet, not
  // of the survey's thread count.)
  const bool records_identical = [&] {
    fleet::Fleet twin = fleet::generate_fleet(big_spec, seed);
    eval::FleetRunOptions twin_options;
    twin_options.jobs = jobs > 1 ? 1 : 4;
    return eval::run_fleet(twin, twin_options).records_jsonl() == big_records;
  }();

  std::printf("Fleet matrix: %d sites x %d workloads (seed %llu)\n", sites,
              workloads, static_cast<unsigned long long>(seed));
  std::printf("  generate: %9.1f ms (%s)\n", generate_ms,
              manifest_identical ? "manifest reproducible"
                                 : "MANIFEST MISMATCH");
  std::printf("  survey (jobs=%d, drift %.2f): %9.1f ms wall, %9.1f ms cpu "
              "(%.0f pairs/cpu-s)\n",
              jobs, big_spec.drift_rate, run_ms, run_cpu_ms,
              pairs_per_cpu_sec);
  std::printf("  %zu pairs: %zu ready, %zu compile failures, %zu drift ops\n",
              big.pairs(), big.ready_pairs, big.compile_failures,
              big.drift_log.size());
  std::printf("  caches: EDC %.1f%% / BDC %.1f%% / resolver %.1f%% hit\n",
              100.0 * big.caches.edc_hit_rate(),
              100.0 * big.caches.bdc_hit_rate(),
              100.0 * big.caches.resolver_hit_rate());
  std::printf("  aggregate+render: %9.1f ms cpu (%.1f us/record)\n",
              aggregate_cpu_ms, aggregate_us_per_record);
  std::printf("  records byte-identical across twin runs: %s\n",
              records_identical ? "yes" : "NO");

  // Leg 5 — drift sweep on the medium fleet: cached vs uncached twins at
  // each rate. Cached/uncached byte equality at a positive drift rate is
  // the stale-serving proof the gate enforces.
  struct DriftLeg {
    double rate = 0.0;
    double edc_hit_rate = 0.0;
    double bdc_hit_rate = 0.0;
    std::size_t drift_ops = 0;
    std::size_t ready_pairs = 0;
    bool identical = false;
  };
  std::vector<DriftLeg> sweep;
  // Leg 6 inputs, captured from the sweep so the provenance diff reuses
  // the drift-0 and drift-0.25 runs instead of surveying twice more.
  std::vector<report::RunRecord> prov_frozen_records;
  std::vector<report::RunRecord> prov_drift_records;
  std::vector<fleet::DriftOp> prov_drift_log;
  for (const double rate : {0.0, 0.25, 1.0}) {
    fleet::FleetSpec medium;
    medium.name = "midfleet";
    medium.sites = medium_sites;
    medium.workloads = medium_workloads;
    medium.drift_rate = rate;

    fleet::Fleet cached_fleet = fleet::generate_fleet(medium, seed);
    eval::FleetRunOptions cached_options;
    cached_options.jobs = jobs;
    const auto cached = eval::run_fleet(cached_fleet, cached_options);

    fleet::Fleet uncached_fleet = fleet::generate_fleet(medium, seed);
    eval::FleetRunOptions uncached_options;
    uncached_options.jobs = jobs;
    uncached_options.use_caches = false;
    const auto uncached = eval::run_fleet(uncached_fleet, uncached_options);

    DriftLeg leg;
    leg.rate = rate;
    leg.edc_hit_rate = cached.caches.edc_hit_rate();
    leg.bdc_hit_rate = cached.caches.bdc_hit_rate();
    leg.drift_ops = cached.drift_log.size();
    leg.ready_pairs = cached.ready_pairs;
    leg.identical = cached.records_jsonl() == uncached.records_jsonl();
    if (rate == 0.0) {
      prov_frozen_records = cached.records;
    } else if (rate == 0.25) {
      prov_drift_records = cached.records;
      prov_drift_log = cached.drift_log;
    }
    sweep.push_back(leg);
    std::printf("Drift %.2f (%dx%d): EDC %.1f%% / BDC %.1f%% hit, %zu ops, "
                "%zu ready, cached==uncached: %s\n",
                rate, medium_sites, medium_workloads,
                100.0 * leg.edc_hit_rate, 100.0 * leg.bdc_hit_rate,
                leg.drift_ops, leg.ready_pairs,
                leg.identical ? "yes" : "NO (STALE SCAN SERVED)");
  }

  // Leg 6 — provenance: diff the drifted medium run against its frozen
  // twin, joining through the serialized drift log (the same JSONL the
  // CLI writes), and measure the record-size cost of carrying evidence.
  const auto drift_entries =
      report::parse_drift_log(fleet::drift_log_jsonl(prov_drift_log));
  const report::DiffResult prov_diff = report::diff_records(
      prov_frozen_records, prov_drift_records, drift_entries);
  std::size_t prov_covered = 0;
  for (const auto& record : prov_drift_records) {
    if (!record.provenance.empty()) ++prov_covered;
  }
  const double prov_with_bytes =
      static_cast<double>(report::records_jsonl(prov_drift_records).size());
  std::vector<report::RunRecord> stripped = prov_drift_records;
  for (auto& record : stripped) record.provenance.clear();
  const double prov_without_bytes =
      static_cast<double>(report::records_jsonl(stripped).size());
  const double prov_overhead =
      prov_without_bytes > 0.0
          ? (prov_with_bytes - prov_without_bytes) / prov_without_bytes
          : 0.0;
  const double prov_coverage =
      prov_drift_records.empty()
          ? 0.0
          : static_cast<double>(prov_covered) /
                static_cast<double>(prov_drift_records.size());
  std::printf("Provenance diff (drift 0.25 vs frozen twin): %zu pairs, "
              "%zu flips, %zu unattributed; evidence overhead %.0f%% "
              "(%.0f -> %.0f bytes), coverage %.0f%%\n",
              prov_diff.pairs_compared, prov_diff.flips.size(),
              prov_diff.unattributed_flips(), 100.0 * prov_overhead,
              prov_without_bytes, prov_with_bytes, 100.0 * prov_coverage);

  std::map<std::string, double> metrics;
  metrics["bench.fleet_sites"] = sites;
  metrics["bench.fleet_workloads"] = workloads;
  metrics["bench.fleet_jobs"] = jobs;
  metrics["bench.fleet_pairs"] = static_cast<double>(big.pairs());
  metrics["bench.fleet_ready_pairs"] = static_cast<double>(big.ready_pairs);
  metrics["bench.fleet_compile_failures"] =
      static_cast<double>(big.compile_failures);
  metrics["bench.fleet_drift_ops"] = static_cast<double>(big.drift_log.size());
  metrics["bench.fleet_generate_ms"] = generate_ms;
  metrics["bench.fleet_run_ms"] = run_ms;
  metrics["bench.fleet_run_cpu_ms"] = run_cpu_ms;
  metrics["bench.fleet_pairs_per_cpu_sec"] = pairs_per_cpu_sec;
  metrics["bench.fleet_aggregate_cpu_ms"] = aggregate_cpu_ms;
  metrics["bench.fleet_aggregate_us_per_record"] = aggregate_us_per_record;
  metrics["bench.fleet_manifest_identical"] = manifest_identical ? 1 : 0;
  metrics["bench.fleet_records_identical"] = records_identical ? 1 : 0;
  metrics["bench.fleet_edc_hit_rate"] = big.caches.edc_hit_rate();
  metrics["bench.fleet_bdc_hit_rate"] = big.caches.bdc_hit_rate();
  metrics["bench.fleet_resolver_hit_rate"] = big.caches.resolver_hit_rate();
  for (const auto& leg : sweep) {
    const std::string tag =
        "drift" + std::to_string(static_cast<int>(leg.rate * 100));
    metrics["bench.fleet_" + tag + "_identical"] = leg.identical ? 1 : 0;
    metrics["bench.fleet_" + tag + "_edc_hit_rate"] = leg.edc_hit_rate;
    metrics["bench.fleet_" + tag + "_bdc_hit_rate"] = leg.bdc_hit_rate;
    metrics["bench.fleet_" + tag + "_ops"] = static_cast<double>(leg.drift_ops);
    metrics["bench.fleet_" + tag + "_ready_pairs"] =
        static_cast<double>(leg.ready_pairs);
  }
  metrics["bench.fleet_prov_pairs"] =
      static_cast<double>(prov_diff.pairs_compared);
  metrics["bench.fleet_prov_flips"] =
      static_cast<double>(prov_diff.flips.size());
  metrics["bench.fleet_prov_unattributed"] =
      static_cast<double>(prov_diff.unattributed_flips());
  metrics["bench.fleet_prov_coverage"] = prov_coverage;
  metrics["bench.fleet_prov_overhead"] = prov_overhead;
  const std::uint64_t peak_rss = obs::read_rss_peak_bytes();
  std::printf("Peak RSS: %.0f MiB\n",
              static_cast<double>(peak_rss) / 1048576.0);
  metrics["bench.fleet_peak_rss_bytes"] = static_cast<double>(peak_rss);

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
    out << report::bench_record(metrics, gate_ptr, pr_number, "fleet matrix")
               .dump(2)
        << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", bench_out.c_str());
      return 1;
    }
  }
  return gate_ptr == nullptr || gate.pass ? 0 : 1;
}
