#include "cli/options.hpp"

namespace feam::cli {

std::string usage() {
  return R"(feam — Framework for Efficient Application Migration (simulated testbed)

usage:
  feam list-sites
      List the available computing sites.

  feam compile --site S --stack IMPL/VER-COMPILER --program NAME
               [--language c|c++|fortran] [--static] -o HOSTPATH
      Compile an MPI program at site S and export the binary to the host
      filesystem.

  feam source --site S --stack IMPL/VER-COMPILER --binary HOSTPATH
              -o BUNDLE.feambundle
      Run FEAM's source phase at guaranteed execution environment S for the
      given binary; write the library bundle archive to the host filesystem.

  feam target --site S --binary HOSTPATH [--bundle BUNDLE.feambundle]
              [--script HOSTPATH] [--report HOSTPATH]
      Run FEAM's target phase at site S: predict execution readiness of the
      migrated binary (extended prediction when a bundle is supplied) and
      optionally write the generated configuration script.

  feam survey --binary HOSTPATH [--bundle BUNDLE.feambundle] [--jobs N]
      Assess the migrated binary at every site and print a ranked report.
      --jobs N assesses up to N sites concurrently (default 1); the ranked
      report is identical at any job count.

  feam exec --site S --binary HOSTPATH [--bundle BUNDLE.feambundle]
      Predict, apply FEAM's generated configuration script, and execute the
      migrated binary at site S — the full automated workflow in one step.

  feam fleet [--fleet-spec SPEC.json] [--seed N] [--sites N] [--workloads N]
             [--drift R] [--jobs N] [--manifest-out FILE] [--matrix-out FILE]
             [--records-out FILE] [--drift-log-out FILE]
      Generate a procedural fleet of sites and synthetic workloads from a
      feam.fleet_spec/1 document (defaults apply without --fleet-spec) and
      run the full N-site x M-workload readiness survey over it. --sites,
      --workloads, and --drift override the spec; everything downstream is
      a pure function of (spec, seed): the same inputs reproduce the
      manifest, the records, and the matrix byte for byte at any --jobs.
      --manifest-out writes the feam.fleet_manifest/1 description of the
      generated fleet, --records-out one feam.run_record/1 JSON line per
      (workload, site) pair (ingestible by `feam report` and joinable with
      `feam diff`), --matrix-out the rendered readiness matrix,
      --drift-log-out one feam.drift_log/1 JSON line per applied drift op
      (the attribution input for `feam diff`).

  feam explain --in RECORDS --binary NAME --site NAME [-o FILE]
      Print the causal chain behind one readiness verdict: the
      per-determinant verdicts, then the provenance evidence each rests on
      (TEC verdicts -> resolver walks -> environment probes -> binary
      description), each item with its content stamp. RECORDS is a
      feam.run_record/1 JSONL file (e.g. from `feam fleet --records-out`)
      or a directory of *.json run records; the pair is selected by
      --binary and --site. -o writes the chain to a file instead of
      stdout.

  feam diff --a RECORDS --b RECORDS [--drift-log FILE] [-o FILE]
            [--json-out FILE]
      Join two feam.run_record/1 streams by (binary, target site) and
      report every verdict flip — a readiness or blocking-determinant
      change — with the provenance-evidence delta behind it. With
      --drift-log (a feam.drift_log/1 file from `feam fleet
      --drift-log-out`), each flip is attributed to the drift ops that can
      have caused it (same site, applied before that workload's sweep);
      flips with no candidate op are counted as unattributed. --json-out
      writes the feam.diff/1 document (ingested by `feam report` for the
      churn panel); -o writes the text rendering to a file.

  feam report --in DIR [--html FILE] [--baseline FILE [--gate]]
              [--trend-baseline FILE] [--bench-out FILE] [--pr N]
      Aggregate every *.json run record (written by --run-record-out) and
      *.jsonl event log under DIR: print the readiness matrix with
      per-determinant failure attribution, merged latency percentiles, and
      counter roll-ups. *.jsonl files carrying the feam.timeseries/1 schema
      (written by --timeseries-out) are ingested too: the text report and
      the --html dashboard gain over-run-time charts (cache hit rates,
      phase p99). --html writes a self-contained dashboard. With
      --baseline and --gate, flattened metrics are diffed against the
      per-metric tolerances in FILE and the command exits 2 on regression;
      --trend-baseline FILE additionally compares the early and late
      steady-state windows of the ingested timeseries (feam.trend_baseline/1
      schema) so slow drift over a run fails the gate even when end-of-run
      totals look healthy. --bench-out records the measured metrics, trend
      metrics, and gate outcome.

  feam profile --in FILE [--folded FILE] [--svg FILE] [--memory]
      Post-process one trace (--trace-out Chrome JSON) or run record
      (--run-record-out JSON) into a deterministic profile: self vs. total
      time per span name, per-thread utilization, and the critical path
      through a parallel run (longest chain of time-contained spans across
      workers). Prints the profile table; --folded writes collapsed-stack
      flamegraph text (flamegraph.pl compatible), --svg a self-contained
      flamegraph. With --memory the folded/SVG outputs are weighted by
      self-allocated bytes instead of self time (requires an input
      recorded with --track-alloc). The same input file always produces
      byte-identical output.

  feam top --in FILE [--once] [--window N] [--refresh MS] [--idle-timeout MS]
      Live view over a feam.timeseries/1 file (--timeseries-out) while the
      writing command is still running: tails the file as it grows and
      redraws throughput, windowed p50/p99 per phase, per-cache hit rates,
      a lease-wait sparkline, and worker utilization every --refresh ms
      (default 500) over a sliding window of --window samples (default 20).
      Exits when the stream's final sample arrives or after --idle-timeout
      ms (default 10000) without new bytes. --once reads what is there now,
      prints one machine-readable JSON summary, and exits. Streams that
      carry gauge samples (recorded this side of the gauge schema
      addition) gain a memory panel: an RSS sparkline, per-cache footprint
      bars, and — when the writer ran with --track-alloc — the top
      allocating phases.

  Every command taking --site also accepts --site-file SPEC.json: a
  user-defined site description (see toolchain/site_spec.hpp for the
  schema), built and provisioned on the fly.

  Observability flags, accepted by every command:
    --log-level LEVEL     Echo structured events at or above LEVEL to
                          stderr (debug|info|warn|error|none; default none).
    --trace-out FILE      Write a Chrome trace_event JSON file (load in
                          about:tracing or Perfetto) with one span per FEAM
                          phase, determinant check, and toolchain step.
    --metrics-out FILE    Write counters and latency histograms as JSON.
    --events-out FILE     Write structured events as JSONL (one JSON object
                          per line), ingestible by `feam report`.
    --run-record-out FILE Write a feam.run_record/1 JSON record of this
                          command (site pair, per-determinant verdicts,
                          span durations, counters, histogram summaries)
                          for later aggregation by `feam report`.
    --timeseries-out FILE Sample every counter and histogram periodically
                          while the command runs and append one JSONL
                          delta line per interval (feam.timeseries/1).
                          Watch live with `feam top --in FILE`; ingest
                          with `feam report`.
    --timeseries-interval MS
                          Sampling period for --timeseries-out in
                          milliseconds; must be >= 1 (default 100).
    --track-alloc         Attribute heap allocations to the innermost
                          active span: spans and phases gain
                          alloc_bytes/alloc_count in traces, run records,
                          and metrics; `feam profile --memory` turns them
                          into an allocation flamegraph. No-op when the
                          build disabled FEAM_TRACK_ALLOC.
)";
}

namespace {

// All of `text` as an int >= 1; nullopt for every failure mode
// (non-numeric, trailing garbage, out of range, zero, negative), which
// callers reject with one message shape naming the flag, the constraint
// and the value passed.
std::optional<int> positive_int(const std::string& text) {
  int parsed = 0;
  std::size_t consumed = 0;
  try {
    parsed = std::stoi(text, &consumed);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (consumed != text.size() || parsed < 1) return std::nullopt;
  return parsed;
}

}  // namespace

std::optional<Options> parse_options(const std::vector<std::string>& args,
                                     std::string& error) {
  Options opts;
  if (args.empty()) {
    error = "no command given";
    return std::nullopt;
  }
  const std::string& command = args[0];
  if (command == "list-sites") {
    opts.command = Command::kListSites;
  } else if (command == "compile") {
    opts.command = Command::kCompile;
  } else if (command == "source") {
    opts.command = Command::kSource;
  } else if (command == "target") {
    opts.command = Command::kTarget;
  } else if (command == "survey") {
    opts.command = Command::kSurvey;
  } else if (command == "exec") {
    opts.command = Command::kExec;
  } else if (command == "fleet") {
    opts.command = Command::kFleet;
  } else if (command == "report") {
    opts.command = Command::kReport;
  } else if (command == "explain") {
    opts.command = Command::kExplain;
  } else if (command == "diff") {
    opts.command = Command::kDiff;
  } else if (command == "profile") {
    opts.command = Command::kProfile;
  } else if (command == "top") {
    opts.command = Command::kTop;
  } else if (command == "--help" || command == "-h" || command == "help") {
    opts.command = Command::kHelp;
    return opts;
  } else {
    error = "unknown command: " + command;
    return std::nullopt;
  }

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) return std::nullopt;
      return args[++i];
    };
    if (flag == "--static") {
      opts.static_link = true;
      continue;
    }
    if (flag == "--gate") {
      opts.gate = true;
      continue;
    }
    if (flag == "--once") {
      opts.top_once = true;
      continue;
    }
    if (flag == "--memory") {
      opts.profile_memory = true;
      continue;
    }
    if (flag == "--track-alloc") {
      opts.track_alloc = true;
      continue;
    }
    const auto v = value();
    if (!v) {
      error = flag + " requires a value";
      return std::nullopt;
    }
    if (flag == "--site") opts.site = *v;
    else if (flag == "--site-file") opts.site_file = *v;
    else if (flag == "--stack") opts.stack = *v;
    else if (flag == "--program") opts.program = *v;
    else if (flag == "--language") opts.language = *v;
    else if (flag == "--binary") opts.binary = *v;
    else if (flag == "--bundle") opts.bundle = *v;
    else if (flag == "-o" || flag == "--output") opts.output = *v;
    else if (flag == "--script") opts.script = *v;
    else if (flag == "--report") opts.report = *v;
    else if (flag == "--log-level") opts.log_level = *v;
    else if (flag == "--trace-out") opts.trace_out = *v;
    else if (flag == "--metrics-out") opts.metrics_out = *v;
    else if (flag == "--events-out") opts.events_out = *v;
    else if (flag == "--run-record-out") opts.run_record_out = *v;
    else if (flag == "--timeseries-out") opts.timeseries_out = *v;
    else if (flag == "--timeseries-interval" || flag == "--window" ||
             flag == "--refresh" || flag == "--idle-timeout") {
      const auto n = positive_int(*v);
      if (!n) {
        const char* unit = flag == "--window" ? "samples" : "milliseconds";
        error = flag + " must be a positive number of " + unit + " (got " +
                *v + ")";
        return std::nullopt;
      }
      if (flag == "--timeseries-interval") opts.timeseries_interval_ms = *n;
      else if (flag == "--window") opts.top_window = *n;
      else if (flag == "--refresh") opts.top_refresh_ms = *n;
      else opts.top_idle_timeout_ms = *n;
    }
    else if (flag == "--fleet-spec") opts.fleet_spec = *v;
    else if (flag == "--manifest-out") opts.manifest_out = *v;
    else if (flag == "--matrix-out") opts.matrix_out = *v;
    else if (flag == "--records-out") opts.records_out = *v;
    else if (flag == "--drift-log-out") opts.drift_log_out = *v;
    else if (flag == "--a") opts.diff_a = *v;
    else if (flag == "--b") opts.diff_b = *v;
    else if (flag == "--drift-log") opts.drift_log_in = *v;
    else if (flag == "--json-out") opts.json_out = *v;
    else if (flag == "--seed") {
      // The master seed is a full 64-bit value; accept anything stoull
      // takes but reject trailing garbage and negatives.
      std::size_t consumed = 0;
      try {
        opts.fleet_seed = std::stoull(*v, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed != v->size() || v->empty() || (*v)[0] == '-') {
        error = "--seed must be an unsigned 64-bit integer (got " + *v + ")";
        return std::nullopt;
      }
    }
    else if (flag == "--sites" || flag == "--workloads" || flag == "--pr" ||
             flag == "--jobs") {
      const auto n = positive_int(*v);
      if (!n) {
        error = flag + " must be a positive integer (got " + *v + ")";
        return std::nullopt;
      }
      if (flag == "--sites") opts.fleet_sites = *n;
      else if (flag == "--workloads") opts.fleet_workloads = *n;
      else if (flag == "--pr") opts.pr_number = *n;
      else opts.jobs = *n;
    }
    else if (flag == "--drift") {
      // Only the syntax is checked here; the range is the fleet spec's
      // (fleet::validate_fleet_spec, applied to the merged spec).
      std::size_t consumed = 0;
      try {
        opts.fleet_drift = std::stod(*v, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed != v->size() || v->empty()) {
        error = "--drift must be a number (got " + *v + ")";
        return std::nullopt;
      }
    }
    else if (flag == "--trend-baseline") opts.trend_baseline = *v;
    else if (flag == "--in") {
      // Shared by `report` (records directory) and `profile` (one file).
      opts.report_in = *v;
      opts.profile_in = *v;
    }
    else if (flag == "--folded") opts.folded_out = *v;
    else if (flag == "--svg") opts.svg_out = *v;
    else if (flag == "--html") opts.html_out = *v;
    else if (flag == "--baseline") opts.baseline = *v;
    else if (flag == "--bench-out") opts.bench_out = *v;
    else {
      error = "unknown flag: " + flag;
      return std::nullopt;
    }
  }

  // Per-command requirements.
  const auto require = [&](bool condition, const char* message) {
    if (!condition && error.empty()) error = message;
    return condition;
  };
  bool ok = true;
  if (opts.log_level != "debug" && opts.log_level != "info" &&
      opts.log_level != "warn" && opts.log_level != "error" &&
      opts.log_level != "none") {
    error = "--log-level must be debug, info, warn, error, or none";
    return std::nullopt;
  }
  switch (opts.command) {
    case Command::kCompile:
      ok = require(!opts.site.empty() || !opts.site_file.empty(),
                   "compile: --site or --site-file is required") &&
           require(!opts.stack.empty(), "compile: --stack is required") &&
           require(!opts.program.empty(), "compile: --program is required") &&
           require(!opts.output.empty(), "compile: -o is required") &&
           require(opts.language == "c" || opts.language == "c++" ||
                       opts.language == "fortran",
                   "compile: --language must be c, c++, or fortran");
      break;
    case Command::kSource:
      ok = require(!opts.site.empty() || !opts.site_file.empty(),
                   "source: --site or --site-file is required") &&
           require(!opts.stack.empty(), "source: --stack is required") &&
           require(!opts.binary.empty(), "source: --binary is required") &&
           require(!opts.output.empty(), "source: -o is required");
      break;
    case Command::kTarget:
      ok = require(!opts.site.empty() || !opts.site_file.empty(),
                   "target: --site or --site-file is required") &&
           require(!opts.binary.empty(), "target: --binary is required");
      break;
    case Command::kSurvey:
      ok = require(!opts.binary.empty(), "survey: --binary is required");
      break;
    case Command::kExec:
      ok = require(!opts.site.empty() || !opts.site_file.empty(),
                   "exec: --site or --site-file is required") &&
           require(!opts.binary.empty(), "exec: --binary is required");
      break;
    case Command::kFleet:
      // Everything is optional: the default spec and seed already name a
      // valid (and deterministic) fleet.
      break;
    case Command::kReport:
      ok = require(!opts.report_in.empty(), "report: --in is required") &&
           require(!opts.gate ||
                       !opts.baseline.empty() || !opts.trend_baseline.empty(),
                   "report: --gate requires --baseline or --trend-baseline");
      break;
    case Command::kExplain:
      ok = require(!opts.report_in.empty(), "explain: --in is required") &&
           require(!opts.binary.empty(), "explain: --binary is required") &&
           require(!opts.site.empty(), "explain: --site is required");
      break;
    case Command::kDiff:
      ok = require(!opts.diff_a.empty(), "diff: --a is required") &&
           require(!opts.diff_b.empty(), "diff: --b is required");
      break;
    case Command::kProfile:
      ok = require(!opts.profile_in.empty(), "profile: --in is required");
      break;
    case Command::kTop:
      ok = require(!opts.profile_in.empty(), "top: --in is required");
      break;
    case Command::kListSites:
    case Command::kHelp:
      break;
  }
  if (!ok) return std::nullopt;
  return opts;
}

}  // namespace feam::cli
