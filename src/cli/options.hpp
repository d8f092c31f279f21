// Command-line parsing for the `feam` tool. Kept separate from main() so
// the grammar is unit-testable.
//
// Subcommands:
//   feam list-sites
//   feam compile --site S --stack IMPL/VER-COMPILER --program NAME
//                [--language c|c++|fortran] [--static] -o HOSTPATH
//   feam source  --site S --stack IMPL/VER-COMPILER --binary HOSTPATH
//                -o BUNDLE.feambundle
//   feam target  --site S --binary HOSTPATH [--bundle BUNDLE.feambundle]
//                [--script HOSTPATH] [--report HOSTPATH]
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace feam::cli {

enum class Command {
  kListSites, kCompile, kSource, kTarget, kSurvey, kExec, kFleet, kReport,
  kExplain, kDiff, kProfile, kTop, kHelp
};

struct Options {
  Command command = Command::kHelp;
  std::string site;
  std::string site_file;  // JSON site spec (alternative to --site)
  std::string stack;     // module-style id, e.g. "openmpi/1.4-gnu"
  std::string program;   // workload name or free-form
  std::string language = "c";
  bool static_link = false;
  std::string binary;    // host path of a binary (input)
  std::string bundle;    // host path of a bundle archive (input)
  std::string output;    // host path (output)
  std::string script;    // host path to write the configuration script to
  std::string report;    // host path to write the full report to
  // Observability (accepted by every command):
  std::string log_level = "none";  // debug|info|warn|error|none
  std::string trace_out;    // host path for a Chrome trace_event JSON file
  std::string metrics_out;  // host path for a metrics JSON file
  std::string events_out;   // host path for a JSONL event-log file
  std::string run_record_out;  // host path for a feam.run_record/1 JSON file
  std::string timeseries_out;  // host path for a feam.timeseries/1 JSONL file
  int timeseries_interval_ms = 100;  // sampler period for --timeseries-out
  bool track_alloc = false;  // attribute heap allocations to spans/phases
  // `feam report` (aggregation over a directory of run records):
  std::string report_in;    // directory of *.json run records / *.jsonl logs
  std::string html_out;     // self-contained HTML dashboard output path
  std::string baseline;     // feam.report_baseline/1 file for --gate
  std::string trend_baseline;  // feam.trend_baseline/1 file for --gate
  bool gate = false;        // apply the baseline(s) as a regression gate
  std::string bench_out;    // feam.bench/1 trajectory record output path
  int pr_number = 0;        // --pr N, recorded in the bench output
  // `feam survey` / `feam fleet`: worker threads assessing sites
  // concurrently.
  int jobs = 1;
  // `feam fleet` (procedural site/workload fleet generator):
  std::string fleet_spec;   // feam.fleet_spec/1 JSON file (defaults apply)
  std::uint64_t fleet_seed = 42;  // --seed N, the fleet's master seed
  int fleet_sites = 0;      // --sites N override (0 = use spec)
  int fleet_workloads = 0;  // --workloads N override (0 = use spec)
  std::optional<double> fleet_drift;  // --drift R override
  std::string manifest_out;  // feam.fleet_manifest/1 JSON output path
  std::string matrix_out;    // rendered readiness-matrix text output path
  std::string records_out;   // feam.run_record/1 JSONL output path
  std::string drift_log_out;  // feam.drift_log/1 JSONL output path
  // `feam explain` shares --in (report_in), --binary (binary), --site
  // (site: a record's target site, not a buildable site spec) and -o.
  // `feam diff` (two record streams + optional drift log):
  std::string diff_a;        // --a: feam.run_record/1 JSONL stream A
  std::string diff_b;        // --b: feam.run_record/1 JSONL stream B
  std::string drift_log_in;  // --drift-log: feam.drift_log/1 JSONL to join
  std::string json_out;      // --json-out: feam.diff/1 JSON output path
  // `feam profile` (post-processing one trace/run-record file):
  std::string profile_in;   // --trace-out or --run-record-out file to ingest
  std::string folded_out;   // collapsed-stack flamegraph text output path
  std::string svg_out;      // self-contained flamegraph SVG output path
  bool profile_memory = false;  // weight flamegraph outputs by allocated bytes
  // `feam top` (live view over a growing --timeseries-out file):
  bool top_once = false;    // one machine-readable JSON summary, then exit
  int top_window = 20;      // samples per sliding stats window
  int top_refresh_ms = 500;     // follow-mode poll/redraw period
  int top_idle_timeout_ms = 10000;  // give up after this long with no bytes
};

// Parses argv (excluding argv[0]); on error returns nullopt and fills
// `error` with a message.
std::optional<Options> parse_options(const std::vector<std::string>& args,
                                     std::string& error);

// The --help text.
std::string usage();

}  // namespace feam::cli
