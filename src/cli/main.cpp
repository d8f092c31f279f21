// The `feam` command-line tool: drives FEAM's phases over the simulated
// testbed, importing and exporting binaries and bundle archives through
// the host filesystem — so the full workflow of the paper (compile,
// source phase, copy bundle, target phase) can be walked by hand:
//
//   feam compile --site india --stack openmpi/1.4-gnu --program cg.B
//        --language fortran -o /tmp/cg.B
//   feam source  --site india --stack openmpi/1.4-gnu --binary /tmp/cg.B
//        -o /tmp/cg.B.feambundle
//   feam target  --site fir --binary /tmp/cg.B --bundle /tmp/cg.B.feambundle
//        --script /tmp/run_cg.sh
//   (each command is one line; wrapped here for width)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>

#include "cli/options.hpp"
#include "cli/top.hpp"
#include "eval/fleet.hpp"
#include "feam/bundle_archive.hpp"
#include "fleet/generate.hpp"
#include "fleet/manifest.hpp"
#include "fleet/spec.hpp"
#include "feam/phases.hpp"
#include "feam/report.hpp"
#include "feam/survey.hpp"
#include "obs/export.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "fleet/drift.hpp"
#include "report/aggregate.hpp"
#include "report/diff.hpp"
#include "report/gate.hpp"
#include "report/html.hpp"
#include "report/run_record.hpp"
#include "report/timeseries.hpp"
#include "report/trend.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/shell.hpp"
#include "toolchain/site_spec.hpp"
#include "toolchain/testbed.hpp"

namespace feam::cli {
namespace {

// The whole file at `path`, read straight into support::Bytes (binaries,
// bundle archives) or std::string (specs, records, baselines); nullopt
// when it cannot be opened.
template <typename Buffer>
std::optional<Buffer> read_host_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return Buffer(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
}

bool write_host_file(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

bool write_host_file(const std::string& path, const support::Bytes& data) {
  return write_host_file(
      path, std::string_view(reinterpret_cast<const char*>(data.data()),
                             data.size()));
}

// Applies the observability flags for the whole command and exports the
// trace/metrics/run-record files once the command has run. Construct after
// parsing, call finish() just before exiting.
class ObsSession {
 public:
  explicit ObsSession(const Options& opts)
      : trace_out_(opts.trace_out),
        metrics_out_(opts.metrics_out),
        events_out_(opts.events_out),
        run_record_out_(opts.run_record_out) {
    if (const auto level = obs::parse_level(opts.log_level)) {
      obs::set_log_level(*level);
    }
    if (opts.track_alloc) {
      if (obs::alloc_tracking_compiled()) {
        obs::set_alloc_tracking(true);
      } else {
        std::fprintf(stderr,
                     "feam: --track-alloc ignored: built without "
                     "FEAM_TRACK_ALLOC\n");
      }
    }
    // Spans/events are only retained when something will consume them.
    if (!trace_out_.empty() || !events_out_.empty() ||
        !run_record_out_.empty()) {
      obs::collector().set_enabled(true);
    }
    if (!opts.timeseries_out.empty()) {
      timeseries_path_ = opts.timeseries_out;
      timeseries_file_.open(timeseries_path_,
                            std::ios::binary | std::ios::trunc);
      if (!timeseries_file_) {
        std::fprintf(stderr, "feam: cannot write %s\n",
                     timeseries_path_.c_str());
        timeseries_failed_ = true;
      } else {
        obs::TimeseriesSampler::Options sampler_opts;
        sampler_opts.interval_ms =
            static_cast<std::uint64_t>(opts.timeseries_interval_ms);
        sampler_opts.source = command_line_source(opts);
        // One whole line per sink call, flushed under a mutex: a tailing
        // `feam top` never reads a torn record, only a partial last line.
        sampler_ = std::make_unique<obs::TimeseriesSampler>(
            obs::metrics(), sampler_opts, [this](const std::string& line) {
              std::lock_guard<std::mutex> lock(timeseries_mutex_);
              timeseries_file_ << line;
              timeseries_file_.flush();
            });
      }
    }
  }

  // What the finished command knew about itself; filled in as the command
  // runs, serialized by finish() when --run-record-out was given.
  report::RunContext& context() { return context_; }

  // Returns the command's exit code, or an I/O failure code if an export
  // could not be written.
  int finish(int rc) {
    int obs_rc = 0;
    if (sampler_ != nullptr) {
      // The destructor's stop() takes the final (quiescent) sample, so the
      // stream telescopes exactly to the end-of-run counter totals.
      const std::uint64_t samples = [this] {
        sampler_->stop();
        return sampler_->samples_emitted();
      }();
      sampler_.reset();
      timeseries_file_.close();
      if (!timeseries_file_) {
        std::fprintf(stderr, "feam: cannot write %s\n",
                     timeseries_path_.c_str());
        obs_rc = 1;
      } else {
        std::fprintf(stderr, "feam: timeseries written to %s (%llu samples)\n",
                     timeseries_path_.c_str(),
                     static_cast<unsigned long long>(samples));
      }
    }
    if (timeseries_failed_) obs_rc = 1;
    if (!trace_out_.empty()) {
      const std::string trace = obs::render_chrome_trace(
          obs::collector().spans(), obs::collector().events());
      if (write_host_file(trace_out_, trace)) {
        std::fprintf(stderr, "feam: trace written to %s (%zu spans)\n",
                     trace_out_.c_str(), obs::collector().spans().size());
      } else {
        std::fprintf(stderr, "feam: cannot write %s\n", trace_out_.c_str());
        obs_rc = 1;
      }
    }
    if (!metrics_out_.empty()) {
      // The process peak RSS rides every metrics export, sampler or not.
      obs::sample_process_rss(obs::metrics());
      if (write_host_file(metrics_out_,
                          obs::render_metrics_json(obs::metrics()))) {
        std::fprintf(stderr, "feam: metrics written to %s\n",
                     metrics_out_.c_str());
      } else {
        std::fprintf(stderr, "feam: cannot write %s\n", metrics_out_.c_str());
        obs_rc = 1;
      }
    }
    if (!events_out_.empty()) {
      if (write_host_file(events_out_,
                          obs::render_jsonl(obs::collector().events()))) {
        std::fprintf(stderr, "feam: events written to %s (%zu events)\n",
                     events_out_.c_str(), obs::collector().events().size());
      } else {
        std::fprintf(stderr, "feam: cannot write %s\n", events_out_.c_str());
        obs_rc = 1;
      }
    }
    if (!run_record_out_.empty()) {
      const report::RunRecord record = report::assemble_run_record(
          context_, obs::collector().spans(), obs::metrics(), rc);
      if (write_host_file(run_record_out_, record.to_json().dump(2) + "\n")) {
        std::fprintf(stderr, "feam: run record written to %s\n",
                     run_record_out_.c_str());
      } else {
        std::fprintf(stderr, "feam: cannot write %s\n",
                     run_record_out_.c_str());
        obs_rc = 1;
      }
    }
    return rc != 0 ? rc : obs_rc;
  }

 private:
  static std::string command_line_source(const Options& opts) {
    switch (opts.command) {
      case Command::kCompile: return "compile " + opts.program;
      case Command::kSource: return "source " + opts.binary;
      case Command::kTarget: return "target " + opts.binary;
      case Command::kSurvey: return "survey " + opts.binary;
      case Command::kExec: return "exec " + opts.binary;
      case Command::kFleet: return "fleet";
      case Command::kReport: return "report " + opts.report_in;
      case Command::kExplain: return "explain " + opts.binary;
      case Command::kDiff: return "diff " + opts.diff_a;
      case Command::kProfile: return "profile " + opts.profile_in;
      default: return "feam";
    }
  }

  std::string trace_out_;
  std::string metrics_out_;
  std::string events_out_;
  std::string run_record_out_;
  std::string timeseries_path_;
  std::ofstream timeseries_file_;
  std::mutex timeseries_mutex_;
  bool timeseries_failed_ = false;
  std::unique_ptr<obs::TimeseriesSampler> sampler_;
  report::RunContext context_;
};

// Loads the bundle archive named by --bundle (if any) into `travelled` and
// returns a pointer to it for run_target_phase / survey_sites — nullptr for
// the basic (bundle-less) prediction. Sets `failed` when the file cannot be
// read or parsed.
const feam::SourcePhaseOutput* load_travelled_bundle(
    const Options& opts, SourcePhaseOutput& travelled, bool& failed,
    std::uint64_t* archive_bytes = nullptr) {
  failed = false;
  if (opts.bundle.empty()) return nullptr;
  const auto archive = read_host_file<support::Bytes>(opts.bundle);
  if (!archive) {
    std::fprintf(stderr, "feam: cannot read %s\n", opts.bundle.c_str());
    failed = true;
    return nullptr;
  }
  if (archive_bytes != nullptr) {
    *archive_bytes = static_cast<std::uint64_t>(archive->size());
  }
  auto unpacked = unpack_bundle(*archive);
  if (!unpacked.ok()) {
    std::fprintf(stderr, "feam: bad bundle: %s\n", unpacked.error().c_str());
    failed = true;
    return nullptr;
  }
  travelled.application = unpacked.value().application;
  travelled.bundle = std::move(unpacked).take();
  return &travelled;
}

// Builds the site a command addresses: a built-in testbed site by name, or
// a user-defined site from a JSON spec file.
std::unique_ptr<site::Site> make_selected_site(const Options& opts) {
  if (!opts.site_file.empty()) {
    const auto spec = read_host_file<std::string>(opts.site_file);
    if (!spec) {
      std::fprintf(stderr, "feam: cannot read %s\n", opts.site_file.c_str());
      return nullptr;
    }
    auto built = toolchain::make_site_from_json(*spec);
    if (!built.ok()) {
      std::fprintf(stderr, "feam: %s\n", built.error().c_str());
      return nullptr;
    }
    return std::move(built).take();
  }
  try {
    return toolchain::make_site(opts.site);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "feam: %s\n", e.what());
    return nullptr;
  }
}

int list_sites() {
  support::TextTable table({"Site", "Type", "CPUs", "OS", "C library",
                            "MPI stacks"});
  std::vector<std::string> names = toolchain::testbed_site_names();
  names.push_back("bluefire");
  for (const auto& name : names) {
    auto s = toolchain::make_site(name);
    table.add_row({s->name, s->system_type, std::to_string(s->cpu_count),
                   s->os_distro + " " + s->os_version.str(),
                   s->clib_version.str(),
                   std::to_string(s->stacks.size())});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

const site::MpiStackInstall* find_stack_by_id(const site::Site& s,
                                              const std::string& id) {
  return s.stack_for_module(id);
}

int compile(const Options& opts, report::RunContext& ctx) {
  ctx.binary = opts.program;
  ctx.source_site = opts.site;
  auto s = make_selected_site(opts);
  if (!s) return 1;
  ctx.source_site = s->name;
  const auto* stack = find_stack_by_id(*s, opts.stack);
  if (stack == nullptr) {
    std::fprintf(stderr, "feam: no stack '%s' at %s\n", opts.stack.c_str(),
                 opts.site.c_str());
    return 1;
  }
  toolchain::ProgramSource program;
  program.name = opts.program;
  program.language = opts.language == "fortran" ? toolchain::Language::kFortran
                     : opts.language == "c++"   ? toolchain::Language::kCxx
                                                : toolchain::Language::kC;
  program.libc_features = {"base", "stdio", "math"};
  program.text_size = 256 * 1024;

  const std::string vfs_path = "/home/user/apps/" + opts.program;
  const auto compiled =
      opts.static_link
          ? toolchain::compile_static_mpi_program(*s, program, *stack, vfs_path)
          : toolchain::compile_mpi_program(*s, program, *stack, vfs_path);
  if (!compiled.ok()) {
    std::fprintf(stderr, "feam: %s\n", compiled.error().c_str());
    return 1;
  }
  const auto* bytes = s->vfs.read(compiled.value());
  if (bytes == nullptr) {
    std::fprintf(stderr, "feam: compiler produced no output at %s\n",
                 compiled.value().c_str());
    return 1;
  }
  if (!write_host_file(opts.output, *bytes)) {
    std::fprintf(stderr, "feam: cannot write %s\n", opts.output.c_str());
    return 1;
  }
  std::printf("compiled %s with %s at %s -> %s (%s)\n", opts.program.c_str(),
              stack->display().c_str(), opts.site.c_str(),
              opts.output.c_str(),
              support::human_size(bytes->size()).c_str());
  return 0;
}

int source_phase(const Options& opts, report::RunContext& ctx) {
  ctx.binary = site::Vfs::basename(opts.binary);
  auto s = make_selected_site(opts);
  if (!s) return 1;
  ctx.source_site = s->name;
  const auto binary = read_host_file<support::Bytes>(opts.binary);
  if (!binary) {
    std::fprintf(stderr, "feam: cannot read %s\n", opts.binary.c_str());
    return 1;
  }
  const std::string vfs_path =
      "/home/user/apps/" + site::Vfs::basename(opts.binary);
  s->vfs.write_file(vfs_path, *binary);
  if (!s->load_module(opts.stack)) {
    std::fprintf(stderr, "feam: no stack '%s' at %s\n", opts.stack.c_str(),
                 opts.site.c_str());
    return 1;
  }
  const auto out = run_source_phase(*s, vfs_path);
  if (!out.ok()) {
    std::fprintf(stderr, "feam: source phase failed: %s\n",
                 out.error().c_str());
    return 1;
  }
  for (const auto& line : out.value().render_text()) {
    std::printf("%s\n", line.c_str());
  }
  const auto archive = pack_bundle(out.value().bundle);
  ctx.bundle_bytes = static_cast<std::uint64_t>(archive.size());
  if (!write_host_file(opts.output, archive)) {
    std::fprintf(stderr, "feam: cannot write %s\n", opts.output.c_str());
    return 1;
  }
  std::printf("bundle: %zu libraries, %zu hello worlds -> %s (%s)\n",
              out.value().bundle.libraries.size(),
              out.value().bundle.hello_worlds.size(), opts.output.c_str(),
              support::human_size(archive.size()).c_str());
  return 0;
}

int target_phase(const Options& opts, report::RunContext& ctx) {
  ctx.binary = site::Vfs::basename(opts.binary);
  auto s = make_selected_site(opts);
  if (!s) return 1;
  ctx.target_site = s->name;
  const auto binary = read_host_file<support::Bytes>(opts.binary);
  if (!binary) {
    std::fprintf(stderr, "feam: cannot read %s\n", opts.binary.c_str());
    return 1;
  }
  const std::string vfs_path =
      "/home/user/migrated/" + site::Vfs::basename(opts.binary);
  s->vfs.write_file(vfs_path, *binary);

  SourcePhaseOutput travelled;
  bool bundle_failed = false;
  const SourcePhaseOutput* source =
      load_travelled_bundle(opts, travelled, bundle_failed,
                            &ctx.bundle_bytes);
  if (bundle_failed) return 1;
  ctx.mode = source != nullptr ? "extended" : "basic";
  if (source != nullptr) {
    ctx.source_site = travelled.bundle.source_environment.site_name;
  }

  const auto result = run_target_phase(*s, vfs_path, source);
  if (!result.ok()) {
    std::fprintf(stderr, "feam: target phase failed: %s\n",
                 result.error().c_str());
    return 1;
  }
  ctx.prediction = result.value().prediction;
  const Prediction& p = result.value().prediction;
  std::printf("prediction (%s): %s\n",
              source != nullptr ? "extended" : "basic",
              p.ready ? "READY" : "NOT READY");
  for (const auto& det : p.determinants) {
    std::printf("  %-28s %-12s %s\n", determinant_name(det.kind),
                !det.evaluated ? "(skipped)"
                : det.compatible ? "compatible"
                                 : "INCOMPATIBLE",
                det.detail.c_str());
  }
  if (!p.missing_libraries.empty()) {
    std::printf("missing:  %s\n",
                support::join(p.missing_libraries, ", ").c_str());
  }
  if (!p.resolved_libraries.empty()) {
    std::printf("resolved: %s\n",
                support::join(p.resolved_libraries, ", ").c_str());
  }
  if (!opts.report.empty()) {
    if (!write_host_file(opts.report, render_target_report(result.value()))) {
      std::fprintf(stderr, "feam: cannot write %s\n", opts.report.c_str());
      return 1;
    }
    std::printf("full report written to %s\n", opts.report.c_str());
  }
  if (p.ready && !opts.script.empty()) {
    if (!write_host_file(opts.script, p.configuration_script)) {
      std::fprintf(stderr, "feam: cannot write %s\n", opts.script.c_str());
      return 1;
    }
    std::printf("configuration script written to %s\n", opts.script.c_str());
  } else if (p.ready) {
    std::printf("\n%s", p.configuration_script.c_str());
  }
  return p.ready ? 0 : 2;
}

int exec_command(const Options& opts, report::RunContext& ctx) {
  ctx.binary = site::Vfs::basename(opts.binary);
  auto s = make_selected_site(opts);
  if (!s) return 1;
  ctx.target_site = s->name;
  const auto binary = read_host_file<support::Bytes>(opts.binary);
  if (!binary) {
    std::fprintf(stderr, "feam: cannot read %s\n", opts.binary.c_str());
    return 1;
  }
  const std::string vfs_path =
      "/home/user/migrated/" + site::Vfs::basename(opts.binary);
  s->vfs.write_file(vfs_path, *binary);

  SourcePhaseOutput travelled;
  bool bundle_failed = false;
  const SourcePhaseOutput* source =
      load_travelled_bundle(opts, travelled, bundle_failed,
                            &ctx.bundle_bytes);
  if (bundle_failed) return 1;
  ctx.mode = source != nullptr ? "extended" : "basic";
  if (source != nullptr) {
    ctx.source_site = travelled.bundle.source_environment.site_name;
  }

  const auto result = run_target_phase(*s, vfs_path, source);
  if (!result.ok()) {
    std::fprintf(stderr, "feam: target phase failed: %s\n",
                 result.error().c_str());
    return 1;
  }
  ctx.prediction = result.value().prediction;
  if (!result.value().prediction.ready) {
    std::printf("prediction: NOT READY — refusing to execute\n");
    for (const auto& det : result.value().prediction.determinants) {
      if (det.evaluated && !det.compatible) {
        std::printf("  %s: %s\n", determinant_name(det.kind),
                    det.detail.c_str());
      }
    }
    return 2;
  }
  std::printf("prediction: READY — executing FEAM's configuration script\n");
  for (const auto& line : support::split(
           result.value().prediction.configuration_script, '\n')) {
    if (!line.empty()) std::printf("  | %s\n", line.c_str());
  }
  const auto run =
      toolchain::run_script(*s, result.value().prediction.configuration_script);
  for (const auto& error : run.errors) {
    std::fprintf(stderr, "feam: %s\n", error.c_str());
  }
  std::printf("execution: %s%s%s\n",
              toolchain::run_status_name(run.last_run.status),
              run.last_run.output.empty() ? "" : " — ",
              run.last_run.output.c_str());
  return run.ok() ? 0 : 1;
}

int survey(const Options& opts, report::RunContext& ctx) {
  ctx.binary = site::Vfs::basename(opts.binary);
  const auto binary = read_host_file<support::Bytes>(opts.binary);
  if (!binary) {
    std::fprintf(stderr, "feam: cannot read %s\n", opts.binary.c_str());
    return 1;
  }
  SourcePhaseOutput travelled;
  bool bundle_failed = false;
  const SourcePhaseOutput* source =
      load_travelled_bundle(opts, travelled, bundle_failed,
                            &ctx.bundle_bytes);
  if (bundle_failed) return 1;
  if (source != nullptr) {
    ctx.source_site = travelled.bundle.source_environment.site_name;
    ctx.mode = "extended";
  } else {
    ctx.mode = "basic";
  }

  std::vector<std::unique_ptr<site::Site>> owned;
  std::vector<site::Site*> sites;
  std::vector<std::string> names = toolchain::testbed_site_names();
  names.push_back("bluefire");
  for (const auto& name : names) {
    owned.push_back(toolchain::make_site(name));
    sites.push_back(owned.back().get());
  }
  support::ThreadPool pool(opts.jobs, obs::pool_task_recorder());
  SurveyOptions survey_opts;
  survey_opts.pool = &pool;
  const auto report = survey_sites(sites, site::Vfs::basename(opts.binary),
                                   support::intern(*binary), source, {},
                                   survey_opts);
  std::printf("%s", report.render().c_str());
  std::printf("%zu of %zu sites ready (%s prediction)\n", report.ready_count(),
              report.entries.size(), source != nullptr ? "extended" : "basic");
  return report.ready_count() > 0 ? 0 : 2;
}

// True when a .jsonl file is a run-record stream (one feam.run_record/1
// document per line) rather than an event log: the schema field on the
// first non-empty line decides.
bool looks_like_record_jsonl(const std::string& text) {
  const auto eol = text.find('\n');
  const std::string first =
      eol == std::string::npos ? text : text.substr(0, eol);
  if (first.empty()) return false;
  const auto doc = support::Json::parse(first);
  return doc && doc->get_string("schema") == report::kRunRecordSchema;
}

// `feam fleet`: generate a procedural fleet from a spec + seed, run the
// full readiness survey over it, and export the manifest / records /
// matrix artifacts. Everything printed and written is a pure function of
// (spec, seed, overrides) — reruns reproduce it byte for byte.
int fleet_command(const Options& opts, report::RunContext& ctx) {
  fleet::FleetSpec spec;
  if (!opts.fleet_spec.empty()) {
    const auto text = read_host_file<std::string>(opts.fleet_spec);
    if (!text) {
      std::fprintf(stderr, "feam: cannot read %s\n", opts.fleet_spec.c_str());
      return 1;
    }
    auto parsed = fleet::parse_fleet_spec(*text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "feam: %s: %s\n", opts.fleet_spec.c_str(),
                   parsed.error().c_str());
      return 1;
    }
    spec = std::move(parsed).take();
  }
  if (opts.fleet_sites > 0) spec.sites = opts.fleet_sites;
  if (opts.fleet_workloads > 0) spec.workloads = opts.fleet_workloads;
  if (opts.fleet_drift) spec.drift_rate = *opts.fleet_drift;
  if (const auto checked = fleet::validate_fleet_spec(spec); !checked.ok()) {
    std::fprintf(stderr, "feam: %s\n", checked.error().c_str());
    return 64;
  }
  ctx.binary = spec.name;

  fleet::Fleet fleet = fleet::generate_fleet(spec, opts.fleet_seed);
  ctx.source_site = fleet.anchor().name;
  std::printf("fleet %s: %zu sites, %zu workloads (seed %llu)\n",
              spec.name.c_str(), fleet.sites.size(), fleet.workloads.size(),
              static_cast<unsigned long long>(opts.fleet_seed));

  if (!opts.manifest_out.empty()) {
    const auto manifest = fleet::fleet_manifest(fleet);
    if (!write_host_file(opts.manifest_out, manifest.dump(2) + "\n")) {
      std::fprintf(stderr, "feam: cannot write %s\n",
                   opts.manifest_out.c_str());
      return 1;
    }
    std::printf("fleet manifest written to %s\n", opts.manifest_out.c_str());
  }

  eval::FleetRunOptions run_opts;
  run_opts.jobs = opts.jobs;
  const eval::FleetRunResult result = eval::run_fleet(fleet, run_opts);

  const std::string matrix = result.readiness_matrix();
  std::printf("%s", matrix.c_str());
  std::printf(
      "fleet: %zu of %zu pairs ready, %zu compile failure%s, %zu drift op%s\n",
      result.ready_pairs, result.pairs(), result.compile_failures,
      result.compile_failures == 1 ? "" : "s", result.drift_log.size(),
      result.drift_log.size() == 1 ? "" : "s");
  std::printf("caches: EDC %.1f%% hit, BDC %.1f%% hit, resolver %.1f%% hit\n",
              result.caches.edc_hit_rate() * 100.0,
              result.caches.bdc_hit_rate() * 100.0,
              result.caches.resolver_hit_rate() * 100.0);

  if (!opts.records_out.empty()) {
    if (!write_host_file(opts.records_out, result.records_jsonl())) {
      std::fprintf(stderr, "feam: cannot write %s\n", opts.records_out.c_str());
      return 1;
    }
    std::printf("%zu run records written to %s\n", result.pairs(),
                opts.records_out.c_str());
  }
  if (!opts.matrix_out.empty()) {
    if (!write_host_file(opts.matrix_out, matrix)) {
      std::fprintf(stderr, "feam: cannot write %s\n", opts.matrix_out.c_str());
      return 1;
    }
    std::printf("readiness matrix written to %s\n", opts.matrix_out.c_str());
  }
  if (!opts.drift_log_out.empty()) {
    if (!write_host_file(opts.drift_log_out,
                         fleet::drift_log_jsonl(result.drift_log))) {
      std::fprintf(stderr, "feam: cannot write %s\n",
                   opts.drift_log_out.c_str());
      return 1;
    }
    std::printf("%zu drift ops written to %s\n", result.drift_log.size(),
                opts.drift_log_out.c_str());
  }
  return result.compile_failures == 0 ? 0 : 1;
}

// Appends every record of a feam.run_record/1 JSONL text (one record per
// line, as `feam fleet --records-out` writes them); false, with the
// offending line named, on the first malformed one.
bool read_record_lines(const std::string& label, const std::string& text,
                       std::vector<report::RunRecord>& records) {
  std::size_t line_no = 0;
  for (const auto& line : support::split(text, '\n')) {
    ++line_no;
    if (line.empty()) continue;
    const auto doc = support::Json::parse(line);
    auto record = doc ? report::RunRecord::from_json(*doc) : std::nullopt;
    if (!record) {
      std::fprintf(stderr, "feam: %s:%zu: malformed run record\n",
                   label.c_str(), line_no);
      return false;
    }
    records.push_back(std::move(*record));
  }
  return true;
}

// Loads a feam.run_record/1 stream: a JSONL file (one record per line), a
// single *.json record, or a directory of either (non-record files are
// skipped, the way `feam report` skips them).
bool load_record_stream(const std::string& path,
                        std::vector<report::RunRecord>& records) {
  namespace fs = std::filesystem;
  const auto ingest_text = [&](const std::string& label,
                               const std::string& text, bool strict) {
    if (looks_like_record_jsonl(text)) {
      return read_record_lines(label, text, records);
    }
    const auto parsed = support::Json::parse(text);
    auto record =
        parsed && parsed->get_string("schema") == report::kRunRecordSchema
            ? report::RunRecord::from_json(*parsed)
            : std::nullopt;
    if (record) {
      records.push_back(std::move(*record));
      return true;
    }
    if (strict) {
      std::fprintf(stderr, "feam: %s carries no %s documents\n",
                   label.c_str(),
                   std::string(report::kRunRecordSchema).c_str());
    }
    return !strict;
  };

  std::error_code ec;
  std::vector<std::string> files;
  if (fs::is_directory(path, ec)) {
    std::vector<fs::path> paths;
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension().string();
      if (ext == ".json" || ext == ".jsonl") paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& p : paths) files.push_back(p.string());
  } else {
    files.push_back(path);
  }
  for (const auto& file : files) {
    const auto text = read_host_file<std::string>(file);
    if (!text) {
      std::fprintf(stderr, "feam: cannot read %s\n", file.c_str());
      return false;
    }
    // A named single file must carry records; directory members may be
    // other artifacts (event logs, metrics exports) and are skipped.
    if (!ingest_text(file, *text, files.size() == 1 && file == path)) {
      return false;
    }
  }
  return true;
}

// `feam explain`: the causal chain behind one (binary, site) verdict.
int explain_command(const Options& opts) {
  std::vector<report::RunRecord> records;
  if (!load_record_stream(opts.report_in, records)) return 1;
  const report::RunRecord* match = nullptr;
  for (const auto& record : records) {
    if (record.binary == opts.binary && record.target_site == opts.site) {
      match = &record;
      break;
    }
  }
  if (match == nullptr) {
    std::fprintf(stderr,
                 "feam: no record for binary '%s' at site '%s' in %s "
                 "(%zu records searched)\n",
                 opts.binary.c_str(), opts.site.c_str(),
                 opts.report_in.c_str(), records.size());
    return 1;
  }
  const std::string text = report::render_explain(*match);
  if (!opts.output.empty()) {
    if (!write_host_file(opts.output, text)) {
      std::fprintf(stderr, "feam: cannot write %s\n", opts.output.c_str());
      return 1;
    }
    std::printf("explanation written to %s\n", opts.output.c_str());
  } else {
    std::printf("%s", text.c_str());
  }
  return 0;
}

// `feam diff`: join two record streams, attribute every verdict flip.
// Exits 2 when a drift log was supplied and any flip stayed unattributed —
// the CI shape of "every flip must be explainable by recorded drift".
int diff_command(const Options& opts) {
  std::vector<report::RunRecord> a, b;
  if (!load_record_stream(opts.diff_a, a)) return 1;
  if (!load_record_stream(opts.diff_b, b)) return 1;
  std::vector<report::DriftLogEntry> drift_log;
  if (!opts.drift_log_in.empty()) {
    const auto text = read_host_file<std::string>(opts.drift_log_in);
    if (!text) {
      std::fprintf(stderr, "feam: cannot read %s\n",
                   opts.drift_log_in.c_str());
      return 1;
    }
    drift_log = report::parse_drift_log(*text);
  }
  const report::DiffResult result = report::diff_records(a, b, drift_log);
  const std::string text = result.render_text();
  std::printf("%s", text.c_str());
  if (!opts.output.empty()) {
    if (!write_host_file(opts.output, text)) {
      std::fprintf(stderr, "feam: cannot write %s\n", opts.output.c_str());
      return 1;
    }
  }
  if (!opts.json_out.empty()) {
    if (!write_host_file(opts.json_out, result.to_json().dump(2) + "\n")) {
      std::fprintf(stderr, "feam: cannot write %s\n", opts.json_out.c_str());
      return 1;
    }
    std::printf("diff record written to %s\n", opts.json_out.c_str());
  }
  if (!opts.drift_log_in.empty() && result.unattributed_flips() != 0) {
    std::fprintf(stderr, "feam: %zu verdict flip(s) not attributable to the "
                         "drift log\n",
                 result.unattributed_flips());
    return 2;
  }
  return 0;
}

// `feam report`: ingest a directory of run records and event logs, print
// the aggregate, and optionally write the HTML dashboard, apply the
// regression gate (exit 2 on regression), and record the bench output.
int report_command(const Options& opts) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(opts.report_in, ec)) {
    std::fprintf(stderr,
                 "feam: %s is not a readable records directory%s%s\n",
                 opts.report_in.c_str(), ec ? ": " : "",
                 ec ? ec.message().c_str() : "");
    return 1;
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(opts.report_in, ec)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "feam: cannot read directory %s: %s\n",
                 opts.report_in.c_str(), ec.message().c_str());
    return 1;
  }
  std::sort(paths.begin(), paths.end());

  std::vector<report::RunRecord> records;
  std::vector<std::string> event_logs;
  std::vector<report::Timeseries> streams;
  std::vector<report::DiffResult> diffs;
  std::size_t skipped = 0;
  for (const auto& path : paths) {
    const auto ext = path.extension().string();
    if (ext != ".json" && ext != ".jsonl") continue;
    auto contents = read_host_file<std::string>(path.string());
    if (!contents) {
      std::fprintf(stderr, "feam: cannot read %s\n", path.string().c_str());
      return 1;
    }
    std::string text = std::move(*contents);
    if (ext == ".jsonl") {
      // --timeseries-out, --events-out, and `feam fleet --records-out`
      // share the extension; the schema field on the first line tells
      // them apart.
      if (report::looks_like_timeseries(text)) {
        streams.push_back(report::parse_timeseries(text));
        for (const auto& issue : streams.back().consistency_issues()) {
          std::fprintf(stderr, "feam: %s: %s\n", path.string().c_str(),
                       issue.c_str());
        }
      } else if (looks_like_record_jsonl(text)) {
        // A fleet's 50k-pair record stream ships as one JSONL file, not
        // 50k *.json files; ingest it line by line.
        if (!read_record_lines(path.string(), text, records)) return 1;
      } else {
        event_logs.push_back(std::move(text));
      }
      continue;
    }
    const auto parsed = support::Json::parse(text);
    if (!parsed || parsed->get_string("schema") != report::kRunRecordSchema) {
      // feam.diff/1 artifacts (written by `feam diff --json-out`) feed the
      // verdict-churn panel; other JSON (metrics, traces) is skipped.
      if (parsed) {
        if (auto diff = report::DiffResult::from_json(*parsed)) {
          diffs.push_back(std::move(*diff));
          continue;
        }
      }
      ++skipped;  // other JSON (metrics exports, traces) lives here too
      continue;
    }
    auto record = report::RunRecord::from_json(*parsed);
    if (!record) {
      std::fprintf(stderr, "feam: %s: malformed run record\n",
                   path.string().c_str());
      return 1;
    }
    for (const auto& issue : record->validate()) {
      std::fprintf(stderr, "feam: %s: %s\n", path.string().c_str(),
                   issue.c_str());
    }
    records.push_back(std::move(*record));
  }
  if (records.empty() && streams.empty()) {
    std::fprintf(stderr,
                 "feam: no %s records under %s (%zu files seen, %zu "
                 "non-record JSON skipped); write records with "
                 "--run-record-out FILE.json, then point --in at that "
                 "directory\n",
                 std::string(report::kRunRecordSchema).c_str(),
                 opts.report_in.c_str(), paths.size(), skipped);
    return 1;
  }

  report::Aggregate aggregate =
      report::aggregate_records(std::move(records));
  for (const auto& text : event_logs) {
    report::ingest_event_jsonl(aggregate, text);
  }
  if (!aggregate.records.empty()) {
    std::printf("%s", report::render_report_text(aggregate).c_str());
  }
  if (!diffs.empty()) {
    std::printf("\n%s", report::render_churn_panel(diffs).c_str());
  }
  if (skipped > 0) {
    std::printf("(%zu non-record JSON files skipped)\n", skipped);
  }

  // Charts and trend metrics read one stream; with several in the
  // directory, the one with the most samples (the longest-observed run)
  // carries the most signal.
  const report::Timeseries* timeseries = nullptr;
  for (const auto& stream : streams) {
    if (timeseries == nullptr ||
        stream.samples.size() > timeseries->samples.size()) {
      timeseries = &stream;
    }
  }
  if (timeseries != nullptr) {
    std::printf("timeseries: %zu stream%s ingested; charting %s (%zu "
                "samples over %.1fs%s)\n",
                streams.size(), streams.size() == 1 ? "" : "s",
                timeseries->source.empty() ? "(unnamed run)"
                                           : timeseries->source.c_str(),
                timeseries->samples.size(),
                static_cast<double>(timeseries->duration_ns()) / 1e9,
                timeseries->saw_final ? "" : ", no final sample");
    // Memory roll-up: end-of-run gauge values (carry-forward), present
    // only when the writer was built with the gauge schema addition.
    const auto gauges = timeseries->final_gauge_values();
    const auto rss = gauges.find("process.rss_bytes");
    const auto rss_peak = gauges.find("process.rss_peak_bytes");
    if (rss != gauges.end() || rss_peak != gauges.end()) {
      std::printf("memory: RSS %s at end of run, %s peak\n",
                  support::human_size(rss != gauges.end() ? rss->second.value
                                                          : 0)
                      .c_str(),
                  support::human_size(rss_peak != gauges.end()
                                          ? rss_peak->second.value
                                          : 0)
                      .c_str());
    }
    constexpr std::string_view kCachePrefix = "cache.bytes{cache=";
    std::string cache_line;
    for (const auto& [name, value] : gauges) {
      if (name.rfind(kCachePrefix, 0) != 0 || name.back() != '}') continue;
      const std::string label = name.substr(
          kCachePrefix.size(), name.size() - kCachePrefix.size() - 1);
      if (!cache_line.empty()) cache_line += ", ";
      cache_line += label + " " + support::human_size(value.peak);
    }
    if (!cache_line.empty()) {
      std::printf("cache footprint (peak): %s\n", cache_line.c_str());
    }
  }

  if (!opts.html_out.empty()) {
    if (!write_host_file(
            opts.html_out,
            report::render_html_dashboard(aggregate, timeseries,
                                          diffs.empty() ? nullptr : &diffs))) {
      std::fprintf(stderr, "feam: cannot write %s\n", opts.html_out.c_str());
      return 1;
    }
    std::printf("dashboard written to %s\n", opts.html_out.c_str());
  }

  auto metrics = report::flatten_metrics(aggregate);
  const report::GateResult* gate_result = nullptr;
  report::GateResult gate_storage;
  if (!opts.baseline.empty()) {
    const auto baseline_text = read_host_file<std::string>(opts.baseline);
    if (!baseline_text) {
      std::fprintf(stderr, "feam: cannot read %s\n", opts.baseline.c_str());
      return 1;
    }
    const auto baseline = support::Json::parse(*baseline_text);
    if (!baseline) {
      std::fprintf(stderr, "feam: %s is not valid JSON\n",
                   opts.baseline.c_str());
      return 1;
    }
    // The steady state is gated like the totals: each trend.* name the
    // baseline lists is read off the charted stream into the same map.
    for (const auto& [name, spec] : (*baseline)["metrics"].as_object()) {
      if (name.rfind("trend.", 0) != 0) continue;
      if (timeseries == nullptr) {
        std::fprintf(stderr,
                     "feam: baseline metric '%s' needs a feam.timeseries/1 "
                     "stream under %s; run the workload with "
                     "--timeseries-out FILE.jsonl into that directory\n",
                     name.c_str(), opts.report_in.c_str());
        return 1;
      }
      const auto value = report::trend_metric(*timeseries, name);
      if (!value) {
        std::fprintf(stderr,
                     "feam: baseline metric '%s' is not a trend metric "
                     "(trend.steady_samples or "
                     "trend.SELECTOR.early|late|drift)\n",
                     name.c_str());
        return 1;
      }
      metrics[name] = *value;
    }
    auto gated = report::run_gate(metrics, *baseline);
    if (!gated.ok()) {
      std::fprintf(stderr, "feam: %s\n", gated.error().c_str());
      return 1;
    }
    gate_storage = std::move(gated).take();
    gate_result = &gate_storage;
    std::printf("\n%s", gate_storage.render().c_str());
  }

  if (!opts.bench_out.empty()) {
    const auto bench =
        report::bench_record(metrics, gate_result, opts.pr_number);
    if (!write_host_file(opts.bench_out, bench.dump(2) + "\n")) {
      std::fprintf(stderr, "feam: cannot write %s\n", opts.bench_out.c_str());
      return 1;
    }
    std::printf("bench record written to %s\n", opts.bench_out.c_str());
  }

  if (opts.gate && gate_result != nullptr && !gate_result->pass) return 2;
  return 0;
}

// `feam profile`: deterministic post-processing of one trace or run-record
// file into self/total time per span name, per-thread utilization, the
// critical path, and flamegraph output. Same input -> byte-identical output.
int profile_command(const Options& opts) {
  const auto text = read_host_file<std::string>(opts.profile_in);
  if (!text) {
    std::fprintf(stderr, "feam: cannot read %s\n", opts.profile_in.c_str());
    return 1;
  }
  const auto parsed = support::Json::parse(*text);
  if (!parsed) {
    std::fprintf(stderr, "feam: %s is not valid JSON\n",
                 opts.profile_in.c_str());
    return 1;
  }

  std::vector<obs::ProfileSpan> spans;
  if (parsed->get_string("schema") == report::kRunRecordSchema) {
    const auto record = report::RunRecord::from_json(*parsed);
    if (!record) {
      std::fprintf(stderr, "feam: %s: malformed run record\n",
                   opts.profile_in.c_str());
      return 1;
    }
    spans = report::to_profile_spans(*record);
  } else if ((*parsed)["traceEvents"].is_array()) {
    // --trace-out Chrome trace: complete spans are ph="X" with microsecond
    // ts/dur doubles; span ids travel in args (see obs/export.cpp).
    for (const auto& event : (*parsed)["traceEvents"].as_array()) {
      if (!event.is_object() || event.get_string("ph") != "X") continue;
      if (!event["ts"].is_number() || !event["dur"].is_number()) continue;
      obs::ProfileSpan span;
      span.name = event.get_string("name");
      span.start_ns = static_cast<std::uint64_t>(
          std::llround(event["ts"].as_number() * 1000.0));
      span.end_ns = span.start_ns + static_cast<std::uint64_t>(
          std::llround(event["dur"].as_number() * 1000.0));
      span.tid = static_cast<int>(event.get_int("tid"));
      const auto& args = event["args"];
      span.id = static_cast<std::uint64_t>(args.get_int("span_id"));
      span.parent_id = static_cast<std::uint64_t>(args.get_int("parent_id"));
      // Additive fields written only by --track-alloc runs; get_int
      // returns 0 when absent.
      span.alloc_bytes = static_cast<std::uint64_t>(args.get_int("alloc_bytes"));
      span.alloc_count = static_cast<std::uint64_t>(args.get_int("alloc_count"));
      if (span.name.empty() || span.id == 0) continue;
      spans.push_back(std::move(span));
    }
  } else {
    std::fprintf(stderr,
                 "feam: %s is neither a %s file nor a Chrome trace "
                 "(expected --run-record-out or --trace-out output)\n",
                 opts.profile_in.c_str(),
                 std::string(report::kRunRecordSchema).c_str());
    return 1;
  }
  if (spans.empty()) {
    std::fprintf(stderr, "feam: %s contains no spans to profile\n",
                 opts.profile_in.c_str());
    return 1;
  }

  const obs::Profile profile = obs::build_profile(std::move(spans));
  std::printf("%s", profile.render_table().c_str());

  const obs::FlameWeight weight = opts.profile_memory
                                      ? obs::FlameWeight::kAllocBytes
                                      : obs::FlameWeight::kTime;
  if (opts.profile_memory) {
    std::uint64_t total_alloc = 0;
    for (const auto& stat : profile.by_name) total_alloc += stat.alloc_bytes;
    if (total_alloc == 0) {
      std::fprintf(stderr,
                   "feam: --memory: %s carries no allocation data; record "
                   "the run with --track-alloc\n",
                   opts.profile_in.c_str());
    }
  }
  if (!opts.folded_out.empty()) {
    if (!write_host_file(opts.folded_out, profile.folded_stacks(weight))) {
      std::fprintf(stderr, "feam: cannot write %s\n", opts.folded_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "feam: folded stacks written to %s\n",
                 opts.folded_out.c_str());
  }
  if (!opts.svg_out.empty()) {
    const std::string title =
        (opts.profile_memory ? "feam profile (alloc bytes) — "
                             : "feam profile — ") +
        std::filesystem::path(opts.profile_in).filename().string();
    if (!write_host_file(
            opts.svg_out,
            obs::render_flamegraph_svg(profile.flame, title, weight))) {
      std::fprintf(stderr, "feam: cannot write %s\n", opts.svg_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "feam: flamegraph written to %s\n",
                 opts.svg_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace feam::cli

int main(int argc, char** argv) {
  using namespace feam::cli;
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  const auto opts = parse_options(args, error);
  if (!opts) {
    std::fprintf(stderr, "feam: %s\n%s", error.c_str(), usage().c_str());
    return 64;  // EX_USAGE
  }
  ObsSession obs_session(*opts);
  feam::report::RunContext& ctx = obs_session.context();
  int rc = 0;
  try {
    switch (opts->command) {
      case Command::kHelp:
        ctx.command = "help";
        std::printf("%s", usage().c_str());
        break;
      case Command::kListSites:
        ctx.command = "list-sites";
        rc = list_sites();
        break;
      case Command::kCompile:
        ctx.command = "compile";
        rc = compile(*opts, ctx);
        break;
      case Command::kSource:
        ctx.command = "source";
        rc = source_phase(*opts, ctx);
        break;
      case Command::kTarget:
        ctx.command = "target";
        rc = target_phase(*opts, ctx);
        break;
      case Command::kSurvey:
        ctx.command = "survey";
        rc = survey(*opts, ctx);
        break;
      case Command::kExec:
        ctx.command = "exec";
        rc = exec_command(*opts, ctx);
        break;
      case Command::kFleet:
        ctx.command = "fleet";
        rc = fleet_command(*opts, ctx);
        break;
      case Command::kReport:
        ctx.command = "report";
        rc = report_command(*opts);
        break;
      case Command::kExplain:
        ctx.command = "explain";
        rc = explain_command(*opts);
        break;
      case Command::kDiff:
        ctx.command = "diff";
        rc = diff_command(*opts);
        break;
      case Command::kProfile:
        ctx.command = "profile";
        rc = profile_command(*opts);
        break;
      case Command::kTop:
        ctx.command = "top";
        rc = top_command(*opts);
        break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "feam: %s\n", e.what());
    rc = 1;
  }
  return obs_session.finish(rc);
}
