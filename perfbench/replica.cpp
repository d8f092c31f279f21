#include "replica.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "eval/run_records.hpp"
#include "feam/caches.hpp"
#include "feam/phases.hpp"
#include "feam/survey.hpp"
#include "fleet/drift.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "report/run_record.hpp"
#include "site/lease.hpp"
#include "support/thread_pool.hpp"
#include "toolchain/launcher.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

namespace perfbench {

namespace {

namespace obs = feam::obs;
namespace site = feam::site;
namespace support = feam::support;
using feam::FeamConfig;
using feam::MigrationCaches;
using feam::SourcePhaseOutput;
using feam::TecOptions;

std::string module_name_of(const site::MpiStackInstall& stack) {
  return std::string(site::mpi_impl_slug(stack.impl)) + "/" +
         stack.version.str() + "-" + site::compiler_slug(stack.compiler);
}

void count_memos(const MigrationCaches& caches, ReplicaResult& out) {
  out.memos["bdc"] = {caches.bdc.hits(), caches.bdc.misses()};
  out.memos["edc"] = {caches.edc.hits(), caches.edc.misses()};
  out.memos["resolver_search"] = {caches.resolver.search_hits(),
                                  caches.resolver.search_misses()};
  out.memos["resolver_ldd"] = {caches.resolver.ldd_hits(),
                               caches.resolver.ldd_misses()};
  out.memos["resolver_parse"] = {caches.resolver.parse_hits(),
                                 caches.resolver.parse_misses()};
}

void serialize(const std::vector<feam::report::RunRecord>& records,
               Tracer& tracer, ReplicaResult& out) {
  for (const auto& record : records) {
    Span span(tracer, Layer::kSerialize);
    out.records_jsonl += record.to_json().dump();
    out.records_jsonl += '\n';
  }
}

// run_target_phase (phases.cpp), its three component calls timed apart.
support::Result<feam::TargetPhaseOutput> target_phase(
    Tracer& tracer, site::Site& target, std::string_view binary_path,
    const SourcePhaseOutput* source, const FeamConfig& config,
    const TecOptions& tec_options, MigrationCaches& caches) {
  using R = support::Result<feam::TargetPhaseOutput>;
  Span span(tracer, Layer::kTargetPhase);
  // The phase's own bookkeeping, kept so both runs do the same work.
  obs::Span phase_span("feam.target_phase",
                       {{"site", target.name},
                        {"binary", std::string(binary_path)},
                        {"mode", source != nullptr ? "extended" : "basic"}});
  obs::ScopedTimer phase_timer(obs::histogram("phase.target_ns"));
  obs::counter("phase.target_runs").add();

  feam::TargetPhaseOutput out;
  obs::EvidenceSet phase_evidence;
  {
    obs::ProvenanceScope provenance_scope(phase_evidence);
    if (!binary_path.empty() && target.vfs.is_file(binary_path)) {
      auto described = [&] {
        Span bdc(tracer, Layer::kBdc);
        return caches.bdc.describe(target, binary_path);
      }();
      if (!described.ok()) return R::failure(described.full_error());
      out.application = std::move(described).take();
    } else if (source != nullptr) {
      out.application = source->application;
    } else {
      return R::failure(
          "target phase requires either the binary at the target site or a "
          "source-phase bundle");
    }
    {
      Span edc(tracer, Layer::kEdc);
      out.environment = caches.edc.discover(target);
    }
    TecOptions opts = tec_options;
    opts.hello_world_ranks = config.hello_world_ranks;
    if (out.application.mpi_impl) {
      opts.mpiexec_command = config.mpiexec_for(*out.application.mpi_impl);
    }
    Span tec(tracer, Layer::kTec);
    out.prediction = feam::Tec::evaluate(
        target, out.application, binary_path,
        source != nullptr ? &source->bundle : nullptr, opts, &caches);
  }
  out.prediction.provenance.merge(phase_evidence);
  phase_span.add_field("ready", out.prediction.ready ? "true" : "false");
  return out;
}

// ---- fleet: eval::run_fleet and survey_sites' assess_site (survey.cpp) ----

feam::SurveyEntry assess_site(Tracer& tracer, site::Site& s,
                              const std::string& path,
                              const support::Bytes& binary_bytes,
                              const SourcePhaseOutput* source,
                              const FeamConfig& config,
                              MigrationCaches& caches) {
  obs::Span site_span("survey.site", {{"site", s.name}});
  obs::counter("survey.sites_assessed").add();
  const std::vector<std::string> modules_before = s.loaded_modules();
  {
    Span write(tracer, Layer::kWrite);
    s.vfs.write_file(path, binary_bytes);
  }
  const auto result =
      target_phase(tracer, s, path, source, config, TecOptions{}, caches);
  feam::SurveyEntry entry;
  entry.site_name = s.name;
  if (!result.ok()) {
    entry.blocking_determinant = "error";
    entry.reason = result.error();
  } else {
    entry.prediction = result.value().prediction;
    entry.ready = entry.prediction.ready;
    entry.resolved_copies = entry.prediction.resolved_libraries.size();
    if (entry.ready) {
      entry.reason = entry.resolved_copies == 0
                         ? "all determinants compatible"
                         : "compatible after resolving " +
                               std::to_string(entry.resolved_copies) +
                               " libraries";
    } else {
      for (const auto& det : entry.prediction.determinants) {
        if (det.evaluated && !det.compatible) {
          entry.blocking_determinant = feam::determinant_name(det.kind);
          entry.reason = det.detail;
          break;
        }
      }
      if (entry.blocking_determinant.empty()) {
        entry.blocking_determinant = "unknown";
        entry.reason = "no determinant reported failure";
      }
    }
  }
  {
    Span restore(tracer, Layer::kRestore);
    s.vfs.remove(path);
    for (const auto& dir : entry.prediction.resolution_dirs) s.vfs.remove(dir);
    s.vfs.remove(TecOptions{}.resolution_root);
    if (s.loaded_modules() != modules_before) {
      s.unload_all_modules();
      for (const auto& name : modules_before) s.load_module(name);
    }
  }
  site_span.add_field("ready", entry.ready ? "true" : "false");
  obs::emit(obs::Level::kInfo, "survey.verdict",
            entry.site_name + ": " + (entry.ready ? "ready" : "not ready"),
            {{"site", entry.site_name},
             {"ready", entry.ready ? "true" : "false"},
             {"blocking", entry.blocking_determinant},
             {"reason", entry.reason}});
  return entry;
}

feam::report::RunRecord pair_record(const std::string& source_site,
                                    const std::string& binary,
                                    const std::string& target_site) {
  feam::report::RunRecord record;
  record.command = "fleet";
  record.binary = binary;
  record.source_site = source_site;
  record.target_site = target_site;
  record.mode = "extended";
  return record;
}

void fill_from_entry(feam::report::RunRecord& record,
                     const feam::SurveyEntry& entry) {
  record.has_prediction = entry.blocking_determinant != "error";
  record.exit_code = record.has_prediction ? 0 : 1;
  record.ready = entry.ready;
  const feam::Prediction& p = entry.prediction;
  for (const auto& det : p.determinants) {
    record.determinants.push_back({feam::report::determinant_key(det.kind),
                                   det.evaluated, det.compatible, det.detail});
  }
  record.missing_libraries = p.missing_libraries.size();
  record.resolved_libraries = p.resolved_libraries.size();
  record.unresolved_libraries = p.unresolved_libraries.size();
  record.provenance = p.provenance;
}

// ---- paper matrix: eval::Experiment::run / migrate_one (experiment.cpp) --

// The per-binary source-phase memo (Experiment::source_phase_for).
class SourceMemo {
 public:
  const support::Result<SourcePhaseOutput>& get(
      Tracer& tracer, const feam::eval::TestBinary& binary, site::Site& home,
      const FeamConfig& config, MigrationCaches& caches) {
    Entry* entry = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto& slot = entries_[binary.home_site + "|" + binary.path];
      if (!slot) slot = std::make_unique<Entry>();
      entry = slot.get();
    }
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->value) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      obs::counter("source_phase.memo_hits").add();
      obs::counter("cache.hits", {.site = binary.home_site, .cache = "source"})
          .add();
      return *entry->value;
    }
    {
      site::SubtreeLeases lease({{&home, binary.path}});
      site::ShellSession shell(home);
      home.unload_all_modules();
      home.load_module(module_name_of(binary.stack));
      Span span(tracer, Layer::kSourcePhase);
      entry->value.emplace(
          feam::run_source_phase(home, binary.path, config, &caches));
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("source_phase.memo_misses").add();
    obs::counter("cache.misses", {.site = binary.home_site, .cache = "source"})
        .add();
    return *entry->value;
  }

  MemoCounts counts() const {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }

 private:
  struct Entry {
    std::mutex mutex;
    std::optional<support::Result<SourcePhaseOutput>> value;
  };
  std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

std::optional<std::string> choose_matching_module(
    const site::Site& target, site::MpiImpl impl,
    site::CompilerFamily preferred_compiler) {
  const site::MpiStackInstall* fallback = nullptr;
  for (const auto& stack : target.stacks) {
    if (stack.impl != impl || !stack.advertised) continue;
    if (stack.compiler == preferred_compiler) return module_name_of(stack);
    if (fallback == nullptr) fallback = &stack;
  }
  if (fallback != nullptr) return module_name_of(*fallback);
  return std::nullopt;
}

bool impl_available(const site::Site& target, site::MpiImpl impl) {
  return std::any_of(target.stacks.begin(), target.stacks.end(),
                     [&](const auto& stack) { return stack.impl == impl; });
}

struct PaperRun {
  const feam::eval::ExperimentOptions& options;
  Tracer& tracer;
  MigrationCaches& caches;
  SourceMemo& memo;
};

feam::eval::MigrationResult migrate_one(const PaperRun& run,
                                        const feam::eval::TestBinary& binary,
                                        site::Site& home, site::Site& target) {
  const auto& options = run.options;
  Tracer& tracer = run.tracer;
  obs::Span span("eval.migrate", {{"binary", binary.workload.program.name},
                                  {"home", binary.home_site},
                                  {"target", target.name}});

  feam::eval::MigrationResult result;
  result.binary_name = binary.workload.program.name + "." + binary.stack.slug();
  result.suite = binary.workload.suite;
  result.home_site = binary.home_site;
  result.target_site = target.name;

  const std::string migrated_path =
      "/home/user/migrated/" + result.binary_name + "." + binary.home_site;
  const std::string resolution_root =
      "/home/user/feam_resolved/" + result.binary_name + "." + binary.home_site;
  FeamConfig config;
  config.hello_world_ranks = options.ranks;

  site::SubtreeLeases lease(
      {{&target, migrated_path}, {&target, resolution_root}});
  site::ShellSession shell(target);

  {
    Span write(tracer, Layer::kWrite);
    const support::Bytes* content = home.vfs.read(binary.path);
    if (content == nullptr) {
      result.failure_attribution = "io";
      result.failure_detail =
          "reading " + binary.path + " at " + home.name + " failed";
      return result;
    }
    if (!target.vfs.write_file(migrated_path, *content)) {
      result.failure_attribution = "io";
      result.failure_detail =
          "copying to " + migrated_path + " at " + target.name + " failed";
      return result;
    }
  }

  std::optional<support::Error> phase_error;
  {
    TecOptions basic_opts;
    basic_opts.apply_resolution = false;
    basic_opts.run_usability_tests = options.run_usability_tests;
    const auto basic = target_phase(tracer, target, migrated_path, nullptr,
                                    config, basic_opts, run.caches);
    result.basic_ready = basic.ok() && basic.value().prediction.ready;
    if (!basic.ok() && support::failure_category(basic.code()) == "parse") {
      phase_error = basic.full_error();
    }
  }

  const support::Result<SourcePhaseOutput>& source =
      run.memo.get(tracer, binary, home, config, run.caches);
  if (!source.ok() && !phase_error &&
      support::failure_category(source.code()) == "parse") {
    phase_error = source.full_error();
  }

  TecOptions ext_opts;
  ext_opts.resolution_root = resolution_root;
  ext_opts.recursive_copy_validation = options.recursive_copy_validation;
  ext_opts.apply_resolution = options.apply_resolution;
  ext_opts.run_usability_tests = options.run_usability_tests;
  std::optional<feam::TargetPhaseOutput> extended;
  if (source.ok()) {
    auto r = target_phase(tracer, target, migrated_path, &source.value(),
                          config, ext_opts, run.caches);
    if (r.ok()) {
      extended = std::move(r).take();
    } else if (!phase_error &&
               support::failure_category(r.code()) == "parse") {
      phase_error = r.full_error();
    }
  }
  if (extended) {
    result.extended_ready = extended->prediction.ready;
    result.extended_prediction = extended->prediction;
    result.missing_library_count =
        extended->prediction.missing_libraries.size();
    result.resolved_library_count =
        extended->prediction.resolved_libraries.size();
  }

  const auto mpiexec = [&](const std::vector<std::string>& extra) {
    Span launch(tracer, Layer::kMpiexec);
    return feam::toolchain::mpiexec_with_retries(
        target, migrated_path, options.ranks, extra, options.retry_attempts,
        &run.caches.resolver);
  };
  target.unload_all_modules();
  const auto module = choose_matching_module(target, binary.stack.impl,
                                             binary.stack.compiler);
  if (module) {
    target.load_module(*module);
    const auto launched = mpiexec({});
    result.success_before_resolution = launched.success();
    result.status_before = launched.status;
    target.unload_all_modules();
  } else {
    result.status_before = feam::toolchain::RunStatus::kNoMpiStackSelected;
  }

  if (extended && extended->prediction.selected_stack_id) {
    const auto extra =
        feam::Tec::apply_configuration(target, extended->prediction);
    const auto launched = mpiexec(extra);
    result.success_after_resolution = launched.success();
    result.status_after = launched.status;
    target.unload_all_modules();
  } else if (module) {
    result.success_after_resolution = result.success_before_resolution;
    result.status_after = result.status_before;
  } else {
    result.status_after = feam::toolchain::RunStatus::kNoMpiStackSelected;
  }

  {
    Span restore(tracer, Layer::kRestore);
    target.vfs.remove(migrated_path);
    for (const auto& dir : result.extended_prediction.resolution_dirs) {
      target.vfs.remove(dir);
    }
    target.vfs.remove(resolution_root);
  }

  if (phase_error) {
    result.failure_attribution = "parse";
    result.failure_detail = phase_error->message;
  }
  return result;
}

}  // namespace

ReplicaResult traced_fleet(feam::fleet::Fleet& fleet, int jobs,
                           Tracer& tracer) {
  ReplicaResult out;
  MigrationCaches caches;
  std::vector<site::Site*> sites;
  sites.reserve(fleet.sites.size());
  for (const auto& s : fleet.sites) sites.push_back(s.get());

  site::Site& anchor = fleet.anchor();
  const FeamConfig config{};
  std::vector<feam::report::RunRecord> records;
  records.reserve(fleet.workloads.size() * sites.size());

  for (std::size_t w = 0; w < fleet.workloads.size(); ++w) {
    const auto& workload = fleet.workloads[w];
    const auto& stack =
        anchor.stacks[static_cast<std::size_t>(fleet.build_stack[w])];
    const std::string path = "/home/user/apps/" + workload.program.name;
    const bool compiled = [&] {
      Span span(tracer, Layer::kCompile);
      return feam::toolchain::compile_mpi_program(anchor, workload.program,
                                                  stack, path)
          .ok();
    }();
    if (!compiled) {
      for (const site::Site* s : sites) {
        auto record = pair_record(anchor.name, workload.program.name, s->name);
        record.exit_code = 1;
        records.push_back(std::move(record));
      }
      continue;
    }

    std::optional<SourcePhaseOutput> source;
    {
      site::ShellSession shell(anchor);
      anchor.unload_all_modules();
      anchor.load_module(module_name_of(stack));
      Span span(tracer, Layer::kSourcePhase);
      auto phase = feam::run_source_phase(anchor, path, config, &caches);
      if (phase.ok()) source.emplace(std::move(phase).take());
    }

    const support::Bytes* data = anchor.vfs.read(path);
    const support::Bytes binary_bytes =
        data != nullptr ? *data : support::Bytes{};
    const SourcePhaseOutput* source_ptr = source ? &*source : nullptr;
    // survey_sites at jobs > 1: one pool per survey, results in input-order
    // slots, then ranked best first for the human report.
    std::vector<feam::SurveyEntry> entries(sites.size());
    {
      Span survey(tracer, Layer::kSurvey, static_cast<std::int64_t>(w));
      obs::Span survey_span("feam.survey",
                            {{"binary", workload.program.name},
                             {"sites", std::to_string(sites.size())},
                             {"jobs", std::to_string(jobs)}});
      const std::string probe = "/home/user/" + workload.program.name;
      const auto pair_id = [&](std::size_t i) {
        return static_cast<std::int64_t>(w * sites.size() + i);
      };
      support::ThreadPool pool(jobs, obs::pool_task_recorder());
      for (std::size_t i = 0; i < sites.size(); ++i) {
        pool.submit([&, i] {
          Span pair(tracer, Layer::kPair, pair_id(i));
          site::Site& s = *sites[i];
          site::SubtreeLeases lease(
              {{&s, probe}, {&s, TecOptions{}.resolution_root}});
          site::ShellSession shell(s);
          entries[i] = assess_site(tracer, s, probe, binary_bytes, source_ptr,
                                   config, caches);
        });
      }
      pool.wait();
      std::stable_sort(entries.begin(), entries.end(),
                       [](const feam::SurveyEntry& a,
                          const feam::SurveyEntry& b) {
                         if (a.ready != b.ready) return a.ready;
                         if (a.ready) {
                           return a.resolved_copies < b.resolved_copies;
                         }
                         return a.blocking_determinant <
                                b.blocking_determinant;
                       });
    }
    anchor.vfs.remove(path);

    // Back to fleet input order by site name, as run_fleet does.
    std::map<std::string_view, const feam::SurveyEntry*> by_site;
    for (const auto& entry : entries) by_site[entry.site_name] = &entry;
    for (const site::Site* s : sites) {
      auto record = pair_record(anchor.name, workload.program.name, s->name);
      if (const auto it = by_site.find(s->name); it != by_site.end()) {
        fill_from_entry(record, *it->second);
      } else {
        record.exit_code = 1;
      }
      records.push_back(std::move(record));
    }

    if (fleet.spec.drift_rate > 0 && w + 1 < fleet.workloads.size()) {
      Span span(tracer, Layer::kDrift);
      out.drift_ops +=
          feam::fleet::apply_drift_round(fleet, static_cast<int>(w)).size();
    }
  }

  count_memos(caches, out);
  out.memos["source"] = {};
  serialize(records, tracer, out);
  return out;
}

ReplicaResult traced_paper(feam::eval::Experiment& experiment,
                           const feam::eval::ExperimentOptions& options,
                           Tracer& tracer) {
  ReplicaResult out;
  MigrationCaches caches;
  SourceMemo memo;
  const PaperRun run{options, tracer, caches, memo};
  obs::Span span("eval.run_matrix", {{"jobs", std::to_string(options.jobs)}});

  std::vector<site::Site*> sites;
  for (const auto& name : feam::toolchain::testbed_site_names()) {
    sites.push_back(&experiment.site(name));
  }
  struct Job {
    const feam::eval::TestBinary* binary;
    site::Site* home;
    site::Site* target;
  };
  std::vector<Job> jobs;
  for (const auto& binary : experiment.test_set()) {
    for (site::Site* target : sites) {
      if (target->name == binary.home_site) continue;
      if (!impl_available(*target, binary.stack.impl)) continue;
      jobs.push_back({&binary, &experiment.site(binary.home_site), target});
    }
  }

  std::vector<std::optional<feam::eval::MigrationResult>> slots(jobs.size());
  const auto migrate = [&](std::size_t i) {
    Span pair(tracer, Layer::kPair, static_cast<std::int64_t>(i));
    slots[i] = migrate_one(run, *jobs[i].binary, *jobs[i].home,
                           *jobs[i].target);
  };
  // Round-robin across binaries, as Experiment::run submits at jobs > 1.
  std::vector<std::size_t> order;
  order.reserve(jobs.size());
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for (std::size_t i = 0; i < jobs.size();) {
    std::size_t j = i;
    while (j < jobs.size() && jobs[j].binary == jobs[i].binary) ++j;
    runs.emplace_back(i, j);
    i = j;
  }
  for (bool more = true; more;) {
    more = false;
    for (auto& [begin, end] : runs) {
      if (begin == end) continue;
      order.push_back(begin++);
      more = true;
    }
  }
  {
    support::ThreadPool pool(options.jobs, obs::pool_task_recorder());
    for (const std::size_t i : order) {
      pool.submit([&migrate, i] { migrate(i); });
    }
    pool.wait();
  }
  std::vector<feam::eval::MigrationResult> results;
  results.reserve(slots.size());
  for (auto& slot : slots) {
    if (slot) results.push_back(std::move(*slot));
  }
  for (site::Site* s : sites) s->vfs.remove("/home/user/feam_resolved");

  count_memos(caches, out);
  out.memos["source"] = memo.counts();
  serialize(feam::eval::to_run_records(results), tracer, out);
  return out;
}

}  // namespace perfbench
