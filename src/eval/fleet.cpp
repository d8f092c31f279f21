#include "eval/fleet.hpp"

#include <iterator>
#include <optional>
#include <utility>

#include "feam/caches.hpp"
#include "feam/survey.hpp"
#include "obs/metrics.hpp"
#include "report/aggregate.hpp"
#include "support/thread_pool.hpp"
#include "toolchain/linker.hpp"

namespace feam::eval {

namespace {

report::RunRecord pair_record(const std::string& source_site,
                              const std::string& binary,
                              const std::string& target_site) {
  report::RunRecord record;
  record.command = "fleet";
  record.binary = binary;
  record.source_site = source_site;
  record.target_site = target_site;
  record.mode = "extended";
  return record;
}

// Consumes the entry: its verdict details and evidence move into the record.
void fill_from_entry(report::RunRecord& record, SurveyEntry&& entry) {
  record.has_prediction = entry.blocking_determinant != "error";
  record.exit_code = record.has_prediction ? 0 : 1;
  record.ready = entry.ready;
  Prediction& p = entry.prediction;
  for (auto& det : p.determinants) {
    record.determinants.push_back({report::determinant_key(det.kind),
                                   det.evaluated, det.compatible,
                                   std::move(det.detail)});
  }
  record.missing_libraries = p.missing_libraries.size();
  record.resolved_libraries = p.resolved_libraries.size();
  record.unresolved_libraries = p.unresolved_libraries.size();
  record.provenance = std::move(p.provenance);
}

}  // namespace

std::string FleetRunResult::records_jsonl() const {
  support::ThreadPool pool(jobs, obs::pool_task_recorder());
  return report::records_jsonl(records, &pool);
}

std::string FleetRunResult::readiness_matrix() const {
  std::vector<report::RunRecord> copy = records;
  const report::Aggregate aggregate =
      report::aggregate_records(std::move(copy));
  return report::render_readiness_matrix(aggregate);
}

FleetRunResult run_fleet(fleet::Fleet& fleet, const FleetRunOptions& options) {
  FleetRunResult result;
  result.jobs = options.jobs;
  std::optional<MigrationCaches> caches;
  if (options.use_caches) caches.emplace();
  MigrationCaches* cache_ptr = caches ? &*caches : nullptr;

  std::vector<site::Site*> sites;
  sites.reserve(fleet.sites.size());
  for (const auto& s : fleet.sites) sites.push_back(s.get());

  site::Site& anchor = fleet.anchor();
  const FeamConfig config{};
  result.records.reserve(fleet.workloads.size() * fleet.sites.size());
  // One pool for every survey and drift round, which are its only tasks;
  // this thread holds nothing thread-scoped while one runs.
  support::ThreadPool pool(options.jobs, obs::pool_task_recorder());

  for (std::size_t w = 0; w < fleet.workloads.size(); ++w) {
    const auto& workload = fleet.workloads[w];
    const auto& stack =
        anchor.stacks[static_cast<std::size_t>(fleet.build_stack[w])];
    const std::string path = "/home/user/apps/" + workload.program.name;
    const auto compiled =
        toolchain::compile_mpi_program(anchor, workload.program, stack, path);
    if (!compiled.ok()) {
      // Keep the matrix rectangular: a build failure shows up as a full
      // row of failed records, never as a silently shorter matrix.
      ++result.compile_failures;
      for (const site::Site* s : sites) {
        report::RunRecord record =
            pair_record(anchor.name, workload.program.name, s->name);
        record.exit_code = 1;
        result.records.push_back(std::move(record));
      }
      continue;
    }

    // Source phase once per workload, in the guaranteed environment at
    // the anchor; its bundle travels to every site of the survey.
    std::optional<SourcePhaseOutput> source;
    if (auto phase = run_source_phase(anchor, path, stack, config, cache_ptr);
        phase.ok()) {
      source.emplace(std::move(phase).take());
    }

    // Every site receives the anchor file's own blob, not a copy of it.
    support::Blob binary = anchor.vfs.read_blob(path);
    if (binary == nullptr) binary = support::intern({});
    SurveyOptions survey_options;
    survey_options.pool = &pool;
    survey_options.caches = cache_ptr;
    SurveyReport survey =
        survey_sites(sites, workload.program.name, binary,
                     source ? &*source : nullptr, config, survey_options);
    anchor.vfs.remove(path);

    // Survey entries are in fleet input order, so record i is site i's.
    for (std::size_t i = 0; i < sites.size(); ++i) {
      report::RunRecord record =
          pair_record(anchor.name, workload.program.name, sites[i]->name);
      fill_from_entry(record, std::move(survey.entries[i]));
      if (record.ready) ++result.ready_pairs;
      result.records.push_back(std::move(record));
    }

    // Rolling upgrades land between sweeps — a barrier point, so the
    // drift schedule is independent of the survey's job count.
    if (fleet.spec.drift_rate > 0 && w + 1 < fleet.workloads.size()) {
      auto ops = fleet::apply_drift_round(fleet, static_cast<int>(w), &pool);
      result.drift_log.insert(result.drift_log.end(),
                              std::make_move_iterator(ops.begin()),
                              std::make_move_iterator(ops.end()));
    }
  }

  if (caches) {
    result.caches.edc_hits = caches->edc.hits();
    result.caches.edc_misses = caches->edc.misses();
    result.caches.bdc_hits = caches->bdc.hits();
    result.caches.bdc_misses = caches->bdc.misses();
    result.caches.resolver_hits = caches->resolver.hits();
    result.caches.resolver_misses = caches->resolver.misses();
  }
  return result;
}

}  // namespace feam::eval
