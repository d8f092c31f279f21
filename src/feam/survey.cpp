#include "feam/survey.hpp"

#include <algorithm>
#include <utility>

#include "feam/caches.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "site/lease.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace feam {

std::size_t SurveyReport::ready_count() const {
  return static_cast<std::size_t>(
      std::count_if(entries.begin(), entries.end(),
                    [](const SurveyEntry& e) { return e.ready; }));
}

std::string SurveyReport::render() const {
  support::TextTable table({"#", "Site", "Verdict", "Detail"});
  int rank = 1;
  for (const auto& entry : entries) {
    std::string verdict = entry.ready ? "READY" : "not ready";
    if (entry.ready && entry.resolved_copies > 0) {
      verdict += " (" + std::to_string(entry.resolved_copies) + " copies)";
    }
    table.add_row({std::to_string(rank++), entry.site_name, verdict,
                   entry.ready ? entry.reason
                               : entry.blocking_determinant + ": " +
                                     entry.reason});
  }
  return table.render();
}

namespace {

// Assesses one site. When other workers may touch the site concurrently,
// the caller must lease the probe subtrees (binary path and the default
// resolution root) and wrap the call in a shell session. The site is
// restored exactly as found: migrated binary and resolution directories
// removed (including the default resolution root, which may exist even
// when the phase errored after partial resolution), loaded modules
// reinstated.
SurveyEntry assess_site(site::Site& s, const std::string& path,
                        const support::Blob& binary,
                        const SourcePhaseOutput* source,
                        const FeamConfig& config,
                        MigrationCaches* caches) {
  obs::Span site_span("survey.site", {{"site", s.name}});
  obs::counter("survey.sites_assessed").add();
  const std::vector<std::string> modules_before = s.loaded_modules();
  s.vfs.write_file(path, binary);
  auto result =
      run_target_phase(s, path, source, config, TecOptions{}, caches);
  SurveyEntry entry;
  entry.site_name = s.name;
  if (!result.ok()) {
    entry.blocking_determinant = "error";
    entry.reason = result.error();
  } else {
    entry.prediction = std::move(result).take().prediction;
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
          entry.blocking_determinant = determinant_name(det.kind);
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
  // Leave the site as found.
  s.vfs.remove(path);
  for (const auto& dir : entry.prediction.resolution_dirs) s.vfs.remove(dir);
  s.vfs.remove(TecOptions{}.resolution_root);
  if (s.loaded_modules() != modules_before) {
    s.unload_all_modules();
    for (const auto& name : modules_before) s.load_module(name);
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

}  // namespace

SurveyReport survey_sites(std::span<site::Site* const> sites,
                          std::string_view binary_name,
                          const support::Blob& binary,
                          const SourcePhaseOutput* source,
                          const FeamConfig& config,
                          const SurveyOptions& options) {
  SurveyReport report;
  obs::Span survey_span("feam.survey",
                        {{"binary", std::string(binary_name)},
                         {"sites", std::to_string(sites.size())},
                         {"jobs", std::to_string(options.jobs)}});
  const std::string path = "/home/user/" + std::string(binary_name);

  // Input-order result slots: the report is independent of completion
  // order, so every job count produces the same ranking.
  std::vector<SurveyEntry> entries(sites.size());
  if (options.jobs > 1 && sites.size() > 1) {
    support::ThreadPool pool(options.jobs, obs::pool_task_recorder());
    for (std::size_t i = 0; i < sites.size(); ++i) {
      pool.submit([&, i] {
        site::Site& s = *sites[i];
        // Survey fans out across *distinct* sites, so these leases are
        // uncontended within one survey; they exist to coordinate with any
        // concurrent migration writing the same probe subtree, and the
        // shell session keeps module churn private to this worker.
        site::SubtreeLeases lease(
            {{&s, path}, {&s, TecOptions{}.resolution_root}});
        site::ShellSession shell(s);
        entries[i] = assess_site(s, path, binary, source, config,
                                 options.caches);
      });
    }
    pool.wait();
  } else {
    for (std::size_t i = 0; i < sites.size(); ++i) {
      entries[i] = assess_site(*sites[i], path, binary, source, config,
                               options.caches);
    }
  }
  report.entries = std::move(entries);

  // Rank: ready first (fewer copies to ship first), then blocked sites
  // alphabetically by determinant for a stable, readable report.
  std::stable_sort(report.entries.begin(), report.entries.end(),
                   [](const SurveyEntry& a, const SurveyEntry& b) {
                     if (a.ready != b.ready) return a.ready;
                     if (a.ready) return a.resolved_copies < b.resolved_copies;
                     return a.blocking_determinant < b.blocking_determinant;
                   });
  return report;
}

}  // namespace feam
