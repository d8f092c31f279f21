#include "feam/survey.hpp"

#include <algorithm>
#include <optional>
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
  // Rank: ready first (fewer copies to ship first), then blocked sites
  // alphabetically by determinant for a stable, readable report.
  std::vector<const SurveyEntry*> ranked;
  ranked.reserve(entries.size());
  for (const auto& entry : entries) ranked.push_back(&entry);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const SurveyEntry* a, const SurveyEntry* b) {
                     if (a->ready != b->ready) return a->ready;
                     if (a->ready) {
                       return a->resolved_copies < b->resolved_copies;
                     }
                     return a->blocking_determinant < b->blocking_determinant;
                   });
  support::TextTable table({"#", "Site", "Verdict", "Detail"});
  int rank = 1;
  for (const SurveyEntry* entry : ranked) {
    std::string verdict = entry->ready ? "READY" : "not ready";
    if (entry->ready && entry->resolved_copies > 0) {
      verdict += " (" + std::to_string(entry->resolved_copies) + " copies)";
    }
    table.add_row({std::to_string(rank++), entry->site_name, verdict,
                   entry->ready ? entry->reason
                                : entry->blocking_determinant + ": " +
                                      entry->reason});
  }
  return table.render();
}

namespace {

// Assesses one site. The leases on its probe subtrees (binary path and the
// default resolution root) are uncontended within one survey, which visits
// distinct sites; they coordinate with any concurrent migration writing
// the same subtree. The shell session keeps module churn private to this
// thread. The site is left as found: the migrated binary and the
// resolution root (which holds every resolution directory, and may exist
// even when the phase errored after partial resolution) are removed.
SurveyEntry assess_site(site::Site& s, const std::string& path,
                        const support::Blob& binary,
                        const SourcePhaseOutput* source,
                        const FeamConfig& config,
                        MigrationCaches* caches) {
  site::SubtreeLeases lease({{&s, path}, {&s, TecOptions{}.resolution_root}});
  site::ShellSession shell(s);
  obs::Span site_span("survey.site", {{"site", s.name}});
  obs::counter("survey.sites_assessed").add();
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
  s.vfs.remove(TecOptions{}.resolution_root);
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
  std::optional<support::ThreadPool> calling_thread;
  support::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : calling_thread.emplace(1);
  obs::Span survey_span("feam.survey",
                        {{"binary", std::string(binary_name)},
                         {"sites", std::to_string(sites.size())},
                         {"jobs", std::to_string(pool.size())}});
  const std::string path = "/home/user/" + std::string(binary_name);

  // Input-order result slots: the report is independent of completion
  // order, so every pool size produces the same entries.
  SurveyReport report;
  report.entries.resize(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    pool.submit([&, i] {
      report.entries[i] = assess_site(*sites[i], path, binary, source, config,
                                      options.caches);
    });
  }
  pool.wait();
  return report;
}

}  // namespace feam
