// Multi-site assessment: the workflow the paper's conclusion motivates —
// "For scientists who do not have much experience, time, or support to
// explore new computing sites ... FEAM provides an efficient automated
// solution for quickly assessing many new computing sites."
//
// Given a binary (and optionally its source-phase bundle), runs the target
// phase at every candidate site. The report keeps one entry per site in
// input order; render() ranks them: ready sites first (fewest resolved
// copies first — less to ship), then not-ready sites grouped by the
// determinant that blocked them.
//
// Sites are independent, so the assessments fan out on a thread pool the
// caller owns (`SurveyOptions::pool`; none means the calling thread). Each
// assessment leases its site's probe subtrees and runs in a private shell
// session, and results land in input-order slots, so the report is
// identical on any pool size.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "feam/phases.hpp"
#include "site/site.hpp"
#include "support/blob.hpp"

namespace feam::support {
class ThreadPool;  // support/thread_pool.hpp
}  // namespace feam::support

namespace feam {

struct SurveyEntry {
  std::string site_name;
  bool ready = false;
  std::string blocking_determinant;  // empty when ready
  std::string reason;
  std::size_t resolved_copies = 0;   // libraries resolution had to install
  Prediction prediction;
};

struct SurveyReport {
  std::vector<SurveyEntry> entries;  // in site input order
  std::size_t ready_count() const;
  // The ranked table: ready sites first (fewest resolved copies first),
  // then blocked sites alphabetically by determinant.
  std::string render() const;
};

struct SurveyOptions {
  // Pool the assessments fan out on; nullptr = the calling thread. The
  // caller owns it, so one pool can serve many surveys. The calling thread
  // runs assessments too, so it must hold no lease, shell session, fault
  // witness or provenance scope across the call (thread_pool.hpp).
  support::ThreadPool* pool = nullptr;
  // Optional memoization bundle (caches.hpp); nullptr = uncached.
  MigrationCaches* caches = nullptr;
};

// Surveys `sites` for the binary `binary` (each site's
// /home/user/<binary_name> shares this one blob). `source` enables the
// extended prediction and resolution. Sites are evaluated independently;
// each is restored exactly as found — migrated binary and resolution root
// removed, module churn confined to the assessment's shell session — even
// when the target phase errors.
SurveyReport survey_sites(std::span<site::Site* const> sites,
                          std::string_view binary_name,
                          const support::Blob& binary,
                          const SourcePhaseOutput* source = nullptr,
                          const FeamConfig& config = {},
                          const SurveyOptions& options = {});

}  // namespace feam
