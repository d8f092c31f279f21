// Multi-site assessment: the workflow the paper's conclusion motivates —
// "For scientists who do not have much experience, time, or support to
// explore new computing sites ... FEAM provides an efficient automated
// solution for quickly assessing many new computing sites."
//
// Given a binary (and optionally its source-phase bundle), runs the target
// phase at every candidate site and ranks the verdicts: ready sites first
// (fewest resolved copies first — less to ship), then not-ready sites
// grouped by the determinant that blocked them.
//
// Sites are independent, so with `SurveyOptions::jobs > 1` the assessments
// fan out across a thread pool — each worker holds its site's lease for
// the whole assessment, and results land in input-order slots, so the
// report is identical at any job count.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "feam/phases.hpp"
#include "site/site.hpp"
#include "support/blob.hpp"

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
  std::vector<SurveyEntry> entries;  // ranked best-first
  std::size_t ready_count() const;
  std::string render() const;
};

struct SurveyOptions {
  // Worker threads assessing sites concurrently; 1 = inline sequential.
  int jobs = 1;
  // Optional memoization bundle (caches.hpp); nullptr = uncached.
  MigrationCaches* caches = nullptr;
};

// Surveys `sites` for the binary `binary` (each site's
// /home/user/<binary_name> shares this one blob). `source` enables the
// extended prediction and resolution. Sites are evaluated independently;
// each is restored exactly as found — migrated binary removed, resolution
// directories removed, and the module load state reinstated — even when
// the target phase errors.
SurveyReport survey_sites(std::span<site::Site* const> sites,
                          std::string_view binary_name,
                          const support::Blob& binary,
                          const SourcePhaseOutput* source = nullptr,
                          const FeamConfig& config = {},
                          const SurveyOptions& options = {});

}  // namespace feam
