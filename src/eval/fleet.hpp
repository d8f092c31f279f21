// The fleet-aware experiment driver: compiles every generated workload at
// the fleet's anchor site, runs the source phase once per workload, and
// surveys the entire fleet with it — an N-site x M-workload readiness
// matrix produced through the same survey/cache machinery migrations use.
// Every survey and every drift round of a run fans out on one pool of
// `FleetRunOptions::jobs`, and records_jsonl() on a pool as large.
//
// Drift interleaving: when the spec enables rolling-upgrade drift, one
// drift round is applied *between* per-workload surveys — a barrier
// point, fanned out per site. Inside a survey, sites are only read (probe
// writes land in scratch, which the discovery fingerprint excludes); a
// round writes each site from one task; and both land results in
// input-order slots, so the full matrix is byte-identical at any job
// count even with drift on. Drifted sites change fingerprint, so the EDC
// memo re-verifies them instead of serving a stale scan; the cached and
// uncached runs of the same fleet therefore produce identical records —
// the invariant the fleet bench gate enforces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/drift.hpp"
#include "fleet/generate.hpp"
#include "report/run_record.hpp"

namespace feam::eval {

struct FleetRunOptions {
  // Size of the one pool all surveys and drift rounds of the run share.
  int jobs = 1;
  bool use_caches = true;
};

struct FleetCacheStats {
  std::uint64_t edc_hits = 0, edc_misses = 0;
  std::uint64_t bdc_hits = 0, bdc_misses = 0;
  std::uint64_t resolver_hits = 0, resolver_misses = 0;

  static double rate(std::uint64_t hits, std::uint64_t misses) {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
  double edc_hit_rate() const { return rate(edc_hits, edc_misses); }
  double bdc_hit_rate() const { return rate(bdc_hits, bdc_misses); }
  double resolver_hit_rate() const {
    return rate(resolver_hits, resolver_misses);
  }
};

struct FleetRunResult {
  // One feam.run_record/1 per (workload, site) pair, workload-major in
  // fleet input order — deterministic, so byte equality of records_jsonl()
  // across runs proves the whole matrix matched.
  std::vector<report::RunRecord> records;
  std::vector<fleet::DriftOp> drift_log;
  FleetCacheStats caches;
  std::size_t ready_pairs = 0;
  std::size_t compile_failures = 0;
  // The run's FleetRunOptions::jobs.
  int jobs = 1;

  std::size_t pairs() const { return records.size(); }
  // Compact JSONL dump (one record per line) — the artifact `feam report`
  // ingests and the byte-identity witness for determinism checks. Written
  // on a pool of `jobs`; the bytes are the same at any size.
  std::string records_jsonl() const;
  // The aggregated readiness matrix table (report pipeline rendering).
  std::string readiness_matrix() const;
};

FleetRunResult run_fleet(fleet::Fleet& fleet,
                         const FleetRunOptions& options = {});

}  // namespace feam::eval
