// Rolling-upgrade drift: seeded mutations of live site state between
// queries, exercising discovery_fingerprint() and Vfs-generation
// invalidation at fleet scale.
//
// A drift round walks every generated site (the anchor is exempt — the
// build environment stays stable) and applies a sampled number of
// administrator actions: touching a module file, breaking or repairing
// the module database, re-installing an MPI stack's packages, or bumping
// the OS identity files. Each action is a *system-path* write, so it
// moves the site's discovery fingerprint and forces the EDC memo to
// re-verify — never to serve a stale scan. Container sites are unsealed,
// mutated, and resealed, modeling an image rebuild.
//
// Drift is schedule-deterministic: every draw comes from an Rng stream
// derived from (fleet seed, round, site index), so the mutation sequence
// is a pure function of the fleet — independent of thread count or
// timing. A round touches each site's own Vfs and nothing else of another
// site (the blob interner it writes through is thread-safe), so its sites
// fan out on a pool, one task per site, and their ops are logged in site
// order. The fleet driver applies rounds at barrier points between
// per-workload surveys, which keeps the whole readiness matrix
// byte-identical at any job count even with drift enabled.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "fleet/generate.hpp"

namespace feam::support {
class ThreadPool;  // support/thread_pool.hpp
}

namespace feam::fleet {

inline constexpr std::string_view kDriftLogSchema = "feam.drift_log/1";

struct DriftOp {
  int site_index = 0;
  std::string site;
  std::string kind;    // "touch-module" | "break-module" | "repair-modules"
                       // | "reinstall-stack" | "os-bump"
  std::string detail;  // human-readable object of the action
  // Barrier round the op was applied at (== the workload index whose survey
  // preceded it). `feam diff` uses it to attribute verdict flips: a flip of
  // workload w can only be caused by ops with round < w on the same site.
  int round = 0;
};

// Applies drift round `round` to every non-anchor site at the spec's
// drift_rate (expected mutations per site per round). Returns the ops
// actually applied, in site order, at any pool size. No-op when drift_rate
// is 0. Each site's ops run as one task on `pool` (nullptr = the calling
// thread); the calling thread runs tasks too, so it must hold no shell
// session, lease, fault witness or provenance scope (thread_pool.hpp).
std::vector<DriftOp> apply_drift_round(Fleet& fleet, int round,
                                       support::ThreadPool* pool = nullptr);

// One feam.drift_log/1 JSON line per op — the artifact `feam diff` joins
// against run-record streams to attribute verdict flips to drift.
std::string drift_log_jsonl(const std::vector<DriftOp>& ops);

}  // namespace feam::fleet
