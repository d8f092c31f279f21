// The fleet pipeline's determinism guarantee, with drift switched ON:
// the same (spec, seed) reproduces a byte-identical fleet manifest, drift
// log and readiness matrix at every job count. Drift rounds land at
// barrier points between per-workload surveys and fan out per site, so
// the mutation schedule — and therefore every record — is independent of
// the pool's thread count. Registered in ctest next to the existing
// parallel-determinism suites.
#include <gtest/gtest.h>

#include <string>

#include "eval/fleet.hpp"
#include "fleet/drift.hpp"
#include "fleet/generate.hpp"
#include "fleet/manifest.hpp"
#include "fleet/spec.hpp"

namespace feam::fleet {
namespace {

struct FleetRun {
  std::string manifest;
  std::string records;
  std::string matrix;
  std::string drift_log;
  std::size_t drift_ops = 0;
};

FleetRun run_once(int jobs, bool use_caches) {
  FleetSpec spec;
  spec.name = "det";
  spec.sites = 10;
  spec.workloads = 4;
  spec.drift_rate = 1.0;  // every round mutates ~1 path per site
  spec.container_rate = 0.4;
  spec.broken_module_rate = 0.3;
  spec.symlink_farm_rate = 0.4;

  Fleet fleet = generate_fleet(spec, 20130613);
  FleetRun out;
  out.manifest = fleet_manifest(fleet).dump(2);

  eval::FleetRunOptions options;
  options.jobs = jobs;
  options.use_caches = use_caches;
  const auto result = eval::run_fleet(fleet, options);
  out.records = result.records_jsonl();
  out.matrix = result.readiness_matrix();
  out.drift_log = drift_log_jsonl(result.drift_log);
  out.drift_ops = result.drift_log.size();
  return out;
}

TEST(FleetDeterminism, ManifestAndMatrixIdenticalAtEveryJobCount) {
  const FleetRun jobs1 = run_once(1, true);
  ASSERT_FALSE(jobs1.records.empty());
  ASSERT_GT(jobs1.drift_ops, 0u) << "drift must actually fire in this test";

  for (const int jobs : {4, 8}) {
    const FleetRun pooled = run_once(jobs, true);
    EXPECT_EQ(pooled.manifest, jobs1.manifest) << "jobs=" << jobs;
    EXPECT_EQ(pooled.records, jobs1.records) << "jobs=" << jobs;
    EXPECT_EQ(pooled.matrix, jobs1.matrix) << "jobs=" << jobs;
    EXPECT_EQ(pooled.drift_log, jobs1.drift_log) << "jobs=" << jobs;
  }

  // The memoization layer is transparent even while sites drift under
  // it: a drifted site's fingerprint moves, the EDC memo re-verifies,
  // and the uncached run agrees record for record — stale scans are
  // never served.
  const FleetRun uncached = run_once(1, false);
  EXPECT_EQ(uncached.records, jobs1.records);
  EXPECT_EQ(uncached.matrix, jobs1.matrix);
  EXPECT_EQ(uncached.drift_log, jobs1.drift_log);
}

}  // namespace
}  // namespace feam::fleet
