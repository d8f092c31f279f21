// Properties of the procedural fleet generator that must hold for every
// (spec, seed): generated sites are survey-safe (a full survey restores
// each site's discovery fingerprint exactly), repeated surveys of an
// unmutated fleet are byte-identical, and the manifest is a pure function
// of (spec, seed).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "eval/fleet.hpp"
#include "fleet/generate.hpp"
#include "fleet/manifest.hpp"
#include "fleet/spec.hpp"

namespace feam::fleet {
namespace {

FleetSpec archetype_heavy_spec() {
  FleetSpec spec;
  spec.name = "prop";
  spec.sites = 12;
  spec.workloads = 3;
  // Boost every archetype so a single small fleet exercises them all.
  spec.broken_module_rate = 0.5;
  spec.symlink_farm_rate = 0.5;
  spec.container_rate = 0.5;
  spec.ppc_rate = 0.2;
  return spec;
}

TEST(FleetGenerator, ShapeAndArchetypeCoverage) {
  const FleetSpec spec = archetype_heavy_spec();
  Fleet fleet = generate_fleet(spec, 1234);

  ASSERT_EQ(fleet.sites.size(), static_cast<std::size_t>(spec.sites));
  ASSERT_EQ(fleet.traits.size(), fleet.sites.size());
  ASSERT_EQ(fleet.workloads.size(), static_cast<std::size_t>(spec.workloads));
  ASSERT_EQ(fleet.build_stack.size(), fleet.workloads.size());

  // The anchor is a healthy build site: functional stacks, no archetypes.
  EXPECT_FALSE(fleet.anchor().stacks.empty());
  EXPECT_FALSE(fleet.traits[0].symlink_farm);
  EXPECT_FALSE(fleet.traits[0].container);
  EXPECT_FALSE(fleet.traits[0].broken_modules);

  int farms = 0, containers = 0, broken = 0;
  for (std::size_t i = 1; i < fleet.sites.size(); ++i) {
    const auto& s = *fleet.sites[i];
    EXPECT_FALSE(s.stacks.empty()) << s.name;
    EXPECT_EQ(s.name.rfind("prop-", 0), 0u) << s.name;
    farms += fleet.traits[i].symlink_farm ? 1 : 0;
    containers += fleet.traits[i].container ? 1 : 0;
    broken += fleet.traits[i].broken_modules ? 1 : 0;
    if (fleet.traits[i].container) {
      EXPECT_TRUE(s.vfs.sealed("/opt")) << s.name;
      EXPECT_TRUE(s.vfs.sealed("/usr")) << s.name;
    }
    if (fleet.traits[i].broken_modules) {
      EXPECT_FALSE(fleet.traits[i].broken_detail.empty()) << s.name;
    }
  }
  EXPECT_GT(farms, 0);
  EXPECT_GT(containers, 0);
  EXPECT_GT(broken, 0);
}

// Satellite 1, part 1: every generated site survives the survey
// round-trip — assessing a workload leaves the discovery fingerprint
// exactly where it was, even on container, link-farm, and broken-module
// sites.
TEST(FleetGenerator, SurveyRoundTripRestoresEveryFingerprint) {
  Fleet fleet = generate_fleet(archetype_heavy_spec(), 99);
  fleet.spec.drift_rate = 0;  // frozen: no drift rounds between surveys

  std::vector<std::uint64_t> before;
  before.reserve(fleet.sites.size());
  for (const auto& s : fleet.sites) {
    before.push_back(s->discovery_fingerprint());
  }

  const auto result = eval::run_fleet(fleet);
  ASSERT_EQ(result.pairs(), fleet.sites.size() * fleet.workloads.size());
  ASSERT_EQ(result.compile_failures, 0u);

  for (std::size_t i = 0; i < fleet.sites.size(); ++i) {
    EXPECT_EQ(fleet.sites[i]->discovery_fingerprint(), before[i])
        << fleet.sites[i]->name;
  }
}

// Satellite 1, part 2: with no intervening mutation, two consecutive
// surveys of the same fleet are bit-stable — same fingerprints observed,
// same records produced, on both the cached and uncached paths.
TEST(FleetGenerator, ConsecutiveSurveysAreBitStable) {
  Fleet fleet = generate_fleet(archetype_heavy_spec(), 7);
  fleet.spec.drift_rate = 0;
  eval::FleetRunOptions options;

  const auto first = eval::run_fleet(fleet, options);
  const auto second = eval::run_fleet(fleet, options);
  ASSERT_FALSE(first.records_jsonl().empty());
  EXPECT_EQ(second.records_jsonl(), first.records_jsonl());

  options.use_caches = false;
  const auto uncached = eval::run_fleet(fleet, options);
  EXPECT_EQ(uncached.records_jsonl(), first.records_jsonl());
}

TEST(FleetGenerator, ManifestIsAPureFunctionOfSpecAndSeed) {
  const FleetSpec spec = archetype_heavy_spec();
  const Fleet a = generate_fleet(spec, 2026);
  const Fleet b = generate_fleet(spec, 2026);
  const auto dump_a = fleet_manifest(a).dump(2);
  EXPECT_EQ(dump_a, fleet_manifest(b).dump(2));

  // A different seed reshuffles the fleet (sanity that the seed matters).
  const Fleet c = generate_fleet(spec, 2027);
  EXPECT_NE(dump_a, fleet_manifest(c).dump(2));
}

}  // namespace
}  // namespace feam::fleet
