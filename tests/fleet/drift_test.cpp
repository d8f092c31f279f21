// The rolling-upgrade drift model: schedule determinism, fingerprint
// invalidation (every drift op is a system-path mutation, so the EDC memo
// can never serve a drifted site a stale scan), anchor exemption,
// container unseal/mutate/reseal round-trips, and pooled rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "fleet/drift.hpp"
#include "fleet/generate.hpp"
#include "fleet/spec.hpp"
#include "support/thread_pool.hpp"

namespace feam::fleet {
namespace {

FleetSpec drifty_spec() {
  FleetSpec spec;
  spec.name = "drift";
  spec.sites = 10;
  spec.workloads = 2;
  spec.drift_rate = 2.0;
  spec.container_rate = 0.5;  // exercise the unseal/reseal path
  return spec;
}

TEST(FleetDrift, ScheduleIsDeterministicPerRound) {
  Fleet a = generate_fleet(drifty_spec(), 5);
  Fleet b = generate_fleet(drifty_spec(), 5);

  for (int round = 0; round < 3; ++round) {
    const auto ops_a = apply_drift_round(a, round);
    const auto ops_b = apply_drift_round(b, round);
    ASSERT_EQ(ops_a.size(), ops_b.size()) << "round " << round;
    for (std::size_t i = 0; i < ops_a.size(); ++i) {
      EXPECT_EQ(ops_a[i].site_index, ops_b[i].site_index);
      EXPECT_EQ(ops_a[i].site, ops_b[i].site);
      EXPECT_EQ(ops_a[i].kind, ops_b[i].kind);
      EXPECT_EQ(ops_a[i].detail, ops_b[i].detail);
    }
  }
  // Distinct rounds draw distinct schedules (the round seeds the stream).
  Fleet c = generate_fleet(drifty_spec(), 5);
  const auto round0 = apply_drift_round(c, 0);
  Fleet d = generate_fleet(drifty_spec(), 5);
  const auto round1 = apply_drift_round(d, 1);
  bool differs = round0.size() != round1.size();
  for (std::size_t i = 0; !differs && i < round0.size(); ++i) {
    differs = round0[i].kind != round1[i].kind ||
              round0[i].site_index != round1[i].site_index ||
              round0[i].detail != round1[i].detail;
  }
  EXPECT_TRUE(differs);
}

TEST(FleetDrift, EveryDriftedSiteChangesFingerprintAnchorNever) {
  Fleet fleet = generate_fleet(drifty_spec(), 77);

  std::vector<std::uint64_t> before;
  for (const auto& s : fleet.sites) {
    before.push_back(s->discovery_fingerprint());
  }

  const auto ops = apply_drift_round(fleet, 0);
  ASSERT_FALSE(ops.empty());

  std::set<int> drifted;
  for (const auto& op : ops) {
    EXPECT_NE(op.site_index, 0) << "the anchor must never drift";
    EXPECT_EQ(op.site, fleet.sites[static_cast<std::size_t>(op.site_index)]->name);
    drifted.insert(op.site_index);
  }

  for (std::size_t i = 0; i < fleet.sites.size(); ++i) {
    const auto after = fleet.sites[i]->discovery_fingerprint();
    if (drifted.count(static_cast<int>(i)) != 0) {
      EXPECT_NE(after, before[i])
          << fleet.sites[i]->name
          << ": a drift op must move the discovery fingerprint, or the "
             "EDC memo would serve a stale scan";
    } else {
      EXPECT_EQ(after, before[i]) << fleet.sites[i]->name;
    }
  }
}

TEST(FleetDrift, ContainerSitesAreResealedAfterAnImageRebuild) {
  Fleet fleet = generate_fleet(drifty_spec(), 31);
  bool saw_container_drift = false;
  for (int round = 0; round < 4; ++round) {
    const auto ops = apply_drift_round(fleet, round);
    for (const auto& op : ops) {
      const auto i = static_cast<std::size_t>(op.site_index);
      if (!fleet.traits[i].container) continue;
      saw_container_drift = true;
      EXPECT_TRUE(fleet.sites[i]->vfs.sealed("/opt")) << op.site;
      EXPECT_TRUE(fleet.sites[i]->vfs.sealed("/usr")) << op.site;
    }
  }
  EXPECT_TRUE(saw_container_drift)
      << "spec with container_rate=0.5 and 4 rounds should drift at "
         "least one container site";
}

// A round fanned out per site on a pool leaves every site as the calling
// thread's round does and logs the same ops in the same order.
TEST(FleetDrift, PooledRoundMatchesSequentialRound) {
  FleetSpec spec = drifty_spec();
  spec.sites = 16;
  Fleet sequential = generate_fleet(spec, 42);
  Fleet pooled = generate_fleet(spec, 42);
  support::ThreadPool pool(4);

  std::vector<DriftOp> sequential_ops, pooled_ops;
  for (int round = 0; round < 4; ++round) {
    const auto expected = apply_drift_round(sequential, round);
    sequential_ops.insert(sequential_ops.end(), expected.begin(),
                          expected.end());
    const auto ops = apply_drift_round(pooled, round, &pool);
    EXPECT_TRUE(std::is_sorted(ops.begin(), ops.end(),
                               [](const DriftOp& a, const DriftOp& b) {
                                 return a.site_index < b.site_index;
                               }))
        << "round " << round << " must log its ops in site order";
    pooled_ops.insert(pooled_ops.end(), ops.begin(), ops.end());
  }
  ASSERT_FALSE(sequential_ops.empty());
  EXPECT_EQ(drift_log_jsonl(pooled_ops), drift_log_jsonl(sequential_ops));

  bool saw_container = false;
  ASSERT_EQ(pooled.sites.size(), sequential.sites.size());
  for (std::size_t i = 0; i < pooled.sites.size(); ++i) {
    const auto& s = *sequential.sites[i];
    const auto& p = *pooled.sites[i];
    saw_container = saw_container || pooled.traits[i].container;
    EXPECT_EQ(p.discovery_fingerprint(), s.discovery_fingerprint()) << s.name;
    EXPECT_EQ(p.vfs.sealed_prefixes(), s.vfs.sealed_prefixes()) << s.name;
  }
  EXPECT_TRUE(saw_container) << "the reseal path must run in this test";
}

TEST(FleetDrift, ZeroRateIsANoOp) {
  FleetSpec spec = drifty_spec();
  spec.drift_rate = 0.0;
  Fleet fleet = generate_fleet(spec, 5);
  const auto before = fleet.sites[1]->discovery_fingerprint();
  EXPECT_TRUE(apply_drift_round(fleet, 0).empty());
  EXPECT_EQ(fleet.sites[1]->discovery_fingerprint(), before);
}

}  // namespace
}  // namespace feam::fleet
