// The fleet specification: every knob of the procedural site/workload
// generator, parsed from a small JSON document (schema feam.fleet_spec/1).
//
// A fleet is reproducible from (spec, seed) alone — the spec carries no
// sampled state, only distribution parameters. The parser is strict
// (unknown keys, wrong types, and out-of-range values are rejected) and
// every rejection carries ErrorCode::kSpecParse, so arbitrary input can
// only ever produce a parse-category failure — the invariant the fuzz
// harness enforces.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/json.hpp"
#include "support/result.hpp"

namespace feam::fleet {

inline constexpr std::string_view kFleetSpecSchema = "feam.fleet_spec/1";

struct FleetSpec {
  // Prefix of generated site names ("<name>-001", ...).
  std::string name = "fleet";
  int sites = 50;
  int workloads = 20;

  // Rolling-upgrade drift: expected number of mutations applied per site
  // per drift round (0 disables drift entirely).
  double drift_rate = 0.0;

  // Archetype mix, each a per-site probability. A site can draw several
  // archetypes at once (a container site with a broken module system is
  // legal and occurs in the wild).
  double broken_module_rate = 0.15;  // damaged module system
  double symlink_farm_rate = 0.25;   // stacks advertised via a link farm
  double container_rate = 0.20;      // read-only /opt+/usr image layers
  double ppc_rate = 0.05;            // non-x86 sites (trivially unready)

  // Library text padding multiplier applied to every generated site (see
  // site::Site::library_scale); small fleets can afford 1.0, a 500-site
  // fleet wants a few percent.
  double library_scale = 0.05;

  // Stacks per generated site are drawn uniformly from [1, max].
  int max_stacks_per_site = 4;
};

// Parses and validates a spec document. Every failure — malformed JSON,
// missing/unknown keys, wrong types, out-of-range values — is
// ErrorCode::kSpecParse.
support::Result<FleetSpec> parse_fleet_spec(std::string_view text);

// The range rules parse_fleet_spec enforces, applied to a spec built any
// other way (`feam fleet`'s --sites/--workloads/--drift overrides).
// Rejections carry ErrorCode::kSpecParse and the parser's own messages.
support::Result<FleetSpec> validate_fleet_spec(FleetSpec spec);

// Inverse of parse_fleet_spec: emits every field plus the schema tag.
// Byte-stable (Json objects are sorted maps).
support::Json fleet_spec_to_json(const FleetSpec& spec);

}  // namespace feam::fleet
