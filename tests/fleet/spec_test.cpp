// The fleet-spec parser contract: strict validation, default round-trip,
// and the taxonomy invariant (every rejection is kSpecParse / "parse")
// the fuzz harness leans on.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "fleet/spec.hpp"
#include "support/error.hpp"

namespace feam::fleet {
namespace {

TEST(FleetSpec, DefaultsRoundTripThroughJson) {
  const FleetSpec defaults;
  const auto text = fleet_spec_to_json(defaults).dump(2);
  const auto parsed = parse_fleet_spec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(fleet_spec_to_json(parsed.value()).dump(2), text);
}

TEST(FleetSpec, EmptyObjectYieldsDefaults) {
  const auto parsed = parse_fleet_spec("{}");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const FleetSpec defaults;
  EXPECT_EQ(fleet_spec_to_json(parsed.value()).dump(),
            fleet_spec_to_json(defaults).dump());
}

TEST(FleetSpec, ParsesEveryKnob) {
  const auto parsed = parse_fleet_spec(R"({
    "schema": "feam.fleet_spec/1",
    "name": "big-sweep",
    "sites": 500,
    "workloads": 100,
    "drift_rate": 0.25,
    "broken_module_rate": 0.5,
    "symlink_farm_rate": 0.1,
    "container_rate": 0.3,
    "ppc_rate": 0,
    "library_scale": 0.02,
    "max_stacks_per_site": 6
  })");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const FleetSpec& spec = parsed.value();
  EXPECT_EQ(spec.name, "big-sweep");
  EXPECT_EQ(spec.sites, 500);
  EXPECT_EQ(spec.workloads, 100);
  EXPECT_DOUBLE_EQ(spec.drift_rate, 0.25);
  EXPECT_DOUBLE_EQ(spec.broken_module_rate, 0.5);
  EXPECT_DOUBLE_EQ(spec.symlink_farm_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.container_rate, 0.3);
  EXPECT_DOUBLE_EQ(spec.ppc_rate, 0.0);
  EXPECT_DOUBLE_EQ(spec.library_scale, 0.02);
  EXPECT_EQ(spec.max_stacks_per_site, 6);
}

// Every rejection carries the spec-parse taxonomy code — the property
// that lets the fuzzer assert "parse failure or success, nothing else".
void expect_spec_parse_rejection(const std::string& text) {
  const auto parsed = parse_fleet_spec(text);
  ASSERT_FALSE(parsed.ok()) << text;
  EXPECT_EQ(parsed.code(), support::ErrorCode::kSpecParse) << text;
  EXPECT_EQ(support::failure_category(parsed.code()), "parse") << text;
}

TEST(FleetSpec, RejectsMalformedInput) {
  expect_spec_parse_rejection("");
  expect_spec_parse_rejection("not json");
  expect_spec_parse_rejection("[1, 2]");
  expect_spec_parse_rejection("\"a string\"");
}

TEST(FleetSpec, RejectsUnknownKeys) {
  expect_spec_parse_rejection(R"({"sties": 5})");
  expect_spec_parse_rejection(R"({"sites": 5, "extra": true})");
}

TEST(FleetSpec, RejectsWrongTypesAndRanges) {
  expect_spec_parse_rejection(R"({"sites": "five"})");
  expect_spec_parse_rejection(R"({"sites": 2.5})");
  expect_spec_parse_rejection(R"({"sites": 0})");
  expect_spec_parse_rejection(R"({"sites": 100001})");
  expect_spec_parse_rejection(R"({"workloads": -3})");
  expect_spec_parse_rejection(R"({"max_stacks_per_site": 17})");
  expect_spec_parse_rejection(R"({"drift_rate": -0.1})");
  expect_spec_parse_rejection(R"({"drift_rate": 17})");
  expect_spec_parse_rejection(R"({"container_rate": 1.5})");
  expect_spec_parse_rejection(R"({"library_scale": 0})");
  expect_spec_parse_rejection(R"({"library_scale": 2})");
  expect_spec_parse_rejection(R"({"name": ""})");
  expect_spec_parse_rejection(R"({"name": "Has Spaces"})");
  expect_spec_parse_rejection(R"({"schema": "feam.fleet_spec/2"})");
}

// `feam fleet`'s --sites/--workloads/--drift overrides land in a spec the
// parser never saw; the shared validator holds them to the same bounds,
// with the parser's own messages.
TEST(FleetSpec, ValidatorHoldsOverridesToTheParsersBounds) {
  const auto rejects = [](FleetSpec spec, const std::string& same_as) {
    const auto checked = validate_fleet_spec(spec);
    ASSERT_FALSE(checked.ok());
    EXPECT_EQ(checked.code(), support::ErrorCode::kSpecParse);
    const auto parsed = parse_fleet_spec(same_as);
    ASSERT_FALSE(parsed.ok()) << same_as;
    EXPECT_EQ(checked.error(), parsed.error()) << same_as;
  };
  FleetSpec spec;
  ASSERT_TRUE(validate_fleet_spec(spec).ok());

  spec.drift_rate = std::numeric_limits<double>::infinity();
  rejects(spec, R"({"drift_rate": 17})");
  spec.drift_rate = std::numeric_limits<double>::quiet_NaN();
  rejects(spec, R"({"drift_rate": 17})");
  spec.drift_rate = 17;
  rejects(spec, R"({"drift_rate": 17})");
  spec.drift_rate = 16;
  EXPECT_TRUE(validate_fleet_spec(spec).ok());

  spec.sites = 100001;
  rejects(spec, R"({"sites": 100001})");
  spec.sites = 100000;
  spec.workloads = 100001;
  rejects(spec, R"({"workloads": 100001})");
}

}  // namespace
}  // namespace feam::fleet
