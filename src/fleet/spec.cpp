#include "fleet/spec.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace feam::fleet {

namespace {

using R = support::Result<FleetSpec>;
using support::ErrorCode;
using support::Json;

R fail(const std::string& detail) {
  return R::failure(ErrorCode::kSpecParse, "fleet spec: " + detail);
}

// Bounds generous enough for any sane experiment; tight enough that a
// fuzzer cannot request a terabyte fleet.
struct IntField {
  const char* key;
  int FleetSpec::*field;
  int max;
};
constexpr IntField kIntFields[] = {
    {"sites", &FleetSpec::sites, 100000},
    {"workloads", &FleetSpec::workloads, 100000},
    {"max_stacks_per_site", &FleetSpec::max_stacks_per_site, 16}};

struct RateField {
  const char* key;
  double FleetSpec::*field;
  int max;
  bool zero_ok;  // [0, max] rather than (0, max]
};
constexpr RateField kRateFields[] = {
    {"drift_rate", &FleetSpec::drift_rate, 16, true},
    {"broken_module_rate", &FleetSpec::broken_module_rate, 1, true},
    {"symlink_farm_rate", &FleetSpec::symlink_farm_rate, 1, true},
    {"container_rate", &FleetSpec::container_rate, 1, true},
    {"ppc_rate", &FleetSpec::ppc_rate, 1, true},
    {"library_scale", &FleetSpec::library_scale, 1, false}};

template <typename Field, std::size_t N>
const Field* field_named(const Field (&fields)[N], std::string_view key) {
  for (const Field& f : fields) {
    if (key == f.key) return &f;
  }
  return nullptr;
}

}  // namespace

support::Result<FleetSpec> validate_fleet_spec(FleetSpec spec) {
  if (spec.name.empty()) return fail("name must be a non-empty string");
  for (const char c : spec.name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    if (!ok) return fail("name must be a lowercase slug");
  }
  for (const IntField& f : kIntFields) {
    if (spec.*f.field < 1 || spec.*f.field > f.max) {
      return fail(std::string(f.key) + " must be in [1, " +
                  std::to_string(f.max) + "]");
    }
  }
  for (const RateField& f : kRateFields) {
    // Written so that NaN fails: no comparison with NaN is true.
    const double v = spec.*f.field;
    if (!((f.zero_ok ? v >= 0 : v > 0) && v <= f.max)) {
      return fail(std::string(f.key) + " must be in " +
                  (f.zero_ok ? "[0, " : "(0, ") + std::to_string(f.max) + "]");
    }
  }
  return spec;
}

support::Result<FleetSpec> parse_fleet_spec(std::string_view text) {
  const auto parsed = Json::parse(text);
  if (!parsed) return fail("not valid JSON");
  const Json& doc = *parsed;
  if (!doc.is_object()) return fail("top level must be an object");

  // Type checks here; every range check is validate_fleet_spec's.
  FleetSpec spec;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "schema") {
      if (!value.is_string() || value.as_string() != kFleetSpecSchema) {
        return fail("schema must be \"" + std::string(kFleetSpecSchema) +
                    "\"");
      }
    } else if (key == "name") {
      if (!value.is_string()) return fail("name must be a non-empty string");
      spec.name = value.as_string();
    } else if (const IntField* int_field = field_named(kIntFields, key)) {
      const double n = value.is_number() ? value.as_number() : std::nan("");
      if (!std::isfinite(n) || n != std::floor(n)) {
        return fail(key + " must be an integer");
      }
      // Saturated, not overflowed: the validator rejects the range.
      spec.*int_field->field = static_cast<int>(std::clamp(n, 0.0, 1e6));
    } else if (const RateField* rate = field_named(kRateFields, key)) {
      // A non-number becomes NaN, which fails the field's range.
      spec.*rate->field = value.is_number() ? value.as_number() : std::nan("");
    } else {
      return fail("unknown key \"" + key + "\"");
    }
  }
  return validate_fleet_spec(std::move(spec));
}

support::Json fleet_spec_to_json(const FleetSpec& spec) {
  Json::Object out;
  out.emplace("schema", Json(kFleetSpecSchema));
  out.emplace("name", Json(spec.name));
  out.emplace("sites", Json(spec.sites));
  out.emplace("workloads", Json(spec.workloads));
  out.emplace("drift_rate", Json(spec.drift_rate));
  out.emplace("broken_module_rate", Json(spec.broken_module_rate));
  out.emplace("symlink_farm_rate", Json(spec.symlink_farm_rate));
  out.emplace("container_rate", Json(spec.container_rate));
  out.emplace("ppc_rate", Json(spec.ppc_rate));
  out.emplace("library_scale", Json(spec.library_scale));
  out.emplace("max_stacks_per_site", Json(spec.max_stacks_per_site));
  return Json(std::move(out));
}

}  // namespace feam::fleet
