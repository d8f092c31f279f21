#include "feam/report.hpp"

#include "support/strings.hpp"

namespace feam {

namespace {

void describe_binary(std::string& out, const BinaryDescription& app) {
  out += "application binary: " + app.path + "\n";
  out += "  file format ............. " + app.file_format + " (" +
         std::to_string(app.bits) + "-bit " + app.architecture + ")\n";
  if (app.mpi_impl) {
    out += "  MPI implementation ...... " +
           std::string(site::mpi_impl_name(*app.mpi_impl)) + "\n";
  } else {
    out += "  MPI implementation ...... (none detected)\n";
  }
  out += "  required libraries ...... " +
         (app.required_libraries.empty()
              ? "(none — statically linked)"
              : support::join(app.required_libraries, ", ")) +
         "\n";
  out += "  required C library ...... " +
         (app.required_clib_version ? app.required_clib_version->str()
                                    : "(none)") +
         "\n";
  if (app.build_os) out += "  built on ................ " + *app.build_os + "\n";
  if (app.build_clib_version) {
    out += "  built against glibc ..... " + app.build_clib_version->str() + "\n";
  }
  if (app.build_compiler) {
    out += "  compiler ................ " + *app.build_compiler + "\n";
  }
}

void describe_environment(std::string& out, const EnvironmentDescription& env) {
  out += "target environment:\n";
  out += "  ISA ..................... " + env.isa + "\n";
  out += "  operating system ........ " + env.distro +
         (env.os_type.empty() ? "" : " (" + env.os_type + ")") + "\n";
  out += "  C library ............... " +
         (env.clib_version ? env.clib_version->str() : "unknown") + " (via " +
         env.clib_discovery_method + ")\n";
  out += "  user-environment tool ... " +
         std::string(site::user_env_tool_name(env.user_env_tool)) + "\n";
  out += "  MPI stacks .............. ";
  std::vector<std::string> stacks;
  for (const auto& stack : env.stacks) stacks.push_back(stack.display());
  out += (stacks.empty() ? "(none)" : support::join(stacks, "; ")) + "\n";
}

}  // namespace

std::string render_target_report(const TargetPhaseOutput& output) {
  std::string out = "=== FEAM target phase report ===\n\n";
  describe_binary(out, output.application);
  out += "\n";
  describe_environment(out, output.environment);

  out += "\ndeterminants:\n";
  for (const auto& det : output.prediction.determinants) {
    out += "  [";
    out += !det.evaluated ? "-" : det.compatible ? "x" : " ";
    out += "] ";
    out += determinant_name(det.kind);
    out += ": ";
    out += !det.evaluated ? "not evaluated" : det.detail;
    out += "\n";
  }

  if (!output.prediction.missing_libraries.empty()) {
    out += "\nshared library resolution:\n";
    out += "  missing ....... " +
           support::join(output.prediction.missing_libraries, ", ") + "\n";
    out += "  resolved ...... " +
           (output.prediction.resolved_libraries.empty()
                ? "(none)"
                : support::join(output.prediction.resolved_libraries, ", ")) +
           "\n";
    if (!output.prediction.unresolved_libraries.empty()) {
      out += "  unresolved .... " +
             support::join(output.prediction.unresolved_libraries, ", ") + "\n";
    }
  }

  if (!output.prediction.log.empty()) {
    out += "\nevaluation trace:\n";
    for (const auto& line : output.prediction.log) {
      out += "  " + line + "\n";
    }
  }

  out += "\nprediction: ";
  out += output.prediction.ready ? "READY — execution is predicted to succeed"
                                 : "NOT READY — execution cannot occur";
  out += "\n";
  if (output.prediction.ready) {
    out += "\nmatching configuration script:\n";
    out += output.prediction.configuration_script;
  }
  return out;
}

std::string render_source_report(const SourcePhaseOutput& output) {
  std::string out = "=== FEAM source phase report ===\n\n";
  describe_binary(out, output.application);
  out += "\ngathered library copies:\n";
  if (output.bundle.libraries.empty()) {
    out += "  (none)\n";
  }
  for (const auto& lib : output.bundle.libraries) {
    out += "  " + lib.name + " (" + support::human_size(lib.content->size()) +
           ") from " + lib.origin_path + "\n";
  }
  out += "hello worlds: " + std::to_string(output.bundle.hello_worlds.size()) +
         "\n";
  out += "bundle size: " + support::human_size(output.bundle.total_bytes()) +
         "\n";
  if (!output.events.empty()) {
    out += "\nlog:\n";
    for (const auto& line : output.render_text()) out += "  " + line + "\n";
  }
  return out;
}

}  // namespace feam
