#include "toolchain/launcher.hpp"

#include <algorithm>
#include <optional>

#include "binutils/resolver_cache.hpp"
#include "elf/file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/version.hpp"
#include "toolchain/glibc.hpp"

namespace feam::toolchain {

namespace {

using site::Site;
using support::Version;

constexpr double kTransientErrorRate = 0.04;

const char* kFortranIndicators[] = {"libmpi_f77", "libmpichf90", "libgfortran",
                                    "libg2c", "libifcore", "libpgf90"};

bool is_fortran_binary(const elf::ElfFile& binary) {
  for (const auto& needed : binary.needed()) {
    for (const char* indicator : kFortranIndicators) {
      if (support::starts_with(needed, indicator)) return true;
    }
  }
  return false;
}

bool is_mpi_library(std::string_view soname) {
  return support::starts_with(soname, "libmpi") ||
         support::starts_with(soname, "libmpich") ||
         support::starts_with(soname, "libopen-") ||
         support::starts_with(soname, "libmpl") ||
         support::starts_with(soname, "libopa");
}

bool is_fortran_binding_library(std::string_view soname) {
  return support::starts_with(soname, "libmpi_f77") ||
         support::starts_with(soname, "libmpichf90");
}

bool is_fortran_runtime(std::string_view soname) {
  return support::starts_with(soname, "libgfortran") ||
         support::starts_with(soname, "libg2c") ||
         support::starts_with(soname, "libifcore") ||
         support::starts_with(soname, "libpgf90") ||
         support::starts_with(soname, "libpgftnrtl");
}

// Run-time ABI validation between the binary and every resolved library
// that carries an ABI note. Returns an FP-exception RunResult when a
// contract is broken, nullopt when everything is compatible.
std::optional<RunResult> check_abi(const Site& host, const elf::ElfFile& binary,
                                   const binutils::Resolution& resolution,
                                   binutils::ResolverCache* cache) {
  obs::ScopedTimer timer(obs::histogram("launcher.abi_check_ns"));
  const auto& binary_note = binary.abi_note();
  if (!binary_note) return std::nullopt;  // nothing to contract against
  const bool fortran = is_fortran_binary(binary);

  for (const auto& lib : resolution.libs) {
    if (!lib.path) continue;
    const binutils::ElfImage image = binutils::read_elf(host, *lib.path, cache);
    if (image.elf == nullptr || !image.elf->abi_note()) continue;
    const elf::AbiNote& note = *image.elf->abi_note();

    if (is_mpi_library(lib.name) && !binary_note->mpi_impl.empty() &&
        !note.mpi_impl.empty()) {
      const auto bin_ver = Version::parse(binary_note->mpi_version);
      const auto lib_ver = Version::parse(note.mpi_version);
      // A binary built against a *newer* MPI release line than the library
      // that resolved hits missing internal symbols; Fortran codes die on
      // the mismatched descriptor ABI, C codes usually limp through (the
      // paper's "executes in some instances but not others"). Pre-release
      // tags within the same numeric line (1.7a vs 1.7a2 vs 1.7rc1) share
      // the ABI.
      const bool newer_line =
          bin_ver && lib_ver && bin_ver->components() > lib_ver->components();
      if (newer_line && fortran) {
        return RunResult{RunStatus::kFpException,
                         "program received signal SIGFPE: " + lib.name +
                             " ABI mismatch (built against " +
                             binary_note->mpi_impl + " " +
                             binary_note->mpi_version + ", resolved " +
                             note.mpi_version + ")",
                         ""};
      }
      // Fortran MPI bindings are compiler-ABI-specific: a binding library
      // built by a different compiler family breaks name-mangling and
      // argument conventions.
      if (fortran && is_fortran_binding_library(lib.name) &&
          note.compiler_family != binary_note->compiler_family) {
        return RunResult{RunStatus::kFpException,
                         "program received signal SIGFPE: " + lib.name +
                             " built with " + note.compiler_family +
                             ", application built with " +
                             binary_note->compiler_family,
                         ""};
      }
    }

    if (note.mpi_impl.empty() &&
        note.compiler_family == binary_note->compiler_family) {
      // Same-family compiler runtime with a different floating-point
      // contract (PGI's fast-math model changes per major release while
      // its sonames do not). C codes rarely touch the affected fast-math
      // entry points; Fortran codes hit them immediately.
      if (fortran && note.fp_model != binary_note->fp_model) {
        return RunResult{RunStatus::kFpException,
                         "program received signal SIGFPE: floating point "
                         "exception in " + lib.name +
                             " (runtime fp model mismatch)",
                         ""};
      }
      if (fortran && is_fortran_runtime(lib.name) &&
          note.abi_fingerprint != binary_note->abi_fingerprint) {
        return RunResult{RunStatus::kFpException,
                         "program received signal SIGFPE: " + lib.name +
                             " runtime ABI fingerprint mismatch",
                         ""};
      }
    }
  }
  return std::nullopt;
}

RunResult from_load_report(const LoadReport& report) {
  switch (report.status) {
    case LoadStatus::kOk:
      return {RunStatus::kSuccess, "", ""};
    case LoadStatus::kFileNotFound:
      return {RunStatus::kFileNotFound, report.detail, ""};
    case LoadStatus::kExecFormatError:
      return {RunStatus::kExecFormatError, report.detail, ""};
    case LoadStatus::kMissingLibrary:
      return {RunStatus::kMissingLibrary, report.detail, ""};
    case LoadStatus::kVersionMismatch:
      return {RunStatus::kVersionError, report.detail, ""};
  }
  return {RunStatus::kSystemError, "unreachable", ""};
}

// Persistent faults: some (binary, site) placements never work — broken
// daemon spawn on the nodes the scheduler keeps picking, or communication
// timeouts that scale with the executable's footprint. Deterministic per
// pairing so the 5-retry policy cannot absorb them (paper VI.C).
std::optional<RunResult> persistent_fault(const Site& host,
                                          std::string_view binary_path,
                                          std::uint64_t text_size) {
  const double size_factor =
      1.0 + static_cast<double>(text_size) / (4.0 * 1024 * 1024);
  const double probability = host.system_error_rate * size_factor;
  support::Rng rng(host.fault_seed ^
                   support::fnv1a(host.name + "|" + std::string(binary_path) +
                                  "|persistent"));
  if (!rng.chance(probability)) return std::nullopt;
  if (rng.chance(0.5)) {
    return RunResult{RunStatus::kSystemError,
                     "mpiexec: failed to spawn MPI daemon on allocated nodes",
                     ""};
  }
  return RunResult{RunStatus::kTimeout,
                   "mpiexec: communication timeout waiting for ranks", ""};
}

bool transient_fault(const Site& host, std::string_view binary_path,
                     int attempt) {
  support::Rng rng(host.fault_seed ^
                   support::fnv1a(host.name + "|" + std::string(binary_path) +
                                  "|attempt" + std::to_string(attempt)));
  return rng.chance(kTransientErrorRate);
}

}  // namespace

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kSuccess: return "success";
    case RunStatus::kFileNotFound: return "file not found";
    case RunStatus::kExecFormatError: return "exec format error";
    case RunStatus::kMissingLibrary: return "missing shared library";
    case RunStatus::kVersionError: return "C library version error";
    case RunStatus::kFpException: return "floating point exception";
    case RunStatus::kNoMpiStackSelected: return "no MPI stack selected";
    case RunStatus::kStackNotFunctional: return "MPI stack not functional";
    case RunStatus::kSystemError: return "system error";
    case RunStatus::kTimeout: return "timeout";
  }
  return "?";
}

namespace {

// Command-execution event shared by the serial and MPI launch paths.
void emit_run_event(const char* name, const site::Site& host,
                    std::string_view binary_path, int ranks,
                    const RunResult& result) {
  obs::emit(result.success() ? obs::Level::kDebug : obs::Level::kInfo, name,
            std::string(binary_path) + " -> " +
                run_status_name(result.status),
            {{"site", host.name},
             {"binary", std::string(binary_path)},
             {"ranks", std::to_string(ranks)},
             {"status", run_status_name(result.status)},
             {"detail", result.detail}});
}

RunResult run_serial_impl(const site::Site& host, std::string_view binary_path,
                          const std::vector<std::string>& extra_lib_dirs,
                          binutils::ResolverCache* cache) {
  const LoadReport report = load_binary(host, binary_path, extra_lib_dirs, cache);
  if (report.status != LoadStatus::kOk) return from_load_report(report);

  // Re-read after load_binary passed: only fault injection can make the
  // image unreadable or unparsable now.
  const binutils::ElfImage image = binutils::read_elf(host, binary_path, cache);
  if (image.elf == nullptr) {
    return {RunStatus::kSystemError,
            std::string(binary_path) + ": Input/output error", ""};
  }
  const elf::ElfFile& binary = *image.elf;

  // Executing the C library prints its banner (glibc behaviour the EDC
  // depends on).
  if (binary.soname() && *binary.soname() == "libc.so.6") {
    if (!host.libc_executable) {
      return {RunStatus::kSystemError, "Segmentation fault", ""};
    }
    // The banner is stored in the library's .comment by install_clibrary.
    const std::string banner = binary.comments().empty()
                                   ? ""
                                   : std::string(binary.comments().front());
    return {RunStatus::kSuccess, "", banner};
  }

  if (auto abi_failure = check_abi(host, binary, report.resolution, cache)) {
    return *abi_failure;
  }
  return {RunStatus::kSuccess, "", "ok"};
}

RunResult mpiexec_impl(const site::Site& host, std::string_view binary_path,
                       int ranks,
                       const std::vector<std::string>& extra_lib_dirs,
                       int attempt, binutils::ResolverCache* cache) {
  const site::MpiStackInstall* stack = host.selected_stack();
  if (stack == nullptr) {
    return {RunStatus::kNoMpiStackSelected, "mpiexec: command not found", ""};
  }
  if (!stack->functional) {
    return {RunStatus::kStackNotFunctional,
            "mpiexec: unable to contact MPI daemon; aborting (" +
                stack->slug() + ")",
            ""};
  }

  const LoadReport report = load_binary(host, binary_path, extra_lib_dirs, cache);
  if (report.status != LoadStatus::kOk) return from_load_report(report);

  // Re-read after load_binary passed: only fault injection can make the
  // image unreadable or unparsable now.
  const binutils::ElfImage image = binutils::read_elf(host, binary_path, cache);
  if (image.elf == nullptr) {
    return {RunStatus::kSystemError,
            std::string(binary_path) + ": Input/output error", ""};
  }
  const elf::ElfFile& binary = *image.elf;

  if (auto abi_failure = check_abi(host, binary, report.resolution, cache)) {
    return *abi_failure;
  }

  const std::uint64_t text_size = image.bytes->size();
  if (auto fault = persistent_fault(host, binary_path, text_size)) {
    return *fault;
  }
  if (transient_fault(host, binary_path, attempt)) {
    return {RunStatus::kSystemError,
            "mpiexec: transient daemon spawn failure", ""};
  }

  return {RunStatus::kSuccess, "",
          "Hello world from " + std::to_string(ranks) + " ranks"};
}

}  // namespace

RunResult run_serial(const site::Site& host, std::string_view binary_path,
                     const std::vector<std::string>& extra_lib_dirs,
                     binutils::ResolverCache* cache) {
  obs::counter("launcher.serial_runs").add();
  RunResult result = run_serial_impl(host, binary_path, extra_lib_dirs, cache);
  emit_run_event("launcher.run_serial", host, binary_path, 1, result);
  return result;
}

RunResult mpiexec(const site::Site& host, std::string_view binary_path,
                  int ranks, const std::vector<std::string>& extra_lib_dirs,
                  int attempt, binutils::ResolverCache* cache) {
  obs::ScopedTimer timer(obs::histogram("launcher.mpiexec_ns"));
  obs::counter("launcher.mpiexec_calls").add();
  RunResult result =
      mpiexec_impl(host, binary_path, ranks, extra_lib_dirs, attempt, cache);
  emit_run_event("launcher.mpiexec", host, binary_path, ranks, result);
  return result;
}

RunResult mpiexec_with_retries(const site::Site& host,
                               std::string_view binary_path, int ranks,
                               const std::vector<std::string>& extra_lib_dirs,
                               int attempts,
                               binutils::ResolverCache* cache) {
  RunResult last;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) obs::counter("launcher.retries").add();
    last = mpiexec(host, binary_path, ranks, extra_lib_dirs, attempt, cache);
    if (last.success()) return last;
    // Only system errors are worth retrying; deterministic failures
    // (missing libraries, version errors, ABI breaks) never change.
    if (last.status != RunStatus::kSystemError &&
        last.status != RunStatus::kTimeout) {
      return last;
    }
  }
  return last;
}

}  // namespace feam::toolchain
