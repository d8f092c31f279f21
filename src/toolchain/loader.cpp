#include "toolchain/loader.hpp"

#include "binutils/resolver_cache.hpp"
#include "elf/file.hpp"
#include "obs/metrics.hpp"
#include "support/strings.hpp"

namespace feam::toolchain {

LoadReport load_binary(const site::Site& host, std::string_view path,
                       const std::vector<std::string>& extra_lib_dirs,
                       binutils::ResolverCache* cache) {
  obs::ScopedTimer timer(obs::histogram("launcher.load_ns"));
  LoadReport report;
  const binutils::ElfImage image = binutils::read_elf(host, path, cache);
  if (image.bytes == nullptr) {
    report.status = LoadStatus::kFileNotFound;
    report.detail = std::string(path) + ": No such file or directory";
    return report;
  }
  const elf::ElfFile* binary = image.elf;
  if (binary == nullptr) {
    report.status = LoadStatus::kExecFormatError;
    report.detail = std::string(path) + ": cannot execute binary file: " +
                    elf::ElfFile::parse(*image.bytes).error();
    return report;
  }
  if (!elf::isa_executable_on(binary->isa(), host.isa)) {
    report.status = LoadStatus::kExecFormatError;
    report.detail = std::string(path) + ": cannot execute binary file: " +
                    "Exec format error (" +
                    elf::isa_name(binary->isa()) + " binary on " +
                    elf::isa_name(host.isa) + " host)";
    return report;
  }

  report.resolution =
      binutils::resolve_libraries(host, path, extra_lib_dirs, cache);
  if (!report.resolution.complete()) {
    report.status = LoadStatus::kMissingLibrary;
    report.detail = "error while loading shared libraries: " +
                    support::join(report.resolution.missing(), ", ") +
                    ": cannot open shared object file: No such file or "
                    "directory";
    return report;
  }
  if (!report.resolution.version_errors.empty()) {
    const auto& err = report.resolution.version_errors.front();
    report.status = LoadStatus::kVersionMismatch;
    report.detail = err.required_by + ": version `" + err.version +
                    "' not found (required by " + err.required_by + ") in " +
                    err.provider;
    return report;
  }
  report.status = LoadStatus::kOk;
  return report;
}

}  // namespace feam::toolchain
