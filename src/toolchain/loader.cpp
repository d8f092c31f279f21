#include "toolchain/loader.hpp"

#include <optional>

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
  const auto* injector = host.vfs.fault_injector();
  const std::uint64_t faults_before =
      injector != nullptr ? injector->fault_count() : 0;
  const support::Blob data = host.vfs.read_blob(path);
  const bool read_faulted =
      injector != nullptr && injector->fault_count() != faults_before;
  if (data == nullptr) {
    report.status = LoadStatus::kFileNotFound;
    report.detail = std::string(path) + ": No such file or directory";
    return report;
  }
  std::optional<elf::ElfFile> local;
  const elf::ElfFile* binary = nullptr;
  // Bytes touched by fault injection are not the file's content and must
  // not reach the parse memo.
  if (cache != nullptr && !read_faulted) {
    binary = cache->parsed_elf(host, data);
  } else if (auto parsed = elf::ElfFile::parse(*data); parsed.ok()) {
    binary = &local.emplace(std::move(parsed).take());
  }
  if (binary == nullptr) {
    report.status = LoadStatus::kExecFormatError;
    report.detail = std::string(path) + ": cannot execute binary file: " +
                    elf::ElfFile::parse(*data).error();
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
