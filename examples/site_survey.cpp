// Community-code scenario (paper VI.B): a scientist downloads an
// application distributed only as a binary — there is no guaranteed
// execution environment to run a source phase in. FEAM's basic prediction
// (target phase only) surveys every accessible site and reports where the
// binary can run, with the reasons, so the scientist submits only where
// there is a real chance of success.
#include <cstdio>

#include "feam/survey.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

int main() {
  using namespace feam;

  // The "community code": built elsewhere (we synthesize it on a Forge
  // clone standing in for the publisher's build host), shipped as bytes.
  auto build_host = toolchain::make_site("forge");
  toolchain::ProgramSource code;
  code.name = "galaxy_sim-3.2";
  code.language = toolchain::Language::kFortran;
  code.libc_features = {"base", "stdio", "math", "atfuncs"};
  code.text_size = 900 * 1024;
  const auto* stack = build_host->find_stack(site::MpiImpl::kOpenMpi,
                                             site::CompilerFamily::kGnu);
  const auto compiled = toolchain::compile_mpi_program(
      *build_host, code, *stack, "/pub/galaxy_sim-3.2");
  if (!compiled.ok()) {
    std::printf("build failed: %s\n", compiled.error().c_str());
    return 1;
  }
  const support::Blob binary = build_host->vfs.read_blob(compiled.value());
  std::printf("community binary: galaxy_sim-3.2 (%zu KiB, Open MPI + GNU "
              "Fortran, built on RHEL 6 / glibc 2.12)\n\n",
              binary->size() / 1024);

  // Survey the whole testbed (plus the ppc64 demo site) with the basic
  // prediction — no bundle, nothing resolvable, pure assessment.
  std::vector<std::unique_ptr<site::Site>> owned;
  std::vector<site::Site*> sites;
  auto names = toolchain::testbed_site_names();
  names.push_back("bluefire");
  for (const auto& name : names) {
    owned.push_back(toolchain::make_site(name));
    sites.push_back(owned.back().get());
  }
  const auto report = survey_sites(sites, "galaxy_sim-3.2", binary);
  std::printf("%s", report.render().c_str());
  std::printf("\n%zu of %zu sites predicted ready — submit there, skip the "
              "rest.\n",
              report.ready_count(), report.entries.size());
  std::printf("(With no guaranteed execution environment, missing libraries\n"
              "cannot be resolved; the paper notes this is exactly the\n"
              "community-codes-distributed-as-binaries situation.)\n");
  return 0;
}
