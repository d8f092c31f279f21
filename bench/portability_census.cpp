// Portability census: for every (site, stack) combination in the testbed,
// compile C and Fortran hello worlds and try to run them at every other
// site under the best matching stack. A compact visualization of *why*
// the paper's failure modes arise — before any application complexity:
// even trivial programs inherit the full compatibility surface of their
// MPI stack, compiler runtime, and build-time C library.
#include <cstdio>
#include <map>

#include "support/table.hpp"
#include "toolchain/launcher.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

using namespace feam;

namespace {

// One-letter cell code for the census grid.
char classify(toolchain::RunStatus status) {
  switch (status) {
    case toolchain::RunStatus::kSuccess: return '+';
    case toolchain::RunStatus::kMissingLibrary: return 'L';
    case toolchain::RunStatus::kVersionError: return 'C';
    case toolchain::RunStatus::kFpException: return 'A';
    case toolchain::RunStatus::kStackNotFunctional: return 'S';
    case toolchain::RunStatus::kNoMpiStackSelected: return '-';
    case toolchain::RunStatus::kExecFormatError: return 'I';
    default: return '?';
  }
}

}  // namespace

int main() {
  std::printf("PORTABILITY CENSUS — hello worlds across the testbed\n");
  std::printf("cells: + success  L missing library  C C-library version\n"
              "       A ABI/FP break  S stack not functional  - no matching "
              "stack  I ISA\n\n");

  auto sites = toolchain::make_testbed(/*fault_seed=*/0);

  for (const auto lang :
       {toolchain::Language::kC, toolchain::Language::kFortran}) {
    std::printf("== %s hello world ==\n", toolchain::language_name(lang));
    support::TextTable table({"built at / runs at", "ranger", "forge",
                              "blacklight", "india", "fir"});
    for (auto& home : sites) {
      for (const auto& stack : home->stacks) {
        const auto program = toolchain::mpi_hello_world(lang);
        const auto compiled = toolchain::compile_mpi_program(
            *home, program, stack, "/tmp/census_" + stack.slug());
        if (!compiled.ok()) continue;

        std::vector<std::string> row = {home->name + " " + stack.display()};
        for (auto& target : sites) {
          if (target->name == home->name) {
            row.push_back("(home)");
            continue;
          }
          // Migrate and run under the best matching stack.
          const std::string path = "/home/user/census_hw";
          target->vfs.write_file(path, *home->vfs.read(compiled.value()));
          const site::MpiStackInstall* best = nullptr;
          for (const auto& candidate : target->stacks) {
            if (candidate.impl != stack.impl) continue;
            if (best == nullptr || candidate.compiler == stack.compiler) {
              best = &candidate;
            }
          }
          if (best == nullptr) {
            row.push_back("-");
            target->vfs.remove(path);
            continue;
          }
          target->unload_all_modules();
          target->load_module(best->module_name());
          const auto run = toolchain::mpiexec_with_retries(*target, path, 4);
          row.push_back(std::string(1, classify(run.status)));
          target->unload_all_modules();
          target->vfs.remove(path);
        }
        table.add_row(std::move(row));
        home->vfs.remove(compiled.value());
      }
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf("Reading the grid: Ranger's MVAPICH2 1.2 rows are solid L\n"
              "(libmpich soname change — the resolution model's main win);\n"
              "rows into Ranger are C for every gcc>=4.1/Intel>=11 build\n"
              "(stack-protector references need GLIBC_2.4); Fortran rows\n"
              "show A where only an other-compiler stack matches.\n");
  return 0;
}
