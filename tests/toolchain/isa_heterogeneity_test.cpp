// The ISA determinant end-to-end, using the big-endian ppc64 demonstration
// site: provisioning, discovery, compilation, migration, and prediction
// all run through the ELF big-endian code paths.
#include <gtest/gtest.h>

#include "binutils/uname.hpp"
#include "elf/file.hpp"
#include "feam/phases.hpp"
#include "toolchain/launcher.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

namespace feam::toolchain {
namespace {

using site::CompilerFamily;
using site::MpiImpl;

ProgramSource app() {
  ProgramSource p;
  p.name = "solver";
  p.language = Language::kC;
  p.libc_features = {"base", "stdio", "math"};
  return p;
}

TEST(IsaHeterogeneity, Ppc64SiteProvisionsBigEndianLibraries) {
  auto bluefire = make_site("bluefire");
  EXPECT_EQ(binutils::uname_p(*bluefire), "ppc64");
  const auto* libc = bluefire->vfs.read("/lib64/libc.so.6");
  ASSERT_NE(libc, nullptr);
  const auto parsed = elf::ElfFile::parse(*libc);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().isa(), elf::Isa::kPpc64);
  EXPECT_EQ(parsed.value().endian(), support::Endian::kBig);
  EXPECT_TRUE(bluefire->vfs.exists("/lib64/ld64.so.1"));
}

TEST(IsaHeterogeneity, NativeCompileAndRunOnPpc64) {
  auto bluefire = make_site("bluefire");
  const auto* stack =
      bluefire->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
  ASSERT_NE(stack, nullptr);
  const auto compiled =
      compile_mpi_program(*bluefire, app(), *stack, "/home/user/solver");
  ASSERT_TRUE(compiled.ok()) << compiled.error();
  bluefire->load_module("openmpi/1.4-gnu");
  const auto run = mpiexec_with_retries(*bluefire, compiled.value(), 8);
  EXPECT_TRUE(run.success()) << run.detail;
}

TEST(IsaHeterogeneity, X86BinaryRejectedAtPpc64Site) {
  auto india = make_site("india");
  const auto* stack = india->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
  const auto compiled =
      compile_mpi_program(*india, app(), *stack, "/home/user/solver");
  ASSERT_TRUE(compiled.ok());

  auto bluefire = make_site("bluefire");
  bluefire->vfs.write_file("/home/user/solver", *india->vfs.read(compiled.value()));

  // Prediction: the ISA determinant fails and later determinants are
  // skipped (paper V.C ordering).
  const auto result = feam::run_target_phase(*bluefire, "/home/user/solver");
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_FALSE(result.value().prediction.ready);
  const auto* isa =
      result.value().prediction.determinant(feam::DeterminantKind::kIsa);
  EXPECT_FALSE(isa->compatible);
  EXPECT_FALSE(result.value()
                   .prediction.determinant(feam::DeterminantKind::kMpiStack)
                   ->evaluated);

  // Execution agrees.
  bluefire->load_module("openmpi/1.4-gnu");
  const auto run = mpiexec_with_retries(*bluefire, "/home/user/solver", 8);
  EXPECT_EQ(run.status, RunStatus::kExecFormatError);
}

TEST(IsaHeterogeneity, Ppc64BinaryRejectedAtX86Sites) {
  auto bluefire = make_site("bluefire");
  const auto* stack =
      bluefire->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
  const auto compiled =
      compile_mpi_program(*bluefire, app(), *stack, "/home/user/solver");
  ASSERT_TRUE(compiled.ok());

  for (const char* target_name : {"india", "forge"}) {
    auto target = make_site(target_name);
    target->vfs.write_file("/home/user/solver",
                           *bluefire->vfs.read(compiled.value()));
    const auto result = feam::run_target_phase(*target, "/home/user/solver");
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result.value().prediction.ready) << target_name;
    EXPECT_FALSE(result.value()
                     .prediction.determinant(feam::DeterminantKind::kIsa)
                     ->compatible)
        << target_name;
  }
}

TEST(IsaHeterogeneity, BigEndianBundleTravels) {
  // Source phase at the ppc64 site round-trips big-endian library copies.
  auto bluefire = make_site("bluefire");
  const auto* stack =
      bluefire->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
  const auto compiled =
      compile_mpi_program(*bluefire, app(), *stack, "/home/user/solver");
  ASSERT_TRUE(compiled.ok());
  bluefire->load_module("openmpi/1.4-gnu");
  const auto source = feam::run_source_phase(*bluefire, compiled.value());
  ASSERT_TRUE(source.ok()) << source.error();
  EXPECT_GE(source.value().bundle.libraries.size(), 4u);
  for (const auto& lib : source.value().bundle.libraries) {
    const auto parsed = elf::ElfFile::parse(*lib.content);
    ASSERT_TRUE(parsed.ok()) << lib.name;
    EXPECT_EQ(parsed.value().isa(), elf::Isa::kPpc64) << lib.name;
  }
}

}  // namespace
}  // namespace feam::toolchain
