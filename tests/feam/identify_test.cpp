// Table I identification, tested both on hand-written NEEDED lists and on
// binaries actually produced by the simulated toolchain for every stack
// and language combination in the testbed.
#include "feam/identify.hpp"

#include <gtest/gtest.h>

#include "elf/file.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

namespace feam {
namespace {

using site::MpiImpl;

TEST(Identify, TableOneRules) {
  // Open MPI: libmpi (+ libnsl/libutil).
  EXPECT_EQ(identify_mpi({"libmpi.so.0", "libnsl.so.1", "libutil.so.1",
                          "libc.so.6"}),
            MpiImpl::kOpenMpi);
  // MPICH2: libmpich and no InfiniBand identifiers.
  EXPECT_EQ(identify_mpi({"libmpich.so.1.2", "libc.so.6"}), MpiImpl::kMpich2);
  // MVAPICH2: libmpich plus libibverbs/libibumad.
  EXPECT_EQ(identify_mpi({"libmpich.so.1.0", "libibverbs.so.1",
                          "libibumad.so.3", "libc.so.6"}),
            MpiImpl::kMvapich2);
}

TEST(Identify, FortranBindingsAlsoIdentify) {
  EXPECT_EQ(identify_mpi({"libmpichf90.so.1.2", "libmpich.so.1.2",
                          "libibverbs.so.1", "libc.so.6"}),
            MpiImpl::kMvapich2);
  EXPECT_EQ(identify_mpi({"libmpi_f77.so.0", "libmpi.so.0", "libc.so.6"}),
            MpiImpl::kOpenMpi);
}

TEST(Identify, SerialBinaryIsNotMpi) {
  EXPECT_FALSE(identify_mpi({"libc.so.6", "libm.so.6"}).has_value());
  EXPECT_FALSE(identify_mpi({}).has_value());
  // libnsl/libutil alone (without InfiniBand context) are too generic.
  EXPECT_FALSE(identify_mpi({"libnsl.so.1", "libutil.so.1", "libc.so.6"})
                   .has_value());
}

TEST(Identify, IbLibsAloneAreNotMpi) {
  EXPECT_FALSE(identify_mpi({"libibverbs.so.1", "libc.so.6"}).has_value());
}

struct StackCase {
  const char* site;
  MpiImpl impl;
  site::CompilerFamily compiler;
  toolchain::Language language;
};

// "site_impl_compiler_lang", the test name suffix.
std::string stack_case_name(const StackCase& c) {
  return std::string(c.site) + "_" + site::mpi_impl_slug(c.impl) + "_" +
         site::compiler_slug(c.compiler) + "_" +
         (c.language == toolchain::Language::kC ? "c" : "f");
}

// Prints a case as its name suffix. gtest's default printer dumps the
// struct's raw bytes, which hold a string pointer and padding, so the
// ctest names that gtest_discover_tests derives from them changed with
// every build.
void PrintTo(const StackCase& c, std::ostream* os) {
  *os << stack_case_name(c);
}

class IdentifyCompiledTest : public ::testing::TestWithParam<StackCase> {};

TEST_P(IdentifyCompiledTest, CompiledBinaryIdentifiesAsItsStack) {
  const auto& param = GetParam();
  auto s = toolchain::make_site(param.site);
  const auto* stack = s->find_stack(param.impl, param.compiler);
  ASSERT_NE(stack, nullptr);
  toolchain::ProgramSource p;
  p.name = "probe";
  p.language = param.language;
  const auto compiled =
      toolchain::compile_mpi_program(*s, p, *stack, "/home/user/probe");
  ASSERT_TRUE(compiled.ok()) << compiled.error();
  const auto parsed = elf::ElfFile::parse(*s->vfs.read(compiled.value()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(identify_mpi(parsed.value().needed()), param.impl);
}

INSTANTIATE_TEST_SUITE_P(
    AllStacks, IdentifyCompiledTest,
    ::testing::Values(
        StackCase{"ranger", MpiImpl::kOpenMpi, site::CompilerFamily::kGnu,
                  toolchain::Language::kC},
        StackCase{"ranger", MpiImpl::kMvapich2, site::CompilerFamily::kIntel,
                  toolchain::Language::kFortran},
        StackCase{"forge", MpiImpl::kOpenMpi, site::CompilerFamily::kIntel,
                  toolchain::Language::kFortran},
        StackCase{"forge", MpiImpl::kMvapich2, site::CompilerFamily::kIntel,
                  toolchain::Language::kC},
        StackCase{"india", MpiImpl::kMpich2, site::CompilerFamily::kGnu,
                  toolchain::Language::kFortran},
        StackCase{"india", MpiImpl::kMvapich2, site::CompilerFamily::kIntel,
                  toolchain::Language::kC},
        StackCase{"fir", MpiImpl::kMpich2, site::CompilerFamily::kPgi,
                  toolchain::Language::kFortran},
        StackCase{"fir", MpiImpl::kOpenMpi, site::CompilerFamily::kPgi,
                  toolchain::Language::kC},
        StackCase{"blacklight", MpiImpl::kOpenMpi, site::CompilerFamily::kGnu,
                  toolchain::Language::kFortran}),
    [](const auto& param_info) { return stack_case_name(param_info.param); });

}  // namespace
}  // namespace feam
