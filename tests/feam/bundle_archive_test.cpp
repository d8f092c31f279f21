#include "feam/bundle_archive.hpp"

#include <gtest/gtest.h>

#include "feam/phases.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

namespace feam {
namespace {

SourcePhaseOutput make_source_output() {
  auto home = toolchain::make_site("india");
  const auto* stack = home->find_stack(site::MpiImpl::kOpenMpi,
                                       site::CompilerFamily::kGnu);
  toolchain::ProgramSource app;
  app.name = "cg.B";
  app.language = toolchain::Language::kFortran;
  app.libc_features = {"base", "stdio", "math"};
  const auto compiled =
      toolchain::compile_mpi_program(*home, app, *stack, "/home/user/cg.B");
  EXPECT_TRUE(compiled.ok());
  home->load_module("openmpi/1.4-gnu");
  auto source = run_source_phase(*home, compiled.value());
  EXPECT_TRUE(source.ok());
  return std::move(source).take();
}

TEST(BundleArchive, RoundTripPreservesEverything) {
  const auto source = make_source_output();
  const auto archive = pack_bundle(source.bundle);
  const auto unpacked = unpack_bundle(archive);
  ASSERT_TRUE(unpacked.ok()) << unpacked.error();
  const Bundle& b = unpacked.value();

  EXPECT_EQ(b.application.path, source.bundle.application.path);
  EXPECT_EQ(b.application.mpi_impl, source.bundle.application.mpi_impl);
  EXPECT_EQ(b.application.required_clib_version,
            source.bundle.application.required_clib_version);
  ASSERT_EQ(b.libraries.size(), source.bundle.libraries.size());
  for (std::size_t i = 0; i < b.libraries.size(); ++i) {
    EXPECT_EQ(b.libraries[i].name, source.bundle.libraries[i].name);
    EXPECT_EQ(b.libraries[i].origin_path, source.bundle.libraries[i].origin_path);
    EXPECT_EQ(*b.libraries[i].content, *source.bundle.libraries[i].content);
    EXPECT_EQ(b.libraries[i].description.soname,
              source.bundle.libraries[i].description.soname);
  }
  ASSERT_EQ(b.hello_worlds.size(), source.bundle.hello_worlds.size());
  for (std::size_t i = 0; i < b.hello_worlds.size(); ++i) {
    EXPECT_EQ(b.hello_worlds[i].language, source.bundle.hello_worlds[i].language);
    EXPECT_EQ(*b.hello_worlds[i].content,
              *source.bundle.hello_worlds[i].content);
  }
  EXPECT_EQ(b.total_bytes(), source.bundle.total_bytes());
  EXPECT_EQ(b.source_environment.clib_version,
            source.bundle.source_environment.clib_version);
}

TEST(BundleArchive, Deterministic) {
  const auto source = make_source_output();
  EXPECT_EQ(pack_bundle(source.bundle), pack_bundle(source.bundle));
}

TEST(BundleArchive, UnpackedBundleDrivesExtendedPrediction) {
  // The full user workflow: pack at the guaranteed site, copy bytes,
  // unpack at the target, run the extended target phase from the unpacked
  // bundle.
  auto source = make_source_output();
  const auto archive = pack_bundle(source.bundle);

  auto home = toolchain::make_site("india");
  const auto* stack = home->find_stack(site::MpiImpl::kOpenMpi,
                                       site::CompilerFamily::kGnu);
  toolchain::ProgramSource app;
  app.name = "cg.B";
  app.language = toolchain::Language::kFortran;
  app.libc_features = {"base", "stdio", "math"};
  const auto compiled =
      toolchain::compile_mpi_program(*home, app, *stack, "/home/user/cg.B");

  auto target = toolchain::make_site("fir");
  target->vfs.write_file("/home/user/cg.B", *home->vfs.read(compiled.value()));
  target->vfs.write_file("/home/user/cg.B.feambundle", archive);

  const auto from_disk = unpack_bundle(*target->vfs.read("/home/user/cg.B.feambundle"));
  ASSERT_TRUE(from_disk.ok());
  SourcePhaseOutput travelled;
  travelled.application = from_disk.value().application;
  travelled.bundle = from_disk.value();
  const auto result =
      run_target_phase(*target, "/home/user/cg.B", &travelled);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_TRUE(result.value().prediction.ready);
}

TEST(BundleArchive, RejectsCorruptInput) {
  const auto source = make_source_output();
  const auto archive = pack_bundle(source.bundle);

  EXPECT_FALSE(unpack_bundle({}).ok());
  EXPECT_FALSE(unpack_bundle({'F', 'E', 'A', 'M'}).ok());

  support::Bytes bad_magic = archive;
  bad_magic[0] = 'X';
  EXPECT_FALSE(unpack_bundle(bad_magic).ok());

  support::Bytes bad_version = archive;
  bad_version[8] = 99;
  EXPECT_FALSE(unpack_bundle(bad_version).ok());

  // Truncations at various depths must fail cleanly, never crash.
  for (const double fraction : {0.1, 0.3, 0.5, 0.7, 0.9, 0.999}) {
    const auto len = static_cast<std::size_t>(
        fraction * static_cast<double>(archive.size()));
    const support::Bytes prefix(archive.begin(),
                                archive.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(unpack_bundle(prefix).ok()) << fraction;
  }

  support::Bytes trailing = archive;
  trailing.push_back(0);
  EXPECT_FALSE(unpack_bundle(trailing).ok());
}

}  // namespace
}  // namespace feam
