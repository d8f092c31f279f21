#include "feam/phases.hpp"

#include <gtest/gtest.h>

#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

namespace feam {
namespace {

using site::CompilerFamily;
using site::MpiImpl;

struct HomeSetup {
  std::unique_ptr<site::Site> site;
  std::string path;
};

HomeSetup compiled_home(const char* site_name, MpiImpl impl,
                        CompilerFamily fam, toolchain::Language lang) {
  HomeSetup h;
  h.site = toolchain::make_site(site_name);
  const auto* stack = h.site->find_stack(impl, fam);
  EXPECT_NE(stack, nullptr);
  toolchain::ProgramSource p;
  p.name = "app";
  p.language = lang;
  p.libc_features = {"base", "stdio", "math"};
  const auto r =
      toolchain::compile_mpi_program(*h.site, p, *stack, "/home/user/app");
  EXPECT_TRUE(r.ok()) << r.error();
  h.path = r.value();
  h.site->load_module(stack->module_name());
  return h;
}

TEST(SourcePhase, GathersCopiesOfEverythingButLibc) {
  auto h = compiled_home("india", MpiImpl::kOpenMpi, CompilerFamily::kGnu,
                         toolchain::Language::kFortran);
  const auto out = run_source_phase(*h.site, h.path);
  ASSERT_TRUE(out.ok()) << out.error();
  const Bundle& bundle = out.value().bundle;

  // Direct and transitive dependencies are copied...
  EXPECT_NE(bundle.find_library("libmpi.so.0"), nullptr);
  EXPECT_NE(bundle.find_library("libmpi_f77.so.0"), nullptr);
  EXPECT_NE(bundle.find_library("libopen-pal.so.0"), nullptr);  // transitive
  EXPECT_NE(bundle.find_library("libgfortran.so.1"), nullptr);
  EXPECT_NE(bundle.find_library("libm.so.6"), nullptr);
  // ...except the C library and the dynamic loader (paper V.A).
  EXPECT_EQ(bundle.find_library("libc.so.6"), nullptr);
  for (const auto& lib : bundle.libraries) {
    EXPECT_EQ(lib.name.find("ld-linux"), std::string::npos);
    EXPECT_FALSE(lib.content->empty());
    EXPECT_EQ(lib.description.soname, lib.name);
  }
}

TEST(SourcePhase, CompilesHelloWorldsWithSelectedStack) {
  auto h = compiled_home("india", MpiImpl::kOpenMpi, CompilerFamily::kGnu,
                         toolchain::Language::kFortran);
  const auto out = run_source_phase(*h.site, h.path);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().bundle.hello_worlds.size(), 2u);  // C + Fortran
  EXPECT_EQ(out.value().bundle.hello_worlds[0].language,
            toolchain::Language::kC);
  EXPECT_EQ(out.value().bundle.hello_worlds[1].language,
            toolchain::Language::kFortran);
  EXPECT_FALSE(out.value().bundle.hello_worlds[0].content->empty());
}

TEST(SourcePhase, ConfirmsSelectedStackMatches) {
  auto h = compiled_home("india", MpiImpl::kOpenMpi, CompilerFamily::kGnu,
                         toolchain::Language::kC);
  const auto out = run_source_phase(*h.site, h.path);
  ASSERT_TRUE(out.ok());
  bool confirmed = false;
  for (const auto& line : out.value().render_text()) {
    confirmed |= line.find("selected stack matches binary") != std::string::npos;
  }
  EXPECT_TRUE(confirmed);
}

TEST(SourcePhase, WarnsOnStackMismatch) {
  auto h = compiled_home("india", MpiImpl::kOpenMpi, CompilerFamily::kGnu,
                         toolchain::Language::kC);
  h.site->unload_all_modules();
  h.site->load_module("mpich2/1.4-gnu");  // wrong stack selected
  const auto out = run_source_phase(*h.site, h.path);
  ASSERT_TRUE(out.ok());
  bool warned = false;
  for (const auto& line : out.value().render_text()) {
    warned |= line.find("does not match") != std::string::npos;
  }
  EXPECT_TRUE(warned);
}

TEST(SourcePhase, BundleManifestIsSelfDescribing) {
  auto h = compiled_home("fir", MpiImpl::kMpich2, CompilerFamily::kIntel,
                         toolchain::Language::kC);
  const auto out = run_source_phase(*h.site, h.path);
  ASSERT_TRUE(out.ok());
  const auto manifest = out.value().bundle.manifest();
  EXPECT_TRUE(manifest.has("application"));
  EXPECT_GT(manifest["libraries"].as_array().size(), 3u);
  EXPECT_EQ(static_cast<std::size_t>(manifest.get_int("total_bytes")),
            out.value().bundle.total_bytes());
  // Manifest survives a text round-trip (it travels between sites).
  const auto reparsed = support::Json::parse(manifest.dump(2));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ((*reparsed)["libraries"].as_array().size(),
            manifest["libraries"].as_array().size());
}

TEST(SourcePhase, FailsOnUndescribableBinary) {
  auto s = toolchain::make_site("india");
  s->vfs.write_file("/home/user/script", "#!/bin/sh\n");
  EXPECT_FALSE(run_source_phase(*s, "/home/user/script").ok());
  EXPECT_FALSE(run_source_phase(*s, "/missing").ok());
}

TEST(TargetPhase, RequiresBinaryOrBundle) {
  auto s = toolchain::make_site("fir");
  const auto r = run_target_phase(*s, "/not/here", nullptr);
  EXPECT_FALSE(r.ok());
}

TEST(TargetPhase, BasicPredictionWithBinaryOnly) {
  auto h = compiled_home("india", MpiImpl::kOpenMpi, CompilerFamily::kIntel,
                         toolchain::Language::kC);
  auto target = toolchain::make_site("fir");
  target->vfs.write_file("/home/user/migrated/app",
                         *h.site->vfs.read(h.path));
  const auto r = run_target_phase(*target, "/home/user/migrated/app");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.value().prediction.ready);
  EXPECT_EQ(r.value().application.mpi_impl, MpiImpl::kOpenMpi);
  EXPECT_EQ(r.value().environment.isa, "x86_64");
}

TEST(TargetPhase, ExtendedWithoutBinaryUsesBundleDescription) {
  auto h = compiled_home("india", MpiImpl::kOpenMpi, CompilerFamily::kIntel,
                         toolchain::Language::kC);
  const auto source = run_source_phase(*h.site, h.path);
  ASSERT_TRUE(source.ok());
  auto target = toolchain::make_site("fir");
  const auto r = run_target_phase(*target, "", &source.value());
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.value().prediction.ready);
  // The description travelled from the source phase.
  EXPECT_EQ(r.value().application.path, h.path);
}

TEST(TargetPhase, BundleSizeIsModest) {
  // Section VI.C: a per-site all-binaries bundle averaged ~45M; a single
  // binary's bundle must be far below that.
  auto h = compiled_home("india", MpiImpl::kOpenMpi, CompilerFamily::kGnu,
                         toolchain::Language::kFortran);
  const auto out = run_source_phase(*h.site, h.path);
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out.value().bundle.total_bytes(), 20u * 1024 * 1024);
  EXPECT_GT(out.value().bundle.total_bytes(), 1u * 1024 * 1024);
}

}  // namespace
}  // namespace feam
