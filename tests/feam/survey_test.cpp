#include "feam/survey.hpp"

#include <gtest/gtest.h>

#include "feam/caches.hpp"
#include "support/strings.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

namespace feam {
namespace {

using site::CompilerFamily;
using site::MpiImpl;

struct Fixture {
  std::vector<std::unique_ptr<site::Site>> owned;
  std::vector<site::Site*> sites;
  support::Blob binary;
  std::unique_ptr<site::Site> home;
  SourcePhaseOutput source;
};

Fixture make_fixture(MpiImpl impl, CompilerFamily fam,
                     toolchain::Language lang) {
  Fixture f;
  f.home = toolchain::make_site("india");
  toolchain::ProgramSource app;
  app.name = "probe";
  app.language = lang;
  app.libc_features = {"base", "stdio", "math"};
  const auto* stack = f.home->find_stack(impl, fam);
  EXPECT_NE(stack, nullptr);
  const auto compiled = toolchain::compile_mpi_program(*f.home, app, *stack,
                                                       "/home/user/probe");
  EXPECT_TRUE(compiled.ok());
  f.binary = f.home->vfs.read_blob(compiled.value());
  f.home->load_module(std::string(site::mpi_impl_slug(impl)) + "/" +
                      stack->version.str() + "-" + site::compiler_slug(fam));
  f.source = run_source_phase(*f.home, compiled.value()).take();

  for (const auto& name : toolchain::testbed_site_names()) {
    if (name == "india") continue;
    f.owned.push_back(toolchain::make_site(name));
    f.sites.push_back(f.owned.back().get());
  }
  return f;
}

TEST(Survey, RanksReadySitesFirst) {
  auto f = make_fixture(MpiImpl::kOpenMpi, CompilerFamily::kIntel,
                        toolchain::Language::kC);
  const auto report = survey_sites(f.sites, "probe", f.binary, &f.source);
  ASSERT_EQ(report.entries.size(), 4u);
  EXPECT_GT(report.ready_count(), 0u);
  // Ready entries are a prefix of the ranking.
  bool seen_not_ready = false;
  for (const auto& entry : report.entries) {
    if (!entry.ready) seen_not_ready = true;
    if (seen_not_ready) {
      EXPECT_FALSE(entry.ready);
    }
  }
}

TEST(Survey, BlockedSitesNameTheDeterminant) {
  // An MPICH2 binary: only Fir (among the non-home sites) has MPICH2.
  auto f = make_fixture(MpiImpl::kMpich2, CompilerFamily::kGnu,
                        toolchain::Language::kC);
  const auto report = survey_sites(f.sites, "probe", f.binary, &f.source);
  for (const auto& entry : report.entries) {
    if (entry.ready) continue;
    EXPECT_FALSE(entry.blocking_determinant.empty()) << entry.site_name;
    EXPECT_FALSE(entry.reason.empty()) << entry.site_name;
  }
  // Forge/Blacklight lack MPICH2 entirely; Ranger also lacks it, but its
  // older C library blocks first (the determinants are ordered, paper V.C).
  int no_stack = 0;
  std::string ranger_determinant;
  for (const auto& entry : report.entries) {
    no_stack += support::contains(entry.reason, "no MPICH2 stack");
    if (entry.site_name == "ranger") {
      ranger_determinant = entry.blocking_determinant;
    }
  }
  EXPECT_EQ(no_stack, 2);
  EXPECT_EQ(ranger_determinant, "C library compatibility");
}

TEST(Survey, RenderIsATable) {
  auto f = make_fixture(MpiImpl::kOpenMpi, CompilerFamily::kGnu,
                        toolchain::Language::kC);
  const auto report = survey_sites(f.sites, "probe", f.binary, &f.source);
  const std::string text = report.render();
  EXPECT_TRUE(support::contains(text, "Site"));
  EXPECT_TRUE(support::contains(text, "Verdict"));
  for (const auto& entry : report.entries) {
    EXPECT_TRUE(support::contains(text, entry.site_name));
  }
}

TEST(Survey, SitesLeftClean) {
  auto f = make_fixture(MpiImpl::kOpenMpi, CompilerFamily::kGnu,
                        toolchain::Language::kC);
  (void)survey_sites(f.sites, "probe", f.binary, &f.source);
  for (const site::Site* s : f.sites) {
    EXPECT_FALSE(s->vfs.exists("/home/user/probe")) << s->name;
    EXPECT_TRUE(s->loaded_modules().empty()) << s->name;
  }
}

TEST(Survey, PooledSurveyMatchesSequentialAndRestoresSites) {
  auto f = make_fixture(MpiImpl::kOpenMpi, CompilerFamily::kGnu,
                        toolchain::Language::kC);
  const auto sequential = survey_sites(f.sites, "probe", f.binary, &f.source);

  MigrationCaches caches;
  SurveyOptions options;
  options.jobs = 4;
  options.caches = &caches;
  const auto pooled =
      survey_sites(f.sites, "probe", f.binary, &f.source, {}, options);

  ASSERT_EQ(pooled.entries.size(), sequential.entries.size());
  for (std::size_t i = 0; i < pooled.entries.size(); ++i) {
    EXPECT_EQ(pooled.entries[i].site_name, sequential.entries[i].site_name);
    EXPECT_EQ(pooled.entries[i].ready, sequential.entries[i].ready);
    EXPECT_EQ(pooled.entries[i].blocking_determinant,
              sequential.entries[i].blocking_determinant);
    EXPECT_EQ(pooled.entries[i].resolved_copies,
              sequential.entries[i].resolved_copies);
  }
  EXPECT_EQ(pooled.render(), sequential.render());

  // Workers held each site's lease and restored it exactly as found.
  for (const site::Site* s : f.sites) {
    EXPECT_FALSE(s->vfs.exists("/home/user/probe")) << s->name;
    EXPECT_TRUE(s->loaded_modules().empty()) << s->name;
  }
}

TEST(Survey, SitesRestoredEvenWhenTheTargetPhaseErrors) {
  auto f = make_fixture(MpiImpl::kOpenMpi, CompilerFamily::kGnu,
                        toolchain::Language::kC);
  // Non-ELF bytes make the target phase error at every site; the sites
  // must still be restored exactly as found, including a module that was
  // already loaded before the survey.
  site::Site* victim = f.sites.front();
  const auto modules = victim->available_modules();
  ASSERT_FALSE(modules.empty());
  victim->load_module(modules.front());

  const support::Blob garbage =
      support::intern({'n', 'o', 't', ' ', 'e', 'l', 'f'});
  const auto report = survey_sites(f.sites, "probe", garbage, &f.source);

  for (const auto& entry : report.entries) {
    EXPECT_FALSE(entry.ready) << entry.site_name;
    EXPECT_EQ(entry.blocking_determinant, "error") << entry.site_name;
  }
  EXPECT_EQ(victim->loaded_modules(),
            std::vector<std::string>{modules.front()});
  for (const site::Site* s : f.sites) {
    EXPECT_FALSE(s->vfs.exists("/home/user/probe")) << s->name;
  }
}

TEST(Survey, BasicModeWithoutBundle) {
  auto f = make_fixture(MpiImpl::kMvapich2, CompilerFamily::kIntel,
                        toolchain::Language::kC);
  const auto basic = survey_sites(f.sites, "probe", f.binary, nullptr);
  const auto extended = survey_sites(f.sites, "probe", f.binary, &f.source);
  // Resolution can only help: extended readiness dominates basic.
  EXPECT_GE(extended.ready_count(), basic.ready_count());
}

}  // namespace
}  // namespace feam
