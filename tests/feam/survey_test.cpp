#include "feam/survey.hpp"

#include <gtest/gtest.h>

#include "feam/caches.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
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
  f.home->load_module(stack->module_name());
  f.source = run_source_phase(*f.home, compiled.value()).take();

  for (const auto& name : toolchain::testbed_site_names()) {
    if (name == "india") continue;
    f.owned.push_back(toolchain::make_site(name));
    f.sites.push_back(f.owned.back().get());
  }
  return f;
}

// The rendered table's data rows, each split into its trimmed cells
// (#, Site, Verdict, Detail).
std::vector<std::vector<std::string>> table_rows(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& line : support::split(text, '\n')) {
    if (!support::starts_with(line, "|")) continue;
    std::vector<std::string> cells;
    for (const auto& cell : support::split(line, '|')) {
      cells.emplace_back(support::trim(cell));
    }
    // split() yields an empty piece before the first and after the last
    // bar.
    rows.emplace_back(cells.begin() + 1, cells.end() - 1);
  }
  if (!rows.empty()) rows.erase(rows.begin());  // the header
  return rows;
}

TEST(Survey, RanksReadySitesFirst) {
  auto f = make_fixture(MpiImpl::kOpenMpi, CompilerFamily::kIntel,
                        toolchain::Language::kC);
  const auto report = survey_sites(f.sites, "probe", f.binary, &f.source);
  ASSERT_EQ(report.entries.size(), 4u);
  EXPECT_GT(report.ready_count(), 0u);
  const auto rows = table_rows(report.render());
  ASSERT_EQ(rows.size(), 4u);
  // Ready rows are a prefix of the ranked table, numbered from 1.
  std::size_t ready_rows = 0;
  bool seen_not_ready = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), 4u);
    EXPECT_EQ(rows[i][0], std::to_string(i + 1));
    const bool ready = support::starts_with(rows[i][2], "READY");
    if (!ready) seen_not_ready = true;
    if (seen_not_ready) {
      EXPECT_FALSE(ready) << rows[i][1];
    }
    ready_rows += ready;
  }
  EXPECT_EQ(ready_rows, report.ready_count());
}

TEST(Survey, EntriesKeepSiteInputOrder) {
  // An MPICH2 binary: only Fir is ready, and render() ranks it first, but
  // the entries stay in the order the sites were given.
  auto f = make_fixture(MpiImpl::kMpich2, CompilerFamily::kGnu,
                        toolchain::Language::kC);
  const auto report = survey_sites(f.sites, "probe", f.binary, &f.source);
  ASSERT_EQ(report.entries.size(), f.sites.size());
  for (std::size_t i = 0; i < f.sites.size(); ++i) {
    EXPECT_EQ(report.entries[i].site_name, f.sites[i]->name);
  }
  // Only the table is ranked: Fir, last in input order, heads it.
  EXPECT_EQ(report.entries.back().site_name, "fir");
  const auto rows = table_rows(report.render());
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front()[1], "fir");
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
  support::ThreadPool pool(4);
  SurveyOptions options;
  options.pool = &pool;
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

  // Each assessment held its site's probe leases and left it as found.
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
