#include "cli/options.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace feam::cli {
namespace {

std::optional<Options> parse(std::vector<std::string> args) {
  std::string error;
  return parse_options(args, error);
}

std::string parse_error(std::vector<std::string> args) {
  std::string error;
  const auto opts = parse_options(args, error);
  EXPECT_FALSE(opts.has_value());
  return error;
}

TEST(CliOptions, ListSites) {
  const auto opts = parse({"list-sites"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->command, Command::kListSites);
}

TEST(CliOptions, Help) {
  for (const char* flag : {"--help", "-h", "help"}) {
    const auto opts = parse({flag});
    ASSERT_TRUE(opts.has_value()) << flag;
    EXPECT_EQ(opts->command, Command::kHelp);
  }
  EXPECT_FALSE(usage().empty());
}

TEST(CliOptions, CompileFull) {
  const auto opts = parse({"compile", "--site", "india", "--stack",
                           "openmpi/1.4-gnu", "--program", "cg.B",
                           "--language", "fortran", "-o", "/tmp/cg.B"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->command, Command::kCompile);
  EXPECT_EQ(opts->site, "india");
  EXPECT_EQ(opts->stack, "openmpi/1.4-gnu");
  EXPECT_EQ(opts->program, "cg.B");
  EXPECT_EQ(opts->language, "fortran");
  EXPECT_EQ(opts->output, "/tmp/cg.B");
  EXPECT_FALSE(opts->static_link);
}

TEST(CliOptions, CompileStatic) {
  const auto opts = parse({"compile", "--site", "india", "--stack",
                           "mpich2/1.4-gnu", "--program", "is.B", "--static",
                           "-o", "/tmp/is"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_TRUE(opts->static_link);
}

TEST(CliOptions, CompileMissingRequired) {
  EXPECT_NE(parse_error({"compile", "--site", "india"}).find("--stack"),
            std::string::npos);
  EXPECT_NE(parse_error({"compile", "--stack", "x", "--program", "p",
                         "-o", "out"})
                .find("--site"),
            std::string::npos);
  EXPECT_NE(parse_error({"compile", "--site", "s", "--stack", "x",
                         "--program", "p", "-o", "out", "--language", "ada"})
                .find("--language"),
            std::string::npos);
}

TEST(CliOptions, SourceAndTarget) {
  const auto source = parse({"source", "--site", "india", "--stack",
                             "openmpi/1.4-gnu", "--binary", "/tmp/b", "-o",
                             "/tmp/b.feambundle"});
  ASSERT_TRUE(source.has_value());
  EXPECT_EQ(source->command, Command::kSource);

  const auto target = parse({"target", "--site", "fir", "--binary", "/tmp/b",
                             "--bundle", "/tmp/b.feambundle", "--script",
                             "/tmp/run.sh"});
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->command, Command::kTarget);
  EXPECT_EQ(target->bundle, "/tmp/b.feambundle");
  EXPECT_EQ(target->script, "/tmp/run.sh");

  // Bundle is optional for target (basic prediction).
  const auto basic = parse({"target", "--site", "fir", "--binary", "/tmp/b"});
  ASSERT_TRUE(basic.has_value());
  EXPECT_TRUE(basic->bundle.empty());
}

TEST(CliOptions, SiteFileSubstitutesForSite) {
  const auto opts = parse({"target", "--site-file", "/tmp/mycluster.json",
                           "--binary", "/tmp/b"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->site_file, "/tmp/mycluster.json");
  EXPECT_TRUE(opts->site.empty());
  // Without either, target is rejected.
  EXPECT_NE(parse_error({"target", "--binary", "/tmp/b"}).find("--site"),
            std::string::npos);
}

TEST(CliOptions, SurveyRequiresBinaryOnly) {
  EXPECT_TRUE(parse({"survey", "--binary", "/tmp/b"}).has_value());
  EXPECT_NE(parse_error({"survey"}).find("--binary"), std::string::npos);
}

TEST(CliOptions, MemoryObservabilityFlags) {
  const auto survey = parse({"survey", "--binary", "/tmp/b", "--track-alloc",
                             "--timeseries-out", "/tmp/live.jsonl"});
  ASSERT_TRUE(survey.has_value());
  EXPECT_TRUE(survey->track_alloc);

  const auto profile = parse({"profile", "--in", "/tmp/trace.json",
                              "--memory", "--svg", "/tmp/alloc.svg"});
  ASSERT_TRUE(profile.has_value());
  EXPECT_TRUE(profile->profile_memory);

  const auto plain = parse({"profile", "--in", "/tmp/trace.json"});
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->profile_memory);
  EXPECT_FALSE(plain->track_alloc);
}

TEST(CliOptions, TimeseriesIntervalValidation) {
  const auto ok = parse({"survey", "--binary", "/tmp/b", "--timeseries-out",
                         "/tmp/live.jsonl", "--timeseries-interval", "25"});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->timeseries_interval_ms, 25);

  // The rejection names the flag, the constraint, and the bad value.
  for (const char* bad : {"0", "-5", "soon", ""}) {
    const std::string error =
        parse_error({"survey", "--binary", "/tmp/b", "--timeseries-out",
                     "/tmp/live.jsonl", "--timeseries-interval", bad});
    EXPECT_NE(error.find("--timeseries-interval"), std::string::npos) << bad;
    EXPECT_NE(error.find("positive number of milliseconds"),
              std::string::npos)
        << bad;
    EXPECT_NE(error.find(bad), std::string::npos) << bad;
  }
}

TEST(CliOptions, CountFlagsTakeOnlyWholePositiveIntegers) {
  const auto ok = parse({"fleet", "--jobs", "4", "--pr", "14", "--sites",
                         "3", "--workloads", "2"});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->jobs, 4);
  EXPECT_EQ(ok->pr_number, 14);
  EXPECT_EQ(ok->fleet_sites, 3);
  EXPECT_EQ(ok->fleet_workloads, 2);

  // One rejection shape for every failure mode, trailing garbage included.
  for (const char* flag : {"--jobs", "--pr", "--sites", "--workloads"}) {
    for (const char* bad : {"2x", "0", "-1", "two", "", "99999999999"}) {
      const std::string error = parse_error({"fleet", flag, bad});
      EXPECT_EQ(error, std::string(flag) + " must be a positive integer (got " +
                           bad + ")");
    }
  }
}

TEST(CliOptions, DriftOverrideChecksSyntaxAndLeavesTheRangeToTheSpec) {
  const auto nan = parse({"fleet", "--drift", "nan"});
  ASSERT_TRUE(nan.has_value());
  ASSERT_TRUE(nan->fleet_drift.has_value());
  EXPECT_TRUE(std::isnan(*nan->fleet_drift));
  EXPECT_FALSE(parse({"fleet"})->fleet_drift.has_value());
  for (const char* bad : {"1.5x", "", "fast"}) {
    EXPECT_EQ(parse_error({"fleet", "--drift", bad}),
              std::string("--drift must be a number (got ") + bad + ")");
  }
}

TEST(CliOptions, Errors) {
  EXPECT_NE(parse_error({}).find("no command"), std::string::npos);
  EXPECT_NE(parse_error({"frobnicate"}).find("unknown command"),
            std::string::npos);
  EXPECT_NE(parse_error({"target", "--site"}).find("requires a value"),
            std::string::npos);
  EXPECT_NE(parse_error({"target", "--site", "fir", "--binary", "/b",
                         "--bogus", "x"})
                .find("unknown flag"),
            std::string::npos);
}

}  // namespace
}  // namespace feam::cli
