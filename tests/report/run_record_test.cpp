// RunRecord end-to-end: assemble a record from a live target phase run
// with the obs collector enabled, round-trip it through JSON, and check
// the invariants `feam report` relies on.
#include "report/run_record.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/fleet.hpp"
#include "eval/run_records.hpp"
#include "feam/phases.hpp"
#include "fleet/generate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

namespace feam::report {
namespace {

using site::CompilerFamily;
using site::MpiImpl;

class RunRecordLive : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::collector().clear();
    obs::collector().set_enabled(true);
  }
  void TearDown() override {
    obs::collector().set_enabled(false);
    obs::collector().clear();
  }
};

TEST_F(RunRecordLive, TargetPhaseAssemblesAValidRecord) {
  // Compile at india, source phase there, migrate the binary to fir.
  auto home = toolchain::make_site("india");
  const auto* stack =
      home->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
  ASSERT_NE(stack, nullptr);
  toolchain::ProgramSource p;
  p.name = "app";
  p.language = toolchain::Language::kC;
  p.libc_features = {"base", "stdio", "math"};
  const auto compiled =
      toolchain::compile_mpi_program(*home, p, *stack, "/home/user/app");
  ASSERT_TRUE(compiled.ok()) << compiled.error();
  ASSERT_TRUE(home->load_module("openmpi/" + stack->version.str() + "-gnu"));
  const auto source = run_source_phase(*home, compiled.value());
  ASSERT_TRUE(source.ok()) << source.error();

  auto target = toolchain::make_site("fir");
  target->vfs.write_file("/home/user/migrated/app",
                         *home->vfs.read(compiled.value()));
  obs::collector().clear();  // record only the target phase
  const auto result =
      run_target_phase(*target, "/home/user/migrated/app", &source.value());
  ASSERT_TRUE(result.ok()) << result.error();

  RunContext ctx;
  ctx.command = "target";
  ctx.binary = "app";
  ctx.source_site = "india";
  ctx.target_site = "fir";
  ctx.mode = "extended";
  ctx.bundle_bytes = 4096;
  ctx.prediction = result.value().prediction;
  const RunRecord record = assemble_run_record(
      ctx, obs::collector().spans(), obs::metrics(),
      result.value().prediction.ready ? 0 : 2);

  // Internally consistent straight out of assembly.
  const auto issues = record.validate();
  EXPECT_TRUE(issues.empty()) << issues.front();

  // The site pair and verdicts survive as recorded.
  EXPECT_EQ(record.source_site, "india");
  EXPECT_EQ(record.target_site, "fir");
  EXPECT_EQ(record.mode, "extended");
  EXPECT_TRUE(record.has_prediction);
  ASSERT_EQ(record.determinants.size(), 4u);
  EXPECT_EQ(record.determinants[0].key, "isa");
  EXPECT_EQ(record.determinants[1].key, "c_library");
  EXPECT_EQ(record.determinants[2].key, "mpi_stack");
  EXPECT_EQ(record.determinants[3].key, "shared_libraries");
  EXPECT_EQ(record.ready, result.value().prediction.ready);
  EXPECT_EQ(record.blocking_determinant(), record.ready ? "" : "c_library");

  // Phase timing: the target-phase span exists and covers the sum of its
  // direct children (validate() checks all parents; pin the root here).
  const std::uint64_t phase_ns = record.span_duration_ns("feam.target_phase");
  EXPECT_GT(phase_ns, 0u);
  std::uint64_t direct_children = 0;
  std::uint64_t phase_id = 0;
  for (const auto& span : record.spans) {
    if (span.name == "feam.target_phase") phase_id = span.id;
  }
  ASSERT_NE(phase_id, 0u);
  for (const auto& span : record.spans) {
    if (span.parent_id == phase_id) direct_children += span.duration_ns;
  }
  EXPECT_GE(phase_ns, direct_children);

  // Counters and histograms come from the live registry.
  EXPECT_GE(record.counters.at("tec.determinant_checks"), 4u);
  EXPECT_FALSE(record.histograms.empty());

  // JSON round trip through the real writer/parser.
  const auto parsed = support::Json::parse(record.to_json().dump(2));
  ASSERT_TRUE(parsed.has_value());
  const auto back = RunRecord::from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->validate().empty());
  EXPECT_EQ(back->source_site, record.source_site);
  EXPECT_EQ(back->target_site, record.target_site);
  EXPECT_EQ(back->ready, record.ready);
  EXPECT_EQ(back->determinants.size(), record.determinants.size());
  EXPECT_EQ(back->spans.size(), record.spans.size());
  EXPECT_EQ(back->counters, record.counters);
  EXPECT_EQ(back->histograms.size(), record.histograms.size());
  EXPECT_EQ(back->span_duration_ns("feam.target_phase"), phase_ns);
  EXPECT_EQ(back->bundle_bytes, 4096u);
}

// One tree dump per line: the stream records_jsonl must reproduce.
std::string tree_jsonl(std::span<const RunRecord> records) {
  std::string out;
  for (const auto& record : records) {
    out += record.to_json().dump();
    out += '\n';
  }
  return out;
}

// The streamed record equals the tree's dump, line by line and as JSONL.
void expect_streams_as_tree(const std::vector<RunRecord>& records) {
  for (const auto& record : records) {
    std::string line;
    support::JsonWriter w(line);
    record.write_json(w);
    EXPECT_EQ(line, record.to_json().dump())
        << record.binary << " @ " << record.target_site;
  }
  EXPECT_EQ(records_jsonl(records), tree_jsonl(records));
}

TEST(RunRecordTest, WriteJsonMatchesTheTreeOnDriftedFleetRecords) {
  fleet::FleetSpec spec;
  spec.name = "writer";
  spec.sites = 8;
  spec.workloads = 4;
  spec.drift_rate = 1.0;
  fleet::Fleet fleet = fleet::generate_fleet(spec, 20130613);
  const auto result = eval::run_fleet(fleet);
  ASSERT_EQ(result.records.size(), 8u * 4u);
  ASSERT_FALSE(result.drift_log.empty());
  expect_streams_as_tree(result.records);
  EXPECT_EQ(result.records_jsonl(), records_jsonl(result.records));
}

// Chunks written on a pool join into the single writer's stream, at
// record counts on and around chunk boundaries. Every (workload, site)
// record is a distinct line, so a chunk joined out of place shows.
TEST(RunRecordTest, PooledRecordsJsonlMatchesSequential) {
  fleet::FleetSpec spec;
  spec.name = "chunks";
  spec.sites = 20;
  spec.workloads = 20;
  spec.drift_rate = 1.0;
  fleet::Fleet fleet = fleet::generate_fleet(spec, 20130613);
  eval::FleetRunOptions options;
  options.jobs = 4;
  const auto result = eval::run_fleet(fleet, options);
  const std::vector<RunRecord>& records = result.records;
  ASSERT_GT(records.size(), 3 * kRecordsPerChunk);
  ASSERT_NE(records.size() % kRecordsPerChunk, 0u);
  for (const auto& record : records) {
    ASSERT_FALSE(record.provenance.empty())
        << record.binary << " @ " << record.target_site;
  }
  EXPECT_EQ(result.records_jsonl(), tree_jsonl(records));

  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, kRecordsPerChunk - 1, kRecordsPerChunk,
        kRecordsPerChunk + 1, records.size()}) {
    const std::span<const RunRecord> prefix(records.data(), count);
    const std::string expected = tree_jsonl(prefix);
    for (const int threads : {1, 2, 4}) {
      support::ThreadPool pool(threads);
      EXPECT_EQ(records_jsonl(prefix, &pool), expected)
          << count << " records, pool of " << threads;
    }
  }
}

TEST(RunRecordTest, WriteJsonMatchesTheTreeOnPaperRecords) {
  eval::ExperimentOptions options;
  options.fault_seed = 0;
  options.only_benchmarks = {"is.B", "cg.B"};
  eval::Experiment experiment(options);
  experiment.build_test_set();
  experiment.run();
  const auto records = eval::to_run_records(experiment.results());
  ASSERT_FALSE(records.empty());
  expect_streams_as_tree(records);
}

TEST(RunRecordTest, WriteJsonMatchesTheTreeWithEveryOptionalField) {
  RunRecord r;
  r.command = "target";
  r.binary = "app";
  r.source_site = "india";
  r.target_site = "fir";
  r.mode = "extended";
  r.exit_code = 2;
  r.has_prediction = true;
  r.determinants = {{"isa", true, true, ""},
                    {"c_library", true, false, "needs \"glibc\" \x93\xff 2.12"},
                    {"mpi_stack", false, false, ""}};
  r.missing_libraries = 3;
  r.resolved_libraries = 2;
  r.unresolved_libraries = 1;
  r.bundle_bytes = std::uint64_t{1} << 60;  // past 1e15: the double rule
  r.spans = {{1, 0, "root", 0, 1000, 0, 4096, 3},
             {2, 1, "child\tname", 100, 300, 1},
             {3, 0, "late", 2'000'000'000'000'000, 5, 2, 64, 1}};
  r.profile = obs::build_profile(to_profile_spans(r));
  obs::Histogram h;
  for (const std::uint64_t v : {0ull, 5ull, 700ull, 123456789ull}) h.record(v);
  r.histograms["phase.target_ns"] = h.snapshot();
  r.histograms["empty"] = obs::HistogramSnapshot{};
  r.counters = {{"tec.determinant_checks", 4},
                {"big", std::uint64_t{1} << 55}};
  for (std::uint64_t i = 0; i < 140; ++i) {
    r.provenance.add({"tec.shared_libraries", "file", "fir",
                      "/usr/lib/lib" + std::to_string(i) + ".so",
                      "seen \xc0\xaf bytes \xf0\x9d\x84\x9e",
                      i * 0x9e3779b97f4a7c15ull});
  }
  ASSERT_EQ(r.provenance.dropped(), 140u - obs::EvidenceSet::kMaxItems);
  expect_streams_as_tree({r});
}

TEST(RunRecordTest, FromJsonReadsUnrepresentableNumbersSafely) {
  // Counts read through the getters fall back to 0 when they do not fit.
  const auto lenient = support::Json::parse(
      R"({"schema":"feam.run_record/1","command":"target",)"
      R"("exit_code":1e300,"bundle_bytes":-1,"missing_libraries":-1e19,)"
      R"("spans":[{"id":1,"name":"s","tid":-1e19,"start_ns":-1,)"
      R"("dur_ns":1e300}]})");
  ASSERT_TRUE(lenient.has_value());
  const auto r = RunRecord::from_json(*lenient);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->exit_code, 0);
  EXPECT_EQ(r->bundle_bytes, 0u);
  EXPECT_EQ(r->missing_libraries, 0u);
  ASSERT_EQ(r->spans.size(), 1u);
  EXPECT_EQ(r->spans[0].tid, 0);
  EXPECT_EQ(r->spans[0].start_ns, 0u);
  EXPECT_EQ(r->spans[0].duration_ns, 0u);
  // Counters, which must be numbers, must also fit.
  for (const char* bad : {"1e300", "-1e19", "-1"}) {
    const auto j = support::Json::parse(
        std::string(R"({"schema":"feam.run_record/1","command":"target",)"
                    R"("counters":{"c":)") +
        bad + "}}");
    ASSERT_TRUE(j.has_value()) << bad;
    EXPECT_FALSE(RunRecord::from_json(*j).has_value()) << bad;
  }
}

TEST(RunRecordTest, BlockingDeterminantNamesTheFirstIncompatible) {
  RunRecord r;
  r.command = "target";
  r.has_prediction = true;
  r.ready = false;
  r.determinants = {{"isa", true, true, ""},
                    {"c_library", true, false, "needs glibc 2.12"},
                    {"mpi_stack", false, false, ""}};
  EXPECT_EQ(r.blocking_determinant(), "c_library");
  r.ready = true;
  EXPECT_EQ(r.blocking_determinant(), "");
}

TEST(RunRecordTest, ValidateFlagsBrokenSpanTrees) {
  RunRecord r;
  r.command = "target";
  r.spans = {{1, 0, "root", 0, 100}, {2, 7, "orphan", 10, 20}};
  auto issues = r.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("unknown parent"), std::string::npos);

  r.spans = {{1, 0, "root", 0, 50},
             {2, 1, "a", 0, 40},
             {3, 1, "b", 40, 30}};  // 40 + 30 > 50
  issues = r.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("less than its children"), std::string::npos);
}

TEST(RunRecordTest, SpanTidAndProfileSurviveJsonRoundTrip) {
  RunRecord r;
  r.command = "target";
  r.spans = {{1, 0, "root", 0, 1000, 0},
             {2, 1, "child", 100, 300, 0},
             {3, 0, "worker", 200, 500, 3}};
  r.profile = obs::build_profile(to_profile_spans(r));
  ASSERT_TRUE(r.validate().empty());

  const auto parsed = support::Json::parse(r.to_json().dump(2));
  ASSERT_TRUE(parsed.has_value());
  const auto back = RunRecord::from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->validate().empty());
  ASSERT_EQ(back->spans.size(), 3u);
  EXPECT_EQ(back->spans[2].tid, 3);

  ASSERT_TRUE(back->profile.has_value());
  EXPECT_EQ(back->profile->span_count, 3u);
  EXPECT_EQ(back->profile->wall_ns, r.profile->wall_ns);
  ASSERT_EQ(back->profile->threads.size(), 2u);
  EXPECT_EQ(back->profile->threads[1].tid, 3);
  EXPECT_EQ(back->profile->threads[1].busy_ns, 500u);
  // The flame tree is deliberately not serialized; rebuilding the profile
  // from the record's own spans restores it along with everything else.
  const auto rebuilt = obs::build_profile(to_profile_spans(*back));
  EXPECT_EQ(rebuilt.span_count, back->profile->span_count);
  EXPECT_FALSE(rebuilt.flame.children.empty());
}

TEST(RunRecordTest, ValidateCatchesProfileDisagreements) {
  RunRecord r;
  r.command = "target";
  r.spans = {{1, 0, "root", 0, 1000, 0}};
  r.profile = obs::build_profile(to_profile_spans(r));
  ASSERT_TRUE(r.validate().empty());

  r.profile->span_count = 7;  // no longer covers the record's span list
  auto issues = r.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("profile covers 7 spans"), std::string::npos);

  r.profile = obs::build_profile(to_profile_spans(r));
  ASSERT_FALSE(r.profile->threads.empty());
  r.profile->threads[0].self_ns += 1;  // breaks the partition invariant
  issues = r.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("!= busy"), std::string::npos);
}

TEST(RunRecordTest, FromJsonRejectsUnknownSchemaAndKeys) {
  support::Json j;
  j.set("schema", "feam.run_record/999");
  j.set("command", "target");
  EXPECT_FALSE(RunRecord::from_json(j).has_value());

  RunRecord r;
  r.command = "target";
  r.determinants = {{"isa", true, true, ""}};
  auto json = r.to_json();
  json.as_object().at("determinants").as_array()[0].set("key", "quantum");
  EXPECT_FALSE(RunRecord::from_json(json).has_value());
}

}  // namespace
}  // namespace feam::report
