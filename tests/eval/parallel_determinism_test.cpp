// The parallel migration engine's central guarantee: the full evaluation
// matrix produces bit-identical run records, readiness matrix, and report
// aggregate at every job count — and with the memoization layer switched
// off entirely — within a bounded peak RSS. Matrix-level guards on a
// workload subset cover the memo layer's contract: the source phase runs
// once per binary, faulted runs attribute every pair exactly, and each
// memo's labeled series sum to its own counts.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/run_records.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "report/aggregate.hpp"

// Sanitizer shadow memory and quarantines inflate RSS several-fold and are
// not the program's; the RSS ceiling applies to uninstrumented builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FEAM_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FEAM_SANITIZED_BUILD 1
#endif
#endif

namespace feam::eval {
namespace {

struct MatrixRun {
  std::string records_dump;      // every RunRecord, serialized in order
  std::string readiness_matrix;  // rendered site x suite readiness table
  std::map<std::string, double> metrics;  // flattened report aggregate
};

MatrixRun run_matrix(int jobs, bool use_caches) {
  ExperimentOptions options;
  options.jobs = jobs;
  options.use_caches = use_caches;
  Experiment experiment(options);
  experiment.build_test_set();
  experiment.run();

  MatrixRun out;
  auto records = to_run_records(experiment.results());
  for (const auto& record : records) {
    out.records_dump += record.to_json().dump();
    out.records_dump += '\n';
  }
  const auto aggregate = report::aggregate_records(std::move(records));
  out.readiness_matrix = report::render_readiness_matrix(aggregate);
  out.metrics = report::flatten_metrics(aggregate);
  return out;
}

TEST(ParallelDeterminism, FullMatrixIsIdenticalAtEveryJobCount) {
  const MatrixRun jobs1 = run_matrix(1, true);
  ASSERT_FALSE(jobs1.records_dump.empty());

  for (const int jobs : {4, 8}) {
    const MatrixRun pooled = run_matrix(jobs, true);
    EXPECT_EQ(pooled.records_dump, jobs1.records_dump) << "jobs=" << jobs;
    EXPECT_EQ(pooled.readiness_matrix, jobs1.readiness_matrix)
        << "jobs=" << jobs;
    EXPECT_EQ(pooled.metrics, jobs1.metrics) << "jobs=" << jobs;
  }

  // The memoization layer is transparent: the legacy uncached sequential
  // path agrees record for record.
  const MatrixRun uncached = run_matrix(1, false);
  EXPECT_EQ(uncached.records_dump, jobs1.records_dump);
  EXPECT_EQ(uncached.readiness_matrix, jobs1.readiness_matrix);
  EXPECT_EQ(uncached.metrics, jobs1.metrics);

#ifndef FEAM_SANITIZED_BUILD
  // ctest runs each discovered case in its own process, so the peak is
  // this test's own. Measured at 788 MiB; four such processes must fit
  // beside each other on a 16 GB machine under ctest -j4.
  constexpr std::uint64_t kRssCeilingBytes = 1536ull << 20;
  EXPECT_LE(obs::read_rss_peak_bytes(), kRssCeilingBytes);
#endif
}

// A small matrix: by default two NAS and one SPEC workload across every
// site.
ExperimentOptions subset_options(
    int jobs, std::vector<std::string> benchmarks = {"is.B", "cg.B",
                                                     "104.milc"}) {
  ExperimentOptions options;
  options.jobs = jobs;
  options.only_benchmarks = std::move(benchmarks);
  return options;
}

std::string pair_key(const MigrationResult& r) {
  return r.binary_name + "|" + r.home_site + "|" + r.target_site;
}

TEST(ParallelDeterminism, SourcePhaseRunsOncePerBinaryAtEveryJobCount) {
  for (const int jobs : {1, 4, 8}) {
    // One workload: 15 binaries and about three migrations each, so
    // workers do migrate one binary concurrently.
    Experiment experiment(subset_options(jobs, {"is.B"}));
    experiment.build_test_set();
    experiment.run();
    std::set<std::pair<std::string, std::string>> migrated;
    for (const auto& r : experiment.results()) {
      migrated.emplace(r.home_site, r.binary_name);
    }
    ASSERT_FALSE(migrated.empty());
    EXPECT_EQ(experiment.source_phase_misses(), migrated.size())
        << "jobs=" << jobs;
    EXPECT_EQ(experiment.source_phase_hits() + migrated.size(),
              experiment.results().size())
        << "jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, FaultedParallelRunAttributesEveryPairExactly) {
  Experiment clean(subset_options(4));
  clean.build_test_set();
  clean.run();
  std::map<std::string, std::string> clean_records;
  for (const auto& r : clean.results()) {
    clean_records[pair_key(r)] = to_run_record(r).to_json().dump();
  }

  ExperimentOptions options = subset_options(4);
  options.vfs_fault_rate = 0.02;
  Experiment faulted(options);
  faulted.build_test_set();
  faulted.run();
  ASSERT_EQ(faulted.results().size(), clean.results().size());
  std::size_t clean_pairs = 0, io_pairs = 0;
  for (const auto& r : faulted.results()) {
    const std::string& attribution = r.failure_attribution;
    EXPECT_TRUE(attribution.empty() || attribution == "io" ||
                attribution == "parse")
        << pair_key(r) << ": " << attribution;
    if (attribution == "io") ++io_pairs;
    if (!attribution.empty()) continue;
    ++clean_pairs;
    // A pair the witness saw no fault in is exactly the fault-free pair:
    // attribution is exact, so no clean pair is blamed or drifts.
    EXPECT_EQ(to_run_record(r).to_json().dump(), clean_records[pair_key(r)])
        << pair_key(r);
  }
  EXPECT_GT(io_pairs, 0u);
  EXPECT_GT(clean_pairs, 0u);
}

TEST(ParallelDeterminism, LabeledCacheSeriesSumToEveryMemosCounts) {
  obs::metrics().reset_values();
  Experiment experiment(subset_options(4));
  experiment.build_test_set();
  experiment.run();
  const feam::MigrationCaches& caches = *experiment.caches();
  const feam::binutils::ResolverCache& resolver = caches.resolver;
  using Counts = std::pair<std::uint64_t, std::uint64_t>;  // hits, misses
  const std::map<std::string, Counts> memos = {
      {"bdc", {caches.bdc.hits(), caches.bdc.misses()}},
      {"edc", {caches.edc.hits(), caches.edc.misses()}},
      {"resolver.search",
       {resolver.search_hits(), resolver.search_misses()}},
      {"resolver.ldd", {resolver.ldd_hits(), resolver.ldd_misses()}},
      {"resolver.parse", {resolver.parse_hits(), resolver.parse_misses()}},
      {"source",
       {experiment.source_phase_hits(), experiment.source_phase_misses()}},
  };
  std::map<std::string, Counts> labeled;
  for (const auto& [series, value] : obs::metrics().counter_values()) {
    const obs::SeriesKey key = obs::parse_series(series);
    if (key.site.empty()) continue;
    if (key.name == "cache.hits") labeled[key.cache].first += value;
    if (key.name == "cache.misses") labeled[key.cache].second += value;
  }
  for (const auto& [cache, counts] : memos) {
    EXPECT_GT(counts.first + counts.second, 0u) << cache;
    EXPECT_EQ(labeled[cache], counts) << cache;
  }
}

}  // namespace
}  // namespace feam::eval
