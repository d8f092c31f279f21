// The parallel migration engine's central guarantee: the full evaluation
// matrix produces bit-identical run records, readiness matrix, and report
// aggregate at every job count — and with the memoization layer switched
// off entirely — within a bounded peak RSS.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/run_records.hpp"
#include "obs/memory.hpp"
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

}  // namespace
}  // namespace feam::eval
