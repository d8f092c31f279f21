// The evaluation harness of paper Section VI: builds the NPB + SPEC MPI2007
// test set across the five Table II sites, migrates every binary to every
// other site with a matching MPI implementation, runs FEAM's basic and
// extended predictions, executes with the paper's five-retry policy, and
// aggregates Table III (prediction accuracy) and Table IV (resolution
// impact).
//
// Ground truth is computed independently of FEAM: the "user" loads the
// matching-implementation module (preferring the binary's own compiler
// family — the choice a scientist matching the MPI stack would make) and
// runs mpiexec. Only the after-resolution run follows FEAM's generated
// configuration, exactly as a FEAM user would.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "feam/caches.hpp"
#include "feam/phases.hpp"
#include "site/site.hpp"
#include "toolchain/launcher.hpp"
#include "workloads/benchmarks.hpp"

namespace feam::eval {

// One binary of the test set: a workload compiled with one MPI stack at
// one (home) site, verified to run there.
struct TestBinary {
  workloads::Workload workload;
  std::string home_site;
  site::MpiStackInstall stack;  // the stack it was compiled with
  std::string path;             // location at the home site
};

struct MigrationResult {
  std::string binary_name;
  std::string suite;  // "NAS" | "SPEC"
  std::string home_site;
  std::string target_site;

  bool basic_ready = false;
  bool extended_ready = false;
  bool success_before_resolution = false;
  bool success_after_resolution = false;
  toolchain::RunStatus status_before = toolchain::RunStatus::kSuccess;
  toolchain::RunStatus status_after = toolchain::RunStatus::kSuccess;

  std::size_t missing_library_count = 0;
  std::size_t resolved_library_count = 0;

  // Per-determinant verdicts from the extended prediction (Figure 1 data).
  feam::Prediction extended_prediction;

  // Per-pair failure attribution ("" = clean pair):
  //   "io"    — injected Vfs faults touched this migration (its predictions
  //             and execution outcomes may reflect a degraded site view),
  //   "parse" — a phase failed on a genuine ELF parse error with no faults.
  // Surfaced as an extra determinant verdict in the run record, so the
  // report matrix shows the category as the blocking determinant.
  std::string failure_attribution;
  std::string failure_detail;

  bool basic_correct() const {
    return basic_ready == success_before_resolution;
  }
  bool extended_correct() const {
    return extended_ready == success_after_resolution;
  }
};

struct ExperimentOptions {
  std::uint64_t fault_seed = 20130613;  // 0 disables system errors
  static constexpr int ranks = 4;
  static constexpr int retry_attempts = 5;  // paper Section VI.C
  // Restrict to a subset of workloads (empty = all); used by unit tests to
  // keep runtimes down.
  std::vector<std::string> only_benchmarks;

  // Ablation switches (see DESIGN.md section 4).
  // Install library copies without the recursive prediction check.
  bool recursive_copy_validation = true;
  // Skip the resolution model entirely in the extended prediction.
  bool apply_resolution = true;
  // Skip the hello-world usability/compatibility tests (trust every
  // advertised stack).
  bool run_usability_tests = true;

  // Size of the pool migrations fan out on (1 = every migration on the
  // calling thread). Results are bit-identical at any job count: the fault
  // model is stateless, every site is restored after use, and results land
  // in pre-assigned slots.
  int jobs = 1;
  // Memoize BDC descriptions (keyed on content blobs), EDC scans
  // (fingerprint-keyed) and the resolver's searches (MigrationCaches).
  // Transparent: predictions and execution outcomes are identical with
  // caches off — `false` is the legacy path the parallel_matrix bench uses
  // as its baseline. The source phase runs once per binary either way:
  // that is the paper's workflow, not a cache.
  bool use_caches = true;

  // Opt-in Vfs fault injection during run() (0.0 = off). Each site gets an
  // injector seeded vfs_fault_seed ^ fnv1a(site name), enabled only for
  // the duration of run() — build_test_set always sees a healthy Vfs.
  // Faulted pairs come back with failure_attribution set; pairs untouched
  // by faults are bit-identical to an uninjected run (neither the caches
  // nor a binary's next migration reuse a faulted computation).
  double vfs_fault_rate = 0.0;
  static constexpr std::uint64_t vfs_fault_seed = 20130613;
};

class Experiment {
 public:
  explicit Experiment(ExperimentOptions options = {});

  // Compiles the benchmark matrix (Table II stacks x suites), dropping
  // combinations that do not compile or do not run at their home site
  // (paper VI.A). Call before run().
  void build_test_set();

  // Runs every migration. Requires build_test_set() first.
  void run();

  const std::vector<TestBinary>& test_set() const { return test_set_; }
  const std::vector<MigrationResult>& results() const { return results_; }

  std::size_t test_set_size(std::string_view suite) const;

  // Claimed in Section VI.B: FEAM's MPI-implementation-availability check
  // was 100% accurate. Verified during run(); exposed for the benches.
  bool mpi_matching_always_correct() const { return mpi_matching_correct_; }

  // Memoization stats for the benches; caches() is null when
  // options.use_caches is false.
  const feam::MigrationCaches* caches() const { return caches_.get(); }
  // Migrations that reused their binary's source phase (hits) and ran it
  // (misses), also counted in cache.hits|cache.misses{cache=source,site}
  // under the home site. Without faults, misses = migrated binaries.
  std::uint64_t source_phase_hits() const { return source_hits_.load(); }
  std::uint64_t source_phase_misses() const { return source_misses_.load(); }

  // (binary, site) pairs skipped because the site lacks the matching MPI
  // implementation. At those sites FEAM trivially (and correctly) predicts
  // NOT READY; the paper reports accuracy only over matching sites because
  // "if results for all sites were reported, our prediction accuracy would
  // be much higher" (Section VI.B).
  std::size_t skipped_no_matching_impl() const { return skipped_no_impl_; }

  site::Site& site(std::string_view name);

 private:
  // Migrates `binary` to `target`. `source` is the binary's source phase,
  // shared by its migrations: empty, it is run here; a run that an
  // injected fault touched serves this migration only and is dropped.
  MigrationResult migrate_one(
      const TestBinary& binary, site::Site& target,
      std::optional<support::Result<feam::SourcePhaseOutput>>& source);

  ExperimentOptions options_;
  std::vector<std::unique_ptr<site::Site>> sites_;
  std::map<std::string, std::size_t, std::less<>> site_index_;
  std::vector<TestBinary> test_set_;
  std::vector<MigrationResult> results_;
  std::atomic<bool> mpi_matching_correct_{true};
  std::size_t skipped_no_impl_ = 0;

  std::unique_ptr<feam::MigrationCaches> caches_;
  // Per-site fault injectors (empty when vfs_fault_rate == 0), index-
  // aligned with sites_.
  std::vector<std::shared_ptr<site::FaultInjector>> injectors_;
  std::atomic<std::uint64_t> source_hits_{0};
  std::atomic<std::uint64_t> source_misses_{0};
};

}  // namespace feam::eval
