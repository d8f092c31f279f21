#include "eval/experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "feam/bdc.hpp"
#include "feam/identify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "site/lease.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

namespace feam::eval {

namespace {

using site::Site;

// The naive "matching MPI implementation" stack choice a scientist makes
// before FEAM is involved: same implementation, preferring the compiler
// the binary was built with. Returns the chosen module name.
std::optional<std::string> choose_matching_module(
    const Site& target, site::MpiImpl impl,
    site::CompilerFamily preferred_compiler) {
  const site::MpiStackInstall* fallback = nullptr;
  for (const auto& stack : target.stacks) {
    if (stack.impl != impl || !stack.advertised) continue;
    if (stack.compiler == preferred_compiler) return stack.module_name();
    if (fallback == nullptr) fallback = &stack;
  }
  if (fallback != nullptr) return fallback->module_name();
  return std::nullopt;
}

bool impl_available(const Site& target, site::MpiImpl impl) {
  return std::any_of(target.stacks.begin(), target.stacks.end(),
                     [&](const auto& stack) { return stack.impl == impl; });
}

}  // namespace

Experiment::Experiment(ExperimentOptions options)
    : options_(std::move(options)),
      sites_(toolchain::make_testbed(options_.fault_seed)) {
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    site_index_.emplace(sites_[i]->name, i);
  }
  if (options_.use_caches) {
    caches_ = std::make_unique<feam::MigrationCaches>();
  }
  if (options_.vfs_fault_rate > 0.0) {
    for (const auto& s : sites_) {
      site::FaultInjector::Options fault_options;
      fault_options.seed = options_.vfs_fault_seed ^ support::fnv1a(s->name);
      fault_options.rate = options_.vfs_fault_rate;
      auto injector = std::make_shared<site::FaultInjector>(fault_options);
      s->vfs.set_fault_injector(injector);
      injectors_.push_back(std::move(injector));
    }
  }
}

Site& Experiment::site(std::string_view name) {
  const auto it = site_index_.find(name);
  if (it == site_index_.end()) {
    throw std::invalid_argument("no such site: " + std::string(name));
  }
  return *sites_[it->second];
}

void Experiment::build_test_set() {
  test_set_.clear();
  const auto workloads = workloads::all_workloads();
  for (const auto& s : sites_) {
    for (const auto& stack : s->stacks) {
      for (const auto& workload : workloads) {
        if (!options_.only_benchmarks.empty() &&
            std::find(options_.only_benchmarks.begin(),
                      options_.only_benchmarks.end(),
                      workload.program.name) ==
                options_.only_benchmarks.end()) {
          continue;
        }
        // Paper VI.A attrition: combinations that did not compile.
        if (!workloads::combination_viable(workload.program, workload.suite,
                                           stack, s->name)) {
          continue;
        }
        const std::string path = "/home/user/apps/" + workload.program.name +
                                 "." + stack.slug();
        const auto compiled =
            toolchain::compile_mpi_program(*s, workload.program, stack, path);
        if (!compiled.ok()) continue;

        // Paper VI.A: binaries that would not run at the site where they
        // were compiled are excluded too.
        s->unload_all_modules();
        s->load_module(stack.module_name());
        const auto home_run = toolchain::mpiexec_with_retries(
            *s, path, options_.ranks, {}, options_.retry_attempts);
        s->unload_all_modules();
        if (!home_run.success()) {
          s->vfs.remove(path);
          continue;
        }
        test_set_.push_back({workload, s->name, stack, path});
      }
    }
  }
}

std::size_t Experiment::test_set_size(std::string_view suite) const {
  return static_cast<std::size_t>(
      std::count_if(test_set_.begin(), test_set_.end(),
                    [&](const TestBinary& b) { return b.workload.suite == suite; }));
}

MigrationResult Experiment::migrate_one(
    const TestBinary& binary, Site& target,
    std::optional<support::Result<feam::SourcePhaseOutput>>& source) {
  Site& home = site(binary.home_site);
  obs::Span span("eval.migrate",
                 {{"binary", binary.workload.program.name},
                  {"home", binary.home_site},
                  {"target", target.name}});

  MigrationResult result;
  result.binary_name = binary.workload.program.name + "." + binary.stack.slug();
  result.suite = binary.workload.suite;
  result.home_site = binary.home_site;
  result.target_site = target.name;

  // Per-job artifact roots: both carry the binary name and home site, so
  // no two jobs on the same target ever name the same subtree — the
  // leases below never contend and concurrent migrations to one site
  // proceed in parallel.
  const std::string migrated_path =
      "/home/user/migrated/" + result.binary_name + "." + binary.home_site;
  const std::string resolution_root =
      "/home/user/feam_resolved/" + result.binary_name + "." + binary.home_site;
  feam::FeamConfig config;
  config.hello_world_ranks = options_.ranks;

  // Injected faults during this pair taint the whole pair: predictions
  // and execution outcomes may reflect a site view that never really
  // existed. The pair runs on this thread throughout, so the witness sees
  // exactly its faults, never another worker's on a shared site.
  const site::FaultWitness witness;

  // One lease vector for the whole job, over exactly the subtrees this
  // migration mutates at the target. Held up front and for the duration
  // (see lease.hpp for the ordering discipline); a private shell session
  // gives this worker its own environment and module list, so nothing
  // below serializes against other migrations to the same site.
  site::SubtreeLeases lease(
      {{&target, migrated_path}, {&target, resolution_root}});
  site::ShellSession shell(target);

  // --- migrate the binary bytes: the only step that touches both sites.
  // The home-side read needs no lease: test-set binaries are immutable
  // while the matrix runs. The copy shares the home file's blob.
  {
    support::Blob content = home.vfs.read_blob(binary.path);
    if (content == nullptr) {
      // A test-set binary is always present, so this read can only fail
      // under injection; the pair is recorded, not dropped.
      result.failure_attribution = "io";
      result.failure_detail =
          "reading " + binary.path + " at " + home.name + " failed";
      return result;
    }
    if (!target.vfs.write_file(migrated_path, std::move(content))) {
      // Torn or failed bundle copy; the Vfs rolled back whatever landed.
      result.failure_attribution = "io";
      result.failure_detail =
          "copying to " + migrated_path + " at " + target.name + " failed";
      return result;
    }
  }

  // First ELF parse failure seen by any phase (attribution "parse" when no
  // injected fault explains it).
  std::optional<support::Error> phase_error;

  {
    // --- FEAM basic prediction: target phase only.
    feam::TecOptions basic_opts;
    basic_opts.apply_resolution = false;
    basic_opts.run_usability_tests = options_.run_usability_tests;
    const auto basic = feam::run_target_phase(target, migrated_path, nullptr,
                                              config, basic_opts,
                                              caches_.get());
    result.basic_ready = basic.ok() && basic.value().prediction.ready;
    if (!basic.ok() && support::failure_category(basic.code()) == "parse") {
      phase_error = basic.full_error();
    }

    // Cross-check the paper's 100%-accurate MPI-availability claim.
    if (basic.ok() && basic.value().application.mpi_impl) {
      const bool feam_says_available =
          basic.value().prediction.determinant(feam::DeterminantKind::kMpiStack)
                  ->detail.find("no ") != 0 ||
          basic.value().prediction.determinant(feam::DeterminantKind::kMpiStack)
              ->compatible;
      const bool truly_available =
          impl_available(target, *basic.value().application.mpi_impl);
      // "Available" per FEAM = at least one matching stack discovered; the
      // determinant can still fail for usability reasons.
      if (feam_says_available != truly_available &&
          basic.value()
              .prediction.determinant(feam::DeterminantKind::kMpiStack)
              ->evaluated) {
        mpi_matching_correct_ = false;
      }
    }
  }

  // --- FEAM extended prediction: the binary's source phase, run by its
  // first migration in the guaranteed environment at home and reused by
  // the rest (paper Fig. 2), then the target phase.
  bool source_faulted = false;
  if (source) {
    ++source_hits_;
    obs::counter("cache.hits", {.site = home.name, .cache = "source"}).add();
  } else {
    const site::FaultWitness source_witness;
    source.emplace(feam::run_source_phase(home, binary.path, binary.stack,
                                          config, caches_.get()));
    source_faulted = source_witness.fired();
    ++source_misses_;
    obs::counter("cache.misses", {.site = home.name, .cache = "source"}).add();
  }
  if (!source->ok() && !phase_error &&
      support::failure_category(source->code()) == "parse") {
    phase_error = source->full_error();
  }

  {
    feam::TecOptions ext_opts;
    ext_opts.resolution_root = resolution_root;
    ext_opts.recursive_copy_validation = options_.recursive_copy_validation;
    ext_opts.apply_resolution = options_.apply_resolution;
    ext_opts.run_usability_tests = options_.run_usability_tests;
    std::optional<feam::TargetPhaseOutput> extended;
    if (source->ok()) {
      auto r = feam::run_target_phase(target, migrated_path, &source->value(),
                                      config, ext_opts, caches_.get());
      if (r.ok()) {
        extended = std::move(r).take();
      } else if (!phase_error &&
                 support::failure_category(r.code()) == "parse") {
        phase_error = r.full_error();
      }
    }
    if (extended) {
      result.extended_ready = extended->prediction.ready;
      result.extended_prediction = extended->prediction;
      result.missing_library_count =
          extended->prediction.missing_libraries.size();
      result.resolved_library_count =
          extended->prediction.resolved_libraries.size();
    }

    // --- actual execution, before resolution (the naive user).
    target.unload_all_modules();
    const auto module = choose_matching_module(target, binary.stack.impl,
                                               binary.stack.compiler);
    if (module) {
      target.load_module(*module);
      const auto run = toolchain::mpiexec_with_retries(
          target, migrated_path, options_.ranks, {}, options_.retry_attempts,
          caches_ != nullptr ? &caches_->resolver : nullptr);
      result.success_before_resolution = run.success();
      result.status_before = run.status;
      target.unload_all_modules();
    } else {
      result.status_before = toolchain::RunStatus::kNoMpiStackSelected;
    }

    // --- actual execution, after resolution (following FEAM's script).
    if (extended && extended->prediction.selected_stack_id) {
      const auto extra =
          feam::Tec::apply_configuration(target, extended->prediction);
      const auto run = toolchain::mpiexec_with_retries(
          target, migrated_path, options_.ranks, extra,
          options_.retry_attempts,
          caches_ != nullptr ? &caches_->resolver : nullptr);
      result.success_after_resolution = run.success();
      result.status_after = run.status;
      target.unload_all_modules();
    } else if (module) {
      // FEAM produced no configuration; the user's naive run stands.
      result.success_after_resolution = result.success_before_resolution;
      result.status_after = result.status_before;
    } else {
      result.status_after = toolchain::RunStatus::kNoMpiStackSelected;
    }

    // --- cleanup: leave the target as we found it. Only this job's
    // artifact roots are removed; other jobs' resolution trees under
    // /home/user/feam_resolved are theirs to clean.
    target.vfs.remove(migrated_path);
    target.vfs.remove(resolution_root);
  }

  // A faulted source phase describes a home site that never existed: this
  // migration is attributed io below, and the next one reruns the phase.
  if (source_faulted) source.reset();
  if (witness.fired()) {
    result.failure_attribution = "io";
    result.failure_detail =
        "injected Vfs fault(s) during migration to " + target.name;
  } else if (phase_error) {
    result.failure_attribution = "parse";
    result.failure_detail = phase_error->message;
  }
  return result;
}

void Experiment::run() {
  results_.clear();
  skipped_no_impl_ = 0;
  mpi_matching_correct_ = true;
  obs::Span span("eval.run_matrix",
                 {{"jobs", std::to_string(options_.jobs)}});

  // Fault injection is live only inside run(): the test-set build and any
  // inter-run inspection always see healthy sites.
  for (const auto& injector : injectors_) injector->set_enabled(true);

  // One task per binary, migrating it to each matching target in turn:
  // its first migration runs the source phase and the rest reuse it, as
  // in the paper's workflow. The targets are listed sequentially (so skip
  // accounting is exact) and each migration writes its pre-assigned slot,
  // so `results_` is binary-major at any job count.
  struct Task {
    const TestBinary* binary;
    std::vector<Site*> targets;
    std::size_t first_slot;
  };
  std::vector<Task> tasks;
  std::size_t migrations = 0;
  for (const auto& binary : test_set_) {
    Task task{&binary, {}, migrations};
    for (const auto& target : sites_) {
      if (target->name == binary.home_site) continue;
      // Paper VI.B: results are only reported for target sites with a
      // matching MPI implementation — elsewhere there is no potential for
      // successful execution (and FEAM assessed availability with 100%
      // accuracy).
      if (!impl_available(*target, binary.stack.impl)) {
        ++skipped_no_impl_;
        continue;
      }
      task.targets.push_back(target.get());
    }
    if (task.targets.empty()) continue;
    migrations += task.targets.size();
    tasks.push_back(std::move(task));
  }

  results_.resize(migrations);
  support::ThreadPool pool(options_.jobs, obs::pool_task_recorder());
  for (const Task& task : tasks) {
    pool.submit([this, &task] {
      std::optional<support::Result<feam::SourcePhaseOutput>> source;
      for (std::size_t i = 0; i < task.targets.size(); ++i) {
        results_[task.first_slot + i] =
            migrate_one(*task.binary, *task.targets[i], source);
      }
    });
  }
  pool.wait();
  for (const auto& injector : injectors_) injector->set_enabled(false);

  // Each job removed its own resolution subtree; what remains of the
  // shared parent is an empty directory. Sweep it here, where no worker
  // is live, so the matrix leaves every target exactly as it found it.
  for (const auto& s : sites_) s->vfs.remove("/home/user/feam_resolved");
}

}  // namespace feam::eval
