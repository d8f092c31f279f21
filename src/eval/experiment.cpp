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

// The module name provisioning registers for a stack.
std::string module_name_of(const site::MpiStackInstall& stack) {
  return std::string(site::mpi_impl_slug(stack.impl)) + "/" +
         stack.version.str() + "-" + site::compiler_slug(stack.compiler);
}

// The naive "matching MPI implementation" stack choice a scientist makes
// before FEAM is involved: same implementation, preferring the compiler
// the binary was built with. Returns the chosen module name.
std::optional<std::string> choose_matching_module(
    const Site& target, site::MpiImpl impl,
    site::CompilerFamily preferred_compiler) {
  const site::MpiStackInstall* fallback = nullptr;
  for (const auto& stack : target.stacks) {
    if (stack.impl != impl || !stack.advertised) continue;
    if (stack.compiler == preferred_compiler) return module_name_of(stack);
    if (fallback == nullptr) fallback = &stack;
  }
  if (fallback != nullptr) return module_name_of(*fallback);
  return std::nullopt;
}

bool impl_available(const Site& target, site::MpiImpl impl) {
  return std::any_of(target.stacks.begin(), target.stacks.end(),
                     [&](const auto& stack) { return stack.impl == impl; });
}

// Estimated bytes one memoized source phase owns. Bundle payloads are
// blobs shared with the home site's files, so only their records count.
std::uint64_t source_output_bytes(const feam::SourcePhaseOutput& output) {
  std::uint64_t total = sizeof(output);
  for (const auto& lib : output.bundle.libraries) {
    total += sizeof(lib) + lib.name.size() + lib.origin_path.size();
  }
  for (const auto& hw : output.bundle.hello_worlds) {
    total += sizeof(hw) + hw.name.size();
  }
  for (const auto& event : output.events) {
    total += event.name.size() + event.message.size();
    for (const auto& [key, value] : event.fields) {
      total += key.size() + value.size();
    }
  }
  return total;
}

}  // namespace

std::uint64_t Experiment::SourceEntry::footprint() const {
  return sizeof(SourceEntry) + home_site.size() + path.size() +
         (output.ok() ? source_output_bytes(output.value()) : 0);
}

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
        s->load_module(module_name_of(stack));
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

const support::Result<feam::SourcePhaseOutput>& Experiment::source_phase_for(
    const TestBinary& binary, Site& home, const feam::FeamConfig& config,
    std::optional<support::Result<feam::SourcePhaseOutput>>& local) {
  // The source phase runs in the guaranteed execution environment — the
  // shell configured to run the binary, i.e. with its stack's module
  // loaded. A private shell session supplies that shell without touching
  // the base site state, so repeated runs produce identical output. That
  // is what makes memoizing it sound. The binary-path lease serializes
  // same-binary source phases (their hello-world scratch is keyed by the
  // binary's basename) while different binaries run concurrently; it is
  // the innermost lock a worker ever takes, so it cannot cycle with the
  // per-job artifact leases held across migrate_one.
  const auto run_fresh = [&] {
    site::ShellSession shell(home);
    home.unload_all_modules();
    home.load_module(module_name_of(binary.stack));
    return feam::run_source_phase(home, binary.path, config, caches_.get());
  };
  if (caches_ == nullptr) {
    site::SubtreeLeases lease({{&home, binary.path}});
    local.emplace(run_fresh());
    return *local;
  }
  const std::uint64_t key =
      support::fnv1a_mix(support::fnv1a(binary.home_site), binary.path);
  const auto matches = [&](const SourceEntry& e) {
    return e.home_site == binary.home_site && e.path == binary.path;
  };
  if (const SourceEntry* entry = source_memo_.find(key, home.name, matches)) {
    return entry->output;
  }
  // Single flight: a worker that misses takes the binary lease and looks
  // again, so without faults a binary's source phase runs once however
  // many workers migrate it.
  site::SubtreeLeases lease({{&home, binary.path}});
  if (const SourceEntry* entry = source_memo_.find(key, home.name, matches)) {
    return entry->output;
  }
  const site::FaultWitness witness;
  auto fresh = run_fresh();
  if (const SourceEntry* entry =
          source_memo_.fill(key, home.name, witness, matches, [&] {
            return SourceEntry{binary.home_site, binary.path,
                               std::move(fresh)};
          })) {
    return entry->output;
  }
  // A faulted source phase describes a home site that never existed; hand
  // it to this caller (who attributes the pair) but never memoize it —
  // the next migration of this binary recomputes cleanly.
  local.emplace(std::move(fresh));
  return *local;
}

std::optional<MigrationResult> Experiment::migrate_one(
    const TestBinary& binary, Site& target) {
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

  // --- FEAM extended prediction: source phase (under home's lease, via
  // the per-binary memo) + target phase.
  std::optional<support::Result<feam::SourcePhaseOutput>> local_source;
  const support::Result<feam::SourcePhaseOutput>& source =
      source_phase_for(binary, home, config, local_source);
  if (!source.ok() && !phase_error &&
      support::failure_category(source.code()) == "parse") {
    phase_error = source.full_error();
  }

  {
    feam::TecOptions ext_opts;
    ext_opts.resolution_root = resolution_root;
    ext_opts.recursive_copy_validation = options_.recursive_copy_validation;
    ext_opts.apply_resolution = options_.apply_resolution;
    ext_opts.run_usability_tests = options_.run_usability_tests;
    std::optional<feam::TargetPhaseOutput> extended;
    if (source.ok()) {
      auto r = feam::run_target_phase(target, migrated_path, &source.value(),
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
    for (const auto& dir : result.extended_prediction.resolution_dirs) {
      target.vfs.remove(dir);
    }
    target.vfs.remove(resolution_root);
  }

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

  // Build the migration list sequentially (so skip accounting is exact),
  // then fan out. Each migration writes into its pre-assigned slot, so
  // `results_` is in migration-list order at any job count — completion
  // order never shows.
  struct Job {
    const TestBinary* binary;
    Site* target;
  };
  std::vector<Job> jobs;
  for (const auto& binary : test_set_) {
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
      jobs.push_back({&binary, target.get()});
    }
  }

  std::vector<std::optional<MigrationResult>> slots(jobs.size());
  if (options_.jobs > 1 && jobs.size() > 1) {
    // The job list is binary-major, so neighbouring jobs share a source
    // binary (they would serialize on its source-phase memo entry) and
    // often a target site lease. Submit round-robin across binaries so
    // concurrently running workers touch distinct binaries and sites.
    // Slot indices keep the original order, so the interleave is
    // invisible in the results.
    std::vector<std::size_t> order;
    order.reserve(jobs.size());
    std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end)
    for (std::size_t i = 0; i < jobs.size();) {
      std::size_t j = i;
      while (j < jobs.size() && jobs[j].binary == jobs[i].binary) ++j;
      runs.emplace_back(i, j);
      i = j;
    }
    for (bool more = true; more;) {
      more = false;
      for (auto& [begin, end] : runs) {
        if (begin == end) continue;
        order.push_back(begin++);
        more = true;
      }
    }

    support::ThreadPool pool(options_.jobs, obs::pool_task_recorder());
    for (const std::size_t i : order) {
      pool.submit([this, &jobs, &slots, i] {
        slots[i] = migrate_one(*jobs[i].binary, *jobs[i].target);
      });
    }
    pool.wait();
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      slots[i] = migrate_one(*jobs[i].binary, *jobs[i].target);
    }
  }
  for (auto& slot : slots) {
    if (slot) results_.push_back(std::move(*slot));
  }
  for (const auto& injector : injectors_) injector->set_enabled(false);

  // Each job removed its own resolution subtree; what remains of the
  // shared parent is an empty directory. Sweep it here, where no worker
  // is live, so the matrix leaves every target exactly as it found it.
  for (const auto& s : sites_) s->vfs.remove("/home/user/feam_resolved");
}

}  // namespace feam::eval
