// FEAM's two phases (paper Figure 2).
//
// Source phase (optional, run once per binary at a guaranteed execution
// environment): BDC describes the binary, EDC describes the environment
// and confirms the selected MPI stack matches, shared-library copies are
// gathered, and hello-world programs are compiled with the application's
// stack. The output bundle travels to each target site.
//
// Target phase (required, run at every target site): BDC describes the
// migrated binary (or the bundle's description stands in when the binary
// did not travel), EDC describes the target, and the TEC produces the
// prediction plus the matching configuration.
#pragma once

#include <optional>
#include <string>

#include "feam/bundle.hpp"
#include "feam/config.hpp"
#include "feam/tec.hpp"
#include "obs/event.hpp"
#include "site/site.hpp"
#include "support/result.hpp"

namespace feam {

struct MigrationCaches;  // caches.hpp

// User-provided configuration (paper Section V): the only site knowledge
// FEAM requires from the user is how to submit jobs, plus the execution
// command if a stack does not use plain `mpiexec`. See config.hpp for the
// file format.
using FeamConfig = FeamConfigFile;

struct SourcePhaseOutput {
  BinaryDescription application;
  EnvironmentDescription environment;
  Bundle bundle;

  // Structured record of what the phase observed and decided (stack-match
  // confirmation, gather failures, bundle size). Each event also reaches
  // the process-wide obs collector when tracing is enabled.
  std::vector<obs::Event> events;

  // Text bridge: the events' human-readable messages, one line each —
  // what the CLI prints (and what `log` used to hold).
  std::vector<std::string> render_text() const;
};

// Runs the source phase at a guaranteed execution environment for the
// binary at `binary_path`. Fails only when the binary cannot be described.
// `caches` (optional, see caches.hpp) memoizes the application/library
// descriptions and the environment scan; nullptr is the uncached path.
support::Result<SourcePhaseOutput> run_source_phase(
    site::Site& guaranteed, std::string_view binary_path,
    const FeamConfig& config = {}, MigrationCaches* caches = nullptr);

// The same phase in the binary's guaranteed execution environment at its
// home site: a private shell session (site::ShellSession) with `stack`,
// the stack the binary was compiled with, as the only loaded module. The
// base site state is untouched, so repeated runs produce identical output.
support::Result<SourcePhaseOutput> run_source_phase(
    site::Site& home, std::string_view binary_path,
    const site::MpiStackInstall& stack, const FeamConfig& config,
    MigrationCaches* caches);

struct TargetPhaseOutput {
  BinaryDescription application;
  EnvironmentDescription environment;
  Prediction prediction;
};

// Runs the target phase. `binary_path` may be empty when the binary did
// not travel (then `source` must be provided). `source` == nullptr gives
// the basic prediction; with it, the extended prediction and resolution.
support::Result<TargetPhaseOutput> run_target_phase(
    site::Site& target, std::string_view binary_path,
    const SourcePhaseOutput* source = nullptr, const FeamConfig& config = {},
    const TecOptions& tec_options = {}, MigrationCaches* caches = nullptr);

}  // namespace feam
