#include "feam/phases.hpp"

#include <set>

#include "feam/bdc.hpp"
#include "feam/caches.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "site/lease.hpp"
#include "support/strings.hpp"
#include "toolchain/linker.hpp"

namespace feam {

namespace {

// Libraries never copied: the C library itself and the dynamic loader
// (paper Section V.A: "We copy each shared library except for the C
// library").
bool never_copy(std::string_view name) {
  return support::starts_with(name, "libc.so") ||
         support::starts_with(name, "ld-linux");
}

// Appends a structured event to the phase output and mirrors it to the
// process-wide collector (trace files show the same trail the user sees).
void note(SourcePhaseOutput& out, obs::Level level, std::string name,
          std::string message, obs::Fields fields = {}) {
  obs::Event event;
  event.level = level;
  event.name = std::move(name);
  event.message = std::move(message);
  event.fields = std::move(fields);
  obs::emit(event);
  out.events.push_back(std::move(event));
}

}  // namespace

std::vector<std::string> SourcePhaseOutput::render_text() const {
  std::vector<std::string> lines;
  lines.reserve(events.size());
  for (const auto& event : events) lines.push_back(event.message);
  return lines;
}

support::Result<SourcePhaseOutput> run_source_phase(
    site::Site& guaranteed, std::string_view binary_path,
    const FeamConfig& config, MigrationCaches* caches) {
  using R = support::Result<SourcePhaseOutput>;

  obs::Span phase_span("feam.source_phase",
                       {{"site", guaranteed.name},
                        {"binary", std::string(binary_path)}});
  obs::ScopedTimer phase_timer(obs::histogram("phase.source_ns"));
  obs::counter("phase.source_runs").add();

  SourcePhaseOutput out;
  auto described = caches != nullptr
                       ? caches->bdc.describe(guaranteed, binary_path)
                       : Bdc::describe(guaranteed, binary_path);
  if (!described.ok()) return R::failure(described.full_error());
  out.application = std::move(described).take();
  out.environment = caches != nullptr ? caches->edc.discover(guaranteed)
                                      : Edc::discover(guaranteed);
  out.bundle.application = out.application;
  out.bundle.source_environment = out.environment;

  // Confirm the currently selected stack matches the stack the binary was
  // compiled with (paper V.B).
  const DiscoveredStack* selected = nullptr;
  for (const auto& stack : out.environment.stacks) {
    if (stack.currently_loaded) selected = &stack;
  }
  if (out.application.mpi_impl) {
    if (selected == nullptr) {
      note(out, obs::Level::kWarn, "source.stack_check",
           "warning: no MPI stack selected in this shell");
    } else if (selected->impl != out.application.mpi_impl) {
      note(out, obs::Level::kWarn, "source.stack_check",
           "warning: selected stack (" + selected->display() +
               ") does not match the binary's implementation (" +
               site::mpi_impl_name(*out.application.mpi_impl) + ")",
           {{"selected", selected->display()},
            {"binary_impl", site::mpi_impl_name(*out.application.mpi_impl)}});
    } else {
      note(out, obs::Level::kInfo, "source.stack_check",
           "selected stack matches binary: " + selected->display(),
           {{"selected", selected->display()}});
    }
  }

  // Compile the hello worlds up front: beyond travelling in the bundle,
  // a locally compiled hello world is the BDC's last-resort library
  // locator (paper V.A: "If a locally compiled 'hello world' program is
  // available, the ldd utility is used to reveal the locations of commonly
  // linked against shared libraries").
  const site::MpiStackInstall* selected_install = nullptr;
  if (selected != nullptr) {
    for (const auto& stack : guaranteed.stacks) {
      if (stack.prefix == selected->prefix) selected_install = &stack;
    }
  }
  // Scratch paths carry the source binary's basename so concurrent source
  // phases for different binaries at one site never share (or remove) each
  // other's probes; a binary's own phase runs on one thread at a time.
  const std::string scratch_nonce = site::Vfs::basename(binary_path);
  std::string hello_world_path;
  if (selected_install != nullptr) {
    obs::Span hw_span("source.compile_hello_worlds");
    for (const auto lang :
         {toolchain::Language::kC, toolchain::Language::kFortran}) {
      const auto program = toolchain::mpi_hello_world(lang);
      const std::string path =
          "/tmp/feam_src_" + program.name + "." + scratch_nonce;
      const auto compiled = toolchain::compile_mpi_program(
          guaranteed, program, *selected_install, path);
      if (!compiled.ok()) {
        note(out, obs::Level::kWarn, "source.hello_world",
             "hello world (" + std::string(toolchain::language_name(lang)) +
                 ") did not compile: " + compiled.error(),
             {{"language", std::string(toolchain::language_name(lang))}});
        continue;
      }
      if (support::Blob bytes = guaranteed.vfs.read_blob(path)) {
        out.bundle.hello_worlds.push_back(
            {lang, program.name, std::move(bytes)});
      }
      if (hello_world_path.empty()) hello_world_path = path;
    }
    hw_span.add_field("compiled",
                      std::to_string(out.bundle.hello_worlds.size()));
  }

  // Gather copies and descriptions of the transitive library closure. A
  // copy is the library's own blob: gathering shares bytes, never copies.
  {
    obs::Span gather_span("source.gather_libraries");
    std::set<std::string> visited;
    std::vector<std::string> queue = out.application.required_libraries;
    std::string current_path(binary_path);
    while (!queue.empty()) {
      const std::string name = queue.back();
      queue.pop_back();
      if (!visited.insert(name).second) continue;
      if (never_copy(name)) continue;

      const auto located = Bdc::locate_libraries(
          guaranteed, current_path, {name}, hello_world_path,
          caches != nullptr ? &caches->resolver : nullptr);
      if (located.empty() || !located.front().second) {
        note(out, obs::Level::kWarn, "source.gather",
             "could not locate " + name + " for copying",
             {{"library", name}});
        continue;
      }
      const std::string& lib_path = *located.front().second;
      support::Blob content = guaranteed.vfs.read_blob(lib_path);
      if (content == nullptr) {
        note(out, obs::Level::kWarn, "source.gather",
             "could not read " + lib_path, {{"path", lib_path}});
        continue;
      }
      auto lib_desc = caches != nullptr
                          ? caches->bdc.describe(guaranteed, lib_path)
                          : Bdc::describe(guaranteed, lib_path);
      if (!lib_desc.ok()) {
        note(out, obs::Level::kWarn, "source.gather",
             "could not describe " + lib_path + ": " + lib_desc.error(),
             {{"path", lib_path}});
        continue;
      }
      for (const auto& dep : lib_desc.value().required_libraries) {
        queue.push_back(dep);
      }
      out.bundle.libraries.push_back(
          {name, lib_path, std::move(content), std::move(lib_desc).take()});
    }
    gather_span.add_field("libraries",
                          std::to_string(out.bundle.libraries.size()));
    obs::counter("source.libraries_gathered")
        .add(out.bundle.libraries.size());
  }

  // Remove the scratch hello-world binaries now that gathering is done.
  for (const auto lang :
       {toolchain::Language::kC, toolchain::Language::kFortran}) {
    guaranteed.vfs.remove("/tmp/feam_src_" +
                          toolchain::mpi_hello_world(lang).name + "." +
                          scratch_nonce);
  }

  note(out, obs::Level::kInfo, "source.bundle",
       "bundle size: " + support::human_size(out.bundle.total_bytes()),
       {{"bytes", std::to_string(out.bundle.total_bytes())},
        {"libraries", std::to_string(out.bundle.libraries.size())},
        {"hello_worlds", std::to_string(out.bundle.hello_worlds.size())}});
  (void)config;
  return out;
}

support::Result<SourcePhaseOutput> run_source_phase(
    site::Site& home, std::string_view binary_path,
    const site::MpiStackInstall& stack, const FeamConfig& config,
    MigrationCaches* caches) {
  site::ShellSession shell(home);
  home.unload_all_modules();
  home.load_module(stack.module_name());
  return run_source_phase(home, binary_path, config, caches);
}

support::Result<TargetPhaseOutput> run_target_phase(
    site::Site& target, std::string_view binary_path,
    const SourcePhaseOutput* source, const FeamConfig& config,
    const TecOptions& tec_options, MigrationCaches* caches) {
  using R = support::Result<TargetPhaseOutput>;

  obs::Span phase_span("feam.target_phase",
                       {{"site", target.name},
                        {"binary", std::string(binary_path)},
                        {"mode", source != nullptr ? "extended" : "basic"}});
  obs::ScopedTimer phase_timer(obs::histogram("phase.target_ns"));
  obs::counter("phase.target_runs").add();

  TargetPhaseOutput out;
  // Phase-level evidence scope: the BDC describe and EDC discovery below run
  // before Tec::evaluate installs the prediction's own scope, so their
  // evidence lands here and is merged into the prediction afterwards (the
  // EvidenceSet's sort+dedup makes the double coverage harmless).
  obs::EvidenceSet phase_evidence;
  {
    obs::ProvenanceScope provenance_scope(phase_evidence);
    if (!binary_path.empty() && target.vfs.is_file(binary_path)) {
      auto described = caches != nullptr
                           ? caches->bdc.describe(target, binary_path)
                           : Bdc::describe(target, binary_path);
      if (!described.ok()) return R::failure(described.full_error());
      out.application = std::move(described).take();
    } else if (source != nullptr) {
      out.application = source->application;  // description travelled instead
    } else {
      return R::failure(
          "target phase requires either the binary at the target site or a "
          "source-phase bundle");
    }

    out.environment = caches != nullptr ? caches->edc.discover(target)
                                        : Edc::discover(target);
    TecOptions opts = tec_options;
    opts.hello_world_ranks = config.hello_world_ranks;
    if (out.application.mpi_impl) {
      opts.mpiexec_command = config.mpiexec_for(*out.application.mpi_impl);
    }
    out.prediction = Tec::evaluate(target, out.application, binary_path,
                                   source != nullptr ? &source->bundle : nullptr,
                                   opts, caches);
  }
  out.prediction.provenance.merge(phase_evidence);
  phase_span.add_field("ready", out.prediction.ready ? "true" : "false");
  return out;
}

}  // namespace feam
