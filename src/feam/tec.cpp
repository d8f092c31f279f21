#include "feam/tec.hpp"

#include <algorithm>
#include <set>

#include "binutils/resolver.hpp"
#include "feam/bdc.hpp"
#include "feam/caches.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "toolchain/launcher.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/loader.hpp"

namespace feam {

namespace {

using support::Version;
using toolchain::RunStatus;

// ---------------------------------------------------------------- ISA ---

struct IsaId {
  std::string family;  // "x86", "powerpc", "aarch64"
  int bits = 0;
};

// From objdump's BFD format name ("elf64-x86-64", "elf32-powerpc", ...).
std::optional<IsaId> isa_from_file_format(std::string_view format) {
  IsaId id;
  if (support::starts_with(format, "elf64")) id.bits = 64;
  else if (support::starts_with(format, "elf32")) id.bits = 32;
  else return std::nullopt;
  if (support::contains(format, "x86-64") || support::contains(format, "i386")) {
    id.family = "x86";
  } else if (support::contains(format, "powerpc")) {
    id.family = "powerpc";
  } else if (support::contains(format, "aarch64")) {
    id.family = "aarch64";
  } else {
    return std::nullopt;
  }
  return id;
}

// From `uname -p` output ("x86_64", "i686", "ppc64", ...).
std::optional<IsaId> isa_from_uname(std::string_view uname) {
  if (uname == "x86_64") return IsaId{"x86", 64};
  if (uname == "i686" || uname == "i386") return IsaId{"x86", 32};
  if (uname == "ppc64") return IsaId{"powerpc", 64};
  if (uname == "ppc") return IsaId{"powerpc", 32};
  if (uname == "aarch64") return IsaId{"aarch64", 64};
  return std::nullopt;
}

// ------------------------------------------------------ env save/restore

class EnvGuard {
 public:
  explicit EnvGuard(site::Site& s) : site_(s) {
    path_ = s.env.get("PATH");
    ld_path_ = s.env.get("LD_LIBRARY_PATH");
    loaded_ = s.loaded_modules();
  }
  void restore() {
    if (restored_) return;
    restored_ = true;
    site_.unload_all_modules();
    if (path_) site_.env.set("PATH", *path_); else site_.env.unset("PATH");
    if (ld_path_) site_.env.set("LD_LIBRARY_PATH", *ld_path_);
    else site_.env.unset("LD_LIBRARY_PATH");
    for (const auto& name : loaded_) site_.load_module(name);
  }
  ~EnvGuard() { restore(); }

 private:
  site::Site& site_;
  std::optional<std::string> path_;
  std::optional<std::string> ld_path_;
  std::vector<std::string> loaded_;
  bool restored_ = false;
};

// Activates a discovered stack: `module load` when the id is a module,
// otherwise manual PATH/LD_LIBRARY_PATH prepends derived from the prefix.
// Returns the prepends applied (for the configuration script).
std::vector<std::pair<std::string, std::string>> activate_stack(
    site::Site& s, const DiscoveredStack& stack) {
  std::vector<std::pair<std::string, std::string>> applied;
  const auto modules = s.available_modules();
  if (std::find(modules.begin(), modules.end(), stack.id) != modules.end()) {
    for (const auto& m : s.module_files) {
      if (m.name == stack.id) applied = m.prepends;
    }
    s.load_module(stack.id);
    return applied;
  }
  if (!stack.prefix.empty()) {
    applied.emplace_back("PATH", stack.prefix + "/bin");
    applied.emplace_back("LD_LIBRARY_PATH", stack.prefix + "/lib");
    // Non-system compiler runtimes: chase an /opt/<compiler>-<version>
    // install matching the stack's compiler.
    if (stack.compiler && *stack.compiler != site::CompilerFamily::kGnu &&
        stack.compiler_version) {
      const std::string dir =
          "/opt/" + std::string(site::compiler_slug(*stack.compiler)) + "-" +
          stack.compiler_version->str() + "/lib";
      if (s.vfs.is_dir(dir)) applied.emplace_back("LD_LIBRARY_PATH", dir);
    }
    for (const auto& [var, entry] : applied) s.env.prepend_to_list(var, entry);
  }
  return applied;
}

// ----------------------------------------------------- hello-world tests

// Compiles "hello world" natively at the target with the candidate stack
// and runs it. nullopt when native compilation is not possible there.
std::optional<bool> native_hello_test(site::Site& s,
                                      const DiscoveredStack& stack, int ranks,
                                      std::string_view nonce,
                                      binutils::ResolverCache* rc) {
  obs::Span span("tec.usability.native", {{"stack", stack.id}});
  obs::counter("tec.usability_tests").add();
  const site::MpiStackInstall* install = nullptr;
  for (const auto& candidate : s.stacks) {
    if (candidate.prefix == stack.prefix) install = &candidate;
  }
  if (install == nullptr) return std::nullopt;
  // The nonce keeps the scratch path unique per evaluated binary so the
  // fault model treats each evaluation as a distinct job placement.
  const std::string path = "/tmp/feam_hw_native_c." + std::string(nonce);
  const auto compiled = toolchain::compile_mpi_program(
      s, toolchain::mpi_hello_world(toolchain::Language::kC), *install, path);
  if (!compiled.ok()) return std::nullopt;
  const auto run = toolchain::mpiexec_with_retries(s, compiled.value(), ranks,
                                                   {}, 3, rc);
  s.vfs.remove(path);
  return run.success();
}

// Runs the bundle's guaranteed-environment hello worlds under the active
// stack. Detects ABI/floating-point incompatibilities between the stack an
// application was compiled with and the stack selected at the target.
bool bundle_hello_test(site::Site& s, const Bundle& bundle, bool app_is_fortran,
                       const std::vector<std::string>& extra_dirs, int ranks,
                       std::string_view nonce, std::vector<std::string>& log,
                       binutils::ResolverCache* rc) {
  obs::Span span("tec.usability.bundle_hello");
  obs::counter("tec.usability_tests").add();
  bool all_ok = true;
  for (const auto& hw : bundle.hello_worlds) {
    if (hw.language == toolchain::Language::kFortran && !app_is_fortran) {
      continue;  // only meaningful when the application itself is Fortran
    }
    const std::string path =
        "/tmp/feam_hw_src_" + hw.name + "." + std::string(nonce);
    s.vfs.write_file(path, hw.content);
    const auto run =
        toolchain::mpiexec_with_retries(s, path, ranks, extra_dirs, 3, rc);
    s.vfs.remove(path);
    if (!run.success()) {
      log.push_back("guaranteed-environment hello world '" + hw.name +
                    "' failed: " + run.detail);
      all_ok = false;
    }
  }
  return all_ok;
}

// --------------------------------------------------------- resolution ---

bool copy_statically_usable(const BinaryDescription& copy,
                            const EnvironmentDescription& env,
                            std::string& reason) {
  const auto copy_isa = isa_from_file_format(copy.file_format);
  const auto host_isa = isa_from_uname(env.isa);
  if (!copy_isa || !host_isa || copy_isa->family != host_isa->family ||
      copy_isa->bits > host_isa->bits) {
    reason = "ISA-incompatible copy (" + copy.file_format + ")";
    return false;
  }
  if (copy.required_clib_version && env.clib_version &&
      *copy.required_clib_version > *env.clib_version) {
    reason = "copy requires C library " + copy.required_clib_version->str() +
             " > site " + env.clib_version->str();
    return false;
  }
  return true;
}

struct ResolutionOutcome {
  std::vector<std::string> missing;
  std::vector<std::string> resolved;
  std::vector<std::string> unresolved;
  std::string dir;  // populated resolution directory ("" when unused)
  // Malformed NEEDED graph (cycle / excessive depth) reported by the
  // resolver; surfaced in the determinant detail, never fatal.
  std::optional<support::Error> dep_error;
  bool all_resolved() const { return unresolved.empty(); }
};

// Names missing for the application under the current environment.
// With a binary present this is the loader's transitive view; otherwise it
// walks the bundle's per-library descriptions.
std::vector<std::string> compute_missing(
    site::Site& s, const BinaryDescription& app, std::string_view binary_path,
    const Bundle* bundle, int bits, binutils::ResolverCache* rc,
    std::optional<support::Error>* dep_error = nullptr) {
  std::vector<std::string> missing;
  if (!binary_path.empty() && s.vfs.is_file(binary_path)) {
    const auto resolution = binutils::resolve_libraries(s, binary_path, {}, rc);
    if (dep_error != nullptr) *dep_error = resolution.dep_error;
    for (const auto& name : resolution.missing()) missing.push_back(name);
    return missing;
  }
  // Two-phase mode without the binary: BFS over bundle descriptions.
  std::set<std::string> seen;
  std::vector<std::string> queue = app.required_libraries;
  while (!queue.empty()) {
    const std::string name = queue.back();
    queue.pop_back();
    if (!seen.insert(name).second) continue;
    const auto found = binutils::search_library(s, name, bits, {}, {}, rc);
    if (found) continue;
    missing.push_back(name);
    if (bundle != nullptr) {
      if (const auto* copy = bundle->find_library(name)) {
        for (const auto& dep : copy->description.required_libraries) {
          queue.push_back(dep);
        }
      }
    }
  }
  std::sort(missing.begin(), missing.end());
  return missing;
}

ResolutionOutcome run_resolution(site::Site& s, const BinaryDescription& app,
                                 std::string_view binary_path,
                                 const Bundle* bundle, int bits,
                                 const EnvironmentDescription& env,
                                 const TecOptions& opts,
                                 std::vector<std::string>& log,
                                 binutils::ResolverCache* rc) {
  // The shared-library determinant's workhorse: one span per evaluation,
  // under whichever candidate stack is active.
  obs::Span span("tec.determinant.shared_libraries");
  obs::ScopedTimer timer(obs::histogram("tec.resolution_ns"));
  ResolutionOutcome out;
  out.missing =
      compute_missing(s, app, binary_path, bundle, bits, rc, &out.dep_error);
  span.add_field("missing", std::to_string(out.missing.size()));
  obs::counter("resolution.libraries_missing").add(out.missing.size());
  if (out.missing.empty() || bundle == nullptr || !opts.apply_resolution) {
    out.unresolved = out.missing;
    if (bundle == nullptr || !opts.apply_resolution) return out;
  }
  if (out.missing.empty()) return out;

  out.dir = opts.resolution_root + "/" +
            site::Vfs::basename(app.path.empty() ? "app" : app.path);
  std::set<std::string> blacklist;

  // Install/validate to a fixpoint; a copy that fails dynamic validation
  // is blacklisted and the whole install is recomputed without it.
  for (int round = 0; round < 64; ++round) {
    s.vfs.remove(out.dir);
    s.vfs.mkdirs(out.dir);
    std::set<std::string> installed;
    std::set<std::string> unresolved;
    std::vector<std::string> queue = out.missing;
    std::set<std::string> visited;

    while (!queue.empty()) {
      const std::string name = queue.back();
      queue.pop_back();
      if (!visited.insert(name).second) continue;
      if (binutils::search_library(s, name, bits, {}, {out.dir}, rc)) continue;
      if (blacklist.count(name) != 0) {
        unresolved.insert(name);
        continue;
      }
      const LibraryCopy* copy = bundle->find_library(name);
      if (copy == nullptr) {
        unresolved.insert(name);
        log.push_back("no copy of " + name + " in bundle");
        continue;
      }
      std::string reason;
      if (opts.recursive_copy_validation &&
          !copy_statically_usable(copy->description, env, reason)) {
        unresolved.insert(name);
        log.push_back("copy of " + name + " rejected: " + reason);
        continue;
      }
      s.vfs.write_file(site::Vfs::join(out.dir, name), copy->content);
      obs::counter("resolution.libraries_copied").add();
      obs::counter("resolution.bytes_copied").add(copy->content->size());
      installed.insert(name);
      // Recursively resolve the copy's own requirements (paper IV).
      for (const auto& dep : copy->description.required_libraries) {
        queue.push_back(dep);
      }
    }

    // Dynamic validation: every installed copy must load cleanly with the
    // resolution directory in scope.
    bool restart = false;
    if (opts.recursive_copy_validation) {
      for (const auto& name : installed) {
        const auto report = toolchain::load_binary(
            s, site::Vfs::join(out.dir, name), {out.dir}, rc);
        if (report.status != toolchain::LoadStatus::kOk) {
          log.push_back("copy of " + name +
                        " failed validation: " + report.detail);
          blacklist.insert(name);
          restart = true;
          break;
        }
      }
    }
    if (restart) continue;

    for (const auto& name : out.missing) {
      if (installed.count(name) != 0) {
        out.resolved.push_back(name);
      } else if (binutils::search_library(s, name, bits, {}, {out.dir}, rc)) {
        out.resolved.push_back(name);  // satisfied transitively
      } else {
        out.unresolved.push_back(name);
      }
    }
    // Transitive dependencies that stayed unresolved also block execution.
    for (const auto& name : unresolved) {
      if (std::find(out.unresolved.begin(), out.unresolved.end(), name) ==
          out.unresolved.end()) {
        out.unresolved.push_back(name);
      }
    }
    break;
  }
  if (out.resolved.empty() && !out.dir.empty() && out.unresolved == out.missing) {
    s.vfs.remove(out.dir);
    out.dir.clear();
  }
  span.add_field("resolved", std::to_string(out.resolved.size()));
  span.add_field("unresolved", std::to_string(out.unresolved.size()));
  return out;
}

std::string make_configuration_script(const Prediction& p,
                                      const BinaryDescription& app,
                                      const std::vector<std::pair<std::string, std::string>>& prepends,
                                      site::UserEnvTool tool, int ranks,
                                      const std::string& mpiexec_command) {
  std::string script = "#!/bin/sh\n# FEAM matching configuration for " +
                       app.path + "\n";
  if (p.selected_stack_id) {
    if (tool == site::UserEnvTool::kModules) {
      script += "module load " + *p.selected_stack_id + "\n";
    } else if (tool == site::UserEnvTool::kSoftEnv) {
      script += "soft add +" + *p.selected_stack_id + "\n";
    }
  }
  for (const auto& [var, entry] : prepends) {
    if (tool == site::UserEnvTool::kNone || p.selected_stack_id == std::nullopt) {
      script += "export " + var + "=" + entry + ":$" + var + "\n";
    }
  }
  for (const auto& dir : p.resolution_dirs) {
    script += "export LD_LIBRARY_PATH=" + dir + ":$LD_LIBRARY_PATH\n";
  }
  script += mpiexec_command + " -n " + std::to_string(ranks) + " " +
            (app.path.empty() ? "<binary>" : app.path) + "\n";
  return script;
}

}  // namespace

const char* determinant_name(DeterminantKind kind) {
  switch (kind) {
    case DeterminantKind::kIsa: return "ISA compatibility";
    case DeterminantKind::kCLibrary: return "C library compatibility";
    case DeterminantKind::kMpiStack: return "MPI stack compatibility";
    case DeterminantKind::kSharedLibraries: return "shared library availability";
  }
  return "?";
}

const char* determinant_slug(DeterminantKind kind) {
  switch (kind) {
    case DeterminantKind::kIsa: return "isa";
    case DeterminantKind::kCLibrary: return "c_library";
    case DeterminantKind::kMpiStack: return "mpi_stack";
    case DeterminantKind::kSharedLibraries: return "shared_libraries";
  }
  return "?";
}

const DeterminantResult* Prediction::determinant(DeterminantKind kind) const {
  for (const auto& d : determinants) {
    if (d.kind == kind) return &d;
  }
  return nullptr;
}

namespace {

// Verdict bookkeeping shared by every determinant: one counter tick per
// check, one structured event per verdict with the detail fields, and one
// provenance evidence item stamping what was decided and why.
void record_verdict(const DeterminantResult& d, std::string_view site_name) {
  obs::counter("tec.determinant_checks").add();
  obs::counter("tec.determinant_checks",
               {.determinant = determinant_name(d.kind)})
      .add();
  const char* state = !d.evaluated ? "skipped"
                      : d.compatible ? "compatible"
                                     : "incompatible";
  obs::emit(d.evaluated && !d.compatible ? obs::Level::kWarn
                                         : obs::Level::kInfo,
            "tec.verdict",
            std::string(determinant_name(d.kind)) + ": " + state,
            {{"determinant", determinant_name(d.kind)},
             {"evaluated", d.evaluated ? "true" : "false"},
             {"compatible", d.compatible ? "true" : "false"},
             {"detail", d.detail}});
  if (obs::provenance_active()) {
    obs::record_evidence(
        {std::string("tec.") + determinant_slug(d.kind), "verdict",
         std::string(site_name), determinant_slug(d.kind),
         std::string(state) + ": " + d.detail,
         support::fnv1a_mix(support::fnv1a(state), d.detail)});
  }
}

}  // namespace

Prediction Tec::evaluate(site::Site& target, const BinaryDescription& app,
                         std::string_view binary_path, const Bundle* bundle,
                         const TecOptions& opts, MigrationCaches* caches) {
  obs::Span eval_span("tec.evaluate", {{"site", target.name},
                                       {"binary", app.path},
                                       {"mode", bundle != nullptr
                                                    ? "extended"
                                                    : "basic"}});
  obs::ScopedTimer eval_timer(obs::histogram("tec.evaluate_ns"));

  Prediction p;
  // Everything consulted from here on records into the prediction's own
  // evidence set; an enclosing scope (run_target_phase installs one over
  // the whole phase, including the BDC describe) still sees every item —
  // record_evidence feeds all active frames.
  obs::ProvenanceScope provenance_scope(p.provenance);
  binutils::ResolverCache* rc =
      caches != nullptr ? &caches->resolver : nullptr;
  const EnvironmentDescription env =
      caches != nullptr ? caches->edc.discover(target) : Edc::discover(target);

  if (bundle != nullptr) {
    // The travelled bundle is evidence too: its identity is the content of
    // its library copies and hello worlds, not where it was assembled.
    std::uint64_t h = support::fnv1a("bundle");
    for (const auto& lib : bundle->libraries) {
      h = support::fnv1a_mix(h, lib.name);
      h = support::fnv1a_mix(h,
                             static_cast<std::uint64_t>(lib.content->size()));
      h = support::fnv1a_mix(h, description_stamp(lib.description));
    }
    for (const auto& hw : bundle->hello_worlds) {
      h = support::fnv1a_mix(h, hw.name);
      h = support::fnv1a_mix(h,
                             static_cast<std::uint64_t>(hw.content->size()));
    }
    obs::record_evidence(
        {"tec", "bundle", target.name, site::Vfs::basename(app.path),
         std::to_string(bundle->libraries.size()) + " copies, " +
             std::to_string(bundle->hello_worlds.size()) + " hello worlds",
         h});
  }

  // --- Determinant 1: ISA.
  DeterminantResult isa{DeterminantKind::kIsa, true, false, ""};
  {
    obs::Span span("tec.determinant.isa");
    const auto app_isa = isa_from_file_format(app.file_format);
    const auto host_isa = isa_from_uname(env.isa);
    if (app_isa && host_isa && app_isa->family == host_isa->family &&
        app_isa->bits <= host_isa->bits) {
      isa.compatible = true;
      isa.detail = app.file_format + " runs on " + env.isa;
    } else {
      isa.detail = "binary is " + app.file_format + ", site is " + env.isa;
    }
  }
  record_verdict(isa, target.name);
  p.determinants.push_back(isa);

  // --- Determinant 2: C library.
  DeterminantResult clib{DeterminantKind::kCLibrary, true, false, ""};
  {
    obs::Span span("tec.determinant.c_library");
    if (!app.required_clib_version) {
      clib.compatible = true;
      clib.detail = "binary has no versioned C library requirements";
    } else if (env.clib_version &&
               *env.clib_version >= *app.required_clib_version) {
      clib.compatible = true;
      clib.detail = "requires glibc " + app.required_clib_version->str() +
                    ", site has " + env.clib_version->str();
    } else {
      clib.detail = "requires glibc " + app.required_clib_version->str() +
                    ", site has " +
                    (env.clib_version ? env.clib_version->str() : "unknown");
    }
  }
  record_verdict(clib, target.name);
  p.determinants.push_back(clib);

  // Paper V.C: only proceed to the expensive determinants when ISA and C
  // library are compatible.
  if (!isa.compatible || !clib.compatible) {
    p.determinants.push_back({DeterminantKind::kMpiStack, false, false,
                              "not evaluated (earlier determinant failed)"});
    p.determinants.push_back({DeterminantKind::kSharedLibraries, false, false,
                              "not evaluated (earlier determinant failed)"});
    record_verdict(p.determinants[2], target.name);
    record_verdict(p.determinants[3], target.name);
    p.ready = false;
    p.log.push_back("prediction: NOT READY (" +
                    std::string(!isa.compatible ? "ISA" : "C library") +
                    " incompatible)");
    obs::emit(obs::Level::kInfo, "tec.prediction", p.log.back(),
              {{"ready", "false"}, {"site", target.name}});
    return p;
  }

  const bool app_is_fortran = std::any_of(
      app.required_libraries.begin(), app.required_libraries.end(),
      [](const std::string& lib) {
        return support::starts_with(lib, "libmpi_f77") ||
               support::starts_with(lib, "libmpichf90") ||
               support::starts_with(lib, "libgfortran") ||
               support::starts_with(lib, "libg2c") ||
               support::starts_with(lib, "libifcore") ||
               support::starts_with(lib, "libpgf90");
      });

  DeterminantResult mpi{DeterminantKind::kMpiStack, true, false, ""};
  DeterminantResult libs{DeterminantKind::kSharedLibraries, true, false, ""};
  std::vector<std::pair<std::string, std::string>> chosen_prepends;

  if (!app.mpi_impl) {
    // Serial binary: MPI determinant is vacuously satisfied.
    {
      obs::Span span("tec.determinant.mpi_stack");
      mpi.compatible = true;
      mpi.detail = "not an MPI application";
    }
    EnvGuard guard(target);
    const auto outcome = run_resolution(target, app, binary_path, bundle,
                                        app.bits, env, opts, p.log, rc);
    p.missing_libraries = outcome.missing;
    p.resolved_libraries = outcome.resolved;
    p.unresolved_libraries = outcome.unresolved;
    if (!outcome.dir.empty()) p.resolution_dirs.push_back(outcome.dir);
    libs.compatible = outcome.all_resolved();
    libs.detail = libs.compatible
                      ? "all shared libraries available"
                      : support::join(outcome.unresolved, ", ") + " missing";
    if (outcome.dep_error) {
      // The graph anomaly doesn't block execution (ld.so loads each object
      // once) but it is part of the site's story — surface it.
      libs.detail += " [" + outcome.dep_error->message + "]";
    }
    guard.restore();
  } else {
    obs::Span mpi_span("tec.determinant.mpi_stack",
                       {{"impl", site::mpi_impl_name(*app.mpi_impl)}});
    const auto candidates = env.stacks_of(*app.mpi_impl);
    if (candidates.empty()) {
      mpi.detail = std::string("no ") + site::mpi_impl_name(*app.mpi_impl) +
                   " stack at this site";
      libs.evaluated = false;
      libs.detail = "not evaluated (no matching MPI stack)";
    } else {
      // Prefer a stack built with the application's own compiler family.
      std::vector<const DiscoveredStack*> ordered(candidates.begin(),
                                                  candidates.end());
      std::stable_sort(ordered.begin(), ordered.end(),
                       [&](const DiscoveredStack* a, const DiscoveredStack* b) {
                         const auto matches = [&](const DiscoveredStack* s) {
                           return s->compiler && app.build_compiler &&
                                  support::contains(
                                      support::to_lower(*app.build_compiler),
                                      support::to_lower(
                                          site::compiler_name(*s->compiler)));
                         };
                         return matches(a) && !matches(b);
                       });

      enum class Stage { kUnusable, kHelloIncompatible, kLibsUnresolved, kOk };
      Stage best_stage = Stage::kUnusable;
      std::string best_detail =
          "all matching stacks failed the usability test";

      const std::string nonce = site::Vfs::basename(app.path);
      for (const DiscoveredStack* candidate : ordered) {
        EnvGuard guard(target);
        const auto applied = activate_stack(target, *candidate);

        // Usability: native hello world (paper III.B).
        const auto native =
            opts.run_usability_tests
                ? native_hello_test(target, *candidate, opts.hello_world_ranks,
                                    nonce, rc)
                : std::optional<bool>(true);
        if (native.has_value() && !*native) {
          p.log.push_back("stack " + candidate->id +
                          " failed native hello world (unusable)");
          continue;
        }
        if (!native.has_value()) {
          p.log.push_back("stack " + candidate->id +
                          ": native compilation not possible, relying on "
                          "migrated hello worlds");
        }

        // Shared libraries + resolution under this stack.
        const auto outcome = run_resolution(target, app, binary_path, bundle,
                                            app.bits, env, opts, p.log, rc);

        // Extended compatibility: hello worlds from the guaranteed
        // environment, run with the resolution directory in scope.
        if (opts.run_usability_tests && bundle != nullptr &&
            !bundle->hello_worlds.empty()) {
          std::vector<std::string> extra;
          if (!outcome.dir.empty()) extra.push_back(outcome.dir);
          if (!bundle_hello_test(target, *bundle, app_is_fortran, extra,
                                 opts.hello_world_ranks, nonce, p.log, rc)) {
            if (best_stage < Stage::kHelloIncompatible) {
              best_stage = Stage::kHelloIncompatible;
              best_detail = "stack " + candidate->id +
                            " incompatible with the application's stack";
            }
            if (!outcome.dir.empty()) target.vfs.remove(outcome.dir);
            continue;
          }
        }

        if (!outcome.all_resolved()) {
          if (best_stage < Stage::kLibsUnresolved) {
            best_stage = Stage::kLibsUnresolved;
            best_detail = support::join(outcome.unresolved, ", ") + " missing";
            p.missing_libraries = outcome.missing;
            p.resolved_libraries = outcome.resolved;
            p.unresolved_libraries = outcome.unresolved;
            p.selected_stack_id = candidate->id;
          }
          if (!outcome.dir.empty()) target.vfs.remove(outcome.dir);
          continue;
        }

        // Candidate accepted.
        best_stage = Stage::kOk;
        p.selected_stack_id = candidate->id;
        p.missing_libraries = outcome.missing;
        p.resolved_libraries = outcome.resolved;
        p.unresolved_libraries.clear();
        if (!outcome.dir.empty()) p.resolution_dirs.push_back(outcome.dir);
        chosen_prepends = applied;
        p.activation_prepends = applied;
        break;
      }

      switch (best_stage) {
        case Stage::kOk:
          mpi.compatible = true;
          mpi.detail = "stack " + *p.selected_stack_id + " usable and compatible";
          libs.compatible = true;
          libs.detail = p.resolved_libraries.empty()
                            ? "all shared libraries available"
                            : "resolved via copies: " +
                                  support::join(p.resolved_libraries, ", ");
          break;
        case Stage::kLibsUnresolved:
          mpi.compatible = true;
          mpi.detail = "matching stack usable";
          libs.compatible = false;
          libs.detail = best_detail;
          break;
        case Stage::kHelloIncompatible:
        case Stage::kUnusable:
          mpi.compatible = false;
          mpi.detail = best_detail;
          libs.evaluated = false;
          libs.detail = "not evaluated (no usable MPI stack)";
          break;
      }
    }
  }

  record_verdict(mpi, target.name);
  record_verdict(libs, target.name);
  p.determinants.push_back(mpi);
  p.determinants.push_back(libs);
  p.ready = std::all_of(p.determinants.begin(), p.determinants.end(),
                        [](const DeterminantResult& d) {
                          return !d.evaluated || d.compatible;
                        }) &&
            mpi.evaluated && libs.evaluated && mpi.compatible &&
            libs.compatible;
  if (p.ready) {
    p.configuration_script = make_configuration_script(
        p, app, chosen_prepends, env.user_env_tool, opts.hello_world_ranks,
        opts.mpiexec_command);
  }
  p.log.push_back(std::string("prediction: ") +
                  (p.ready ? "READY" : "NOT READY"));
  eval_span.add_field("ready", p.ready ? "true" : "false");
  obs::emit(obs::Level::kInfo, "tec.prediction", p.log.back(),
            {{"ready", p.ready ? "true" : "false"},
             {"site", target.name},
             {"resolved", std::to_string(p.resolved_libraries.size())}});
  return p;
}

std::vector<std::string> Tec::apply_configuration(site::Site& target,
                                                  const Prediction& prediction) {
  target.unload_all_modules();
  // Replay the exact environment edits that activated the selected stack
  // during evaluation (module contents, SoftEnv prepends, or manual edits
  // on tool-less sites) — what the generated script does.
  for (const auto& [var, entry] : prediction.activation_prepends) {
    target.env.prepend_to_list(var, entry);
  }
  return prediction.resolution_dirs;
}

}  // namespace feam
