// The Site aggregate: everything that exists at one computing site — a
// virtual filesystem, a login-shell environment, installed compilers and
// MPI stacks, a user-environment management tool, and the misconfiguration
// flags the paper's evaluation encountered in the wild (unusable MPI
// stacks, missing utilities).
//
// A Site starts empty; the simulated toolchain's `provision_site` (see
// toolchain/provision.hpp) materializes the C library, compiler runtimes,
// MPI packages, /proc and /etc files, and module files into the VFS. FEAM
// components only ever interact with the VFS/environment/tools — never
// with the configuration fields directly — so discovery is honest.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "elf/spec.hpp"
#include "site/environment.hpp"
#include "site/ids.hpp"
#include "site/vfs.hpp"
#include "support/version.hpp"

namespace feam::site {

struct CompilerInstall {
  CompilerFamily family = CompilerFamily::kGnu;
  support::Version version;
};

// One MPI stack: implementation x version x compiler (x interconnect),
// installed under a prefix, optionally advertised via the site's
// user-environment tool. `functional == false` models the administrator
// misconfiguration the paper describes in Section III.B: the stack is
// advertised but no program can execute under it.
struct MpiStackInstall {
  MpiImpl impl = MpiImpl::kOpenMpi;
  support::Version version;
  CompilerFamily compiler = CompilerFamily::kGnu;
  support::Version compiler_version;
  Interconnect interconnect = Interconnect::kEthernet;
  std::string prefix;       // e.g. "/opt/openmpi-1.4.3-intel"
  bool advertised = true;   // listed by Modules/SoftEnv
  bool functional = true;
  // Whether the implementation was installed with static libraries —
  // without them, scientists "do not have the option to prepare statically
  // linked binaries for migration" (paper VI.C). Rare in practice.
  bool static_libs_available = false;
  // Whether the compiler wrappers embed DT_RPATH pointing at the install
  // prefix (some administrators configured Open MPI's wrappers this way).
  // Binaries then run at the home site without any module loaded — and
  // carry a dangling RPATH after migration, falling through to the normal
  // search order.
  bool wrappers_embed_rpath = false;

  // "openmpi-1.4.3-intel" — used for prefixes and softenv keys; a module
  // name with '/' flattened to '-' matches it.
  std::string slug() const;
  // "openmpi/1.4.3-intel" — the module provisioning registers for the
  // stack, and the one a user loads to build or run with it.
  std::string module_name() const;
  // Table II notation: "Open MPI v1.4 (i)".
  std::string display() const;
};

// A module file (or SoftEnv key): a name plus environment prepends.
struct ModuleFile {
  std::string name;  // "openmpi/1.4.3-intel"
  std::vector<std::pair<std::string, std::string>> prepends;  // var -> entry
};

class Site {
 public:
  Site();
  ~Site();
  Site(Site&&) noexcept;
  Site& operator=(Site&&) noexcept;

  // --- identity & configured truth (written by provisioning, read by the
  // evaluation harness for ground-truth comparisons; FEAM never reads these)
  std::string name;
  std::string center;  // "Texas Advanced Computing Center"
  std::string system_type;  // "MPP", "SMP", "Hybrid", "Cluster"
  int cpu_count = 0;
  elf::Isa isa = elf::Isa::kX86_64;
  std::string os_distro;          // "CentOS"
  support::Version os_version;    // 4.9
  std::string kernel_version;     // "2.6.18-194.el5"
  support::Version clib_version;  // 2.3.4
  UserEnvTool user_env_tool = UserEnvTool::kModules;
  BatchKind batch = BatchKind::kPbs;

  // Degradation flags (tools missing at some real sites; FEAM implements
  // fallbacks for each — paper Section V).
  bool locate_available = true;
  bool ldd_available = true;
  bool libc_executable = true;  // can the C library binary be run directly?

  // Fault model inputs (consumed by toolchain::Launcher).
  std::uint64_t fault_seed = 0;
  double system_error_rate = 0.0;  // chance a single run dies of system error

  // Multiplier on the opaque text padding of every provisioned library
  // (floored at 4 KiB). Fleet generation materializes hundreds of sites;
  // shrinking the padding keeps resident memory bounded without changing
  // any structure discovery reads — dynamic tables, symbols, and version
  // refs are size-independent. 1.0 reproduces real-world image sizes.
  double library_scale = 1.0;

  // --- live state
  Vfs vfs;
  Environment env;
  std::vector<CompilerInstall> compilers;
  std::vector<MpiStackInstall> stacks;
  std::vector<ModuleFile> module_files;

  // --- behaviour
  // Default dynamic-loader search directories for this site's bitness.
  std::vector<std::string> default_lib_dirs(int binary_bits) const;

  // User-environment tool surface: what `module avail` / `softenv` print.
  std::vector<std::string> available_modules() const;
  // What `module list` prints (currently loaded). Session-aware: inside a
  // shell session the calling thread sees (and mutates) its private list.
  const std::vector<std::string>& loaded_modules() const;
  // Applies the module's environment prepends; false if no such module.
  bool load_module(std::string_view name);
  void unload_all_modules();

  const MpiStackInstall* find_stack(MpiImpl impl, CompilerFamily compiler) const;
  const MpiStackInstall* stack_for_module(std::string_view module_name) const;

  // The stack whose lib directory appears earliest in LD_LIBRARY_PATH, i.e.
  // the one `mpiexec` on this shell would use. Null when none is loaded.
  const MpiStackInstall* selected_stack() const;

  // --- concurrency & caching support
  // Narrow invalidation key covering exactly what environment discovery
  // reads: the system half of the VFS (module databases, /etc releases,
  // stacks under /opt and /usr — scratch writes under /home and /tmp are
  // invisible to the scan and excluded here), the login environment's
  // *content*, and the loaded-module list. Content-based, not counter-
  // based: a load/unload cycle that restores the shell lands back on the
  // original fingerprint, so the EDC memo keeps hitting across pairs.
  std::uint64_t discovery_fingerprint() const;

  // --- thread-private shell sessions (use site::ShellSession, not raw)
  // Brackets a session over the login shell: environment variables AND the
  // loaded-module list both become a private copy for the calling thread.
  // Module loads, LD_LIBRARY_PATH edits, and unload_all_modules inside the
  // session never touch the base state other threads read — two workers
  // can run mpiexec against the same site under different modules
  // concurrently, like two real login sessions.
  void begin_shell_session();
  void end_shell_session();

  // Process-wide unique id assigned at construction. The lease layer
  // orders lock acquisition by it (lower id first) for deadlock freedom.
  std::uint64_t lease_id() const { return lease_id_; }

  // Lease mutex for one subtree of this site, created on first use and
  // stable for the Site's lifetime. `prefix` is a path prefix (usually a
  // per-job artifact root); two workers lease the same mutex iff they name
  // the same prefix. site::SubtreeLeases acquires these in global
  // (lease_id, prefix) order — see site/lease.hpp.
  std::mutex& subtree_mutex(std::string_view prefix) const;

  // Shadow of one shell session's module state (see Environment::Shadow
  // for the variable half). Public only for the registry in the .cpp.
  struct ModuleShadow {
    std::vector<std::string> loaded;
  };

 private:
  ModuleShadow* module_shadow() const;

  std::vector<std::string> loaded_;
  std::uint64_t lease_id_;
  // Subtree lease table: mutexes live in a node-stable map behind a
  // unique_ptr (Site stays movable; the mutex objects never move).
  struct SubtreeTable;
  std::unique_ptr<SubtreeTable> subtree_table_;
};

}  // namespace feam::site
