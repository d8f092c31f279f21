#include "fleet/generate.hpp"

#include <algorithm>
#include <cstdio>

#include "support/rng.hpp"
#include "toolchain/provision.hpp"
#include "workloads/synthetic.hpp"

namespace feam::fleet {

namespace {

using site::CompilerFamily;
using site::Interconnect;
using site::MpiImpl;
using site::MpiStackInstall;
using site::Site;
using site::UserEnvTool;
using support::Rng;
using support::Version;

// OS profiles of the paper's era, weighted toward the mid-life releases a
// real 2010s fleet would show. The glibc version rides with the distro.
struct OsProfile {
  const char* distro;
  const char* os;
  const char* kernel;
  const char* clib;
  double weight;
};

constexpr OsProfile kOsProfiles[] = {
    {"CentOS", "4.9", "2.6.9-89.ELsmp", "2.3.4", 0.10},
    {"CentOS", "5.5", "2.6.18-194.el5", "2.5", 0.28},
    {"Red Hat Enterprise Linux Server", "5.6", "2.6.18-238.el5", "2.5", 0.14},
    {"Red Hat Enterprise Linux Server", "6.1", "2.6.32-131.el6", "2.12", 0.20},
    {"SUSE Linux Enterprise Server", "11", "2.6.32.13-0.5", "2.11.1", 0.16},
    {"CentOS", "6.2", "2.6.32-220.el6", "2.12", 0.12},
};

constexpr const char* kGnuVersions[] = {"3.4.6", "4.1.2", "4.4.3", "4.4.5"};
constexpr const char* kIntelVersions[] = {"10.1", "11.1", "12"};
constexpr const char* kOpenMpiVersions[] = {"1.2.8", "1.3", "1.4", "1.4.3"};
constexpr const char* kMpich2Versions[] = {"1.0.7", "1.2.1p1", "1.4.1"};
constexpr const char* kMvapich2Versions[] = {"1.2", "1.5", "1.7rc1"};

std::size_t weighted_pick(Rng& rng, const double* weights, std::size_t n) {
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) total += weights[i];
  double draw = rng.next_double() * total;
  for (std::size_t i = 0; i < n; ++i) {
    draw -= weights[i];
    if (draw < 0) return i;
  }
  return n - 1;
}

std::string site_name(const FleetSpec& spec, int index) {
  char suffix[12];  // room for any int
  std::snprintf(suffix, sizeof suffix, "%03d", index);
  return spec.name + "-" + suffix;
}

// The anchor: a healthy build site with every compiler family, one stack
// per MPI implementation, and the *newest* glibc in the fleet — binaries
// built here carry the full spread of GLIBC version references, so older
// generated sites genuinely reject some of them.
std::unique_ptr<Site> make_anchor(const FleetSpec& spec) {
  auto s = std::make_unique<Site>();
  s->name = site_name(spec, 0);
  s->center = "fleet anchor";
  s->system_type = "Cluster";
  s->cpu_count = 1024;
  s->os_distro = "Red Hat Enterprise Linux Server";
  s->os_version = Version::of("6.1");
  s->kernel_version = "2.6.32-131.el6";
  s->clib_version = Version::of("2.12");
  s->user_env_tool = UserEnvTool::kModules;
  s->batch = site::BatchKind::kPbs;
  s->library_scale = spec.library_scale;
  s->compilers = {{CompilerFamily::kGnu, Version::of("4.4.5")},
                  {CompilerFamily::kIntel, Version::of("12")},
                  {CompilerFamily::kPgi, Version::of("7.2")}};
  const auto add_stack = [&](MpiImpl impl, const char* version) {
    MpiStackInstall stack;
    stack.impl = impl;
    stack.version = Version::of(version);
    stack.compiler = CompilerFamily::kGnu;
    stack.compiler_version = Version::of("4.4.5");
    stack.interconnect = Interconnect::kInfiniband;
    s->stacks.push_back(std::move(stack));
  };
  add_stack(MpiImpl::kOpenMpi, "1.4.3");
  add_stack(MpiImpl::kMpich2, "1.4.1");
  add_stack(MpiImpl::kMvapich2, "1.5");
  toolchain::provision_site(*s);
  return s;
}

// Re-points every advertised stack through a link farm: /opt/sw/<slug>/
// {bin,lib} are symlinks into the real prefix, and the module database is
// rewritten to advertise the farm paths. Discovery, the loader, and stack
// selection must all chase the links — exactly what real farm layouts
// (/soft/apps-style) demand.
void apply_symlink_farm(Site& s) {
  for (const auto& stack : s.stacks) {
    const std::string farm = "/opt/sw/" + stack.slug();
    s.vfs.symlink(farm + "/bin", stack.prefix + "/bin");
    s.vfs.symlink(farm + "/lib", stack.prefix + "/lib");
  }
  for (auto& module : s.module_files) {
    for (auto& [var, entry] : module.prepends) {
      for (const auto& stack : s.stacks) {
        if (entry == stack.prefix + "/bin") {
          entry = "/opt/sw/" + stack.slug() + "/bin";
        } else if (entry == stack.prefix + "/lib") {
          entry = "/opt/sw/" + stack.slug() + "/lib";
        }
      }
    }
  }
  toolchain::write_module_database(s);
}

// One of three module-system breakages, all observed in the wild and all
// caught by different FEAM layers: a module whose database entry vanished,
// a module whose prepend points at a retired directory, and the paper's
// classic advertised-but-nonfunctional stack.
void apply_broken_modules(Site& s, Rng& rng, SiteTraits& traits) {
  if (s.module_files.empty() || s.user_env_tool == UserEnvTool::kNone) {
    return;
  }
  const std::size_t victim = rng.next_below(s.module_files.size());
  auto& module = s.module_files[victim];
  switch (rng.next_below(3)) {
    case 0: {
      s.vfs.remove(toolchain::module_database_path(s, module.name));
      traits.broken_detail = "missing-modulefile:" + module.name;
      break;
    }
    case 1: {
      const MpiStackInstall* stack = s.stack_for_module(module.name);
      const std::string retired =
          "/opt/retired/" + (stack != nullptr ? stack->slug() : "unknown");
      for (auto& [var, entry] : module.prepends) {
        if (var == "LD_LIBRARY_PATH") entry = retired + "/lib";
        if (var == "PATH") entry = retired + "/bin";
      }
      toolchain::write_module_database(s);
      traits.broken_detail = "dangling-prepend:" + module.name;
      break;
    }
    default: {
      std::string flattened = module.name;
      std::replace(flattened.begin(), flattened.end(), '/', '-');
      for (auto& stack : s.stacks) {
        if (stack.slug() == flattened) {
          stack.functional = false;
          traits.broken_detail = "nonfunctional:" + stack.slug();
          break;
        }
      }
      break;
    }
  }
  traits.broken_modules = !traits.broken_detail.empty();
}

std::unique_ptr<Site> make_generated_site(const FleetSpec& spec, int index,
                                          const Rng& base,
                                          SiteTraits& traits) {
  Rng rng = base.fork("site-" + std::to_string(index));
  auto s = std::make_unique<Site>();
  s->name = site_name(spec, index);
  s->center = "generated";
  const char* kSystemTypes[] = {"Cluster", "MPP", "SMP", "Hybrid"};
  s->system_type = kSystemTypes[rng.next_below(4)];
  s->cpu_count = 64 << rng.next_below(9);  // 64 .. 16384
  s->isa = rng.chance(spec.ppc_rate) ? elf::Isa::kPpc64 : elf::Isa::kX86_64;

  double os_weights[std::size(kOsProfiles)];
  for (std::size_t i = 0; i < std::size(kOsProfiles); ++i) {
    os_weights[i] = kOsProfiles[i].weight;
  }
  const OsProfile& os =
      kOsProfiles[weighted_pick(rng, os_weights, std::size(kOsProfiles))];
  s->os_distro = os.distro;
  s->os_version = Version::of(os.os);
  s->kernel_version = os.kernel;
  s->clib_version = Version::of(os.clib);

  const double tool = rng.next_double();
  s->user_env_tool = tool < 0.70   ? UserEnvTool::kModules
                     : tool < 0.95 ? UserEnvTool::kSoftEnv
                                   : UserEnvTool::kNone;
  const double batch = rng.next_double();
  s->batch = batch < 0.6   ? site::BatchKind::kPbs
             : batch < 0.8 ? site::BatchKind::kSge
                           : site::BatchKind::kSlurm;

  // Tool degradations at roughly the frequency the paper encountered.
  s->locate_available = !rng.chance(0.15);
  s->ldd_available = !rng.chance(0.07);
  s->libc_executable = !rng.chance(0.07);
  s->library_scale = spec.library_scale;

  // Compiler park: GNU always (the system compiler), vendor compilers on
  // the larger machines.
  const char* gnu_version =
      kGnuVersions[rng.next_below(std::size(kGnuVersions))];
  s->compilers = {{CompilerFamily::kGnu, Version::of(gnu_version)}};
  if (rng.chance(0.45)) {
    s->compilers.push_back(
        {CompilerFamily::kIntel,
         Version::of(kIntelVersions[rng.next_below(std::size(kIntelVersions))])});
  }
  if (rng.chance(0.25)) {
    s->compilers.push_back({CompilerFamily::kPgi, Version::of("7.2")});
  }

  // MPI stacks: implementation/version spread with per-stack
  // misconfiguration draws.
  const int stack_count =
      1 + static_cast<int>(rng.next_below(
              static_cast<std::uint64_t>(spec.max_stacks_per_site)));
  for (int k = 0; k < stack_count; ++k) {
    MpiStackInstall stack;
    const double impl = rng.next_double();
    if (impl < 0.45) {
      stack.impl = MpiImpl::kOpenMpi;
      stack.version = Version::of(
          kOpenMpiVersions[rng.next_below(std::size(kOpenMpiVersions))]);
    } else if (impl < 0.75) {
      stack.impl = MpiImpl::kMpich2;
      stack.version = Version::of(
          kMpich2Versions[rng.next_below(std::size(kMpich2Versions))]);
    } else {
      stack.impl = MpiImpl::kMvapich2;
      stack.version = Version::of(
          kMvapich2Versions[rng.next_below(std::size(kMvapich2Versions))]);
    }
    const auto& compiler =
        s->compilers[rng.next_below(s->compilers.size())];
    stack.compiler = compiler.family;
    stack.compiler_version = compiler.version;
    stack.interconnect =
        rng.chance(0.5) ? Interconnect::kInfiniband : Interconnect::kEthernet;
    stack.advertised = !rng.chance(0.08);
    stack.functional = !rng.chance(0.08);
    stack.static_libs_available = rng.chance(0.12);
    stack.wrappers_embed_rpath = rng.chance(0.15);
    // One install per slug; a re-draw of the same combination is just the
    // same package.
    const std::string slug = stack.slug();
    const bool duplicate =
        std::any_of(s->stacks.begin(), s->stacks.end(),
                    [&](const MpiStackInstall& existing) {
                      return existing.slug() == slug;
                    });
    if (!duplicate) s->stacks.push_back(std::move(stack));
  }

  toolchain::provision_site(*s);

  if (rng.chance(spec.symlink_farm_rate)) {
    traits.symlink_farm = true;
    apply_symlink_farm(*s);
  }
  if (rng.chance(spec.broken_module_rate)) {
    apply_broken_modules(*s, rng, traits);
  }
  if (rng.chance(spec.container_rate)) {
    // Container-image site: the installed software surface is a squashed
    // read-only layer; /home and /tmp stay writable as the overlay upper
    // dir. Drift must unseal (rebuild the image) to mutate these.
    traits.container = true;
    s->vfs.seal("/opt");
    s->vfs.seal("/usr");
  }
  return s;
}

}  // namespace

Fleet generate_fleet(const FleetSpec& spec, std::uint64_t seed) {
  Fleet fleet;
  fleet.spec = spec;
  fleet.seed = seed;
  const Rng base(support::fnv1a_mix(seed, support::fnv1a(spec.name)));

  fleet.sites.reserve(static_cast<std::size_t>(spec.sites));
  fleet.traits.resize(static_cast<std::size_t>(spec.sites));
  fleet.sites.push_back(make_anchor(spec));
  for (int i = 1; i < spec.sites; ++i) {
    fleet.sites.push_back(make_generated_site(
        spec, i, base, fleet.traits[static_cast<std::size_t>(i)]));
  }

  Rng workload_rng = base.fork("workloads");
  fleet.workloads = workloads::synthetic_suite(spec.workloads,
                                               workload_rng.next_u64());
  fleet.build_stack.reserve(fleet.workloads.size());
  const int anchor_stacks =
      static_cast<int>(fleet.anchor().stacks.size());
  for (std::size_t w = 0; w < fleet.workloads.size(); ++w) {
    fleet.build_stack.push_back(static_cast<int>(w) % anchor_stacks);
  }
  return fleet;
}

}  // namespace feam::fleet
