#include "toolchain/provision.hpp"

#include "support/strings.hpp"
#include "toolchain/compiler.hpp"
#include "toolchain/packages.hpp"

namespace feam::toolchain {

namespace {

using site::Site;
using site::UserEnvTool;

void write_os_identity(Site& s) {
  s.vfs.write_file("/proc/version",
                   "Linux version " + s.kernel_version +
                       " (gcc version unknown) #1 SMP\n");
  // /etc/*release per distro family.
  const std::string pretty =
      s.os_distro + " release " + s.os_version.str();
  if (s.os_distro == "CentOS") {
    s.vfs.write_file("/etc/redhat-release", pretty + " (Final)\n");
  } else if (support::contains(s.os_distro, "Red Hat")) {
    s.vfs.write_file("/etc/redhat-release",
                     s.os_distro + " release " + s.os_version.str() +
                         " (Santiago)\n");
  } else if (support::contains(s.os_distro, "SUSE")) {
    s.vfs.write_file("/etc/SuSE-release",
                     s.os_distro + " " + s.os_version.str() + " (x86_64)\n");
  } else {
    s.vfs.write_file("/etc/system-release", pretty + "\n");
  }
}

}  // namespace

std::string module_database_path(const Site& s, std::string_view name) {
  if (s.user_env_tool == UserEnvTool::kModules) {
    return "/usr/share/Modules/modulefiles/" + std::string(name);
  }
  if (s.user_env_tool == UserEnvTool::kSoftEnv) {
    std::string key(name);
    std::replace(key.begin(), key.end(), '/', '-');
    return "/etc/softenv/+" + key;
  }
  return "";
}

void write_module_database(Site& s) {
  // Module files under /usr/share/Modules/modulefiles (Environment
  // Modules) or a SoftEnv database under /etc/softenv; their *presence* is
  // how FEAM's EDC detects which tool a site runs.
  for (const auto& m : s.module_files) {
    std::string body = "#%Module1.0\n";
    for (const auto& [var, entry] : m.prepends) {
      body += "prepend-path " + var + " " + entry + "\n";
    }
    const std::string path = module_database_path(s, m.name);
    if (!path.empty()) s.vfs.write_file(path, body);
  }
  if (s.user_env_tool == UserEnvTool::kModules) {
    s.vfs.write_file("/usr/bin/modulecmd", "#!/bin/sh\n# modulecmd stub\n");
  } else if (s.user_env_tool == UserEnvTool::kSoftEnv) {
    s.vfs.write_file("/usr/bin/soft", "#!/bin/sh\n# softenv stub\n");
  }
}

void provision_site(Site& s) {
  // Base shell environment of a fresh login.
  s.env.set("PATH", "/usr/local/bin:/usr/bin:/bin");
  s.env.set("HOME", "/home/user");
  s.vfs.mkdirs("/home/user");
  s.vfs.mkdirs("/tmp");

  write_os_identity(s);
  install_clibrary(s);
  install_system_libs(s);

  for (const auto& compiler_install : s.compilers) {
    install_compiler(s, CompilerModel(compiler_install.family,
                                      compiler_install.version));
  }

  for (auto& stack : s.stacks) {
    if (stack.prefix.empty()) {
      stack.prefix = "/opt/" + stack.slug();
    }
    install_mpi_stack(s, stack);

    if (!stack.advertised) continue;
    site::ModuleFile module;
    module.name = stack.module_name();
    module.prepends.emplace_back("PATH", stack.prefix + "/bin");
    module.prepends.emplace_back("LD_LIBRARY_PATH", stack.prefix + "/lib");
    // Non-system compilers chain their runtime directory in, as real
    // module files do.
    const CompilerModel compiler(stack.compiler, stack.compiler_version);
    if (!compiler.install_prefix().empty()) {
      module.prepends.emplace_back("LD_LIBRARY_PATH",
                                   compiler.install_prefix() + "/lib");
    }
    s.module_files.push_back(std::move(module));
  }
  write_module_database(s);
}

}  // namespace feam::toolchain
