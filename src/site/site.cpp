#include "site/site.hpp"

#include <algorithm>
#include <atomic>

#include "support/rng.hpp"
#include "support/strings.hpp"

namespace feam::site {

namespace {
std::uint64_t next_lease_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Per-thread stack of open shell sessions' module shadows, mirroring the
// variable shadows in environment.cpp (one registry per state kind keeps
// both files self-contained).
struct ModuleSessionEntry {
  const Site* site;
  std::unique_ptr<Site::ModuleShadow> shadow;
};
thread_local std::vector<ModuleSessionEntry> t_module_sessions;

}  // namespace

// Mutexes keyed by subtree prefix. std::map nodes are stable, so handing
// out `std::mutex&` is safe for the Site's lifetime; the table itself is
// guarded by its own mutex (creation is rare — a few prefixes per job).
struct Site::SubtreeTable {
  std::mutex table_mutex;
  std::map<std::string, std::mutex, std::less<>> mutexes;
};

Site::Site()
    : lease_id_(next_lease_id()),
      subtree_table_(std::make_unique<SubtreeTable>()) {}

Site::~Site() = default;
Site::Site(Site&&) noexcept = default;
Site& Site::operator=(Site&&) noexcept = default;

Site::ModuleShadow* Site::module_shadow() const {
  for (auto it = t_module_sessions.rbegin(); it != t_module_sessions.rend();
       ++it) {
    if (it->site == this) return it->shadow.get();
  }
  return nullptr;
}

void Site::begin_shell_session() {
  env.begin_session();
  auto fresh = std::make_unique<ModuleShadow>();
  fresh->loaded = loaded_modules();  // copy-on-begin: nested sessions stack
  t_module_sessions.push_back({this, std::move(fresh)});
}

void Site::end_shell_session() {
  for (auto it = t_module_sessions.rbegin(); it != t_module_sessions.rend();
       ++it) {
    if (it->site == this) {
      t_module_sessions.erase(std::next(it).base());
      env.end_session();
      return;
    }
  }
}

const std::vector<std::string>& Site::loaded_modules() const {
  const ModuleShadow* s = module_shadow();
  return s != nullptr ? s->loaded : loaded_;
}

std::mutex& Site::subtree_mutex(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(subtree_table_->table_mutex);
  const auto it = subtree_table_->mutexes.find(prefix);
  if (it != subtree_table_->mutexes.end()) return it->second;
  return subtree_table_->mutexes[std::string(prefix)];
}

std::string MpiStackInstall::slug() const {
  return std::string(mpi_impl_slug(impl)) + "-" + version.str() + "-" +
         compiler_slug(compiler);
}

std::string MpiStackInstall::module_name() const {
  return std::string(mpi_impl_slug(impl)) + "/" + version.str() + "-" +
         compiler_slug(compiler);
}

std::string MpiStackInstall::display() const {
  return std::string(mpi_impl_name(impl)) + " v" + version.str() + " (" +
         compiler_letter(compiler) + ")";
}

std::vector<std::string> Site::default_lib_dirs(int binary_bits) const {
  // 64-bit hosts keep 64-bit libraries in lib64 and 32-bit compatibility
  // libraries in lib; 32-bit hosts only have lib.
  if (elf::isa_bits(isa) == 64 && binary_bits == 64) {
    return {"/lib64", "/usr/lib64", "/usr/local/lib64"};
  }
  return {"/lib", "/usr/lib", "/usr/local/lib"};
}

std::vector<std::string> Site::available_modules() const {
  std::vector<std::string> out;
  out.reserve(module_files.size());
  for (const auto& m : module_files) out.push_back(m.name);
  std::sort(out.begin(), out.end());
  return out;
}

bool Site::load_module(std::string_view module_name) {
  const auto it = std::find_if(
      module_files.begin(), module_files.end(),
      [&](const ModuleFile& m) { return m.name == module_name; });
  if (it == module_files.end()) return false;
  for (const auto& [var, entry] : it->prepends) {
    env.prepend_to_list(var, entry);
  }
  ModuleShadow* s = module_shadow();
  (s != nullptr ? s->loaded : loaded_).push_back(it->name);
  return true;
}

void Site::unload_all_modules() {
  // Rebuild PATH / LD_LIBRARY_PATH without any module prefix entries.
  for (const char* var : {"PATH", "LD_LIBRARY_PATH"}) {
    auto entries = env.get_list(var);
    std::erase_if(entries, [&](const std::string& entry) {
      return std::any_of(module_files.begin(), module_files.end(),
                         [&](const ModuleFile& m) {
                           return std::any_of(
                               m.prepends.begin(), m.prepends.end(),
                               [&](const auto& p) { return p.second == entry; });
                         });
    });
    if (entries.empty()) {
      env.unset(var);
    } else {
      env.set(var, support::join(entries, ":"));
    }
  }
  ModuleShadow* s = module_shadow();
  (s != nullptr ? s->loaded : loaded_).clear();
}

const MpiStackInstall* Site::find_stack(MpiImpl impl,
                                        CompilerFamily compiler) const {
  for (const auto& stack : stacks) {
    if (stack.impl == impl && stack.compiler == compiler) return &stack;
  }
  return nullptr;
}

const MpiStackInstall* Site::stack_for_module(std::string_view module_name) const {
  // Module names are "<slug-with-/>"; match on the stack slug with '/'
  // substituted ("openmpi/1.4.3-intel" <-> "openmpi-1.4.3-intel").
  std::string flattened(module_name);
  std::replace(flattened.begin(), flattened.end(), '/', '-');
  for (const auto& stack : stacks) {
    if (stack.slug() == flattened) return &stack;
  }
  return nullptr;
}

const MpiStackInstall* Site::selected_stack() const {
  for (const auto& dir : env.ld_library_path()) {
    for (const auto& stack : stacks) {
      if (dir == stack.prefix + "/lib") return &stack;
    }
    // Symlink-farm layouts advertise linked directories; the dynamic
    // loader follows the link, so stack selection must too.
    if (const auto real = vfs.resolve(dir)) {
      for (const auto& stack : stacks) {
        if (*real == stack.prefix + "/lib") return &stack;
      }
    }
  }
  return nullptr;
}

std::uint64_t Site::discovery_fingerprint() const {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (i * 8)) & 0xff)) * 1099511628211ull;
    }
  };
  mix(vfs.system_generation());
  mix(env.fingerprint());
  const auto& loaded = loaded_modules();
  mix(loaded.size());
  for (const auto& module_name : loaded) mix(support::fnv1a(module_name));
  return h;
}

}  // namespace feam::site
