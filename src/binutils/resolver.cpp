#include "binutils/resolver.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "binutils/resolver_cache.hpp"
#include "obs/provenance.hpp"
#include "support/rng.hpp"

namespace feam::binutils {

namespace {

// True when the candidate file is a shared object loadable by a binary of
// the given bitness on this host: valid ELF, correct class, ISA executable
// on the host hardware.
bool candidate_compatible(const site::Site& host, const support::Bytes& data,
                          int bits) {
  const auto parsed = elf::ElfFile::parse(data);
  if (!parsed.ok()) return false;
  const elf::ElfFile& f = parsed.value();
  if (f.bits() != bits) return false;
  return elf::isa_executable_on(f.isa(), host.isa);
}

}  // namespace

bool Resolution::complete() const {
  return root_parsed &&
         std::all_of(libs.begin(), libs.end(),
                     [](const ResolvedLib& l) { return l.path.has_value(); });
}

std::vector<std::string> Resolution::missing() const {
  std::vector<std::string> out;
  for (const ResolvedLib& lib : libs) {
    if (!lib.path) out.push_back(lib.name);
  }
  return out;
}

std::optional<std::string> Resolution::path_of(std::string_view needed_name) const {
  for (const ResolvedLib& lib : libs) {
    if (lib.name == needed_name) return lib.path;
  }
  return std::nullopt;
}

std::optional<std::string> search_library(const site::Site& host,
                                          std::string_view soname, int bits,
                                          const std::vector<std::string>& rpath,
                                          const std::vector<std::string>& extra_dirs,
                                          ResolverCache* cache) {
  std::vector<std::string> dirs;
  dirs.insert(dirs.end(), extra_dirs.begin(), extra_dirs.end());
  dirs.insert(dirs.end(), rpath.begin(), rpath.end());
  const auto ld_path = host.env.ld_library_path();
  dirs.insert(dirs.end(), ld_path.begin(), ld_path.end());
  const auto defaults = host.default_lib_dirs(bits);
  dirs.insert(dirs.end(), defaults.begin(), defaults.end());

  // Provenance: the walk's evidence is a pure function of (soname, dirs,
  // result), all of which a memo hit has in hand — recording at every exit
  // keeps cached and uncached provenance byte-identical without storing
  // evidence in the cache entry.
  const auto record_search = [&](const std::optional<std::string>& found) {
    if (!obs::provenance_active()) return;
    std::uint64_t h = support::fnv1a(soname);
    for (const auto& dir : dirs) h = support::fnv1a_mix(h, dir);
    h = support::fnv1a_mix(h, found ? std::string_view(*found) : "\x01");
    obs::record_evidence(
        {"resolver", "search", host.name, std::string(soname),
         found ? "found " + *found
               : "absent in " + std::to_string(dirs.size()) + " dirs",
         h});
  };

  if (cache != nullptr) {
    if (const auto memo = cache->search(host, soname, bits, dirs)) {
      record_search(*memo);
      return *memo;
    }
  }
  const auto* injector = host.vfs.fault_injector();
  const std::uint64_t faults_before =
      injector != nullptr ? injector->fault_count() : 0;
  std::optional<std::string> found;
  for (const auto& dir : dirs) {
    const std::string candidate = site::Vfs::join(dir, soname);
    const support::Bytes* data = host.vfs.read(candidate);
    if (data == nullptr) continue;
    if (!candidate_compatible(host, *data, bits)) continue;  // skip, keep looking
    found = host.vfs.resolve(candidate).value_or(candidate);
    break;
  }
  // A walk touched by fault injection saw a spurious view of the site;
  // memoizing it would poison later (unfaulted) lookups.
  const bool faulted =
      injector != nullptr && injector->fault_count() != faults_before;
  if (cache != nullptr && !faulted) {
    cache->store_search(host, soname, bits, dirs, found);
  }
  record_search(found);
  return found;
}

Resolution resolve_libraries(const site::Site& host, std::string_view binary_path,
                             const std::vector<std::string>& extra_search_dirs,
                             ResolverCache* cache) {
  Resolution out;
  // Reads report whether fault injection touched them; faulted bytes are
  // not the file's content, so they must never reach the parse memo.
  const auto* injector = host.vfs.fault_injector();
  const auto fault_count = [&]() -> std::uint64_t {
    return injector != nullptr ? injector->fault_count() : 0;
  };
  bool read_faulted = false;
  const auto read_tracked = [&](std::string_view path) -> support::Blob {
    const std::uint64_t before = fault_count();
    support::Blob data = host.vfs.read_blob(path);
    read_faulted = fault_count() != before;
    return data;
  };

  const support::Blob root_data = read_tracked(binary_path);
  if (root_data == nullptr) {
    out.root_error = "no such file: " + std::string(binary_path);
    return out;
  }
  // Parses `data`, through the cache's blob memo when one is supplied.
  // `local` keeps uncached parses alive for the duration of this
  // resolution, and `held` the bytes their views borrow.
  std::vector<support::Blob> held;
  std::deque<elf::ElfFile> local;
  const auto parse_object = [&](const support::Blob& data,
                                bool faulted) -> const elf::ElfFile* {
    if (cache != nullptr && !faulted) return cache->parsed_elf(host, data);
    auto parsed = elf::ElfFile::parse(*data);
    if (!parsed.ok()) return nullptr;
    held.push_back(data);
    local.push_back(std::move(parsed).take());
    return &local.back();
  };

  const elf::ElfFile* root = parse_object(root_data, read_faulted);
  if (root == nullptr) {
    out.root_error = elf::ElfFile::parse(*root_data).error();
    return out;
  }
  out.root_parsed = true;
  const int bits = root->bits();
  std::vector<std::string> rpath;
  rpath.reserve(root->rpath().size());
  for (const auto& dir : root->rpath()) rpath.emplace_back(dir);

  // BFS over NEEDED closure, tracking per-name depth and a parent chain so
  // cycles and runaway depths are *detected* (the dedup set alone would
  // silently absorb a cycle).
  struct Pending {
    std::string name;
    std::string requested_by;
    int depth = 1;
  };
  std::deque<Pending> queue;
  std::set<std::string> enqueued;
  std::map<std::string, std::string> parent;  // NEEDED name -> requesting name
  std::set<std::string> cycles_seen;
  for (const auto& n : root->needed()) {
    std::string name(n);
    queue.push_back({name, std::string(binary_path), 1});
    enqueued.insert(name);
    parent[name] = "";  // requested by the root binary itself
  }

  // True (and records the rendered chain) when `needed`, requested while
  // processing `at`, is one of `at`'s own ancestors in the NEEDED graph.
  const auto detect_cycle = [&](const std::string& at,
                                const std::string& needed) {
    std::vector<std::string> chain{at};
    std::string cur = at;
    while (cur != needed) {
      const auto it = parent.find(cur);
      if (it == parent.end() || it->second.empty()) return;  // diamond, not a cycle
      cur = it->second;
      chain.push_back(cur);
    }
    std::reverse(chain.begin(), chain.end());  // now needed -> ... -> at
    chain.push_back(needed);                   // close the loop
    std::string rendered;
    for (const auto& name : chain) {
      if (!rendered.empty()) rendered += " -> ";
      rendered += name;
    }
    if (!cycles_seen.insert(rendered).second) return;
    out.dep_cycles.push_back(rendered);
    if (!out.dep_error) {
      out.dep_error = support::Error{support::ErrorCode::kDepCycle,
                                     "cyclic DT_NEEDED chain: " + rendered};
    }
  };

  // Objects whose version references must be checked: (path, parsed file).
  // The root binary is first.
  std::vector<std::pair<std::string, const elf::ElfFile*>> closure;
  closure.emplace_back(std::string(binary_path), root);

  // name -> resolved path for provider lookups during version checking.
  std::map<std::string, std::string, std::less<>> provider_paths;

  while (!queue.empty()) {
    const Pending item = queue.front();
    queue.pop_front();
    ResolvedLib lib{item.name, std::nullopt, item.requested_by};
    lib.path = search_library(host, item.name, bits, rpath, extra_search_dirs,
                              cache);
    if (lib.path) {
      provider_paths.emplace(item.name, *lib.path);
      const support::Blob data = read_tracked(*lib.path);
      if (data != nullptr) {
        if (const elf::ElfFile* parsed = parse_object(data, read_faulted)) {
          for (const auto& n : parsed->needed()) {
            std::string name(n);
            if (!enqueued.insert(name).second) {
              detect_cycle(item.name, name);
              continue;
            }
            if (item.depth + 1 > kMaxDepDepth) {
              enqueued.erase(name);
              if (!out.dep_error) {
                out.dep_error = support::Error{
                    support::ErrorCode::kDepDepthExceeded,
                    "DT_NEEDED chain exceeds depth " +
                        std::to_string(kMaxDepDepth) + " at " + name};
              }
              continue;
            }
            parent[name] = item.name;
            queue.push_back({std::move(name), *lib.path, item.depth + 1});
          }
          closure.emplace_back(*lib.path, parsed);
        }
      }
    }
    out.libs.push_back(std::move(lib));
  }

  // Version checks: every (file, version) reference must be defined by the
  // library that actually resolved for that file name.
  for (const auto& [object_path, object] : closure) {
    for (const auto& need : object->version_references()) {
      const auto provider_it = provider_paths.find(need.file);
      if (provider_it == provider_paths.end()) continue;  // missing lib: reported above
      const support::Blob provider_data = read_tracked(provider_it->second);
      if (provider_data == nullptr) continue;
      const elf::ElfFile* provider = parse_object(provider_data, read_faulted);
      if (provider == nullptr) continue;
      const auto& defs = provider->version_definitions();
      for (const auto& version : need.versions) {
        if (std::find(defs.begin(), defs.end(), version) == defs.end()) {
          out.version_errors.push_back(
              {std::string(version), object_path, provider_it->second});
        }
      }
    }
  }
  return out;
}

}  // namespace feam::binutils
