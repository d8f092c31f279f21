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

  const auto walk = [&] {
    std::optional<std::string> found;
    for (const auto& dir : dirs) {
      const std::string candidate = site::Vfs::join(dir, soname);
      const support::Bytes* data = host.vfs.read(candidate);
      if (data == nullptr) continue;
      if (!candidate_compatible(host, *data, bits)) continue;  // keep looking
      found = host.vfs.resolve(candidate).value_or(candidate);
      break;
    }
    return found;
  };
  const std::optional<std::string> found =
      cache != nullptr ? cache->search(host, soname, bits, dirs, walk)
                       : walk();

  // Provenance: the walk's evidence is a pure function of (soname, dirs,
  // result), all of which a memo hit has in hand, so cached and uncached
  // provenance are byte-identical without storing evidence in the entry.
  if (obs::provenance_active()) {
    std::uint64_t h = support::fnv1a(soname);
    for (const auto& dir : dirs) h = support::fnv1a_mix(h, dir);
    h = support::fnv1a_mix(h, found ? std::string_view(*found) : "\x01");
    obs::record_evidence(
        {"resolver", "search", host.name, std::string(soname),
         found ? "found " + *found
               : "absent in " + std::to_string(dirs.size()) + " dirs",
         h});
  }
  return found;
}

Resolution resolve_libraries(const site::Site& host, std::string_view binary_path,
                             const std::vector<std::string>& extra_search_dirs,
                             ResolverCache* cache) {
  Resolution out;
  const ElfImage root_image = read_elf(host, binary_path, cache);
  if (root_image.bytes == nullptr) {
    out.root_error = "no such file: " + std::string(binary_path);
    return out;
  }
  const elf::ElfFile* root = root_image.elf;
  if (root == nullptr) {
    out.root_error = elf::ElfFile::parse(*root_image.bytes).error();
    return out;
  }
  // Parsed view of the object at `path`, or nullptr. Parses the memo did
  // not keep stay alive in `held` for the duration of this resolution.
  std::vector<ElfImage> held;
  const auto parse_object = [&](std::string_view path) -> const elf::ElfFile* {
    ElfImage image = read_elf(host, path, cache);
    const elf::ElfFile* parsed = image.elf;
    if (image.owned != nullptr) held.push_back(std::move(image));
    return parsed;
  };
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
      if (const elf::ElfFile* parsed = parse_object(*lib.path)) {
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
    out.libs.push_back(std::move(lib));
  }

  // Version checks: every (file, version) reference must be defined by the
  // library that actually resolved for that file name.
  for (const auto& [object_path, object] : closure) {
    for (const auto& need : object->version_references()) {
      const auto provider_it = provider_paths.find(need.file);
      if (provider_it == provider_paths.end()) continue;  // missing lib: reported above
      const elf::ElfFile* provider = parse_object(provider_it->second);
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
