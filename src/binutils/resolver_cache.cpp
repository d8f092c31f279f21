#include "binutils/resolver_cache.hpp"

#include <utility>

#include "site/vfs.hpp"
#include "support/rng.hpp"

namespace feam::binutils {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t search_fingerprint(const site::Site& host,
                                 std::string_view soname, int bits,
                                 const std::vector<std::string>& dirs) {
  std::uint64_t h = support::fnv1a_mix(kFnvBasis, host.lease_id());
  h = support::fnv1a_mix(h, static_cast<std::uint64_t>(bits));
  h = support::fnv1a_mix(h, soname);
  for (const auto& dir : dirs) {
    h = support::fnv1a_mix(h, '\x1f');
    h = support::fnv1a_mix(h, dir);
  }
  return h;
}

std::uint64_t ldd_fingerprint(const site::Site& host, std::string_view path,
                              bool verbose, std::uint64_t env_fingerprint) {
  std::uint64_t h = support::fnv1a_mix(kFnvBasis, host.lease_id());
  h = support::fnv1a_mix(h, verbose ? 'v' : '-');
  h = support::fnv1a_mix(h, path);
  return support::fnv1a_mix(h, env_fingerprint);
}

// The search memo's identity check (the key is only a fingerprint), then
// its validity rule: every candidate stamp still holds.
auto search_answers(const site::Site& host, std::string_view soname,
                    int bits, const std::vector<std::string>& dirs) {
  return [&host, soname, bits, &dirs,
          lease_id = host.lease_id()](const auto& e) {
    return e.lease_id == lease_id && e.bits == bits && e.soname == soname &&
           e.dirs == dirs && e.fresh(host);
  };
}

auto ldd_answers(const site::Site& host, std::string_view path, bool verbose,
                 std::uint64_t env_fingerprint) {
  return [&host, path, verbose, env_fingerprint,
          lease_id = host.lease_id()](const auto& e) {
    return e.lease_id == lease_id && e.verbose == verbose &&
           e.env_fingerprint == env_fingerprint && e.path == path &&
           e.fresh(host);
  };
}

std::uint64_t parse_fingerprint(const support::Blob& data) {
  return support::fnv1a_mix(kFnvBasis,
                            reinterpret_cast<std::uintptr_t>(data.get()));
}

// True when `a` and `b` share one owner (one blob), without touching the
// bytes. Sound for a weak reference whose blob died: the weak reference
// keeps the ownership record, so no later blob can share it.
bool same_blob(const std::weak_ptr<const support::Bytes>& a,
               const support::Blob& b) {
  return !a.owner_before(b) && !b.owner_before(a);
}

// Whether the shell's library path reaches into scratch directories —
// the case where the system-generation stamp can't see invalidating
// writes and ldd validation must fall back to the whole-VFS generation.
bool ld_library_path_touches_scratch(const site::Site& host) {
  for (const auto& dir : host.env.ld_library_path()) {
    if (site::Vfs::scratch_path(dir)) return true;
  }
  return false;
}

// Estimated retained bytes of one memo entry (payload strings plus the
// fixed structs); allocator-exact sizes are not the point — trend and
// ceiling gates need a stable, monotone measure of what the memo holds.
std::uint64_t elf_bytes(const elf::ElfFile& file) {
  // A parsed file is views into a shared blob, so only the view tables
  // belong to the entry.
  std::uint64_t total = sizeof(elf::ElfFile);
  total += (file.needed().size() + file.rpath().size() +
            file.version_definitions().size() + file.comments().size()) *
           sizeof(std::string_view);
  for (const auto& need : file.version_references()) {
    total += sizeof(need) + need.versions.size() * sizeof(std::string_view);
  }
  total += file.dynamic_symbols().size() * sizeof(elf::DynSymbol);
  return total;
}

}  // namespace

bool ResolverCache::SearchEntry::fresh(const site::Site& host) const {
  // Read the system generation *before* walking stamps: if the stamps
  // validate afterwards, they were provably valid at this generation, so
  // recording it as "checked" can never mask a later mutation.
  const std::uint64_t system_generation = host.vfs.system_generation();
  if (!scratch_candidates &&
      checked_system_generation.load(std::memory_order_acquire) ==
          system_generation) {
    return true;
  }
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    if (host.vfs.file_version(site::Vfs::join(dirs[i], soname)) !=
        candidate_versions[i]) {
      return false;
    }
  }
  if (!scratch_candidates) {
    checked_system_generation.store(system_generation,
                                    std::memory_order_release);
  }
  return true;
}

std::uint64_t ResolverCache::SearchEntry::footprint() const {
  std::uint64_t total = sizeof(SearchEntry) + soname.size();
  for (const auto& dir : dirs) total += sizeof(std::string) + dir.size();
  total += candidate_versions.size() * sizeof(std::optional<std::uint64_t>);
  return total + (result ? result->size() : 0);
}

bool ResolverCache::LddEntry::fresh(const site::Site& host) const {
  return file_version == host.vfs.file_version(path) &&
         (strict ? vfs_generation == host.vfs.generation()
                 : system_generation == host.vfs.system_generation());
}

std::uint64_t ResolverCache::LddEntry::footprint() const {
  return sizeof(LddEntry) + path.size() + payload.size();
}

std::uint64_t ResolverCache::ParseEntry::footprint() const {
  return sizeof(ParseEntry) + (parsed ? elf_bytes(*parsed) : 0);
}

const ResolverCache::SearchEntry* ResolverCache::find_search(
    const site::Site& host, std::string_view soname, int bits,
    const std::vector<std::string>& dirs) {
  return search_.find(search_fingerprint(host, soname, bits, dirs), host.name,
                      search_answers(host, soname, bits, dirs));
}

void ResolverCache::store_search(const site::Site& host,
                                 std::string_view soname, int bits,
                                 const std::vector<std::string>& dirs,
                                 std::optional<std::string> result,
                                 const site::FaultWitness& witness) {
  const std::uint64_t system_generation = host.vfs.system_generation();
  std::vector<std::optional<std::uint64_t>> versions;
  versions.reserve(dirs.size());
  bool scratch = false;
  for (const auto& dir : dirs) {
    const std::string candidate = site::Vfs::join(dir, soname);
    versions.push_back(host.vfs.file_version(candidate));
    scratch = scratch || site::Vfs::scratch_path(candidate);
  }
  // A fresh entry for this key shadows any stale one, which stays
  // retained (and counted) so old pointers remain valid.
  search_.fill(search_fingerprint(host, soname, bits, dirs), host.name,
               witness, search_answers(host, soname, bits, dirs), [&] {
                 return SearchEntry{host.lease_id(),     bits,
                                    std::string(soname), dirs,
                                    std::move(versions), std::move(result),
                                    scratch,             system_generation};
               });
}

const ResolverCache::LddEntry* ResolverCache::find_ldd(const site::Site& host,
                                                       std::string_view path,
                                                       bool verbose) {
  const std::uint64_t env_fingerprint = host.env.fingerprint();
  return ldd_.find(ldd_fingerprint(host, path, verbose, env_fingerprint),
                   host.name,
                   ldd_answers(host, path, verbose, env_fingerprint));
}

void ResolverCache::store_ldd(const site::Site& host, std::string_view path,
                              bool verbose,
                              const support::Result<std::string>& text,
                              const site::FaultWitness& witness) {
  const std::uint64_t env_fingerprint = host.env.fingerprint();
  ldd_.fill(ldd_fingerprint(host, path, verbose, env_fingerprint), host.name,
            witness, ldd_answers(host, path, verbose, env_fingerprint), [&] {
              return LddEntry{host.lease_id(),
                              verbose,
                              std::string(path),
                              env_fingerprint,
                              host.vfs.file_version(path),
                              host.vfs.system_generation(),
                              host.vfs.generation(),
                              ld_library_path_touches_scratch(host),
                              text.ok(),
                              text.ok() ? text.value() : text.error()};
            });
}

const elf::ElfFile* ResolverCache::parsed_elf(const site::Site& host,
                                              const support::Blob& data) {
  const std::uint64_t key = parse_fingerprint(data);
  const auto matches = [&](const ParseEntry& e) {
    return same_blob(e.identity, data);
  };
  const ParseEntry* entry = parsed_.find(key, host.name, matches);
  if (entry == nullptr) {
    // Parse with no lock held; a racing miss parses twice and the loser's
    // entry is dropped in favour of the winner's. The views borrow the
    // blob itself, which the entry keeps alive. Parsing reads no site
    // state, so no fault can touch it.
    const site::FaultWitness witness;
    auto parsed = elf::ElfFile::parse(*data);
    std::optional<elf::ElfFile> value;
    if (parsed.ok()) value = std::move(parsed).take();
    entry = parsed_.fill(key, host.name, witness, matches, [&] {
      return ParseEntry{data, value ? data : nullptr, std::move(value)};
    });
  }
  return entry->parsed ? &*entry->parsed : nullptr;
}

ElfImage read_elf(const site::Site& host, std::string_view path,
                  ResolverCache* cache) {
  const site::FaultWitness witness;
  ElfImage image;
  image.bytes = host.vfs.read_blob(path);
  if (image.bytes == nullptr) return image;
  if (cache != nullptr && !witness.fired()) {
    image.elf = cache->parsed_elf(host, image.bytes);
  } else if (auto parsed = elf::ElfFile::parse(*image.bytes); parsed.ok()) {
    image.owned =
        std::make_unique<const elf::ElfFile>(std::move(parsed).take());
    image.elf = image.owned.get();
  }
  return image;
}

}  // namespace feam::binutils
