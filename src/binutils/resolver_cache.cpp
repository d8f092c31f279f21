#include "binutils/resolver_cache.hpp"

#include <utility>

#include "obs/metrics.hpp"
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

std::uint64_t search_entry_bytes(const std::string& soname,
                                 const std::vector<std::string>& dirs,
                                 std::size_t candidates,
                                 const std::optional<std::string>& result) {
  std::uint64_t total = soname.size();
  for (const auto& dir : dirs) total += sizeof(std::string) + dir.size();
  total += candidates * sizeof(std::optional<std::uint64_t>);
  total += result ? result->size() : 0;
  return total;
}

}  // namespace

ResolverCache::ResolverCache()
    : search_bytes_gauge_(
          obs::gauge("cache.bytes", {.cache = "resolver.search"})),
      ldd_bytes_gauge_(obs::gauge("cache.bytes", {.cache = "resolver.ldd"})),
      parse_bytes_gauge_(
          obs::gauge("cache.bytes", {.cache = "resolver.parse"})) {}

ResolverCache::~ResolverCache() {
  search_bytes_gauge_.sub(search_footprint_.load(std::memory_order_relaxed));
  ldd_bytes_gauge_.sub(ldd_footprint_.load(std::memory_order_relaxed));
  parse_bytes_gauge_.sub(parse_footprint_.load(std::memory_order_relaxed));
}

std::optional<std::optional<std::string>> ResolverCache::search(
    const site::Site& host, std::string_view soname, int bits,
    const std::vector<std::string>& dirs) {
  const std::uint64_t key = search_fingerprint(host, soname, bits, dirs);
  const std::uint64_t lease_id = host.lease_id();
  const SearchEntry* entry = search_.find_if(key, [&](const SearchEntry& e) {
    return e.lease_id == lease_id && e.bits == bits && e.soname == soname &&
           e.dirs == dirs;
  });
  if (entry != nullptr && entry->candidate_versions.size() == dirs.size()) {
    // Read the system generation *before* walking stamps: if the stamps
    // validate afterwards, they were provably valid at this generation,
    // so recording it as "checked" can never mask a later mutation.
    const std::uint64_t system_generation = host.vfs.system_generation();
    bool fresh =
        !entry->scratch_candidates &&
        entry->checked_system_generation.load(std::memory_order_acquire) ==
            system_generation;
    if (!fresh) {
      fresh = true;
      for (std::size_t i = 0; i < dirs.size(); ++i) {
        const auto version =
            host.vfs.file_version(site::Vfs::join(dirs[i], soname));
        if (version != entry->candidate_versions[i]) {
          fresh = false;
          break;
        }
      }
      if (fresh && !entry->scratch_candidates) {
        entry->checked_system_generation.store(system_generation,
                                               std::memory_order_release);
      }
    }
    if (fresh) {
      search_hits_.fetch_add(1, std::memory_order_relaxed);
      search_hits_counter_.add();
      entry->site_hits.add();
      return entry->result;
    }
  }
  search_misses_.fetch_add(1, std::memory_order_relaxed);
  search_misses_counter_.add();
  obs::counter("cache.misses", {.site = host.name, .cache = "resolver.search"})
      .add();
  return std::nullopt;
}

void ResolverCache::store_search(const site::Site& host,
                                 std::string_view soname, int bits,
                                 const std::vector<std::string>& dirs,
                                 std::optional<std::string> result) {
  const std::uint64_t system_generation = host.vfs.system_generation();
  SearchEntry entry(
      host.lease_id(), bits, std::string(soname), dirs,
      obs::SeriesHandle("cache.hits",
                        {.site = host.name, .cache = "resolver.search"}));
  entry.candidate_versions.reserve(dirs.size());
  for (const auto& dir : dirs) {
    const std::string candidate = site::Vfs::join(dir, soname);
    entry.candidate_versions.push_back(host.vfs.file_version(candidate));
    if (site::Vfs::scratch_path(candidate)) entry.scratch_candidates = true;
  }
  entry.result = std::move(result);
  entry.checked_system_generation.store(system_generation,
                                        std::memory_order_relaxed);
  const std::uint64_t entry_bytes =
      sizeof(SearchEntry) +
      search_entry_bytes(entry.soname, entry.dirs,
                         entry.candidate_versions.size(), entry.result);
  // insert() shadows any stale entry for this key; the shadowed node
  // stays retained, so the footprint only grows (honest retained bytes).
  search_.insert(search_fingerprint(host, soname, bits, dirs),
                 std::move(entry));
  search_footprint_.fetch_add(entry_bytes, std::memory_order_relaxed);
  search_bytes_gauge_.add(entry_bytes);
}

std::optional<support::Result<std::string>> ResolverCache::ldd_text(
    const site::Site& host, std::string_view path, bool verbose) {
  const std::uint64_t env_fingerprint = host.env.fingerprint();
  const std::uint64_t key = ldd_fingerprint(host, path, verbose,
                                            env_fingerprint);
  const std::uint64_t lease_id = host.lease_id();
  const LddEntry* entry = ldd_.find_if(key, [&](const LddEntry& e) {
    return e.lease_id == lease_id && e.verbose == verbose &&
           e.env_fingerprint == env_fingerprint && e.path == path;
  });
  if (entry != nullptr && entry->file_version == host.vfs.file_version(path) &&
      (entry->strict
           ? entry->vfs_generation == host.vfs.generation()
           : entry->system_generation == host.vfs.system_generation())) {
    ldd_hits_.fetch_add(1, std::memory_order_relaxed);
    ldd_hits_counter_.add();
    entry->site_hits.add();
    ldd_bytes_saved_.add(entry->payload.size());
    if (entry->ok) return support::Result<std::string>(entry->payload);
    return support::Result<std::string>::failure(entry->payload);
  }
  ldd_misses_.fetch_add(1, std::memory_order_relaxed);
  ldd_misses_counter_.add();
  obs::counter("cache.misses", {.site = host.name, .cache = "resolver.ldd"})
      .add();
  return std::nullopt;
}

void ResolverCache::store_ldd(const site::Site& host, std::string_view path,
                              bool verbose,
                              const support::Result<std::string>& text) {
  LddEntry entry{
      host.lease_id(),
      verbose,
      std::string(path),
      host.env.fingerprint(),
      host.vfs.file_version(path),
      host.vfs.system_generation(),
      host.vfs.generation(),
      ld_library_path_touches_scratch(host),
      text.ok(),
      text.ok() ? text.value() : text.error(),
      obs::SeriesHandle("cache.hits",
                        {.site = host.name, .cache = "resolver.ldd"})};
  const std::uint64_t entry_bytes =
      sizeof(LddEntry) + entry.path.size() + entry.payload.size();
  ldd_.insert(ldd_fingerprint(host, path, verbose, entry.env_fingerprint),
              std::move(entry));
  ldd_footprint_.fetch_add(entry_bytes, std::memory_order_relaxed);
  ldd_bytes_gauge_.add(entry_bytes);
}

const elf::ElfFile* ResolverCache::parsed_elf(const site::Site& host,
                                              const support::Blob& data) {
  const std::uint64_t key = parse_fingerprint(data);
  const auto matches = [&](const ParseEntry& e) {
    return same_blob(e.identity, data);
  };
  if (const ParseEntry* entry = parsed_.find_if(key, matches)) {
    parse_hits_.fetch_add(1, std::memory_order_relaxed);
    parse_hits_counter_.add();
    parse_site_hits_.at(host.name).add();
    parse_bytes_saved_.add(data->size());
    return entry->parsed ? &*entry->parsed : nullptr;
  }
  // Parse with no lock held; a racing miss parses twice and the loser's
  // insert is dropped in favour of the winner's entry. The views borrow
  // the blob itself, which the entry keeps alive.
  auto parsed = elf::ElfFile::parse(*data);
  std::optional<elf::ElfFile> value;
  if (parsed.ok()) value = std::move(parsed).take();
  parse_misses_.fetch_add(1, std::memory_order_relaxed);
  parse_misses_counter_.add();
  obs::counter("cache.misses", {.site = host.name, .cache = "resolver.parse"})
      .add();
  const auto [entry, inserted] = parsed_.get_or_insert_if(key, matches, [&] {
    return ParseEntry{data, value ? data : nullptr, std::move(value)};
  });
  if (inserted) {
    const std::uint64_t entry_bytes =
        sizeof(ParseEntry) + (entry->parsed ? elf_bytes(*entry->parsed) : 0);
    parse_footprint_.fetch_add(entry_bytes, std::memory_order_relaxed);
    parse_bytes_gauge_.add(entry_bytes);
  }
  return entry->parsed ? &*entry->parsed : nullptr;
}

std::uint64_t ResolverCache::hits() const {
  return search_hits() + ldd_hits() + parse_hits();
}

std::uint64_t ResolverCache::misses() const {
  return search_misses() + ldd_misses() + parse_misses();
}

}  // namespace feam::binutils
