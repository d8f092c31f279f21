#include "feam/caches.hpp"

#include <utility>

#include "feam/bdc.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "support/rng.hpp"

namespace feam {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

// Footprint estimates for the cache.bytes{cache=...} gauges: the payload
// bytes an entry owns (string/vector contents plus the fixed struct), not
// allocator-exact sizes — stable across allocators and cheap to compute.
// Blob payloads are shared with the VFS and are not counted.
std::uint64_t string_bytes(const std::string& s) {
  return sizeof(std::string) + s.size();
}

std::uint64_t description_bytes(const BinaryDescription& d) {
  std::uint64_t total = sizeof(BinaryDescription);
  total += d.path.size() + d.file_format.size() + d.architecture.size();
  if (d.soname) total += d.soname->size();
  for (const auto& lib : d.required_libraries) total += string_bytes(lib);
  for (const auto& ref : d.version_references) {
    total += string_bytes(ref.file) + sizeof(ref.versions);
    for (const auto& v : ref.versions) total += string_bytes(v);
  }
  if (d.build_compiler) total += d.build_compiler->size();
  if (d.build_os) total += d.build_os->size();
  return total;
}

std::uint64_t environment_bytes(const EnvironmentDescription& e) {
  std::uint64_t total = sizeof(EnvironmentDescription);
  total += e.site_name.size() + e.isa.size() + e.os_type.size() +
           e.distro.size() + e.clib_discovery_method.size();
  for (const auto& stack : e.stacks) {
    total += sizeof(DiscoveredStack) + stack.id.size() + stack.prefix.size();
  }
  return total;
}

}  // namespace

BdcCache::BdcCache()
    : footprint_gauge_(obs::gauge("cache.bytes", {.cache = "bdc"})) {}

BdcCache::~BdcCache() {
  footprint_gauge_.sub(footprint_.load(std::memory_order_relaxed));
}

support::Result<BinaryDescription> BdcCache::describe(const site::Site& s,
                                                      std::string_view path) {
  const auto* injector = s.vfs.fault_injector();
  const std::uint64_t faults_before =
      injector != nullptr ? injector->fault_count() : 0;
  const support::Blob bytes = s.vfs.read_blob(path);
  if (injector != nullptr && injector->fault_count() != faults_before) {
    // The read was touched by fault injection: the bytes (or their
    // absence) are not the file's content, so the memo may not see them.
    // Fall through to the uncached component, whose result the caller
    // attributes.
    return Bdc::describe(s, path);
  }
  if (bytes == nullptr) {
    // Let the component produce its usual diagnostic for a missing file.
    return Bdc::describe(s, path);
  }
  const std::uint64_t key = support::fnv1a_mix(
      kFnvBasis, reinterpret_cast<std::uintptr_t>(bytes.get()));
  const auto matches = [&](const Entry& e) { return e.bytes == bytes; };
  if (const Entry* entry = entries_.find_if(key, matches)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    legacy_hits_.add();
    site_hits_.at(s.name).add();
    bytes_saved_.add(bytes->size());
    BinaryDescription d = entry->description;
    d.path = std::string(path);
    if (obs::provenance_active()) {
      obs::record_evidence(description_evidence(s.name, path, d));
    }
    return d;
  }
  // Miss: parse with no lock held — the caller holds the site lease, so
  // the file cannot change underneath us.
  support::Result<BinaryDescription> described = Bdc::describe(s, path);
  // The component re-reads the file itself; if any of those reads were
  // faulted, the description doesn't correspond to `bytes` and must not
  // be memoized under it.
  if (injector != nullptr && injector->fault_count() != faults_before) {
    return described;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  legacy_misses_.add();
  obs::counter("cache.misses", {.site = s.name, .cache = "bdc"}).add();
  if (described.ok()) {
    const auto [entry, inserted] = entries_.get_or_insert_if(
        key, matches, [&] { return Entry{bytes, described.value()}; });
    if (inserted) {
      const std::uint64_t added =
          sizeof(Entry) + description_bytes(entry->description);
      footprint_.fetch_add(added, std::memory_order_relaxed);
      footprint_gauge_.add(added);
    }
  }
  return described;
}

EdcMemo::EdcMemo()
    : footprint_gauge_(obs::gauge("cache.bytes", {.cache = "edc"})) {}

EdcMemo::~EdcMemo() {
  footprint_gauge_.sub(footprint_.load(std::memory_order_relaxed));
}

EnvironmentDescription EdcMemo::discover(const site::Site& s) {
  const std::uint64_t lease_id = s.lease_id();
  const std::uint64_t fingerprint = s.discovery_fingerprint();
  const std::uint64_t key =
      support::fnv1a_mix(support::fnv1a_mix(kFnvBasis, lease_id), fingerprint);
  const auto matches = [&](const Entry& e) {
    return e.lease_id == lease_id && e.fingerprint == fingerprint;
  };
  if (const Entry* entry = entries_.find_if(key, matches)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    legacy_hits_.add();
    entry->site_hits.add();
    obs::replay_evidence(entry->evidence);
    return entry->description;
  }
  // Scan with no map lock held so other sites discover concurrently; the
  // caller's site lease guarantees no concurrent scan of *this* site.
  // The capture frame tees the scan's evidence for the entry while still
  // forwarding it to the enclosing evaluation's provenance scope.
  const auto* injector = s.vfs.fault_injector();
  const std::uint64_t faults_before =
      injector != nullptr ? injector->fault_count() : 0;
  obs::EvidenceCapture capture;
  EnvironmentDescription description = Edc::discover(s);
  std::vector<obs::Evidence> evidence = capture.take();
  // A scan that hit injected faults saw a degraded view of an unchanged
  // site; memoizing it (description *or* evidence) would serve that view
  // to every later migration.
  if (injector != nullptr && injector->fault_count() != faults_before) {
    return description;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  legacy_misses_.add();
  obs::counter("cache.misses", {.site = s.name, .cache = "edc"}).add();
  const auto [entry, inserted] = entries_.get_or_insert_if(key, matches, [&] {
    return Entry{lease_id, fingerprint, description, std::move(evidence),
                 obs::SeriesHandle("cache.hits",
                                   {.site = s.name, .cache = "edc"})};
  });
  if (inserted) {
    const std::uint64_t added = sizeof(Entry) +
                                environment_bytes(entry->description) +
                                obs::evidence_bytes(entry->evidence);
    footprint_.fetch_add(added, std::memory_order_relaxed);
    footprint_gauge_.add(added);
  }
  return description;
}

}  // namespace feam
