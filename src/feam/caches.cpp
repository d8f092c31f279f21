#include "feam/caches.hpp"

#include <utility>

#include "feam/bdc.hpp"
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

std::uint64_t BdcCache::Entry::footprint() const {
  return sizeof(Entry) + description_bytes(description);
}

std::uint64_t EdcMemo::Entry::footprint() const {
  return sizeof(Entry) + environment_bytes(description) +
         obs::evidence_bytes(evidence);
}

support::Result<BinaryDescription> BdcCache::describe(const site::Site& s,
                                                      std::string_view path) {
  const site::FaultWitness witness;
  const support::Blob bytes = s.vfs.read_blob(path);
  // A missing file gets the component's usual diagnostic. Faulted bytes
  // (or their absence) are not the file's content, so they never form a
  // key; the caller attributes the uncached result.
  if (bytes == nullptr || witness.fired()) return Bdc::describe(s, path);
  const std::uint64_t key = support::fnv1a_mix(
      kFnvBasis, reinterpret_cast<std::uintptr_t>(bytes.get()));
  const auto matches = [&](const Entry& e) { return e.bytes == bytes; };
  if (const Entry* entry = memo_.find(key, s.name, matches)) {
    BinaryDescription d = entry->description;
    d.path = std::string(path);
    if (obs::provenance_active()) {
      obs::record_evidence(description_evidence(s.name, path, d));
    }
    return d;
  }
  // Miss: parse with no lock held — the caller holds the site lease, so
  // the file cannot change underneath us. The component re-reads the
  // file; the witness keeps a faulted re-read out of the memo.
  support::Result<BinaryDescription> described = Bdc::describe(s, path);
  if (!described.ok()) {
    memo_.miss(s.name);
    return described;
  }
  memo_.fill(key, s.name, witness, matches,
             [&] { return Entry{bytes, described.value()}; });
  return described;
}

EnvironmentDescription EdcMemo::discover(const site::Site& s) {
  const std::uint64_t lease_id = s.lease_id();
  const std::uint64_t fingerprint = s.discovery_fingerprint();
  const std::uint64_t key =
      support::fnv1a_mix(support::fnv1a_mix(kFnvBasis, lease_id), fingerprint);
  const auto matches = [&](const Entry& e) {
    return e.lease_id == lease_id && e.fingerprint == fingerprint;
  };
  if (const Entry* entry = memo_.find(key, s.name, matches)) {
    obs::replay_evidence(entry->evidence);
    return entry->description;
  }
  // Scan with no map lock held so other sites discover concurrently; the
  // caller's site lease guarantees no concurrent scan of *this* site.
  // The capture frame tees the scan's evidence for the entry while still
  // forwarding it to the enclosing evaluation's provenance scope.
  const site::FaultWitness witness;
  obs::EvidenceCapture capture;
  EnvironmentDescription description = Edc::discover(s);
  memo_.fill(key, s.name, witness, matches, [&] {
    return Entry{lease_id, fingerprint, description, capture.take()};
  });
  return description;
}

}  // namespace feam
