// Memoization layer for the parallel migration engine.
//
// The evaluation matrix re-describes the same binary bytes and re-scans
// unchanged site environments on every one of its ~70 migrations. Both
// operations are pure functions of observable state, so they memoize:
//
//   * BdcCache — keyed on the identity of the binary's content blob
//     (support::Blob) -> BinaryDescription. A binary migrated to N
//     targets shares one blob, so it is parsed once; the entry holds the
//     blob, so equal identity means equal bytes and a hit never needs to
//     hash or compare them.
//   * EdcMemo — per-site, keyed by Site::discovery_fingerprint(): the
//     system half of the VFS plus the *content* of the environment and
//     loaded-module list — exactly what the scan reads. Scratch writes
//     (/home, /tmp) and save/restore environment churn leave the
//     fingerprint unchanged, so back-to-back migrations keep hitting;
//     installing software or loading a module still invalidates.
//
// Both sit on site::Memo (site/memo.hpp), which owns the lock-free
// table, the hit and miss accounting, the cache.bytes footprint, and the
// rule that a faulted computation is never stored. Each cache here keeps
// only its key, its entry, and the predicate that re-verifies the entry's
// stored identity (the blob; the site and discovery fingerprint), so a
// fingerprint collision degrades to a miss, never a wrong answer.
//
// Callers must still hold the site's lease while describing/discovering
// (the underlying components read live site state); the caches' shard
// mutexes nest strictly inside the lease and are never held across
// component calls, so no lock cycle involves them.
//
// The caches are opt-in: every component keeps its uncached entry point,
// and the sequential CLI flow is byte-for-byte unchanged (the regression
// gate pins its exact counter values).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "binutils/resolver_cache.hpp"
#include "feam/description.hpp"
#include "feam/edc.hpp"
#include "obs/provenance.hpp"
#include "site/memo.hpp"
#include "site/site.hpp"
#include "support/blob.hpp"
#include "support/result.hpp"

namespace feam {

class BdcCache {
 public:
  // Describe the binary at `path` on `s`, memoized on its content blob.
  // On a hit the cached description is returned with `path` rewritten to
  // the requested location (the only path-dependent field): the same file
  // described again, a copy at another path or site, and a fresh write of
  // equal bytes (interned to the same blob) all hit, lock-free, without
  // touching the bytes. Failures are not cached. Unreadable paths, and
  // reads touched by fault injection, bypass the memo: Bdc::describe
  // produces its usual result for them.
  support::Result<BinaryDescription> describe(const site::Site& s,
                                              std::string_view path);

  std::uint64_t hits() const { return memo_.hits(); }
  std::uint64_t misses() const { return memo_.misses(); }

 private:
  struct Entry {
    // Held, so the blob's address names these bytes for the entry's
    // lifetime; the footprint does not count the shared payload.
    support::Blob bytes;
    BinaryDescription description;
    std::uint64_t footprint() const;
  };

  // key: fingerprint of the blob's address
  site::Memo<Entry> memo_{"bdc"};
};

class EdcMemo {
 public:
  // Discover `s`'s environment, memoized per (site, discovery
  // fingerprint). The caller must hold `s`'s lease (the scan runs shell
  // commands against live state); hits are lock-free, and a cold scan
  // runs outside any map lock, so distinct sites discover concurrently.
  // Entries for distinct fingerprints coexist, so a site that alternates
  // between two shell states (e.g. module loaded / unloaded) hits in
  // both.
  EnvironmentDescription discover(const site::Site& s);

  std::uint64_t hits() const { return memo_.hits(); }
  std::uint64_t misses() const { return memo_.misses(); }

 private:
  struct Entry {
    std::uint64_t lease_id = 0;  // identity re-verified on lookup
    std::uint64_t fingerprint = 0;
    EnvironmentDescription description;
    // Evidence the scan recorded at fill time, replayed verbatim on every
    // hit (a hit requires an identical discovery fingerprint, so a fresh
    // scan would record exactly these items). Faulted scans are never
    // stored, so this never carries torn-read views.
    std::vector<obs::Evidence> evidence;
    std::uint64_t footprint() const;
  };

  // key: fingerprint of (Site::lease_id(), Site::discovery_fingerprint())
  site::Memo<Entry> memo_{"edc"};
};

// The bundle a parallel run threads through phases/TEC. Passing nullptr
// anywhere a MigrationCaches* is accepted reproduces the uncached path.
struct MigrationCaches {
  BdcCache bdc;
  EdcMemo edc;
  // Memoizes the loader's per-site library searches and ldd transcripts,
  // validated against VFS write stamps, and ELF parses keyed on content
  // blobs (binutils/resolver_cache.hpp).
  binutils::ResolverCache resolver;
};

}  // namespace feam
