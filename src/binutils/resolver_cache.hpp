// Memoization for the dynamic-loader search machinery (opt-in).
//
// The evaluation matrix replays the same library lookups thousands of
// times: every execution attempt, usability test, and resolution pass
// re-walks the candidate directories for libc/libm/libmpi…, and the
// source phase runs `ldd` on the same binary once per gathered library.
// System library directories never change during a run, so both lookups
// memoize — with exact invalidation, not heuristics:
//
//   * search memo — keyed (site, soname, bits, directory list). An entry
//     records the Vfs::file_version of every candidate path the original
//     walk inspected (including absent ones); it is served only while all
//     of them are unchanged. Entries whose candidates all sit outside the
//     scratch subtrees (/home, /tmp) carry a revalidation stamp — the
//     Vfs::system_generation at the last full stamp walk — so the common
//     hit (nothing installed since) costs one atomic compare instead of a
//     per-directory walk. Any write, remove, or symlink retarget that
//     could alter the outcome still misses, and a stamp mismatch can
//     never produce a wrong path — versions are globally unique per write.
//   * ldd memo — keyed (site, path, verbose, environment fingerprint):
//     transcripts for distinct shell states coexist. Validated against
//     the binary's write stamp plus the system half of the VFS; when the
//     shell's LD_LIBRARY_PATH reached into scratch directories at record
//     time, validation falls back to the whole-VFS generation (exact,
//     strictly conservative).
//   * parse memo — keyed on the identity of the file's content blob
//     (support::Blob): the parsed ELF view of those bytes. The loader
//     re-parses the same root binary, resolved libraries, and version
//     providers on every execution attempt, and a binary copied to many
//     sites shares one blob, so one parse serves every site and path.
//     Equal identity implies equal bytes, so the parse is a pure function
//     of the key.
//
// All three memos sit on support::StripedMap: hits are lock-free (a
// chain walk plus relaxed counter bumps), writers stripe across shards,
// and published entries never move — parsed_elf's returned pointers stay
// valid for the cache's lifetime. Each 64-bit map key is a fingerprint
// of the logical key; every lookup re-verifies the entry's stored
// identity, so fingerprint collisions degrade to misses, never wrong
// answers.
//
// Passing nullptr wherever a ResolverCache* is accepted reproduces the
// uncached behaviour exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "elf/file.hpp"
#include "obs/metrics.hpp"
#include "site/site.hpp"
#include "support/blob.hpp"
#include "support/result.hpp"
#include "support/striped_map.hpp"

namespace feam::binutils {

class ResolverCache {
 public:
  ResolverCache();
  // Releases this instance's share of the cache.bytes{cache=resolver.*}
  // footprint gauges (entries are never evicted while the cache lives).
  ~ResolverCache();

  // Memoized search_library result, or nullopt when absent/stale.
  // `dirs` must be the fully assembled search order (extra + rpath +
  // LD_LIBRARY_PATH + defaults) — it is part of the key.
  std::optional<std::optional<std::string>> search(
      const site::Site& host, std::string_view soname, int bits,
      const std::vector<std::string>& dirs);
  void store_search(const site::Site& host, std::string_view soname, int bits,
                    const std::vector<std::string>& dirs,
                    std::optional<std::string> result);

  // Memoized ldd text, or nullopt when absent/stale.
  std::optional<support::Result<std::string>> ldd_text(const site::Site& host,
                                                       std::string_view path,
                                                       bool verbose);
  void store_ldd(const site::Site& host, std::string_view path, bool verbose,
                 const support::Result<std::string>& text);

  // Parsed view of the ELF image `data` (a blob `host`'s VFS returned),
  // memoized on the blob's identity; `host` labels the hit and miss
  // series. Returns nullptr when the image is not valid ELF. The pointer
  // stays valid for the cache's lifetime: entries are never evicted — a
  // rewritten file holds a new blob and gets its own entry. The returned
  // ElfFile's string views borrow the blob, which the entry holds, so the
  // view survives the VFS node being rewritten or removed. A failed parse
  // borrows nothing and keeps only the blob's identity, not its bytes.
  const elf::ElfFile* parsed_elf(const site::Site& host,
                                 const support::Blob& data);

  // Combined totals across the three memos (legacy view).
  std::uint64_t hits() const;
  std::uint64_t misses() const;

  // Per-memo splits: the search walk, the ldd transcript memo, and the
  // parsed-ELF memo hit very differently (a cold parse costs ~1000x a
  // cold search), so folding them into one number hides exactly the
  // attribution a hit-rate investigation needs.
  std::uint64_t search_hits() const {
    return search_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t search_misses() const {
    return search_misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t ldd_hits() const {
    return ldd_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t ldd_misses() const {
    return ldd_misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t parse_hits() const {
    return parse_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t parse_misses() const {
    return parse_misses_.load(std::memory_order_relaxed);
  }

 private:
  struct SearchEntry {
    // Identity, re-verified on lookup (the map key is a fingerprint).
    std::uint64_t lease_id = 0;
    int bits = 0;
    std::string soname;
    std::vector<std::string> dirs;
    // file_version of join(dir, soname) per search dir, in order; nullopt
    // where no regular file existed.
    std::vector<std::optional<std::uint64_t>> candidate_versions;
    std::optional<std::string> result;
    // True when any candidate path sits under a scratch subtree — those
    // entries never take the system-generation fast path (scratch writes
    // don't bump it) and always pay the full stamp walk.
    bool scratch_candidates = false;
    // Vfs::system_generation as of the last full stamp validation; while
    // it still matches, no non-scratch path has changed, so the stamps
    // are provably still valid and the walk can be skipped. Mutable
    // atomic: revalidation updates it in place through the const entry.
    mutable std::atomic<std::uint64_t> checked_system_generation{0};
    obs::SeriesHandle site_hits;  // cache.hits{cache=resolver.search,...}

    // Atomics aren't movable; moves happen only pre-publication.
    SearchEntry(SearchEntry&& other) noexcept
        : lease_id(other.lease_id),
          bits(other.bits),
          soname(std::move(other.soname)),
          dirs(std::move(other.dirs)),
          candidate_versions(std::move(other.candidate_versions)),
          result(std::move(other.result)),
          scratch_candidates(other.scratch_candidates),
          checked_system_generation(other.checked_system_generation.load(
              std::memory_order_relaxed)),
          site_hits(other.site_hits) {}
    SearchEntry(std::uint64_t lease, int b, std::string so,
                std::vector<std::string> ds, obs::SeriesHandle hits)
        : lease_id(lease),
          bits(b),
          soname(std::move(so)),
          dirs(std::move(ds)),
          site_hits(hits) {}
  };

  struct LddEntry {
    std::uint64_t lease_id = 0;
    bool verbose = false;
    std::string path;
    std::uint64_t env_fingerprint = 0;  // part of the identity: shell state
    // Validation stamps: the binary's own write stamp plus the system
    // half of the VFS; `strict` entries (recorded while LD_LIBRARY_PATH
    // reached into scratch) validate on the whole-VFS generation instead.
    std::optional<std::uint64_t> file_version;
    std::uint64_t system_generation = 0;
    std::uint64_t vfs_generation = 0;
    bool strict = false;
    bool ok = false;
    std::string payload;  // text when ok, error message otherwise
    obs::SeriesHandle site_hits;  // cache.hits{cache=resolver.ldd,...}
  };

  struct ParseEntry {
    // The blob this entry describes, compared by ownership: a weak
    // reference pins the identity without keeping the bytes alive.
    std::weak_ptr<const support::Bytes> identity;
    // The bytes `parsed`'s string views borrow; null after a failed
    // parse, which borrows nothing.
    support::Blob bytes;
    std::optional<elf::ElfFile> parsed;  // nullopt caches a parse failure
  };

  support::StripedMap<std::uint64_t, SearchEntry> search_;
  support::StripedMap<std::uint64_t, LddEntry> ldd_;
  support::StripedMap<std::uint64_t, ParseEntry> parsed_;
  std::atomic<std::uint64_t> search_hits_{0};
  std::atomic<std::uint64_t> search_misses_{0};
  std::atomic<std::uint64_t> ldd_hits_{0};
  std::atomic<std::uint64_t> ldd_misses_{0};
  std::atomic<std::uint64_t> parse_hits_{0};
  std::atomic<std::uint64_t> parse_misses_{0};
  // Pre-resolved metric series: these paths hit hundreds of thousands of
  // times per matrix run, so the per-hit cost must stay one relaxed
  // atomic (site-labeled hit series are pre-resolved per entry; the rare
  // miss paths take the registry lookup).
  obs::SeriesHandle search_hits_counter_{"resolver.search_hits", {}};
  obs::SeriesHandle search_misses_counter_{"resolver.search_misses", {}};
  obs::SeriesHandle ldd_hits_counter_{"resolver.ldd_hits", {}};
  obs::SeriesHandle ldd_misses_counter_{"resolver.ldd_misses", {}};
  obs::SeriesHandle ldd_bytes_saved_{"resolver.ldd_bytes_saved", {}};
  obs::SeriesHandle parse_hits_counter_{"resolver.parse_hits", {}};
  obs::SeriesHandle parse_misses_counter_{"resolver.parse_misses", {}};
  obs::SeriesHandle parse_bytes_saved_{"resolver.parse_bytes_saved", {}};
  // Parse entries serve every site, so hits are labeled by the site that
  // looks up, not the one that filled the entry.
  obs::SiteSeriesCache parse_site_hits_{"cache.hits", "resolver.parse"};
  // Estimated retained bytes per memo, mirrored into the process-wide
  // cache.bytes{cache=resolver.search|resolver.ldd|resolver.parse}
  // gauges. Shadowed (stale) entries stay retained, so footprints only
  // grow while the cache lives. Blob payloads are shared with the VFS
  // and are not counted.
  obs::Gauge& search_bytes_gauge_;
  obs::Gauge& ldd_bytes_gauge_;
  obs::Gauge& parse_bytes_gauge_;
  std::atomic<std::uint64_t> search_footprint_{0};
  std::atomic<std::uint64_t> ldd_footprint_{0};
  std::atomic<std::uint64_t> parse_footprint_{0};
};

}  // namespace feam::binutils
