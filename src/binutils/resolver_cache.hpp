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
// All three sit on site::Memo (site/memo.hpp): hits are lock-free,
// writers stripe across shards, published entries never move (so
// parsed_elf's returned pointers stay valid for the cache's lifetime),
// and the memo owns the hit/miss accounting, the cache.bytes footprint
// and the rule that a faulted computation is never stored. Each 64-bit
// key is a fingerprint of the logical key; every lookup re-verifies the
// entry's stored identity, so fingerprint collisions degrade to misses,
// never wrong answers.
//
// read_elf is the one way a component reads an ELF image from a site:
// clean reads parse through the memo, while uncached runs and reads
// touched by fault injection parse privately.
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
#include "site/fault.hpp"
#include "site/memo.hpp"
#include "site/site.hpp"
#include "support/blob.hpp"
#include "support/result.hpp"

namespace feam::binutils {

class ResolverCache {
 public:
  // search_library's walk over `dirs`, memoized: `dirs` must be the fully
  // assembled search order (extra + rpath + LD_LIBRARY_PATH + defaults) —
  // it is part of the key. A miss runs walk() and stores its result
  // unless fault injection touched the walk.
  template <typename Walk>
  std::optional<std::string> search(const site::Site& host,
                                    std::string_view soname, int bits,
                                    const std::vector<std::string>& dirs,
                                    Walk&& walk) {
    if (const SearchEntry* entry = find_search(host, soname, bits, dirs)) {
      return entry->result;
    }
    const site::FaultWitness witness;
    std::optional<std::string> found = walk();
    store_search(host, soname, bits, dirs, found, witness);
    return found;
  }

  // ldd's transcript of `path` under the current shell, memoized the same
  // way: a miss runs run() and stores its text unless a fault touched it.
  template <typename Run>
  support::Result<std::string> ldd_text(const site::Site& host,
                                        std::string_view path, bool verbose,
                                        Run&& run) {
    using R = support::Result<std::string>;
    if (const LddEntry* entry = find_ldd(host, path, verbose)) {
      return entry->ok ? R(entry->payload) : R::failure(entry->payload);
    }
    const site::FaultWitness witness;
    R text = run();
    store_ldd(host, path, verbose, text, witness);
    return text;
  }

  // Parsed view of the ELF image `data` (a blob `host`'s VFS returned from
  // a clean read), memoized on the blob's identity; `host` labels the hit
  // and miss series. Returns nullptr when the image is not valid ELF. The
  // pointer stays valid for the cache's lifetime: entries are never
  // evicted — a rewritten file holds a new blob and gets its own entry.
  // The returned ElfFile's string views borrow the blob, which the entry
  // holds, so the view survives the VFS node being rewritten or removed.
  // A failed parse borrows nothing and keeps only the blob's identity,
  // not its bytes.
  const elf::ElfFile* parsed_elf(const site::Site& host,
                                 const support::Blob& data);

  // Combined totals across the three memos.
  std::uint64_t hits() const {
    return search_.hits() + ldd_.hits() + parsed_.hits();
  }
  std::uint64_t misses() const {
    return search_.misses() + ldd_.misses() + parsed_.misses();
  }

  // Per-memo splits: the search walk, the ldd transcript memo, and the
  // parsed-ELF memo hit very differently (a cold parse costs ~1000x a
  // cold search), so folding them into one number hides exactly the
  // attribution a hit-rate investigation needs.
  std::uint64_t search_hits() const { return search_.hits(); }
  std::uint64_t search_misses() const { return search_.misses(); }
  std::uint64_t ldd_hits() const { return ldd_.hits(); }
  std::uint64_t ldd_misses() const { return ldd_.misses(); }
  std::uint64_t parse_hits() const { return parsed_.hits(); }
  std::uint64_t parse_misses() const { return parsed_.misses(); }

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
    // Atomics aren't movable, so entries are built in place.
    mutable std::atomic<std::uint64_t> checked_system_generation{0};

    // True while every candidate stamp still holds on `host`.
    bool fresh(const site::Site& host) const;
    std::uint64_t footprint() const;
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

    bool fresh(const site::Site& host) const;
    std::uint64_t footprint() const;
  };

  struct ParseEntry {
    // The blob this entry describes, compared by ownership: a weak
    // reference pins the identity without keeping the bytes alive.
    std::weak_ptr<const support::Bytes> identity;
    // The bytes `parsed`'s string views borrow; null after a failed
    // parse, which borrows nothing.
    support::Blob bytes;
    std::optional<elf::ElfFile> parsed;  // nullopt caches a parse failure
    std::uint64_t footprint() const;
  };

  const SearchEntry* find_search(const site::Site& host,
                                 std::string_view soname, int bits,
                                 const std::vector<std::string>& dirs);
  void store_search(const site::Site& host, std::string_view soname, int bits,
                    const std::vector<std::string>& dirs,
                    std::optional<std::string> result,
                    const site::FaultWitness& witness);
  const LddEntry* find_ldd(const site::Site& host, std::string_view path,
                           bool verbose);
  void store_ldd(const site::Site& host, std::string_view path, bool verbose,
                 const support::Result<std::string>& text,
                 const site::FaultWitness& witness);

  site::Memo<SearchEntry> search_{"resolver.search"};
  site::Memo<LddEntry> ldd_{"resolver.ldd"};
  // Parse entries serve every site, so hits are labeled by the site that
  // looks up, not the one that filled the entry.
  site::Memo<ParseEntry> parsed_{"resolver.parse"};
};

// An ELF image read from a site. `elf` is null when the read failed or
// the bytes are not valid ELF; otherwise it lives in the cache's parse
// memo or, for an uncached or faulted read, in `owned`, whose views
// borrow `bytes`. Moving the image keeps `elf` valid.
struct ElfImage {
  support::Blob bytes;
  const elf::ElfFile* elf = nullptr;
  std::unique_ptr<const elf::ElfFile> owned;
};

// Reads `path` on `host` and parses it: through `cache`'s parse memo when
// one is given and no fault touched the read, privately otherwise, so
// faulted bytes never reach the memo.
ElfImage read_elf(const site::Site& host, std::string_view path,
                  ResolverCache* cache);

}  // namespace feam::binutils
