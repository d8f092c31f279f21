// The one memo table behind every FEAM cache: BDC descriptions, EDC
// scans, the resolver's searches, ldd transcripts and ELF parses, and the
// per-binary source phase.
//
// Entries live on a support::StripedMap under a 64-bit key fingerprint,
// so a hit is one lock-free chain walk and a published entry never moves.
// Each cache supplies only what is its own: the key fingerprint, the
// Entry type (which reports its retained bytes via footprint()), and the
// `answers` predicate, which re-verifies the entry's stored identity (a
// fingerprint collision degrades to a miss, never a wrong answer) and,
// where entries go stale, its validity stamps. A stale entry is never
// unlinked: the next fill shadows it, and pointers to it stay valid.
//
// The memo owns the rest, with one counting rule for every cache:
//   * every lookup that reaches a memo counts exactly one hit (find) or
//     one miss (fill, or miss() for a result that may not be stored), in
//     hits()/misses() and in cache.hits|cache.misses{cache,site} labeled
//     by the looking-up site;
//   * a computation whose FaultWitness fired goes back to its caller,
//     counts as a miss and is never stored — it saw a site view that
//     never existed (serving an existing entry under faults is safe);
//   * cache.bytes{cache} carries every published entry's footprint(),
//     shadowed ones included, until the memo dies.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "site/fault.hpp"
#include "support/striped_map.hpp"

namespace feam::site {

template <typename Entry>
class Memo {
 public:
  explicit Memo(std::string_view cache)
      : hit_series_("cache.hits", std::string(cache)),
        miss_series_("cache.misses", std::string(cache)),
        footprint_gauge_(obs::gauge("cache.bytes", {.cache = cache})) {}
  ~Memo() { footprint_gauge_.sub(footprint_.load(std::memory_order_relaxed)); }

  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  // Lock-free: the newest entry under `key` that `answers`, counted as a
  // hit for `site`; nullptr (and nothing counted) when none does.
  template <typename Answers>
  const Entry* find(std::uint64_t key, std::string_view site,
                    Answers&& answers) {
    const Entry* entry = entries_.find_if(key, answers);
    if (entry != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit_series_.at(site).add();
    }
    return entry;
  }

  // Counts a miss for `site`, then publishes make()'s entry unless
  // `witness` fired; returns nullptr in that case. make() runs under a
  // shard lock and only when no entry answers by then, so racing fills of
  // one key publish one entry and every caller gets it.
  template <typename Answers, typename Make>
  const Entry* fill(std::uint64_t key, std::string_view site,
                    const FaultWitness& witness, Answers&& answers,
                    Make&& make) {
    miss(site);
    if (witness.fired()) return nullptr;
    const auto [entry, inserted] = entries_.get_or_insert_if(
        key, std::forward<Answers>(answers), std::forward<Make>(make));
    if (inserted) {
      const std::uint64_t bytes = entry->footprint();
      footprint_.fetch_add(bytes, std::memory_order_relaxed);
      footprint_gauge_.add(bytes);
    }
    return entry;
  }

  // Counts a lookup whose result may not be stored (a failed describe).
  void miss(std::string_view site) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_series_.at(site).add();
  }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  support::StripedMap<std::uint64_t, Entry> entries_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> footprint_{0};
  obs::SiteSeriesCache hit_series_;
  obs::SiteSeriesCache miss_series_;
  obs::Gauge& footprint_gauge_;
};

}  // namespace feam::site
