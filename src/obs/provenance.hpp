// Evidence provenance: the "why" behind every readiness verdict.
//
// The span/metrics stack observes time and memory; this module observes
// decisions. Each determinant (BDC, EDC, TEC) and the resolver records the
// exact evidence it consulted — file contents, probe outputs, module
// states, search-directory walks, ldd transcripts — into the evaluation's
// EvidenceSet, which travels on the Prediction and serializes as the
// additive `provenance` section of `feam.run_record/1`.
//
// Determinism contract: every stamp is a content-derived FNV-1a hash of
// what was observed (bytes, probe output, directory lists), never a raw
// Vfs file-version or system-generation counter — those are process-global
// atomics whose values depend on scheduling, and provenance must be
// byte-identical across job counts and across cached/uncached runs.
//
// Cache-replay contract: memo entries either carry the evidence captured
// at fill time and replay it verbatim on a hit (EdcMemo), or re-derive the
// identical items from the data a hit already has in hand (BdcCache's
// stored description stamp, the resolver's search key + memoized result).
// EvidenceSet normalizes order (full lexicographic sort) and deduplicates
// exact repeats, so replayed and freshly recorded evidence collapse to the
// same serialized bytes regardless of arrival order.
//
// Cardinality bounds: at most kMaxItems evidence items serialize per
// verdict (sorted order wins; the overflow is counted in `dropped`), each
// detail string is truncated to kMaxDetail bytes, and an evaluation
// retains at most kHardCap distinct items in memory.
#pragma once

#include <cstdint>
#include <ranges>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace feam::obs {

inline constexpr std::string_view kProvenanceSchema = "feam.provenance/1";

// One observation consulted while producing a verdict.
//   stage:   which component looked ("bdc", "edc", "resolver", "tec",
//            "tec.<determinant key>").
//   kind:    what was looked at ("binary", "file", "probe", "stack",
//            "env", "search", "ldd", "verdict", "bundle").
//   site:    site name the observation was made at.
//   subject: the path / probe name / stack id / soname examined.
//   detail:  bounded human-readable summary of what was seen.
//   stamp:   content-derived FNV-1a hash of the observed value.
struct Evidence {
  std::string stage;
  std::string kind;
  std::string site;
  std::string subject;
  std::string detail;
  std::uint64_t stamp = 0;

  friend bool operator<(const Evidence& a, const Evidence& b) {
    if (a.stage != b.stage) return a.stage < b.stage;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.site != b.site) return a.site < b.site;
    if (a.subject != b.subject) return a.subject < b.subject;
    if (a.detail != b.detail) return a.detail < b.detail;
    return a.stamp < b.stamp;
  }
  friend bool operator==(const Evidence& a, const Evidence& b) {
    return a.stage == b.stage && a.kind == b.kind && a.site == b.site &&
           a.subject == b.subject && a.detail == b.detail &&
           a.stamp == b.stamp;
  }

  // "0123456789abcdef" — stamps serialize as fixed-width hex strings
  // because JSON numbers are doubles and cannot carry 64 bits.
  std::string stamp_hex() const;
};

// A bounded, deduplicated, order-normalized set of Evidence. Insertion
// order never matters: items() is always the lexicographically first
// kMaxItems distinct items, so concurrent recording orders, cache replay,
// and fresh evaluation all serialize identically.
class EvidenceSet {
 public:
  // Serialized cardinality bound per verdict.
  static constexpr std::size_t kMaxItems = 128;
  // Detail strings are truncated to this many bytes on add().
  static constexpr std::size_t kMaxDetail = 160;
  // In-memory safety valve: distinct items beyond this are counted but
  // not retained (unreachable in practice — see ARCHITECTURE.md).
  static constexpr std::size_t kHardCap = 4096;

  void add(Evidence e);
  void merge(const EvidenceSet& other);
  void clear();

  bool empty() const { return items_.empty(); }
  // Distinct items retained (before the kMaxItems serialization cut).
  std::size_t distinct() const { return items_.size(); }
  // Items beyond the serialization bound (plus any past the hard cap).
  std::uint64_t dropped() const;

  // Sorted, capped view — exactly what serializes — over the set's own
  // items; valid until the set next changes.
  using ItemView = std::ranges::subrange<std::set<Evidence>::const_iterator,
                                         std::set<Evidence>::const_iterator,
                                         std::ranges::subrange_kind::sized>;
  ItemView items() const;

  // The tree form; write_json streams the same bytes as to_json().dump().
  support::Json to_json() const;
  void write_json(support::JsonWriter& w) const;
  static std::optional<EvidenceSet> from_json(const support::Json& j);

  // Internal-consistency issues of a deserialized set (empty when OK).
  std::vector<std::string> validate() const;

  friend bool operator==(const EvidenceSet& a, const EvidenceSet& b) {
    return a.items_ == b.items_ && a.overflow_ == b.overflow_;
  }

 private:
  std::set<Evidence> items_;
  std::uint64_t overflow_ = 0;  // adds refused by the hard cap
};

// ------------------------------------------------------------ recording

// Recording is ambient per thread so components record without signature
// churn (the obs::Span idiom): a ProvenanceScope routes record_evidence()
// calls on this thread into its EvidenceSet; an EvidenceCapture frame
// additionally tees a copy for a cache to store, while still forwarding
// to the enclosing scope. With no scope active, recording is a no-op —
// call provenance_active() before building evidence strings on hot paths.

bool provenance_active();
void record_evidence(Evidence e);
void replay_evidence(const std::vector<Evidence>& items);

class ProvenanceScope {
 public:
  explicit ProvenanceScope(EvidenceSet& target);
  ~ProvenanceScope();
  ProvenanceScope(const ProvenanceScope&) = delete;
  ProvenanceScope& operator=(const ProvenanceScope&) = delete;

 private:
  void* frame_;
};

class EvidenceCapture {
 public:
  EvidenceCapture();
  ~EvidenceCapture();
  EvidenceCapture(const EvidenceCapture&) = delete;
  EvidenceCapture& operator=(const EvidenceCapture&) = delete;

  // The evidence recorded on this thread while the frame was active.
  std::vector<Evidence> take();

 private:
  std::vector<Evidence> captured_;
  void* frame_;
};

// Payload bytes a captured evidence vector retains (for cache footprint
// gauges).
std::uint64_t evidence_bytes(const std::vector<Evidence>& items);

}  // namespace feam::obs
