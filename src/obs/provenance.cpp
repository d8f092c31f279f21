#include "obs/provenance.hpp"

#include <iterator>

namespace feam::obs {

namespace {

// Innermost-first chain of active recording frames on this thread. Each
// record_evidence() call visits every frame: scope frames accumulate into
// their EvidenceSet, capture frames tee into their vector. A capture
// frame therefore never hides evidence from the enclosing evaluation —
// the cache stores a copy while the live verdict still sees it.
struct Frame {
  EvidenceSet* set = nullptr;
  std::vector<Evidence>* tee = nullptr;
  Frame* prev = nullptr;
};

thread_local Frame* tl_frames = nullptr;

bool parse_stamp_hex(std::string_view hex, std::uint64_t& out) {
  if (hex.size() != 16) return false;
  std::uint64_t value = 0;
  for (const char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return false;
  }
  out = value;
  return true;
}

// Fixed-width lowercase hex of a stamp.
void format_stamp(std::uint64_t stamp, char (&hex)[16]) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    hex[i] = kDigits[stamp & 0xf];
    stamp >>= 4;
  }
}

}  // namespace

std::string Evidence::stamp_hex() const {
  char hex[16];
  format_stamp(stamp, hex);
  return std::string(hex, sizeof hex);
}

void EvidenceSet::add(Evidence e) {
  if (e.detail.size() > kMaxDetail) e.detail.resize(kMaxDetail);
  if (items_.size() >= kHardCap && items_.find(e) == items_.end()) {
    ++overflow_;
    return;
  }
  items_.insert(std::move(e));
}

void EvidenceSet::merge(const EvidenceSet& other) {
  for (const auto& e : other.items_) add(e);
  overflow_ += other.overflow_;
}

void EvidenceSet::clear() {
  items_.clear();
  overflow_ = 0;
}

std::uint64_t EvidenceSet::dropped() const {
  const std::uint64_t over_cap =
      items_.size() > kMaxItems ? items_.size() - kMaxItems : 0;
  return over_cap + overflow_;
}

EvidenceSet::ItemView EvidenceSet::items() const {
  if (items_.size() <= kMaxItems) {
    return {items_.begin(), items_.end(), items_.size()};
  }
  return {items_.begin(),
          std::next(items_.begin(), static_cast<std::ptrdiff_t>(kMaxItems)),
          kMaxItems};
}

support::Json EvidenceSet::to_json() const {
  support::Json out;
  out.set("schema", kProvenanceSchema);
  out.set("dropped", dropped());
  support::Json::Array evidence;
  for (const auto& e : items()) {
    support::Json item;
    item.set("stage", e.stage);
    item.set("kind", e.kind);
    item.set("site", e.site);
    item.set("subject", e.subject);
    item.set("detail", e.detail);
    item.set("stamp", e.stamp_hex());
    evidence.push_back(std::move(item));
  }
  out.set("evidence", support::Json(std::move(evidence)));
  return out;
}

void EvidenceSet::write_json(support::JsonWriter& w) const {
  // Keys in std::map order, as to_json() holds them.
  w.begin_object();
  w.key("dropped").number(dropped());
  w.key("evidence").begin_array();
  for (const Evidence& e : items()) {
    char stamp[16];
    format_stamp(e.stamp, stamp);
    w.begin_object()
        .key("detail").string(e.detail)
        .key("kind").string(e.kind)
        .key("site").string(e.site)
        .key("stage").string(e.stage)
        .key("stamp").string({stamp, sizeof stamp})
        .key("subject").string(e.subject)
        .end_object();
  }
  w.end_array();
  w.key("schema").string(kProvenanceSchema);
  w.end_object();
}

std::optional<EvidenceSet> EvidenceSet::from_json(const support::Json& j) {
  if (!j.is_object()) return std::nullopt;
  if (j.get_string("schema") != kProvenanceSchema) return std::nullopt;
  if (!j["evidence"].is_array()) return std::nullopt;
  EvidenceSet set;
  for (const auto& item : j["evidence"].as_array()) {
    if (!item.is_object()) return std::nullopt;
    Evidence e;
    e.stage = item.get_string("stage");
    e.kind = item.get_string("kind");
    e.site = item.get_string("site");
    e.subject = item.get_string("subject");
    e.detail = item.get_string("detail");
    if (!parse_stamp_hex(item.get_string("stamp"), e.stamp)) {
      return std::nullopt;
    }
    if (e.stage.empty() || e.kind.empty()) return std::nullopt;
    set.add(std::move(e));
  }
  // `dropped` records serialization-time truncation; a deserialized set
  // carries it through so round trips and validate() stay faithful.
  const std::int64_t dropped = j.get_int("dropped", -1);
  if (dropped < 0) return std::nullopt;
  set.overflow_ = static_cast<std::uint64_t>(dropped);
  return set;
}

std::vector<std::string> EvidenceSet::validate() const {
  std::vector<std::string> issues;
  if (items_.size() > kMaxItems) {
    issues.push_back("provenance holds " + std::to_string(items_.size()) +
                     " items, over the serialization bound of " +
                     std::to_string(kMaxItems));
  }
  for (const auto& e : items_) {
    if (e.stage.empty()) issues.push_back("evidence item with empty stage");
    if (e.kind.empty()) issues.push_back("evidence item with empty kind");
    if (e.detail.size() > kMaxDetail) {
      issues.push_back("evidence detail for '" + e.subject +
                       "' exceeds the " + std::to_string(kMaxDetail) +
                       "-byte bound");
    }
  }
  return issues;
}

bool provenance_active() { return tl_frames != nullptr; }

void record_evidence(Evidence e) {
  if (tl_frames == nullptr) return;
  for (Frame* f = tl_frames; f != nullptr; f = f->prev) {
    if (f->tee != nullptr) f->tee->push_back(e);
    if (f->set != nullptr) f->set->add(e);
  }
}

void replay_evidence(const std::vector<Evidence>& items) {
  if (tl_frames == nullptr) return;
  for (const auto& e : items) record_evidence(e);
}

ProvenanceScope::ProvenanceScope(EvidenceSet& target) {
  auto* frame = new Frame{&target, nullptr, tl_frames};
  tl_frames = frame;
  frame_ = frame;
}

ProvenanceScope::~ProvenanceScope() {
  auto* frame = static_cast<Frame*>(frame_);
  tl_frames = frame->prev;
  delete frame;
}

EvidenceCapture::EvidenceCapture() {
  auto* frame = new Frame{nullptr, &captured_, tl_frames};
  tl_frames = frame;
  frame_ = frame;
}

EvidenceCapture::~EvidenceCapture() {
  auto* frame = static_cast<Frame*>(frame_);
  tl_frames = frame->prev;
  delete frame;
}

std::vector<Evidence> EvidenceCapture::take() { return std::move(captured_); }

std::uint64_t evidence_bytes(const std::vector<Evidence>& items) {
  std::uint64_t total = 0;
  for (const auto& e : items) {
    total += sizeof(Evidence) + e.stage.size() + e.kind.size() +
             e.site.size() + e.subject.size() + e.detail.size();
  }
  return total;
}

}  // namespace feam::obs
