// EvidenceSet semantics the run-record provenance section leans on:
// exact dedup, order-normalization (any insertion order serializes the
// same), the kMaxItems/kMaxDetail/kHardCap bounds, JSON round trips, and
// the thread-local scope/capture/replay recording frames that let caches
// store evidence and replay it byte-identically on hits.
#include "obs/provenance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace feam::obs {
namespace {

Evidence make(const std::string& stage, const std::string& subject,
              std::uint64_t stamp) {
  Evidence e;
  e.stage = stage;
  e.kind = "file";
  e.site = "site-a";
  e.subject = subject;
  e.detail = "detail of " + subject;
  e.stamp = stamp;
  return e;
}

TEST(Provenance, ExactDuplicatesCollapse) {
  EvidenceSet set;
  set.add(make("edc", "/usr/lib/libc.so.6", 7));
  set.add(make("edc", "/usr/lib/libc.so.6", 7));
  EXPECT_EQ(set.distinct(), 1u);
  EXPECT_EQ(set.dropped(), 0u);

  // A different stamp is different evidence, not a duplicate.
  set.add(make("edc", "/usr/lib/libc.so.6", 8));
  EXPECT_EQ(set.distinct(), 2u);
}

TEST(Provenance, SerializationIsInsertionOrderIndependent) {
  std::vector<Evidence> items;
  for (int i = 0; i < 40; ++i) {
    items.push_back(make(i % 2 == 0 ? "edc" : "bdc",
                         "/path/" + std::to_string(i),
                         static_cast<std::uint64_t>(i * 31)));
  }
  EvidenceSet forward;
  for (const auto& e : items) forward.add(e);

  std::mt19937 rng(20130613);
  std::shuffle(items.begin(), items.end(), rng);
  EvidenceSet shuffled;
  for (const auto& e : items) shuffled.add(e);

  EXPECT_TRUE(forward == shuffled);
  EXPECT_EQ(forward.to_json().dump(), shuffled.to_json().dump());
}

TEST(Provenance, SerializationCapCountsDropped) {
  EvidenceSet set;
  const std::size_t n = EvidenceSet::kMaxItems + 17;
  for (std::size_t i = 0; i < n; ++i) {
    set.add(make("edc", "/p/" + std::to_string(i), i));
  }
  EXPECT_EQ(set.distinct(), n);
  EXPECT_EQ(set.dropped(), 17u);
  EXPECT_EQ(set.items().size(), EvidenceSet::kMaxItems);

  const auto j = set.to_json();
  EXPECT_EQ(j["evidence"].as_array().size(), EvidenceSet::kMaxItems);
  EXPECT_EQ(j.get_int("dropped"), 17);
}

TEST(Provenance, HardCapRefusesNewItemsButCountsThem) {
  EvidenceSet set;
  for (std::size_t i = 0; i < EvidenceSet::kHardCap + 3; ++i) {
    set.add(make("edc", "/p/" + std::to_string(i), i));
  }
  EXPECT_EQ(set.distinct(), EvidenceSet::kHardCap);
  // Overflow plus the items beyond the serialization bound.
  EXPECT_EQ(set.dropped(), 3u + (EvidenceSet::kHardCap -
                                 EvidenceSet::kMaxItems));
  // Re-adding an already retained item is not an overflow.
  const auto before = set.dropped();
  set.add(make("edc", "/p/0", 0));
  EXPECT_EQ(set.dropped(), before);
}

TEST(Provenance, DetailTruncatedOnAdd) {
  Evidence e = make("bdc", "/bin/app", 1);
  e.detail.assign(EvidenceSet::kMaxDetail + 50, 'x');
  EvidenceSet set;
  set.add(e);
  ASSERT_EQ(set.items().size(), 1u);
  EXPECT_EQ(set.items().front().detail.size(), EvidenceSet::kMaxDetail);
  EXPECT_TRUE(set.validate().empty());
}

TEST(Provenance, JsonRoundTripIsByteStable) {
  EvidenceSet set;
  for (int i = 0; i < 9; ++i) {
    set.add(make(i % 3 == 0 ? "tec.isa" : "resolver",
                 "/lib/" + std::to_string(i),
                 0xdeadbeef00ull + static_cast<std::uint64_t>(i)));
  }
  const std::string dumped = set.to_json().dump();
  const auto reparsed = EvidenceSet::from_json(*support::Json::parse(dumped));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(*reparsed == set);
  EXPECT_EQ(reparsed->to_json().dump(), dumped);
}

TEST(Provenance, FromJsonRejectsMalformedDocuments) {
  const auto reject = [](const char* text) {
    const auto j = support::Json::parse(text);
    ASSERT_TRUE(j.has_value()) << text;
    EXPECT_FALSE(EvidenceSet::from_json(*j).has_value()) << text;
  };
  reject("{}");  // no schema
  reject(R"({"schema":"feam.provenance/2","dropped":0,"evidence":[]})");
  reject(R"({"schema":"feam.provenance/1","dropped":0})");  // no evidence
  reject(R"({"schema":"feam.provenance/1","evidence":[]})");  // no dropped
  // Item missing its stage.
  reject(R"({"schema":"feam.provenance/1","dropped":0,"evidence":[
    {"kind":"file","site":"s","subject":"/p","detail":"","stamp":
     "0000000000000001"}]})");
  // Stamp not 16 lowercase hex digits.
  reject(R"({"schema":"feam.provenance/1","dropped":0,"evidence":[
    {"stage":"edc","kind":"file","site":"s","subject":"/p","detail":"",
     "stamp":"123"}]})");
  reject(R"({"schema":"feam.provenance/1","dropped":0,"evidence":[
    {"stage":"edc","kind":"file","site":"s","subject":"/p","detail":"",
     "stamp":"00000000000000ZZ"}]})");
}

TEST(Provenance, RecordingIsNoOpWithoutAScope) {
  EXPECT_FALSE(provenance_active());
  record_evidence(make("edc", "/nowhere", 1));  // must not crash
}

TEST(Provenance, ScopeRoutesAndCaptureTees) {
  EvidenceSet outer;
  {
    ProvenanceScope scope(outer);
    EXPECT_TRUE(provenance_active());
    record_evidence(make("edc", "/before", 1));

    std::vector<Evidence> captured;
    {
      EvidenceCapture capture;
      record_evidence(make("edc", "/teed", 2));
      captured = capture.take();
    }
    // The capture saw only the evidence recorded inside it…
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0].subject, "/teed");
    record_evidence(make("edc", "/after", 3));
  }
  EXPECT_FALSE(provenance_active());
  // …while the enclosing scope saw everything, teed items included.
  EXPECT_EQ(outer.distinct(), 3u);
}

TEST(Provenance, CaptureAloneActivatesRecording) {
  // A cache filling its entry outside any evaluation scope still captures
  // evidence — provenance_active() gates on any frame, not just scopes.
  EXPECT_FALSE(provenance_active());
  EvidenceCapture capture;
  EXPECT_TRUE(provenance_active());
  record_evidence(make("bdc", "/bin/app", 4));
  EXPECT_EQ(capture.take().size(), 1u);
}

TEST(Provenance, ReplayedEvidenceSerializesIdenticallyToFresh) {
  // The cache-hit contract: evidence captured at fill time and replayed on
  // a hit must serialize byte-identically to the freshly recorded set.
  std::vector<Evidence> stored;
  EvidenceSet fresh;
  {
    ProvenanceScope scope(fresh);
    EvidenceCapture capture;
    record_evidence(make("edc", "/usr/bin/mpicc", 11));
    record_evidence(make("edc", "/etc/modules", 12));
    stored = capture.take();
  }
  EvidenceSet replayed;
  {
    ProvenanceScope scope(replayed);
    replay_evidence(stored);
    // A hit may replay more than once (double discovery per pair); dedup
    // keeps the serialized bytes identical.
    replay_evidence(stored);
  }
  EXPECT_TRUE(replayed == fresh);
  EXPECT_EQ(replayed.to_json().dump(), fresh.to_json().dump());
}

TEST(Provenance, EvidenceBytesSumsPayloads) {
  const std::vector<Evidence> items = {make("edc", "/a", 1),
                                       make("edc", "/bb", 2)};
  const std::uint64_t expected =
      2 * sizeof(Evidence) + items[0].stage.size() + items[0].kind.size() +
      items[0].site.size() + items[0].subject.size() +
      items[0].detail.size() + items[1].stage.size() + items[1].kind.size() +
      items[1].site.size() + items[1].subject.size() + items[1].detail.size();
  EXPECT_EQ(evidence_bytes(items), expected);
}

}  // namespace
}  // namespace feam::obs
