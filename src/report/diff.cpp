#include "report/diff.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "support/strings.hpp"

namespace feam::report {

namespace {

using support::Json;

Json evidence_json(const obs::Evidence& e) {
  Json out;
  out.set("stage", e.stage);
  out.set("kind", e.kind);
  out.set("site", e.site);
  out.set("subject", e.subject);
  out.set("detail", e.detail);
  out.set("stamp", e.stamp_hex());
  return out;
}

std::string evidence_line(const obs::Evidence& e) {
  std::string out = "[" + e.stage + "/" + e.kind + "] " + e.subject;
  if (!e.detail.empty()) out += ": " + e.detail;
  return out;
}

// Causal ordering for explain(): the verdicts themselves, then the
// resolver walks they rest on, then the environment scan, then the binary
// description. Within a rank, EvidenceSet order (lexicographic) holds.
int stage_rank(const obs::Evidence& e) {
  if (support::starts_with(e.stage, "tec")) return 0;
  if (e.stage == "resolver") return 1;
  if (e.stage == "edc") return 2;
  if (e.stage == "bdc") return 3;
  return 4;
}

std::string verdict_word(bool ready) { return ready ? "READY" : "NOT READY"; }

std::optional<obs::Evidence> evidence_from_json(const Json& j) {
  if (!j.is_object()) return std::nullopt;
  obs::Evidence e;
  e.stage = j.get_string("stage");
  e.kind = j.get_string("kind");
  e.site = j.get_string("site");
  e.subject = j.get_string("subject");
  e.detail = j.get_string("detail");
  if (e.stage.empty() || e.kind.empty()) return std::nullopt;
  e.stamp = std::strtoull(j.get_string("stamp").c_str(), nullptr, 16);
  return e;
}

}  // namespace

std::vector<DriftLogEntry> parse_drift_log(std::string_view jsonl) {
  std::vector<DriftLogEntry> out;
  for (const auto& line : support::split(jsonl, '\n')) {
    if (support::trim(line).empty()) continue;
    const auto parsed = Json::parse(line);
    if (!parsed || !parsed->is_object()) continue;
    if (parsed->get_string("schema") != "feam.drift_log/1") continue;
    DriftLogEntry entry;
    entry.round = static_cast<int>(parsed->get_int("round"));
    entry.site_index = static_cast<int>(parsed->get_int("site_index"));
    entry.site = parsed->get_string("site");
    entry.kind = parsed->get_string("kind");
    entry.detail = parsed->get_string("detail");
    out.push_back(std::move(entry));
  }
  return out;
}

std::size_t DiffResult::unattributed_flips() const {
  std::size_t n = 0;
  for (const auto& flip : flips) {
    if (!flip.attributed()) ++n;
  }
  return n;
}

support::Json DiffResult::to_json() const {
  Json out;
  out.set("schema", std::string(kDiffSchema));
  out.set("pairs_compared", static_cast<std::int64_t>(pairs_compared));
  out.set("only_in_a", static_cast<std::int64_t>(only_in_a));
  out.set("only_in_b", static_cast<std::int64_t>(only_in_b));
  out.set("flips", static_cast<std::int64_t>(flips.size()));
  out.set("unattributed_flips",
          static_cast<std::int64_t>(unattributed_flips()));
  Json::Array flip_array;
  for (const auto& flip : flips) {
    Json f;
    f.set("binary", flip.binary);
    f.set("site", flip.target_site);
    f.set("workload_index", flip.workload_index);
    f.set("ready_a", flip.ready_a);
    f.set("ready_b", flip.ready_b);
    f.set("blocking_a", flip.blocking_a);
    f.set("blocking_b", flip.blocking_b);
    f.set("attributed", flip.attributed());
    Json::Array causes;
    for (const auto& cause : flip.causes) {
      Json c;
      c.set("round", cause.round);
      c.set("site", cause.site);
      c.set("kind", cause.kind);
      c.set("detail", cause.detail);
      causes.push_back(std::move(c));
    }
    f.set("causes", Json(std::move(causes)));
    Json::Array gained, lost;
    for (const auto& e : flip.evidence_gained) {
      gained.push_back(evidence_json(e));
    }
    for (const auto& e : flip.evidence_lost) lost.push_back(evidence_json(e));
    f.set("evidence_gained", Json(std::move(gained)));
    f.set("evidence_lost", Json(std::move(lost)));
    flip_array.push_back(std::move(f));
  }
  out.set("flip_details", Json(std::move(flip_array)));
  return out;
}

std::optional<DiffResult> DiffResult::from_json(const support::Json& j) {
  if (!j.is_object() || j.get_string("schema") != kDiffSchema) {
    return std::nullopt;
  }
  DiffResult r;
  r.pairs_compared = static_cast<std::size_t>(j.get_int("pairs_compared"));
  r.only_in_a = static_cast<std::size_t>(j.get_int("only_in_a"));
  r.only_in_b = static_cast<std::size_t>(j.get_int("only_in_b"));
  if (j["flip_details"].is_array()) {
    for (const auto& f : j["flip_details"].as_array()) {
      VerdictFlip flip;
      flip.binary = f.get_string("binary");
      flip.target_site = f.get_string("site");
      flip.workload_index = static_cast<int>(f.get_int("workload_index"));
      flip.ready_a = f.get_bool("ready_a");
      flip.ready_b = f.get_bool("ready_b");
      flip.blocking_a = f.get_string("blocking_a");
      flip.blocking_b = f.get_string("blocking_b");
      if (f["causes"].is_array()) {
        for (const auto& c : f["causes"].as_array()) {
          DriftLogEntry cause;
          cause.round = static_cast<int>(c.get_int("round"));
          cause.site = c.get_string("site");
          cause.kind = c.get_string("kind");
          cause.detail = c.get_string("detail");
          flip.causes.push_back(std::move(cause));
        }
      }
      const std::pair<const char*, std::vector<obs::Evidence>*> deltas[] = {
          {"evidence_gained", &flip.evidence_gained},
          {"evidence_lost", &flip.evidence_lost}};
      for (const auto& [field, target] : deltas) {
        if (!f[field].is_array()) continue;
        for (const auto& e : f[field].as_array()) {
          if (auto parsed = evidence_from_json(e)) {
            target->push_back(std::move(*parsed));
          }
        }
      }
      r.flips.push_back(std::move(flip));
    }
  }
  return r;
}

std::string render_churn_panel(const std::vector<DiffResult>& diffs) {
  std::size_t pairs = 0, flips = 0, unattributed = 0;
  std::size_t went_ready = 0, went_blocked = 0, blocker_changed = 0;
  std::map<std::string, std::size_t> cause_kinds;
  for (const auto& diff : diffs) {
    pairs += diff.pairs_compared;
    flips += diff.flips.size();
    unattributed += diff.unattributed_flips();
    for (const auto& flip : diff.flips) {
      if (!flip.ready_a && flip.ready_b) ++went_ready;
      else if (flip.ready_a && !flip.ready_b) ++went_blocked;
      else ++blocker_changed;
      std::set<std::string> kinds;
      for (const auto& cause : flip.causes) kinds.insert(cause.kind);
      for (const auto& kind : kinds) ++cause_kinds[kind];
    }
  }
  std::string out = "verdict churn (" + std::to_string(diffs.size()) +
                    " diff artifact" + (diffs.size() == 1 ? "" : "s") +
                    ", " + std::to_string(pairs) + " pairs):\n";
  out += "  flips: " + std::to_string(flips) + " (" +
         std::to_string(went_ready) + " went ready, " +
         std::to_string(went_blocked) + " went blocked, " +
         std::to_string(blocker_changed) + " changed blocker)\n";
  out += "  unattributed: " + std::to_string(unattributed) + "\n";
  if (!cause_kinds.empty()) {
    out += "  attributed drift-op kinds:";
    for (const auto& [kind, count] : cause_kinds) {
      out += " " + kind + " x" + std::to_string(count);
    }
    out += "\n";
  }
  return out;
}

std::string DiffResult::render_text() const {
  std::string out = "diff: " + std::to_string(pairs_compared) +
                    " pairs compared";
  if (only_in_a != 0 || only_in_b != 0) {
    out += " (" + std::to_string(only_in_a) + " only in A, " +
           std::to_string(only_in_b) + " only in B)";
  }
  out += "\nverdict flips: " + std::to_string(flips.size()) +
         " (unattributed: " + std::to_string(unattributed_flips()) + ")\n";
  for (const auto& flip : flips) {
    out += "  " + flip.binary + " @ " + flip.target_site + " [workload " +
           std::to_string(flip.workload_index) + "]: " +
           verdict_word(flip.ready_a);
    if (!flip.blocking_a.empty()) out += " (" + flip.blocking_a + ")";
    out += " -> " + verdict_word(flip.ready_b);
    if (!flip.blocking_b.empty()) out += " (" + flip.blocking_b + ")";
    out += "\n";
    for (const auto& cause : flip.causes) {
      out += "      cause: round " + std::to_string(cause.round) + " " +
             cause.kind + " " + cause.detail + "\n";
    }
    if (flip.causes.empty()) out += "      cause: UNATTRIBUTED\n";
    out += "      evidence delta: +" +
           std::to_string(flip.evidence_gained.size()) + " / -" +
           std::to_string(flip.evidence_lost.size()) + " items\n";
  }
  return out;
}

DiffResult diff_records(const std::vector<RunRecord>& a,
                        const std::vector<RunRecord>& b,
                        const std::vector<DriftLogEntry>& drift_log) {
  DiffResult result;

  using PairKey = std::pair<std::string, std::string>;  // binary, site
  std::map<PairKey, const RunRecord*> index_b;
  for (const auto& record : b) {
    index_b.emplace(PairKey{record.binary, record.target_site}, &record);
  }

  // Workload ordinals: first-appearance order of each binary, stream A
  // first (fleet records are workload-major, so this reproduces the
  // generator's workload index), stream B for binaries A never saw.
  std::map<std::string, int> workload_index;
  for (const auto* stream : {&a, &b}) {
    for (const auto& record : *stream) {
      workload_index.emplace(record.binary,
                             static_cast<int>(workload_index.size()));
    }
  }

  std::set<PairKey> seen_a;
  for (const auto& record : a) {
    const PairKey key{record.binary, record.target_site};
    if (!seen_a.insert(key).second) continue;  // first occurrence wins
    const auto it = index_b.find(key);
    if (it == index_b.end()) {
      ++result.only_in_a;
      continue;
    }
    ++result.pairs_compared;
    const RunRecord& other = *it->second;
    const std::string blocking_a = record.blocking_determinant();
    const std::string blocking_b = other.blocking_determinant();
    if (record.ready == other.ready && blocking_a == blocking_b) continue;

    VerdictFlip flip;
    flip.binary = record.binary;
    flip.target_site = record.target_site;
    flip.workload_index = workload_index[record.binary];
    flip.ready_a = record.ready;
    flip.ready_b = other.ready;
    flip.blocking_a = blocking_a;
    flip.blocking_b = blocking_b;

    // Both views are in set order, as set_difference needs.
    const auto items_a = record.provenance.items();
    const auto items_b = other.provenance.items();
    std::set_difference(items_b.begin(), items_b.end(), items_a.begin(),
                        items_a.end(),
                        std::back_inserter(flip.evidence_gained));
    std::set_difference(items_a.begin(), items_a.end(), items_b.begin(),
                        items_b.end(),
                        std::back_inserter(flip.evidence_lost));

    for (const auto& op : drift_log) {
      if (op.site == record.target_site && op.round < flip.workload_index) {
        flip.causes.push_back(op);
      }
    }
    result.flips.push_back(std::move(flip));
  }
  result.only_in_b = b.size() >= result.pairs_compared
                         ? index_b.size() - result.pairs_compared
                         : 0;
  return result;
}

std::string render_explain(const RunRecord& record) {
  std::string out = record.binary + " @ " + record.target_site + ": " +
                    verdict_word(record.ready);
  const std::string blocking = record.blocking_determinant();
  if (!blocking.empty()) out += " — blocked by " + blocking;
  out += "\n\nverdict chain:\n";
  for (const auto& det : record.determinants) {
    out += "  [" + det.key + "] ";
    if (!det.evaluated) {
      out += "skipped (short-circuited)";
    } else {
      out += det.compatible ? "compatible" : "incompatible";
    }
    if (!det.detail.empty()) out += " — " + det.detail;
    out += "\n";
  }

  const auto view = record.provenance.items();
  std::vector<obs::Evidence> items(view.begin(), view.end());
  if (items.empty()) {
    out += "\nno provenance recorded (record predates feam.provenance/1)\n";
    return out;
  }
  // Causal order: the blocking determinant's own verdicts first, then the
  // remaining evidence staged tec.* -> resolver -> edc -> bdc.
  std::stable_sort(items.begin(), items.end(),
                   [&](const obs::Evidence& x, const obs::Evidence& y) {
                     const bool xb = !blocking.empty() &&
                                     x.stage == "tec." + blocking;
                     const bool yb = !blocking.empty() &&
                                     y.stage == "tec." + blocking;
                     if (xb != yb) return xb;
                     return stage_rank(x) < stage_rank(y);
                   });
  out += "\nevidence (" + std::to_string(record.provenance.distinct()) +
         " items";
  if (record.provenance.dropped() != 0) {
    out += ", " + std::to_string(record.provenance.dropped()) + " dropped";
  }
  out += "):\n";
  for (const auto& e : items) {
    out += "  " + evidence_line(e) + "  <" + e.stamp_hex() + ">\n";
  }
  return out;
}

}  // namespace feam::report
