#include "report/run_record.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "support/thread_pool.hpp"

namespace feam::report {

namespace {

using support::Json;

std::optional<DeterminantKind> kind_for_key(std::string_view key) {
  if (key == "isa") return DeterminantKind::kIsa;
  if (key == "c_library") return DeterminantKind::kCLibrary;
  if (key == "mpi_stack") return DeterminantKind::kMpiStack;
  if (key == "shared_libraries") return DeterminantKind::kSharedLibraries;
  return std::nullopt;
}

}  // namespace

const char* determinant_key(DeterminantKind kind) {
  return determinant_slug(kind);  // one vocabulary: records match provenance
}

std::string RunRecord::blocking_determinant() const {
  if (!has_prediction || ready) return "";
  for (const auto& d : determinants) {
    if (d.evaluated && !d.compatible) return d.key;
  }
  return "?";
}

std::uint64_t RunRecord::span_duration_ns(std::string_view name) const {
  for (const auto& span : spans) {
    if (span.name == name) return span.duration_ns;
  }
  return 0;
}

support::Json RunRecord::to_json() const {
  Json out;
  out.set("schema", schema);
  out.set("command", command);
  out.set("binary", binary);
  out.set("source_site", source_site);
  out.set("target_site", target_site);
  out.set("mode", mode);
  out.set("exit_code", exit_code);
  out.set("has_prediction", has_prediction);
  out.set("ready", ready);

  Json::Array dets;
  for (const auto& d : determinants) {
    Json det;
    det.set("key", d.key);
    det.set("evaluated", d.evaluated);
    det.set("compatible", d.compatible);
    det.set("detail", d.detail);
    dets.push_back(std::move(det));
  }
  out.set("determinants", Json(std::move(dets)));
  out.set("missing_libraries", missing_libraries);
  out.set("resolved_libraries", resolved_libraries);
  out.set("unresolved_libraries", unresolved_libraries);
  out.set("bundle_bytes", bundle_bytes);

  Json::Array span_array;
  for (const auto& span : spans) {
    Json s;
    s.set("id", span.id);
    s.set("parent_id", span.parent_id);
    s.set("name", span.name);
    s.set("start_ns", span.start_ns);
    s.set("dur_ns", span.duration_ns);
    s.set("tid", span.tid);
    // Additive: absent on untracked runs so old records stay byte-equal.
    if (span.alloc_count != 0) {
      s.set("alloc_bytes", span.alloc_bytes);
      s.set("alloc_count", span.alloc_count);
    }
    span_array.push_back(std::move(s));
  }
  out.set("spans", Json(std::move(span_array)));

  if (profile) out.set("profile", profile->to_json());
  // Additive: absent when no evidence was recorded (older builds, or runs
  // without a prediction), keeping pre-provenance records byte-equal.
  if (!provenance.empty()) out.set("provenance", provenance.to_json());

  Json counter_obj{Json::Object{}};
  for (const auto& [name, value] : counters) counter_obj.set(name, value);
  out.set("counters", std::move(counter_obj));

  Json histogram_obj{Json::Object{}};
  for (const auto& [name, snapshot] : histograms) {
    histogram_obj.set(name, snapshot.to_json());
  }
  out.set("histograms", std::move(histogram_obj));
  return out;
}

void RunRecord::write_json(support::JsonWriter& w) const {
  // Keys in std::map order, as to_json() holds them.
  w.begin_object();
  w.key("binary").string(binary);
  w.key("bundle_bytes").number(bundle_bytes);
  w.key("command").string(command);
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters) w.key(name).number(value);
  w.end_object();
  w.key("determinants").begin_array();
  for (const auto& d : determinants) {
    w.begin_object()
        .key("compatible").boolean(d.compatible)
        .key("detail").string(d.detail)
        .key("evaluated").boolean(d.evaluated)
        .key("key").string(d.key)
        .end_object();
  }
  w.end_array();
  w.key("exit_code").number(exit_code);
  w.key("has_prediction").boolean(has_prediction);
  w.key("histograms").begin_object();
  for (const auto& [name, snapshot] : histograms) {
    w.key(name).value(snapshot.to_json());
  }
  w.end_object();
  w.key("missing_libraries").number(missing_libraries);
  w.key("mode").string(mode);
  if (profile) w.key("profile").value(profile->to_json());
  if (!provenance.empty()) {
    w.key("provenance");
    provenance.write_json(w);
  }
  w.key("ready").boolean(ready);
  w.key("resolved_libraries").number(resolved_libraries);
  w.key("schema").string(schema);
  w.key("source_site").string(source_site);
  w.key("spans").begin_array();
  for (const auto& span : spans) {
    w.begin_object();
    if (span.alloc_count != 0) {
      w.key("alloc_bytes").number(span.alloc_bytes);
      w.key("alloc_count").number(span.alloc_count);
    }
    w.key("dur_ns").number(span.duration_ns)
        .key("id").number(span.id)
        .key("name").string(span.name)
        .key("parent_id").number(span.parent_id)
        .key("start_ns").number(span.start_ns)
        .key("tid").number(span.tid)
        .end_object();
  }
  w.end_array();
  w.key("target_site").string(target_site);
  w.key("unresolved_libraries").number(unresolved_libraries);
  w.end_object();
}

std::optional<RunRecord> RunRecord::from_json(const support::Json& j) {
  if (!j.is_object()) return std::nullopt;
  if (j.get_string("schema") != kRunRecordSchema) return std::nullopt;
  RunRecord r;
  r.command = j.get_string("command");
  r.binary = j.get_string("binary");
  r.source_site = j.get_string("source_site");
  r.target_site = j.get_string("target_site");
  r.mode = j.get_string("mode");
  r.exit_code = static_cast<int>(j.get_int("exit_code"));
  r.has_prediction = j.get_bool("has_prediction");
  r.ready = j.get_bool("ready");

  if (j["determinants"].is_array()) {
    for (const auto& det : j["determinants"].as_array()) {
      DeterminantVerdict v;
      v.key = det.get_string("key");
      if (!kind_for_key(v.key)) return std::nullopt;
      v.evaluated = det.get_bool("evaluated");
      v.compatible = det.get_bool("compatible");
      v.detail = det.get_string("detail");
      r.determinants.push_back(std::move(v));
    }
  }
  r.missing_libraries = j.get_uint("missing_libraries");
  r.resolved_libraries = j.get_uint("resolved_libraries");
  r.unresolved_libraries = j.get_uint("unresolved_libraries");
  r.bundle_bytes = j.get_uint("bundle_bytes");

  if (j["spans"].is_array()) {
    for (const auto& s : j["spans"].as_array()) {
      SpanSummary span;
      span.id = s.get_uint("id");
      span.parent_id = s.get_uint("parent_id");
      span.name = s.get_string("name");
      span.start_ns = s.get_uint("start_ns");
      span.duration_ns = s.get_uint("dur_ns");
      span.tid = static_cast<int>(s.get_int("tid"));
      span.alloc_bytes = s.get_uint("alloc_bytes");
      span.alloc_count = s.get_uint("alloc_count");
      if (span.name.empty()) return std::nullopt;
      r.spans.push_back(std::move(span));
    }
  }
  if (j["profile"].is_object()) {
    auto profile = obs::Profile::from_json(j["profile"]);
    if (!profile) return std::nullopt;
    r.profile = std::move(*profile);
  }
  if (j["provenance"].is_object()) {
    auto provenance = obs::EvidenceSet::from_json(j["provenance"]);
    if (!provenance) return std::nullopt;
    r.provenance = std::move(*provenance);
  }
  if (j["counters"].is_object()) {
    for (const auto& [name, value] : j["counters"].as_object()) {
      const auto count = value.to_uint();
      if (!count) return std::nullopt;
      r.counters[name] = *count;
    }
  }
  if (j["histograms"].is_object()) {
    for (const auto& [name, value] : j["histograms"].as_object()) {
      auto snapshot = obs::HistogramSnapshot::from_json(value);
      if (!snapshot) return std::nullopt;
      r.histograms[name] = *snapshot;
    }
  }
  return r;
}

std::vector<std::string> RunRecord::validate() const {
  std::vector<std::string> issues;
  if (schema != kRunRecordSchema) issues.push_back("unknown schema: " + schema);
  if (command.empty()) issues.push_back("command is empty");
  if (has_prediction && determinants.empty()) {
    issues.push_back("prediction present but no determinant verdicts");
  }

  std::unordered_map<std::uint64_t, const SpanSummary*> by_id;
  for (const auto& span : spans) {
    if (span.id == 0) issues.push_back("span '" + span.name + "' has id 0");
    by_id[span.id] = &span;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> child_duration;
  for (const auto& span : spans) {
    if (span.parent_id != 0 && !by_id.count(span.parent_id)) {
      issues.push_back("span '" + span.name + "' has unknown parent " +
                       std::to_string(span.parent_id));
      continue;
    }
    child_duration[span.parent_id] += span.duration_ns;
  }
  // On a monotonic clock a parent span covers all its direct children, so
  // the parent's duration bounds the children's sum.
  for (const auto& span : spans) {
    const auto it = child_duration.find(span.id);
    if (it != child_duration.end() && it->second > span.duration_ns) {
      issues.push_back("span '" + span.name + "' duration " +
                       std::to_string(span.duration_ns) +
                       "ns is less than its children's " +
                       std::to_string(it->second) + "ns");
    }
  }
  for (const auto& [name, snapshot] : histograms) {
    if (!snapshot.empty() && snapshot.min() > snapshot.max) {
      issues.push_back("histogram '" + name + "' has min > max");
    }
  }
  for (auto& issue : provenance.validate()) {
    issues.push_back("provenance: " + issue);
  }
  if (profile) {
    if (profile->span_count != spans.size()) {
      issues.push_back("profile covers " +
                       std::to_string(profile->span_count) +
                       " spans but the record has " +
                       std::to_string(spans.size()));
    }
    // Self times partition each thread's busy time (see obs/profile.hpp).
    for (const auto& thread : profile->threads) {
      if (thread.self_ns != thread.busy_ns) {
        issues.push_back("profile thread " + std::to_string(thread.tid) +
                         " self " + std::to_string(thread.self_ns) +
                         "ns != busy " + std::to_string(thread.busy_ns) +
                         "ns");
      }
    }
  }
  return issues;
}

RunRecord assemble_run_record(const RunContext& context,
                              const std::vector<obs::SpanRecord>& spans,
                              const obs::Registry& registry, int exit_code) {
  RunRecord r;
  r.command = context.command;
  r.binary = context.binary;
  r.source_site = context.source_site;
  r.target_site = context.target_site;
  r.mode = context.mode;
  r.bundle_bytes = context.bundle_bytes;
  r.exit_code = exit_code;

  if (context.prediction) {
    r.has_prediction = true;
    r.ready = context.prediction->ready;
    for (const auto& d : context.prediction->determinants) {
      r.determinants.push_back({determinant_key(d.kind), d.evaluated,
                                d.compatible, d.detail});
    }
    r.missing_libraries = context.prediction->missing_libraries.size();
    r.resolved_libraries = context.prediction->resolved_libraries.size();
    r.unresolved_libraries = context.prediction->unresolved_libraries.size();
    r.provenance = context.prediction->provenance;
  }

  r.spans.reserve(spans.size());
  for (const auto& span : spans) {
    r.spans.push_back({span.id, span.parent_id, span.name, span.start_ns,
                       span.duration_ns(), span.tid, span.alloc_bytes,
                       span.alloc_count});
  }
  std::sort(r.spans.begin(), r.spans.end(),
            [](const SpanSummary& a, const SpanSummary& b) {
              return a.start_ns < b.start_ns;
            });
  if (!spans.empty()) r.profile = obs::build_profile(spans);
  r.counters = registry.counter_values();
  r.histograms = registry.histogram_snapshots();
  return r;
}

std::string records_jsonl(std::span<const RunRecord> records,
                          support::ThreadPool* pool) {
  std::optional<support::ThreadPool> calling_thread;
  support::ThreadPool& workers =
      pool != nullptr ? *pool : calling_thread.emplace(1);
  std::vector<std::string> chunks(
      (records.size() + kRecordsPerChunk - 1) / kRecordsPerChunk);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    workers.submit([&, c] {
      // Written locally and moved in once: neighbouring slots share a cache
      // line, and appending to a slot in place would bounce it between
      // workers on every token (4 threads then ran 3x the CPU of one).
      std::string text;
      support::JsonWriter w(text);
      const std::size_t first = c * kRecordsPerChunk;
      for (const auto& record : records.subspan(
               first, std::min(kRecordsPerChunk, records.size() - first))) {
        record.write_json(w);
        text += '\n';
      }
      chunks[c] = std::move(text);
    });
  }
  workers.wait();
  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  std::string out;
  out.reserve(total);
  for (auto& chunk : chunks) {
    out += chunk;
    std::string().swap(chunk);  // release as the join goes
  }
  return out;
}

std::vector<obs::ProfileSpan> to_profile_spans(const RunRecord& record) {
  std::vector<obs::ProfileSpan> spans;
  spans.reserve(record.spans.size());
  for (const auto& span : record.spans) {
    spans.push_back({span.id, span.parent_id, span.name, span.start_ns,
                     span.start_ns + span.duration_ns, span.tid,
                     span.alloc_bytes, span.alloc_count});
  }
  return spans;
}

}  // namespace feam::report
