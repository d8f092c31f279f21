// RunRecord: the versioned, self-contained JSON record of one migration
// attempt — the unit the aggregation layer works on. One CLI invocation
// with --run-record-out writes one RunRecord assembled from the live obs
// state (span tree, counters, histogram snapshots) plus the phase outcome
// (site pair, per-determinant verdicts, resolution counts, bundle size).
// `feam report` ingests a directory of these and answers fleet-level
// questions: which binaries run where, what blocks them, and how long
// each phase takes across runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "feam/tec.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"

namespace feam::support {
class ThreadPool;  // support/thread_pool.hpp
}

namespace feam::report {

inline constexpr std::string_view kRunRecordSchema = "feam.run_record/1";

// Short stable key for a determinant ("isa", "c_library", "mpi_stack",
// "shared_libraries") — matches the tec.determinant.* span names.
const char* determinant_key(DeterminantKind kind);

struct DeterminantVerdict {
  std::string key;  // determinant_key() value
  bool evaluated = false;
  bool compatible = false;
  std::string detail;
};

// A finished span, flattened for serialization (ids are per-process but
// self-consistent within one record).
struct SpanSummary {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;  // 0 for roots
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  int tid = 0;  // small per-process thread ordinal (additive in schema /1)
  // Self-allocated bytes/count from the tracking allocator (additive in
  // schema /1; 0 and omitted from JSON when the run was untracked).
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_count = 0;
};

struct RunRecord {
  std::string schema{kRunRecordSchema};
  std::string command;      // CLI subcommand ("target", "exec", ...)
  std::string binary;       // binary basename
  std::string source_site;  // guaranteed environment; "" when unknown
  std::string target_site;  // "" for source-only records
  std::string mode;         // "basic" | "extended" | ""
  int exit_code = 0;

  bool has_prediction = false;
  bool ready = false;
  std::vector<DeterminantVerdict> determinants;
  std::uint64_t missing_libraries = 0;
  std::uint64_t resolved_libraries = 0;
  std::uint64_t unresolved_libraries = 0;
  std::uint64_t bundle_bytes = 0;

  std::vector<SpanSummary> spans;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, obs::HistogramSnapshot> histograms;

  // Evidence consulted to reach the verdict (obs/provenance.hpp), copied
  // from the prediction. Additive in schema /1: serialized only when
  // non-empty, so records from builds without provenance stay byte-equal.
  obs::EvidenceSet provenance;

  // Self-time / critical-path profile of `spans`, added to schema /1
  // additively (absent in records written by older builds). The flame tree
  // is not serialized; rebuild it from the spans when needed.
  std::optional<obs::Profile> profile;

  // The blocking determinant's key for a not-ready prediction ("" when
  // ready, "?" when nothing was evaluated incompatible).
  std::string blocking_determinant() const;

  // Total duration of the named span (first occurrence), 0 when absent.
  std::uint64_t span_duration_ns(std::string_view name) const;

  // The tree form (pretty-printing, tests' reference). write_json streams
  // the same bytes as to_json().dump() straight from the fields; the
  // profile and histograms, which only CLI records carry, go through their
  // trees.
  support::Json to_json() const;
  void write_json(support::JsonWriter& w) const;
  static std::optional<RunRecord> from_json(const support::Json& j);

  // Internal-consistency issues (empty when the record is well-formed):
  // schema/command present, durations finite, every span parent exists,
  // and each parent's duration covers the sum of its direct children.
  std::vector<std::string> validate() const;
};

// What the CLI layer knows about the run it just performed; everything
// observability-shaped is pulled from the obs collector and registry.
struct RunContext {
  std::string command;
  std::string binary;
  std::string source_site;
  std::string target_site;
  std::string mode;
  std::uint64_t bundle_bytes = 0;
  std::optional<Prediction> prediction;
};

// Builds the record for a finished command from the live obs state.
RunRecord assemble_run_record(const RunContext& context,
                              const std::vector<obs::SpanRecord>& spans,
                              const obs::Registry& registry, int exit_code);

// Compact JSONL, one record per line: the stream `feam report` ingests and
// the byte-identity witness of determinism checks. Runs of
// kRecordsPerChunk records are written as tasks on `pool` (nullptr = the
// calling thread) and joined in input order, so the bytes are the same at
// any pool size.
inline constexpr std::size_t kRecordsPerChunk = 128;
std::string records_jsonl(std::span<const RunRecord> records,
                          support::ThreadPool* pool = nullptr);

// The record's span tree as profiling input (for rebuilding the profile
// or its flame tree from a deserialized record).
std::vector<obs::ProfileSpan> to_profile_spans(const RunRecord& record);

}  // namespace feam::report
