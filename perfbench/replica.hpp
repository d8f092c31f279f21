// Traced replicas of FEAM's two evaluation loops.
//
// Each replica makes the same sequence of public calls as its original —
// eval::run_fleet (src/eval/fleet.cpp) and eval::Experiment::run with
// migrate_one (src/eval/experiment.cpp) — with a perfbench::Span around
// each call, so a traced run yields per-layer time without FEAM's own span
// collector. The benchmark fails a traced run whose record stream is not
// byte-identical to the original's, or whose memo lookups (per memo) or
// drift ops differ from the original's counts. A change to those loops
// that alters the output or that work fails the check; a change that keeps
// both — one pool for all surveys instead of one per survey, say — passes
// it, and the replica must then be updated by hand, or its layer numbers
// describe the old loop.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "eval/experiment.hpp"
#include "fleet/generate.hpp"
#include "spans.hpp"

namespace perfbench {

struct MemoCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

struct ReplicaResult {
  // One feam.run_record/1 JSON line per pair, as the original writes them.
  std::string records_jsonl;
  // bdc, edc, resolver_search, resolver_ldd, resolver_parse, source.
  std::map<std::string, MemoCounts> memos;
  std::uint64_t drift_ops = 0;
};

// run_fleet(fleet, {.jobs = jobs}) followed by records_jsonl(), for
// jobs > 1. Pair spans are tagged workload * sites + site, survey spans the
// workload.
ReplicaResult traced_fleet(feam::fleet::Fleet& fleet, int jobs,
                           Tracer& tracer);

// experiment.run() on a built test set, then to_run_records() serialized.
// `options` must be the ones `experiment` was constructed with, with
// jobs > 1.
ReplicaResult traced_paper(feam::eval::Experiment& experiment,
                           const feam::eval::ExperimentOptions& options,
                           Tracer& tracer);

}  // namespace perfbench
