#include "site/fault.hpp"

namespace feam::site {

namespace {
thread_local std::uint64_t t_faults = 0;
}  // namespace

std::uint64_t faults_on_this_thread() { return t_faults; }

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kEnoent: return "enoent";
    case FaultKind::kEio: return "eio";
    case FaultKind::kShortRead: return "short_read";
    case FaultKind::kTornWrite: return "torn_write";
  }
  return "none";
}

FaultKind FaultInjector::decide(std::string_view op, std::string_view path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_ || options_.rate <= 0.0) return FaultKind::kNone;
  // One decision stream per injector: (seed, counter) → independent draw.
  // The fork keeps the decision independent of how many values earlier
  // decisions consumed.
  support::Rng draw =
      rng_.fork(std::string(op) + "#" + std::to_string(counter_++));
  if (!draw.chance(options_.rate)) return FaultKind::kNone;
  std::vector<FaultKind> kinds;
  if (op == "read") {
    if (options_.enoent) kinds.push_back(FaultKind::kEnoent);
    if (options_.eio) kinds.push_back(FaultKind::kEio);
    if (options_.short_read) kinds.push_back(FaultKind::kShortRead);
  } else {
    if (options_.torn_write) kinds.push_back(FaultKind::kTornWrite);
    if (options_.eio) kinds.push_back(FaultKind::kEio);
  }
  if (kinds.empty()) return FaultKind::kNone;
  const FaultKind kind = kinds[draw.next_below(kinds.size())];
  log_.push_back({kind, std::string(op), std::string(path)});
  ++t_faults;
  return kind;
}

FaultKind FaultInjector::decide_read(std::string_view path) {
  return decide("read", path);
}

FaultKind FaultInjector::decide_write(std::string_view path) {
  return decide("write", path);
}

std::size_t FaultInjector::short_read_length(std::size_t full_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (full_size == 0) return 0;
  support::Rng draw = rng_.fork("short_read_len#" + std::to_string(counter_++));
  return static_cast<std::size_t>(draw.next_below(full_size));
}

}  // namespace feam::site
