// Deterministic, seed-driven fault injection for the in-memory Vfs.
//
// Opt-in: a Vfs without an injector (or with a disabled one) behaves
// exactly as before. With one attached, each read/write rolls an
// independent SplitMix64 stream keyed on (seed, operation counter) and may
// inject ENOENT, EIO, a short read, or a torn write. Decisions depend only
// on the seed and the per-injector operation order, so single-threaded
// runs reproduce bit-for-bit; parallel runs are deterministic per
// (seed, counter) but schedule-dependent in *which* operation draws which
// counter.
//
// Every injected fault is also charged to the thread that performed the
// faulted operation. A FaultWitness reads that per-thread tally, so "did
// this computation see a fault?" has an exact answer even while other
// workers fault on the same site: the memos use it to keep faulted
// results out of their tables, and the evaluation harness to attribute
// each migration pair.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

namespace feam::site {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kEnoent,     // read: path reported absent
  kEio,        // read or write: flat I/O error
  kShortRead,  // read: truncated content returned
  kTornWrite,  // write: partial write, then rolled back
};

std::string_view fault_kind_name(FaultKind kind);

struct FaultRecord {
  FaultKind kind = FaultKind::kNone;
  std::string op;    // "read" | "write"
  std::string path;
};

class FaultInjector {
 public:
  struct Options {
    std::uint64_t seed = 0;
    double rate = 0.0;  // probability that any one read/write faults
    bool enoent = true;
    bool eio = true;
    bool short_read = true;
    bool torn_write = true;
  };

  explicit FaultInjector(Options options)
      : options_(options), rng_(options.seed) {}

  // Injection only happens while enabled; a disabled injector does not
  // advance the counter, so enable/disable brackets (e.g. around
  // Experiment::run) don't perturb the stream of the bracketed region.
  void set_enabled(bool on) {
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_ = on;
  }
  bool enabled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return enabled_;
  }

  // Decision for the next read/write of `path`; kNone means proceed
  // normally. Faulting decisions are appended to the injection log.
  FaultKind decide_read(std::string_view path);
  FaultKind decide_write(std::string_view path);

  // For kShortRead: how many bytes of an n-byte file survive (in [0, n)).
  // Deterministic per decision (drawn from the same stream).
  std::size_t short_read_length(std::size_t full_size);

  // Total faults this injector has injected, on every thread. To ask
  // whether one computation was touched, use a FaultWitness instead.
  std::uint64_t fault_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return log_.size();
  }
  std::vector<FaultRecord> injected() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return log_;
  }

  const Options& options() const { return options_; }

 private:
  FaultKind decide(std::string_view op, std::string_view path);

  Options options_;
  mutable std::mutex mutex_;
  bool enabled_ = false;
  std::uint64_t counter_ = 0;
  support::Rng rng_;
  std::vector<FaultRecord> log_;
};

// Faults injected on the calling thread so far, by any injector.
std::uint64_t faults_on_this_thread();

// Witnesses the faults injected on the constructing thread from
// construction on. A computation that runs on one thread is touched by
// injection exactly when the witness taken before it has fired after it.
class FaultWitness {
 public:
  FaultWitness() : start_(faults_on_this_thread()) {}
  bool fired() const { return faults_on_this_thread() != start_; }

 private:
  std::uint64_t start_;
};

}  // namespace feam::site
