// Site leases: the mutual-exclusion discipline of the parallel migration
// engine.
//
// The discipline is subtree-grained: a worker leases exactly the path
// prefixes it mutates (its migrated binary, its per-job resolution root)
// via SubtreeLeases, and brackets its shell use in a ShellSession — a
// thread-private overlay of the environment and loaded modules (see
// site/environment.hpp). The Vfs itself is internally synchronized, so
// leases guard *logical* atomicity (one job's read-modify-write of its own
// artifacts), not data-structure integrity. Two migrations touching
// disjoint subtrees of the same site never serialize.
//
// Deadlock freedom: SubtreeLeases sorts its (site, prefix) set by the
// global (site.lease_id, prefix) order before locking, and a worker never
// acquires leases incrementally — one vector acquisition up front, held
// for the job.
//
// Contention visibility: every acquisition records its wait into the
// "lease.wait_ns" histogram plus the site-labeled "lease.wait_ns{site=S}"
// series (nanoseconds on the obs clock; the obs layer's metric names carry
// _ns units throughout). An uncontended try_lock records 0 without reading
// the clock twice, so the lease fast path stays one atomic heavier at most.
#pragma once

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "site/site.hpp"

namespace feam::site {

namespace detail {

// Locks `mutex`, timing any blocking wait, and charges the wait to the
// global and per-site lease histograms.
inline std::unique_lock<std::mutex> acquire_lease(Site& site,
                                                  std::mutex& mutex) {
  std::unique_lock<std::mutex> lock(mutex, std::try_to_lock);
  std::uint64_t waited_ns = 0;
  if (!lock.owns_lock()) {
    const std::uint64_t start = obs::now_ns();
    lock.lock();
    waited_ns = obs::now_ns() - start;
  }
  obs::histogram("lease.wait_ns").record(waited_ns);
  obs::histogram("lease.wait_ns", obs::Labels{.site = site.name})
      .record(waited_ns);
  return lock;
}

}  // namespace detail

// RAII thread-private shell: environment variables and the loaded-module
// list become a private copy for the calling thread (see Environment
// sessions). Module loads, LD_LIBRARY_PATH edits, and mpiexec runs inside
// the session don't serialize against other workers on the same site.
class ShellSession {
 public:
  explicit ShellSession(Site& site) : site_(&site) {
    site_->begin_shell_session();
  }
  ~ShellSession() { site_->end_shell_session(); }

  ShellSession(const ShellSession&) = delete;
  ShellSession& operator=(const ShellSession&) = delete;

 private:
  Site* site_;
};

// RAII lease over a set of (site, path-prefix) subtrees, acquired in the
// global (lease_id, prefix) order regardless of argument order, so any two
// workers' vectors interleave without cycles. Duplicate subtrees collapse
// to one acquisition. Each acquisition charges its wait to the
// "lease.wait_ns" series.
class SubtreeLeases {
 public:
  using Subtree = std::pair<Site*, std::string>;

  explicit SubtreeLeases(std::vector<Subtree> subtrees) {
    std::sort(subtrees.begin(), subtrees.end(),
              [](const Subtree& a, const Subtree& b) {
                if (a.first->lease_id() != b.first->lease_id()) {
                  return a.first->lease_id() < b.first->lease_id();
                }
                return a.second < b.second;
              });
    subtrees.erase(std::unique(subtrees.begin(), subtrees.end()),
                   subtrees.end());
    locks_.reserve(subtrees.size());
    for (const auto& [site, prefix] : subtrees) {
      locks_.push_back(
          detail::acquire_lease(*site, site->subtree_mutex(prefix)));
    }
  }

  SubtreeLeases(const SubtreeLeases&) = delete;
  SubtreeLeases& operator=(const SubtreeLeases&) = delete;

 private:
  std::vector<std::unique_lock<std::mutex>> locks_;
};

}  // namespace feam::site
