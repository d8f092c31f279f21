// Site leases and the state stamps the caches key on: mutual exclusion,
// acquisition order, wait recording, and VFS write stamps.
#include "site/lease.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "toolchain/testbed.hpp"

namespace feam::site {
namespace {

TEST(SiteLease, IdsAreDistinctPerSite) {
  auto a = toolchain::make_site("india");
  auto b = toolchain::make_site("fir");
  EXPECT_NE(a->lease_id(), b->lease_id());
}

TEST(SiteState, FileVersionStampsTrackWrites) {
  auto s = toolchain::make_site("india");
  Vfs& vfs = s->vfs;

  EXPECT_FALSE(vfs.file_version("/no/such/file").has_value());
  EXPECT_FALSE(vfs.file_version("/tmp").has_value());  // directory

  vfs.write_file("/tmp/lib.so", "v1");
  const auto v1 = vfs.file_version("/tmp/lib.so");
  ASSERT_TRUE(v1.has_value());

  // Unrelated writes do not move the file's own stamp.
  vfs.write_file("/tmp/other.so", "x");
  EXPECT_EQ(vfs.file_version("/tmp/lib.so"), v1);

  // Rewriting the file does, even with identical byte content.
  vfs.write_file("/tmp/lib.so", "v1");
  const auto v2 = vfs.file_version("/tmp/lib.so");
  ASSERT_TRUE(v2.has_value());
  EXPECT_GT(*v2, *v1);
}

TEST(SiteState, FileVersionFollowsSymlinks) {
  auto s = toolchain::make_site("india");
  Vfs& vfs = s->vfs;
  vfs.write_file("/tmp/real_a.so", "a");
  vfs.write_file("/tmp/real_b.so", "b");
  ASSERT_TRUE(vfs.symlink("/tmp/link.so", "/tmp/real_a.so"));

  EXPECT_EQ(vfs.file_version("/tmp/link.so"), vfs.file_version("/tmp/real_a.so"));

  // Retargeting the symlink changes the observed version without touching
  // either file — the staleness check the resolver cache depends on.
  ASSERT_TRUE(vfs.remove("/tmp/link.so"));
  ASSERT_TRUE(vfs.symlink("/tmp/link.so", "/tmp/real_b.so"));
  EXPECT_EQ(vfs.file_version("/tmp/link.so"), vfs.file_version("/tmp/real_b.so"));
  EXPECT_NE(vfs.file_version("/tmp/real_a.so"), vfs.file_version("/tmp/real_b.so"));
}

TEST(SubtreeLeases, SamePrefixMutuallyExcludes) {
  auto s = toolchain::make_site("india");
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        SubtreeLeases lease({{s.get(), "/home/user/job"}});
        if (inside.fetch_add(1, std::memory_order_acq_rel) != 0) {
          overlapped.store(true, std::memory_order_relaxed);
        }
        inside.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(overlapped.load());
}

TEST(SubtreeLeases, DisjointPrefixesOnOneSiteDoNotExclude) {
  // The point of subtree granularity: a worker holding one prefix never
  // blocks a worker on a different prefix of the same site.
  auto s = toolchain::make_site("india");
  std::atomic<bool> holder_ready{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    SubtreeLeases lease({{s.get(), "/home/user/job_a"}});
    holder_ready.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!holder_ready.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  {
    // Must acquire immediately even though job_a is held; if subtree
    // leases shared one mutex this would deadlock (holder never releases
    // until we set the flag below).
    SubtreeLeases lease({{s.get(), "/home/user/job_b"}});
  }
  release.store(true, std::memory_order_release);
  holder.join();
}

TEST(SubtreeLeases, OppositeArgumentOrdersDoNotDeadlock) {
  // Two threads repeatedly lock the same two subtrees (across two sites)
  // in opposite argument order; the global (lease_id, prefix) sort makes
  // the acquisition order identical in both.
  auto a = toolchain::make_site("india");
  auto b = toolchain::make_site("fir");
  std::atomic<int> done{0};
  std::thread t1([&] {
    for (int i = 0; i < 500; ++i) {
      SubtreeLeases lease(
          {{a.get(), "/home/user/x"}, {b.get(), "/home/user/y"}});
    }
    done.fetch_add(1);
  });
  std::thread t2([&] {
    for (int i = 0; i < 500; ++i) {
      SubtreeLeases lease(
          {{b.get(), "/home/user/y"}, {a.get(), "/home/user/x"}});
    }
    done.fetch_add(1);
  });
  t1.join();
  t2.join();
  EXPECT_EQ(done.load(), 2);
}

TEST(SubtreeLeases, UncontendedAcquireRecordsZeroWait) {
  auto s = toolchain::make_site("india");
  const auto global_before = obs::histogram("lease.wait_ns").snapshot();
  const auto site_before =
      obs::histogram("lease.wait_ns", obs::Labels{.site = s->name}).snapshot();
  { SubtreeLeases lease({{s.get(), "/home/user/job"}}); }
  const auto global_after = obs::histogram("lease.wait_ns").snapshot();
  const auto site_after =
      obs::histogram("lease.wait_ns", obs::Labels{.site = s->name}).snapshot();
  // One sample lands in both histograms, and the fast path charges 0 wait.
  EXPECT_EQ(global_after.count, global_before.count + 1);
  EXPECT_EQ(site_after.count, site_before.count + 1);
  EXPECT_EQ(global_after.sum, global_before.sum);
  EXPECT_EQ(site_after.sum, site_before.sum);
}

TEST(SubtreeLeases, ContendedAcquireRecordsTheBlockingWait) {
  auto s = toolchain::make_site("india");
  const auto before =
      obs::histogram("lease.wait_ns", obs::Labels{.site = s->name}).snapshot();
  std::atomic<bool> holder_ready{false};
  std::thread holder([&] {
    SubtreeLeases lease({{s.get(), "/home/user/job"}});
    holder_ready.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  while (!holder_ready.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Blocks until the holder releases.
  { SubtreeLeases lease({{s.get(), "/home/user/job"}}); }
  holder.join();
  const auto after =
      obs::histogram("lease.wait_ns", obs::Labels{.site = s->name}).snapshot();
  EXPECT_EQ(after.count, before.count + 2);
  // The waiter blocked for most of the holder's 20ms sleep.
  EXPECT_GE(after.sum - before.sum, 5'000'000u);
  EXPECT_GE(after.max, 5'000'000u);
}

TEST(SubtreeLeases, DuplicateSubtreesCollapseToOneAcquisition) {
  // A duplicated entry must not self-deadlock on the second acquisition
  // of the same (non-recursive) mutex.
  auto s = toolchain::make_site("india");
  SubtreeLeases lease({{s.get(), "/home/user/job"},
                       {s.get(), "/home/user/job"},
                       {s.get(), "/home/user/job"}});
}

TEST(ShellSession, EnvironmentEditsStayPrivateToTheSessionThread) {
  auto s = toolchain::make_site("india");
  std::atomic<bool> session_ready{false};
  std::atomic<bool> base_checked{false};
  std::thread worker([&] {
    ShellSession shell(*s);
    s->env.set("FEAM_SESSION_VAR", "private");
    EXPECT_EQ(s->env.get("FEAM_SESSION_VAR"), "private");
    session_ready.store(true, std::memory_order_release);
    while (!base_checked.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!session_ready.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // This thread has no session on the site, so it reads base state — the
  // worker's edit must be invisible while its session is open...
  EXPECT_FALSE(s->env.has("FEAM_SESSION_VAR"));
  base_checked.store(true, std::memory_order_release);
  worker.join();
  // ...and gone for good once the session ends.
  EXPECT_FALSE(s->env.has("FEAM_SESSION_VAR"));
}

TEST(ShellSession, ModuleLoadsStayPrivateAndFingerprintIsRestored) {
  auto s = toolchain::make_site("india");
  const auto modules = s->available_modules();
  ASSERT_FALSE(modules.empty());
  const std::uint64_t base_fingerprint = s->discovery_fingerprint();
  std::uint64_t inside_fingerprint = 0;
  {
    ShellSession shell(*s);
    ASSERT_TRUE(s->load_module(modules.front()));
    EXPECT_EQ(s->loaded_modules().size(), 1u);
    inside_fingerprint = s->discovery_fingerprint();
  }
  // The load changed what discovery would see inside the session, but the
  // base site (and hence the EDC memo key) is untouched by the session.
  EXPECT_NE(inside_fingerprint, base_fingerprint);
  EXPECT_TRUE(s->loaded_modules().empty());
  EXPECT_EQ(s->discovery_fingerprint(), base_fingerprint);
}

TEST(ShellSession, ConcurrentSessionsOnOneSiteSeeTheirOwnModules) {
  auto s = toolchain::make_site("india");
  const auto modules = s->available_modules();
  ASSERT_GE(modules.size(), 2u);
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      const std::string mine = modules[static_cast<std::size_t>(t)];
      for (int i = 0; i < 200; ++i) {
        ShellSession shell(*s);
        if (!s->load_module(mine)) {
          mismatch.store(true);
          continue;
        }
        const auto& loaded = s->loaded_modules();
        if (loaded.size() != 1 || loaded.front() != mine) {
          mismatch.store(true);
        }
        s->unload_all_modules();
        if (!s->loaded_modules().empty()) mismatch.store(true);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_TRUE(s->loaded_modules().empty());
}

TEST(ShellSession, NestedSessionsStackLikeSubshells) {
  auto s = toolchain::make_site("india");
  s->env.set("FEAM_OUTER", "base");
  {
    ShellSession outer(*s);
    s->env.set("FEAM_OUTER", "outer");
    {
      ShellSession inner(*s);
      EXPECT_EQ(s->env.get("FEAM_OUTER"), "outer");  // copy-on-begin
      s->env.set("FEAM_OUTER", "inner");
      EXPECT_EQ(s->env.get("FEAM_OUTER"), "inner");
    }
    EXPECT_EQ(s->env.get("FEAM_OUTER"), "outer");  // inner edits discarded
  }
  EXPECT_EQ(s->env.get("FEAM_OUTER"), "base");
}

}  // namespace
}  // namespace feam::site
