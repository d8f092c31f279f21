// ThreadPool: FIFO work queue, the caller as the last worker, wait()
// barrier semantics, and exception propagation — the substrate under the
// migration matrix, the survey and the fleet.
#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace feam::support {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.size(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.size(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4);
}

TEST(ThreadPool, PoolOfOneRunsTasksInlineInSubmissionOrder) {
  // A pool of one has no worker thread: submit() only queues, and wait()
  // runs every task on the caller, first in first out — the sequential
  // loop.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::vector<int> order;
  std::vector<std::thread::id> ran_on;
  for (int i = 0; i < 16; ++i) {
    pool.submit([&, i] {
      started.fetch_add(1, std::memory_order_relaxed);
      order.push_back(i);
      ran_on.push_back(std::this_thread::get_id());
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(started.load(), 0);
  pool.wait();
  std::vector<int> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(ran_on, std::vector<std::thread::id>(16, caller));
}

TEST(ThreadPool, NeverRunsMoreTasksAtOnceThanItsSize) {
  // The caller of wait() counts toward the size: a pool of three runs
  // tasks on two workers and the caller, never more than three at once.
  ThreadPool pool(3);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::mutex threads_mutex;
  std::set<std::thread::id> threads;
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] {
      const int now = running.fetch_add(1, std::memory_order_acq_rel) + 1;
      int seen = peak.load(std::memory_order_relaxed);
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      {
        std::lock_guard<std::mutex> lock(threads_mutex);
        threads.insert(std::this_thread::get_id());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      running.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  pool.wait();
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 3);
  EXPECT_LE(threads.size(), 3u);
}

TEST(ThreadPool, WaitIsABarrier) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait();
  // Nothing may still be in flight once wait() returns.
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, WaitRethrowsTheFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, UsableAgainAfterAnException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("first"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);

  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();  // the captured error was consumed by the previous wait()
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait(): the destructor must finish the queue before joining.
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, TasksSubmittedFromTasksComplete) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.submit([&] {
    for (int i = 0; i < 5; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  pool.wait();
  EXPECT_EQ(done.load(), 5);
}

TEST(ThreadPool, ObserverSeesEveryTaskWithPlausibleTimings) {
  std::atomic<int> observed{0};
  std::atomic<std::uint64_t> run_sum{0};
  ThreadPool pool(2, [&](std::uint64_t queue_wait_ns, std::uint64_t run_ns) {
    observed.fetch_add(1, std::memory_order_relaxed);
    run_sum.fetch_add(run_ns, std::memory_order_relaxed);
    (void)queue_wait_ns;  // >= 0 by type; just must not crash
  });
  std::atomic<int> done{0};
  for (int i = 0; i < 30; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait();
  EXPECT_EQ(done.load(), 30);
  EXPECT_EQ(observed.load(), 30);
  // 30 tasks each sleeping ~1ms: the summed run time must reflect it.
  EXPECT_GE(run_sum.load(), 30u * 500'000u);
}

TEST(ThreadPool, ObserverSeesQueueWaitWhenWorkersAreBusy) {
  // One worker, one blocking task: everything behind it must report a
  // submit->start wait at least as long as the blocker's sleep.
  std::atomic<std::uint64_t> max_wait{0};
  ThreadPool pool(1, [&](std::uint64_t queue_wait_ns, std::uint64_t) {
    std::uint64_t seen = max_wait.load(std::memory_order_relaxed);
    while (queue_wait_ns > seen &&
           !max_wait.compare_exchange_weak(seen, queue_wait_ns)) {
    }
  });
  pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  pool.submit([] {});
  pool.wait();
  EXPECT_GE(max_wait.load(), 10'000'000u);  // >= 10ms of the 20ms sleep
}

TEST(ThreadPool, ObserverExceptionPropagatesLikeATaskException) {
  ThreadPool pool(2, [](std::uint64_t, std::uint64_t) {
    throw std::runtime_error("observer failed");
  });
  pool.submit([] {});
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, NullObserverIsFine) {
  ThreadPool pool(2, nullptr);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(done.load(), 20);
}

}  // namespace
}  // namespace feam::support
