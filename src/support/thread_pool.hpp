// A fixed-size work-queue thread pool: the one fan-out under the migration
// matrix, the multi-site survey and the fleet.
//
// Tasks are plain std::function<void()> closures; submit() enqueues, and
// n-1 workers plus the caller of wait() drain the queue in FIFO order.
// wait() runs queued tasks on the calling thread until the queue is empty,
// then blocks until every worker is idle — the barrier between fanning out
// and reading the result slots. A pool of one spawns no thread: wait() runs
// every task inline, in submission order, on the caller, so it *is* the
// sequential loop. The first exception a task throws is captured and
// rethrown from wait() (later ones are dropped), so harness bugs surface
// instead of vanishing on a worker thread.
//
// Because tasks may run on the caller, the caller must hold no site lease,
// shell session, fault witness or provenance scope across wait(): all four
// are thread-scoped, and a task run inline would nest inside them.
//
// The pool is intentionally minimal: no futures, no work stealing, no
// priorities. Determinism comes from pre-assigned result slots and the
// subtree-lease discipline, not from task ordering.
//
// Contention visibility: an optional TaskObserver receives, per finished
// task, its submit→start queue wait and its run time (both in ns, timed on
// std::chrono::steady_clock). support cannot depend on the obs layer — obs
// links support — so the observer is injected by callers; the obs layer
// provides a ready-made recorder that feeds its histogram registry.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace feam::support {

class ThreadPool {
 public:
  // Called after each task finishes (on the thread that ran it, outside
  // the pool lock) with the task's queue wait and run time in nanoseconds.
  // Must be thread-safe; exceptions are treated like task exceptions.
  using TaskObserver = std::function<void(std::uint64_t queue_wait_ns,
                                          std::uint64_t run_ns)>;

  // A pool of `threads` (clamped to at least 1): spawns threads - 1
  // workers; the caller of wait() is the last.
  explicit ThreadPool(int threads, TaskObserver observer = nullptr);

  // Drains outstanding work (as wait() does, but swallowing any pending
  // task exception), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Never blocks (the queue is unbounded) and never runs
  // the task itself.
  void submit(std::function<void()> task);

  // Runs queued tasks on the calling thread, then blocks until every
  // submitted task has finished. Rethrows the first exception any task
  // threw since the last wait(). Call it from the pool's owner only.
  void wait();

  // Tasks that can run at once: the workers plus the caller of wait().
  int size() const { return static_cast<int>(workers_.size()) + 1; }

 private:
  void worker_loop();
  // Pops the front task and runs it with `lock` released; returns with
  // `lock` held again.
  void run_next(std::unique_lock<std::mutex>& lock);

  struct QueuedTask {
    std::function<void()> run;
    std::chrono::steady_clock::time_point submitted;
  };

  TaskObserver observer_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<QueuedTask> queue_;
  std::size_t active_ = 0;  // tasks currently executing
  bool stopping_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

}  // namespace feam::support
