#include "support/thread_pool.hpp"

#include <utility>

namespace feam::support {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end) {
  if (end <= start) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

}  // namespace

ThreadPool::ThreadPool(int threads, TaskObserver observer)
    : observer_(std::move(observer)) {
  const int n = threads < 1 ? 1 : threads;
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int i = 1; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  try {
    wait();
  } catch (...) {
    // A task failed and nobody waited for it; the destructor drops it.
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back({std::move(task), std::chrono::steady_clock::now()});
  }
  work_available_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!queue_.empty()) run_next(lock);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_available_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and nothing left to do
    run_next(lock);
  }
}

void ThreadPool::run_next(std::unique_lock<std::mutex>& lock) {
  std::exception_ptr error;
  {
    QueuedTask task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    const auto started = std::chrono::steady_clock::now();
    try {
      task.run();
      if (observer_) {
        observer_(elapsed_ns(task.submitted, started),
                  elapsed_ns(started, std::chrono::steady_clock::now()));
      }
    } catch (...) {
      error = std::current_exception();
    }
  }  // the closure is destroyed outside the lock
  lock.lock();
  if (error && !first_error_) first_error_ = std::move(error);
  --active_;
  if (queue_.empty() && active_ == 0) all_idle_.notify_all();
}

}  // namespace feam::support
