#include "util/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>

namespace hail {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: submitted futures must always
      // be satisfied (callers block on get()).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

size_t ThreadPool::DefaultThreads() {
  if (const char* env = std::getenv("HAIL_THREADS")) {
    // Digits only: from_chars into an unsigned type takes no sign, no
    // space and no suffix, and reports overflow instead of saturating.
    const char* end = env + std::strlen(env);
    size_t n = 0;
    const auto [stop, ec] = std::from_chars(env, end, n);
    if (ec == std::errc() && stop == end && n >= 1 && n <= kMaxThreads) {
      return n;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool* SharedPool() {
  static ThreadPool* pool = new ThreadPool(ThreadPool::DefaultThreads());
  return pool;
}

}  // namespace hail
