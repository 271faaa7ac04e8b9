/// \file thread_pool.h
/// \brief Fixed-size worker pool with a future-based join primitive.
///
/// One process-wide instance (SharedPool) backs all parallel work:
///   - map-task reads (mapreduce/scheduler.cc): the event loop dispatches
///     each task's *functional* read to the pool and joins the returned
///     future when the simulated completion event is due, so heavy per-task
///     work (CRC verification, block decode, filtering, tuple
///     reconstruction) overlaps across hardware threads while all
///     scheduling decisions and simulated-clock accounting stay on the
///     event thread;
///   - maintenance rewrite builds (adaptive/reorg.h): started at
///     assignment, joined in the session's commit window;
///   - HAIL ingest (hail/hail_client.cc): each block's cluster-independent
///     work (parse, PAX build, decode, replica sort/index/serialise) is
///     prepared on the pool while the calling thread commits finished
///     blocks in serial order.
///
/// Tasks submitted to the pool run in FIFO submission order whenever the
/// pool has one worker, which keeps single-threaded parallel-mode runs
/// trivially equivalent to serial execution; with more workers, callers
/// must only depend on the futures they hold, never on cross-task ordering.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace hail {

/// \brief A fixed-size pool of worker threads consuming a FIFO task queue.
///
/// Destruction drains the queue: every submitted task is executed (never
/// dropped), so futures returned by Submit are always satisfied and task
/// closures may safely reference state that outlives the last `get()`.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues \p fn and returns a future for its result. The future's
  /// `get()` blocks until a worker has executed the task.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return result;
  }

  /// Largest worker count HAIL_THREADS may ask for.
  static constexpr size_t kMaxThreads = 256;

  /// Number of hardware threads to use by default: the HAIL_THREADS
  /// environment variable when it is a whole decimal in [1, kMaxThreads],
  /// else hardware_concurrency() (1 when unknown).
  static size_t DefaultThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// The process-wide pool shared by parallel reads, rewrite builds and HAIL
/// ingest.
/// Created lazily with DefaultThreads() workers, never destroyed (workers
/// block on an empty queue between uses). Callers that wait on its futures
/// must not themselves run on one of its workers.
ThreadPool* SharedPool();

}  // namespace hail
