#ifndef ADS_COMMON_THREAD_POOL_H_
#define ADS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ads::common {

/// Point-in-time snapshot of a ThreadPool's load (see ThreadPool::Stats).
struct ThreadPoolStats {
  /// Configured worker threads (0 = inline mode).
  size_t workers = 0;
  /// Tasks waiting in the queue, not yet picked up by a worker.
  size_t queued = 0;
  /// Tasks currently executing.
  size_t active = 0;
  /// Tasks completed since construction (Submit tasks, inline tasks and
  /// ParallelFor chunks all count).
  uint64_t executed = 0;
};

/// Fixed-size worker pool shared by the library's compute-bound paths
/// (forest training, k-means, k-NN scans, Monte-Carlo simulators).
///
/// Semantics:
///  - A pool constructed with 0 workers runs every task inline on the
///    calling thread; `Serial()` returns a shared pool in this mode, which
///    tests use to force deterministic single-threaded execution.
///  - `Global()` returns the process-wide pool, sized from the
///    `ADS_THREADS` environment variable (`ADS_THREADS=1` forces inline
///    execution; unset or 0 means hardware concurrency).
///  - Destruction is graceful: already-submitted tasks are drained before
///    the workers exit, so pending futures always complete.
///  - Exceptions thrown by tasks are captured and rethrown from the
///    corresponding `std::future` (Submit) or from `ParallelFor` on the
///    calling thread (first failing chunk in index order wins).
class ThreadPool {
 public:
  /// Spawns `num_workers` threads; 0 means run everything inline.
  explicit ThreadPool(size_t num_workers);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task and returns a future for its result. With 0 workers
  /// the task runs inline before Submit returns.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    // The scope closes (the task counts as executed) before packaged_task
    // publishes the result, so Stats() after future::get() includes it.
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::forward<F>(fn)]() mutable -> R {
          TaskScope scope(this);
          return fn();
        });
    std::future<R> future = task->get_future();
    Schedule([task]() { (*task)(); });
    return future;
  }

  /// Runs `fn(chunk_begin, chunk_end)` over [begin, end) split into chunks
  /// of at most `grain` indices. Chunk boundaries depend only on (begin,
  /// end, grain) — never on the worker count — so chunk-local reductions
  /// merged in chunk order are bit-identical in serial and parallel runs.
  ///
  /// Blocks until every chunk has finished. Nested calls from inside a
  /// worker of this pool execute inline (same chunking) to avoid deadlock.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// Number of worker threads (0 = inline mode).
  size_t worker_count() const { return workers_.size(); }

  /// Load snapshot (queue depth, active workers, tasks executed) for the
  /// serving runtime's gauge sampler and other monitors. `executed` is a
  /// monotonic counter. A task's bookkeeping completes before its
  /// completion is visible, so a snapshot taken after `future::get()` or
  /// `ParallelFor` returns counts those tasks as executed, not active.
  ThreadPoolStats Stats() const;

  /// True when called from one of this pool's worker threads.
  bool InWorker() const;

  /// Process-wide shared pool, sized from ADS_THREADS (default: hardware
  /// concurrency). Constructed on first use.
  static ThreadPool& Global();

  /// Shared 0-worker pool: every task runs inline on the calling thread.
  static ThreadPool& Serial();

 private:
  /// Marks one queued or inline-scheduled task active for its lifetime and
  /// executed at its end. The task opens one around its body and closes it
  /// before signalling its completion.
  class TaskScope {
   public:
    explicit TaskScope(ThreadPool* pool) : pool_(pool) { ++pool_->active_; }
    ~TaskScope() {
      --pool_->active_;
      ++pool_->executed_;
    }
    TaskScope(const TaskScope&) = delete;
    TaskScope& operator=(const TaskScope&) = delete;

   private:
    ThreadPool* pool_;
  };

  void Schedule(std::function<void()> task);
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
  std::atomic<size_t> active_{0};
  std::atomic<uint64_t> executed_{0};
};

/// Convenience wrapper: ThreadPool::Global().ParallelFor(...).
void parallel_for(size_t begin, size_t end, size_t grain,
                  const std::function<void(size_t, size_t)>& fn);

/// Same, on an explicit pool (e.g. ThreadPool::Serial() in tests).
void parallel_for(ThreadPool& pool, size_t begin, size_t end, size_t grain,
                  const std::function<void(size_t, size_t)>& fn);

}  // namespace ads::common

#endif  // ADS_COMMON_THREAD_POOL_H_
