#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>

namespace ads::common {
namespace {

/// Set for the duration of WorkerLoop so nested ParallelFor calls on the
/// same pool can detect they are already on a worker and run inline.
thread_local const ThreadPool* g_current_pool = nullptr;

size_t GlobalWorkerCount() {
  size_t n = 0;
  if (const char* env = std::getenv("ADS_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) n = static_cast<size_t>(v);
  }
  if (n == 0) n = std::max<size_t>(1, std::thread::hardware_concurrency());
  // One worker buys no concurrency over the calling thread; run inline.
  return n <= 1 ? 0 : n;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  if (workers_.empty() || InWorker()) {
    // Inline mode, or a worker scheduling onto its own pool (running
    // inline avoids deadlock when every worker blocks on subtasks).
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  g_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this]() { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) break;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // counts itself; packaged_task captures exceptions
  }
  g_current_pool = nullptr;
}

ThreadPoolStats ThreadPool::Stats() const {
  ThreadPoolStats stats;
  stats.workers = workers_.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queued = queue_.size();
  }
  stats.active = active_.load();
  stats.executed = executed_.load();
  return stats;
}

bool ThreadPool::InWorker() const { return g_current_pool == this; }

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  // Chunk boundaries are a pure function of (begin, end, grain) so that
  // chunk-order reductions are identical no matter how work is placed.
  if (workers_.empty() || InWorker() || end - begin <= grain) {
    for (size_t cb = begin; cb < end; cb += grain) {
      fn(cb, std::min(end, cb + grain));
      ++executed_;
    }
    return;
  }
  size_t num_chunks = (end - begin + grain - 1) / grain;
  std::vector<std::exception_ptr> errors(num_chunks);
  // Completion handshake. `remaining` is guarded by done_mu, and a chunk
  // decrements and notifies under it: the caller cannot observe zero, and
  // return (destroying these locals), until the last chunk has released
  // done_mu, after which no chunk touches this frame again.
  size_t remaining = num_chunks;
  std::mutex done_mu;
  std::condition_variable done_cv;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t c = 0; c < num_chunks; ++c) {
      size_t cb = begin + c * grain;
      size_t ce = std::min(end, cb + grain);
      queue_.push_back([&, c, cb, ce]() {
        {
          TaskScope scope(this);
          try {
            fn(cb, ce);
          } catch (...) {
            errors[c] = std::current_exception();
          }
        }
        std::lock_guard<std::mutex> done_lock(done_mu);
        if (--remaining == 0) done_cv.notify_all();
      });
    }
  }
  work_available_.notify_all();
  std::unique_lock<std::mutex> done_lock(done_mu);
  done_cv.wait(done_lock, [&]() { return remaining == 0; });
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);  // first failing chunk wins
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(GlobalWorkerCount());
  return *pool;
}

ThreadPool& ThreadPool::Serial() {
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void parallel_for(size_t begin, size_t end, size_t grain,
                  const std::function<void(size_t, size_t)>& fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, fn);
}

void parallel_for(ThreadPool& pool, size_t begin, size_t end, size_t grain,
                  const std::function<void(size_t, size_t)>& fn) {
  pool.ParallelFor(begin, end, grain, fn);
}

}  // namespace ads::common
