#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ads::common {
namespace {

TEST(ThreadPoolTest, SubmitRunsAllTasksAndReturnsValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool& pool = ThreadPool::Serial();
  EXPECT_EQ(pool.worker_count(), 0u);
  std::thread::id submitter = std::this_thread::get_id();
  auto f = pool.Submit([submitter]() {
    EXPECT_EQ(std::this_thread::get_id(), submitter);
    return 7;
  });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, 7, [&](size_t cb, size_t ce) {
    for (size_t i = cb; i < ce; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunkBoundariesIndependentOfWorkers) {
  // Chunk boundaries must be a pure function of (begin, end, grain) so
  // chunk-order reductions are bit-identical in serial and parallel runs.
  auto chunks_of = [](ThreadPool& pool) {
    std::vector<std::pair<size_t, size_t>> chunks(5);
    pool.ParallelFor(3, 50, 10, [&](size_t cb, size_t ce) {
      chunks[(cb - 3) / 10] = {cb, ce};
    });
    return chunks;
  };
  ThreadPool parallel(4);
  EXPECT_EQ(chunks_of(parallel), chunks_of(ThreadPool::Serial()));
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstChunkException) {
  ThreadPool pool(4);
  try {
    pool.ParallelFor(0, 100, 10, [&](size_t cb, size_t) {
      if (cb >= 50) throw std::runtime_error("chunk " + std::to_string(cb));
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 50");  // first failing chunk in order
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total(0);
  pool.ParallelFor(0, 8, 1, [&](size_t cb, size_t ce) {
    for (size_t i = cb; i < ce; ++i) {
      // Inner loop lands on a worker of the same pool and must run
      // inline instead of waiting for a free worker.
      pool.ParallelFor(0, 16, 4, [&](size_t ib, size_t ie) {
        total.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingWork) {
  std::atomic<int> completed(0);
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.Submit([&completed]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        completed.fetch_add(1);
      }));
    }
    // Destructor runs here with most tasks still queued.
  }
  EXPECT_EQ(completed.load(), 32);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

TEST(ThreadPoolTest, StatsCountsExecutedTasks) {
  ThreadPool pool(2);
  ThreadPoolStats before = pool.Stats();
  EXPECT_EQ(before.workers, 2u);
  EXPECT_EQ(before.executed, 0u);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([]() {}));
  }
  for (auto& f : futures) f.get();
  pool.ParallelFor(0, 64, 16, [](size_t, size_t) {});  // 4 chunks
  ThreadPoolStats after = pool.Stats();
  EXPECT_EQ(after.executed, 20u);
  EXPECT_EQ(after.queued, 0u);
  EXPECT_EQ(after.active, 0u);
}

TEST(ThreadPoolTest, StatsAreSettledWhenParallelForAndFuturesReturn) {
  // Many short ParallelFor calls race the last chunk's completion signal
  // against the caller returning: the caller's stack-local handshake state
  // must outlive the last chunk's use of it, and each chunk's bookkeeping
  // must land before the caller can read Stats().
  ThreadPool pool(4);
  uint64_t expected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::atomic<size_t> covered(0);
    pool.ParallelFor(0, 24, 3, [&](size_t cb, size_t ce) {
      covered.fetch_add(ce - cb);
    });
    expected += 8;  // 24 indices in chunks of 3
    ASSERT_EQ(covered.load(), 24u) << "iteration " << iter;
    ThreadPoolStats stats = pool.Stats();
    ASSERT_EQ(stats.executed, expected) << "iteration " << iter;
    ASSERT_EQ(stats.active, 0u) << "iteration " << iter;
    if (iter % 50 == 0) {
      pool.Submit([]() {}).get();
      expected += 1;
      stats = pool.Stats();
      ASSERT_EQ(stats.executed, expected) << "iteration " << iter;
      ASSERT_EQ(stats.active, 0u) << "iteration " << iter;
    }
  }
}

TEST(ThreadPoolTest, StatsCountsInlineExecution) {
  ThreadPool inline_pool(0);
  inline_pool.Submit([]() {}).get();
  inline_pool.ParallelFor(0, 10, 5, [](size_t, size_t) {});  // 2 chunks
  ThreadPoolStats stats = inline_pool.Stats();
  EXPECT_EQ(stats.workers, 0u);
  EXPECT_EQ(stats.executed, 3u);
}

TEST(ThreadPoolTest, GlobalPoolIsUsableViaFreeFunction) {
  std::vector<int> out(257, 0);
  parallel_for(0, out.size(), 32, [&](size_t cb, size_t ce) {
    for (size_t i = cb; i < ce; ++i) out[i] = static_cast<int>(i);
  });
  int expected = 0;
  for (size_t i = 0; i < out.size(); ++i) expected += static_cast<int>(i);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), expected);
}

}  // namespace
}  // namespace ads::common
