#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/task_context.hpp"

namespace wafl {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnFreshPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  pool.parallel_for(0, hits.size(), 1,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, 1, [](std::size_t) { FAIL(); });
  pool.parallel_for(7, 3, 1, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(3);
  std::atomic<int> hits{0};
  pool.parallel_for(41, 42, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 41u);
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 1);
}

TEST(ThreadPool, ParallelForWithSingleThreadPool) {
  // The caller participates, so one worker plus the caller run the loop.
  ThreadPool pool(1);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}}) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(0, 100, chunk, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, ParallelForMoreItemsThanThreads) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, 10000, 1, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 10000ull * 9999 / 2);
}

TEST(ThreadPool, SequentialParallelForCalls) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(0, 100, 1, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, NullPoolRunsInlineInOrder) {
  // The free parallel_for runs the loop on the caller, in index order,
  // when there is no pool or the range is one chunk, and an exception
  // reaches the caller unchanged.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "null pool" : "single chunk");
    const std::size_t chunk = p == nullptr ? 1 : 64;
    std::vector<std::size_t> order;
    parallel_for(p, 64, chunk, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    std::vector<std::size_t> want(64);
    std::iota(want.begin(), want.end(), std::size_t{0});
    EXPECT_EQ(order, want);

    order.clear();
    EXPECT_THROW(parallel_for(p, 64, chunk,
                              [&](std::size_t i) {
                                if (i == 9) throw std::runtime_error("nine");
                                order.push_back(i);
                              }),
                 std::runtime_error);
    EXPECT_EQ(order.size(), 9u);  // stopped at the throwing index
  }
  parallel_for(nullptr, 0, 1, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForDynamicUnevenWork) {
  // Dynamic scheduling exists for skewed per-item cost: one slow item
  // must not serialize the rest behind a static chunk boundary.
  ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, 200, 1, [&](std::size_t i) {
    std::uint64_t acc = 0;
    const std::uint64_t spins = (i == 0) ? 200'000 : 10;
    for (std::uint64_t k = 0; k < spins; ++k) acc += k % 7;
    sum.fetch_add(i + (acc & 1));
  });
  EXPECT_GE(sum.load(), 200ull * 199 / 2);
}

TEST(ThreadPool, ParallelForDynamicChunkedCoversEveryIndexOnce) {
  // Chunks amortize the shared counter over `chunk` items; coverage must
  // stay exactly-once for ranges that are not a multiple of the chunk
  // size (the last chunk is partial).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10'037);  // prime, not a chunk multiple
  pool.parallel_for(0, hits.size(), /*chunk=*/64,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForDynamicChunkedEdgeShapes) {
  ThreadPool pool(2);
  // Empty, chunk larger than the range, and chunk == range.
  pool.parallel_for(9, 2, /*chunk=*/16, [](std::size_t) { FAIL(); });
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, 5, /*chunk=*/100,
                    [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 10u);
  sum.store(0);
  pool.parallel_for(0, 8, /*chunk=*/8,
                    [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 28u);
}

TEST(ThreadPool, ParallelForDynamicChunkedRethrows) {
  // An exception thrown mid-chunk abandons the remaining chunks.
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(0, 1000, /*chunk=*/32,
                                 [](std::size_t i) {
                                   if (i == 321) {
                                     throw std::runtime_error("c");
                                   }
                                 }),
               std::runtime_error);
  std::atomic<int> after{0};
  pool.parallel_for(0, 64, /*chunk=*/7,
                    [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  // A crash point fired inside the parallel CP boundary must unwind to
  // the caller as one exception, not std::terminate the process.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(0, 1000, 1, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 17) throw std::runtime_error("boom at 17");
    });
    FAIL() << "expected the worker exception on the calling thread";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "boom at 17");
  }
  // Remaining iterations were abandoned best-effort, never re-run.
  EXPECT_LE(ran.load(), 1000);
  // Several parts may throw; exactly one exception reaches the caller and
  // the rest are swallowed after the loop stops.
  std::atomic<int> throws{0};
  EXPECT_THROW(pool.parallel_for(0, 500, 1,
                                 [&](std::size_t i) {
                                   if (i % 100 == 3) {
                                     throws.fetch_add(1);
                                     throw std::runtime_error("x");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_GE(throws.load(), 1);
  // The pool survives and is reusable afterwards.
  std::atomic<int> after{0};
  pool.parallel_for(0, 100, 1, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPool, ExceptionWithSingleThreadPool) {
  // With one worker the calling thread still participates; the rethrow
  // path must work when the throwing iteration runs on the caller.
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(0, 10, 1,
                                 [](std::size_t i) {
                                   if (i >= 5) throw std::runtime_error("c");
                                 }),
               std::runtime_error);
  pool.wait_idle();  // pool healthy
}

TEST(ThreadPool, ThreadCountDefaultsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, TaskContextPropagatesToSubmittedTasks) {
  // submit() snapshots the submitter's context word; every task runs under
  // it and worker threads are restored to their own afterwards.
  ThreadPool pool(4);
  std::atomic<int> wrong{0};
  {
    TaskContextScope scope(0xC0FFEE);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&wrong] {
        if (current_task_context() != 0xC0FFEE) wrong.fetch_add(1);
      });
    }
  }
  pool.wait_idle();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(current_task_context(), 0u);
}

TEST(ThreadPool, TaskContextNestingSurvivesChunkedOverload) {
  // A chunked loop runs many items per pool task; every item of every
  // chunk must see the submitter's context, and a nested parallel_for
  // inside an item must propagate the *item's* context, not the worker
  // thread's previous one.
  ThreadPool pool(4);
  std::atomic<int> wrong_outer{0};
  std::atomic<int> wrong_inner{0};
  TaskContextScope scope(7001);
  pool.parallel_for(0, 1000, /*chunk=*/64, [&](std::size_t i) {
    if (current_task_context() != 7001) wrong_outer.fetch_add(1);
    if (i == 500) {
      // Nest: re-label the context for an inner fan-out from a worker.
      TaskContextScope inner_scope(8002);
      pool.parallel_for(0, 64, 1, [&](std::size_t) {
        if (current_task_context() != 8002) wrong_inner.fetch_add(1);
      });
      // The inner scope's end restores the outer context on this thread.
    }
    if (current_task_context() != 7001) wrong_outer.fetch_add(1);
  });
  EXPECT_EQ(wrong_outer.load(), 0);
  EXPECT_EQ(wrong_inner.load(), 0);
}

TEST(ThreadPool, TaskContextRestoredAcrossExceptionRethrow) {
  // A worker's context restoration is scope-based, so a throwing task must
  // not leak its context into the next task the worker picks up — and the
  // caller's own context survives the rethrow.
  ThreadPool pool(3);
  TaskContextScope scope(4242);
  EXPECT_THROW(pool.parallel_for(0, 300, 1,
                                 [](std::size_t i) {
                                   if (i == 50) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(current_task_context(), 4242u);

  // Tasks submitted after the failed loop see the fresh context, never a
  // stale word left behind by the aborted tasks.
  std::atomic<int> wrong{0};
  {
    TaskContextScope next(5151);
    pool.parallel_for(0, 200, 1, [&](std::size_t) {
      if (current_task_context() != 5151) wrong.fetch_add(1);
    });
  }
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPool, ConcurrentCallersStress) {
  // Each call keeps its completion state on the caller's stack, so the
  // last part to finish must be done with it before the caller can see
  // the call complete; otherwise the part touches a frame the caller has
  // already left (under ASan, which the test binaries run with
  // stack-use-after-return detection: tests/support/asan_options.cpp).
  // Two callers issue thousands of small calls on one pool.  Each item
  // takes about a microsecond, long enough for the woken workers to join,
  // so every part of a call ends within an item of the others — the
  // timing that exposes the hand-off.
  ThreadPool pool(4);
  constexpr std::size_t kCalls = 10000;
  constexpr std::size_t kItems = 64;
  std::atomic<std::uint64_t> total{0};
  auto caller = [&](std::size_t parity) {
    for (std::size_t c = 0; c < kCalls; ++c) {
      std::atomic<std::uint64_t> hits{0};
      auto fn = [&](std::size_t) {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(1);
        while (std::chrono::steady_clock::now() < until) {
        }
        hits.fetch_add(1);
      };
      pool.parallel_for(0, kItems, (c + parity) % 2 == 0 ? 1 : 8, fn);
      total.fetch_add(hits.load());
    }
  };
  std::thread a(caller, std::size_t{0});
  std::thread b(caller, std::size_t{1});
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * kCalls * kItems);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    // No wait_idle: destruction must still run everything already queued.
  }
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace wafl
