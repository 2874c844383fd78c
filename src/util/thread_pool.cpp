#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "util/assert.hpp"
#include "util/task_context.hpp"

namespace wafl {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  WAFL_ASSERT(task != nullptr);
  // Capture the submitter's task context so the task runs as a child of
  // whatever span (or other context) was open at submission time.  Every
  // parallel_for part funnels through here, which is what lets obs spans
  // nest across the fan-out.  The scope restores the worker's previous
  // word even if the task throws.
  auto wrapped = [ctx = current_task_context(), t = std::move(task)] {
    TaskContextScope scope(ctx);
    t();
  };
  {
    std::lock_guard lock(mu_);
    WAFL_ASSERT_MSG(!stop_, "submit after shutdown");
    queue_.push_back(std::move(wrapped));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

namespace {

/// Completion state of one parallel_for call, shared by its parts.  It
/// lives on the caller's stack, so every part's last access to it happens
/// under `mu`: the caller returns only after it has taken `mu` and seen
/// `remaining == 0`, which orders each part's final touch before the frame
/// is gone.
struct PartSync {
  explicit PartSync(std::size_t parts) : remaining(parts) {}

  /// Records the first exception and asks the other parts to stop early.
  void fail(std::exception_ptr e) {
    {
      std::lock_guard lk(mu);
      if (first_error == nullptr) first_error = std::move(e);
    }
    abort.store(true, std::memory_order_relaxed);
  }

  /// A part's final action: nothing on the caller's stack may be touched
  /// after this returns.
  void part_done() {
    std::lock_guard lk(mu);
    if (--remaining == 0) cv.notify_one();
  }

  /// Blocks until every part is done, then rethrows the first exception.
  void wait() {
    std::unique_lock lk(mu);
    cv.wait(lk, [this] { return remaining == 0; });
    if (first_error != nullptr) std::rethrow_exception(first_error);
  }

  std::atomic<bool> abort{false};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining;          // guarded by mu
  std::exception_ptr first_error;  // guarded by mu
};

}  // namespace

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t chunk,
                              const std::function<void(std::size_t)>& fn) {
  WAFL_ASSERT(chunk > 0);
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t nchunks = (n + chunk - 1) / chunk;
  const std::size_t parts = std::min(nchunks, workers_.size() + 1);
  std::atomic<std::size_t> next{begin};
  PartSync sync(parts);

  auto run = [&] {
    try {
      for (;;) {
        if (sync.abort.load(std::memory_order_relaxed)) break;
        const std::size_t lo =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= end) break;
        const std::size_t hi = std::min(end, lo + chunk);
        for (std::size_t i = lo; i < hi; ++i) {
          if (sync.abort.load(std::memory_order_relaxed)) break;
          fn(i);
        }
      }
    } catch (...) {
      sync.fail(std::current_exception());
    }
    sync.part_done();
  };

  // Workers take parts [1, parts); the caller runs one part itself so a
  // single-threaded pool still makes progress while the queue is busy.
  for (std::size_t p = 1; p < parts; ++p) {
    submit([&] { run(); });
  }
  run();
  sync.wait();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stop_ must be set; drain is complete.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) {
        cv_idle_.notify_all();
      }
    }
  }
}

}  // namespace wafl
