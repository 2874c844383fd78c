// A small fixed-size thread pool for background and data-parallel work.
//
// The paper's system performs several kinds of concurrent work:
//   - background rebuild of AA caches after mount (§3.4) while client
//     operations are already being served from the TopAA seed,
//   - background replenishment of the HBPS list by walking bitmap metafiles
//     (§3.3.2), and
//   - per-RAID-group / per-volume CP work that is independent and can be
//     sharded (cf. "Scalable Write Allocation in the WAFL File System").
//
// The pool provides fire-and-forget submission plus blocking loops over
// an index range: parallel_for (static chunks, for fine uniform loops)
// and parallel_for_dynamic (a shared counter, for uneven or coarse work).
//
// One level of fan-out.  A parallel_for* caller runs one part itself and
// then waits for the others, which sit in the queue until a free worker
// takes them.  Issued from inside a pool task, that wait holds a worker;
// once every worker waits that way, no one is left to run the queued
// parts.  So code already running on the pool (mount's per-volume loop,
// for one) calls only serial code.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wafl {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void wait_idle();

  /// Runs fn(i) for every i in [begin, end) across the pool, blocking until
  /// all iterations complete.  The calling thread participates.
  ///
  /// If fn throws, remaining iterations are abandoned (best effort — ones
  /// already running finish) and the first exception is rethrown on the
  /// calling thread once every part has stopped.  This is what lets a
  /// crash point fired inside a parallel CP phase unwind like a crash
  /// instead of terminating the process; phases that do write to a store
  /// (the metafile flush, the TopAA commits) keep persisted state sound
  /// because every store block has exactly one writer and the crash
  /// harness invariants are interleaving-agnostic (DESIGN.md §9-§10).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Like parallel_for, but dynamically scheduled: workers pull one index
  /// at a time from a shared counter, so a few expensive iterations do not
  /// serialize behind a static chunk assignment.  Use for coarse, uneven
  /// work (per-RAID-group CP-boundary work varies with each group's free
  /// batch and AA churn); the per-index atomic costs more than static
  /// chunking for fine uniform loops.  The calling thread participates.
  /// Exceptions propagate as in parallel_for.
  void parallel_for_dynamic(std::size_t begin, std::size_t end,
                            const std::function<void(std::size_t)>& fn);

  /// Dynamically scheduled with run-of-`chunk` pulls: each grab of the
  /// shared counter claims [i, i+chunk) indices.  The middle ground for
  /// loops that are fine-grained but mildly uneven (per-metafile-block
  /// flush and mount-walk work): one atomic per chunk instead of per
  /// index, while tail imbalance stays bounded by chunk-1 iterations.
  /// Exceptions propagate as in parallel_for.
  void parallel_for_dynamic(std::size_t begin, std::size_t end,
                            std::size_t chunk,
                            const std::function<void(std::size_t)>& fn);

  std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wafl
