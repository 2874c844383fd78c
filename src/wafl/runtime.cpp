#include "wafl/runtime.hpp"

#include <utility>

#include "wafl/write_allocator.hpp"

namespace wafl {

// --- DrainExecutor ---------------------------------------------------------

DrainExecutor::DrainExecutor(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

DrainExecutor::~DrainExecutor() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void DrainExecutor::submit(std::function<void()> job) {
  {
    std::lock_guard lk(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void DrainExecutor::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

// --- Runtime ---------------------------------------------------------------

std::string Runtime::labels(std::string_view base) const {
  if (agg_id_.empty()) return std::string(base);
  std::string out = "agg=\"" + agg_id_ + "\"";
  if (!base.empty()) {
    out += ',';
    out += base;
  }
  return out;
}

const Runtime& process_runtime() {
  static const Runtime rt;
  return rt;
}

// --- RuntimeBundle ---------------------------------------------------------

RuntimeBundle::RuntimeBundle(std::string id)
    : agg_id(std::move(id)),
      flight(registry),
      hooks(registry, flight),
      profile(std::make_unique<CpPhaseProfile>()) {}

RuntimeBundle::~RuntimeBundle() = default;

Runtime RuntimeBundle::runtime(ThreadPool* pool, DrainExecutor* exec) {
  return Runtime{}
      .with_agg_id(agg_id)
      .with_registry(registry)
      .with_crash_hooks(hooks)
      .with_cp_phase_profile(*profile)
      .with_pool(pool)
      .with_drain_executor(exec);
}

}  // namespace wafl
