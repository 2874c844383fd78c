// wafl::Runtime — the per-aggregate execution context (DESIGN.md §16).
//
// Historically every service an aggregate needs was process-global: the
// obs registry, the crash-hook registry, the phase profile, and a
// nullable raw `ThreadPool*` default argument threaded ad hoc through the
// CP, mount, Iron and scan paths.  One process could therefore simulate
// exactly one aggregate: a second instance would alias its rg="N"/vol="N"
// metric labels, share armed crash hooks, and spawn a private drain
// thread per OverlappedCpDriver.
//
// Runtime makes the context explicit.  It is a small copyable value of
// non-owning handles:
//
//   - an obs Registry scope (plus an `agg="<id>"` label dimension merged
//     into every labelled metric the aggregate registers),
//   - a CrashHooks registry (so a FaultPlan armed on aggregate A cannot
//     fire inside aggregate B — invariants I-A..I-D are per-runtime),
//   - a CpPhaseProfile (per-aggregate phase accounting),
//   - a *shared* ThreadPool handle and a capped DrainExecutor for
//     overlapped-CP drains.
//
// The registry, hook and profile handles are never null: a default
// Runtime points them at the process singletons, so `Runtime{}` (==
// process_runtime()) is the single-aggregate behaviour.  The span
// timeline is not a handle at all — it stays process-wide by design
// (parent propagation rides the shared ThreadPool's task context, so one
// fleet produces one coherent timeline).  RuntimeBundle owns one full set
// of per-aggregate instances and wires them together — the fleet driver
// holds one bundle per member.  The pool and drain-executor handles are
// the only nullable ones; null there means "run serially" and "own a
// private drain thread", not a fallback to some other instance.
//
// Drain-executor rule: overlapped-CP drains must NEVER run as ThreadPool
// tasks.  A drain occupying a pool worker blocks inside parallel_for
// waiting for its parts — parts that are queued *behind* it; with few
// workers and several draining aggregates that is a deadlock.  Drains
// therefore run on a DrainExecutor: a tiny dedicated-thread executor,
// capped at a fleet-wide thread count, whose workers act as external
// callers into the shared pool (concurrent parallel_for from multiple
// external threads is supported).  A driver whose runtime carries no
// executor lazily owns a single-thread one — exactly the old dedicated
// drain thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fault/crash_point.hpp"
#include "obs/obs.hpp"

namespace wafl {

class ThreadPool;
struct CpPhaseProfile;  // write_allocator.hpp (would be a circular include)

/// Capped executor for overlapped-CP drains (see the drain-executor rule
/// above).  Jobs run FIFO across `threads` dedicated workers; destruction
/// drains the queue, then joins.  Completion signalling stays with the
/// submitter (OverlappedCpDriver's drain_in_flight_ flag) — the executor
/// itself is fire-and-forget, like ThreadPool::submit.
class DrainExecutor {
 public:
  explicit DrainExecutor(std::size_t threads = 1);
  ~DrainExecutor();

  DrainExecutor(const DrainExecutor&) = delete;
  DrainExecutor& operator=(const DrainExecutor&) = delete;

  void submit(std::function<void()> job);
  std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// The process-global phase profile (write_allocator.hpp).
CpPhaseProfile& cp_phase_profile();

class Runtime {
 public:
  // --- Scoped services ---------------------------------------------------
  obs::Registry& registry() const noexcept { return *registry_; }
  fault::CrashHooks& crash_hooks() const noexcept { return *hooks_; }
  /// Per-aggregate phase accounting.
  CpPhaseProfile& cp_phase_profile() const noexcept { return *profile_; }

  /// The shared worker pool (null: every parallel phase runs serially —
  /// the same code path, bit-identical results).
  ThreadPool* pool() const noexcept { return pool_; }
  /// The fleet drain executor (null: each OverlappedCpDriver lazily owns
  /// a single-thread one).
  DrainExecutor* drain_executor() const noexcept { return drain_exec_; }

  const std::string& agg_id() const noexcept { return agg_id_; }

  /// Merges the runtime's aggregate dimension into a label string:
  /// labels("rg=\"3\"") is `agg="<id>",rg="3"` — and `rg="3"` unchanged
  /// when agg_id is empty, which is what keeps single-aggregate metric
  /// exports byte-stable.
  std::string labels(std::string_view base = {}) const;

  // --- Builder-style wiring ----------------------------------------------
  Runtime& with_agg_id(std::string id) {
    agg_id_ = std::move(id);
    return *this;
  }
  Runtime& with_registry(obs::Registry& r) {
    registry_ = &r;
    return *this;
  }
  Runtime& with_crash_hooks(fault::CrashHooks& h) {
    hooks_ = &h;
    return *this;
  }
  Runtime& with_cp_phase_profile(CpPhaseProfile& p) {
    profile_ = &p;
    return *this;
  }
  Runtime& with_pool(ThreadPool* p) {
    pool_ = p;
    return *this;
  }
  Runtime& with_drain_executor(DrainExecutor* e) {
    drain_exec_ = e;
    return *this;
  }

 private:
  std::string agg_id_;
  obs::Registry* registry_ = &obs::registry();
  fault::CrashHooks* hooks_ = &fault::crash_hooks();
  CpPhaseProfile* profile_ = &::wafl::cp_phase_profile();
  ThreadPool* pool_ = nullptr;
  DrainExecutor* drain_exec_ = nullptr;
};

/// The process-default context: every service is the matching
/// process-global singleton, with no pool.  What `Aggregate` uses when
/// constructed without an explicit Runtime.
const Runtime& process_runtime();

/// One aggregate's owned service instances, wired together: crash hooks
/// count into *this* registry and note into *this* flight recorder, which
/// snapshots *this* registry.  Non-movable (Runtime values point into
/// it); keep the bundle alive for as long as its aggregate.
struct RuntimeBundle {
  explicit RuntimeBundle(std::string agg_id);
  ~RuntimeBundle();

  RuntimeBundle(const RuntimeBundle&) = delete;
  RuntimeBundle& operator=(const RuntimeBundle&) = delete;

  /// A Runtime over this bundle's services plus the shared execution
  /// handles (either may be null).
  Runtime runtime(ThreadPool* pool, DrainExecutor* exec);

  std::string agg_id;
  obs::Registry registry;
  obs::FlightRecorder flight;
  fault::CrashHooks hooks;
  std::unique_ptr<CpPhaseProfile> profile;
};

}  // namespace wafl

/// A named crash point routed through an explicit Runtime — an armed hook
/// in one aggregate's runtime never fires in another's.
#define WAFL_CRASH_POINT_RT(rt, name) ((rt).crash_hooks().hit(name))
