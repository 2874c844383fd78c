// Named crash points: deterministic mid-operation failure injection.
//
// The TopAA metafiles are caches whose correctness argument (§3.4) is a
// recovery argument: any prefix of the CP boundary's persistence steps may
// reach the media before a crash, and mount + WAFL Iron must converge the
// survivors back to a consistent state.  To *prove* that, the CP boundary,
// mount, and recovery paths are instrumented with named crash points:
//
//   WAFL_CRASH_POINT_RT(rt, "wa.before_bitmap_flush");
//
// (wafl/runtime.hpp: the hit goes to the aggregate's own CrashHooks.)  In
// production nothing is armed and a crash point costs one relaxed atomic
// load.  A test arms a point — rt.crash_hooks().arm(name, nth) — and
// the nth execution of that point throws CrashPoint, unwinding out of the
// CP exactly as a power loss would freeze it: everything already written
// to the BlockStores survives, everything in memory is lost (the harness
// rebuilds a fresh aggregate over the surviving store bytes).
//
// Hook catalogue (see DESIGN.md §9): rg.after_frees and
// rg.after_topaa_encode (per group, inside the possibly-parallel boundary
// phase); wa.before_boundary, wa.after_boundary, wa.before_bitmap_flush
// (serial points); wa.in_bitmap_flush (per dirty metafile block, inside
// the possibly-parallel flush — nth selects how many blocks may have
// flushed first); wa.after_bitmap_flush; wa.before_topaa_commit (per
// group, inside the possibly-parallel commit phase — nth selects how
// many commits may have landed first); wa.after_topaa_commits (CP
// epilogue); cp.before_volume_finish (per volume), cp.before_agg_finish;
// mount.begin, mount.before_vol_seed, mount.before_scan, recover.begin.
// With workers=0 every point fires at a fixed serial position; with
// workers>0 the per-item points are interleaving-dependent and tests
// assert the interleaving-agnostic invariants only.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace wafl::obs {
class FlightRecorder;
class Registry;
}  // namespace wafl::obs

namespace wafl::fault {

/// Thrown by an armed crash point (or by a FaultEngine write-count
/// trigger).  Simulates a crash: callers must not catch it anywhere below
/// the test harness, so the operation unwinds with its persistent state
/// frozen mid-flight.
class CrashPoint : public std::runtime_error {
 public:
  CrashPoint(const std::string& point, std::uint64_t hit_count);

  /// Name of the crash point (or "store.write" for write-count crashes).
  const std::string& point() const noexcept { return point_; }
  /// How many times the point had executed when it fired.
  std::uint64_t hit_count() const noexcept { return hit_count_; }

 private:
  std::string point_;
  std::uint64_t hit_count_;
};

/// Registry of armed crash points.  One instance is process-global
/// (crash_hooks(), what a default Runtime reaches); per-aggregate runtimes
/// own their own, so arming a hook in one aggregate's scope never fires
/// in another's.  Thread-safe: crash points in the parallel CP-boundary
/// phase are hit concurrently (the ThreadPool rethrows the first
/// CrashPoint on the calling thread).
class CrashHooks {
 public:
  /// A fired crash counts into `reg` and notes into `flight`.
  CrashHooks(obs::Registry& reg, obs::FlightRecorder& flight)
      : reg_(&reg), flight_(&flight) {}

  /// Arms `name`: its `nth` execution after this call throws CrashPoint.
  /// Re-arming an armed name replaces its trigger.  A fired point disarms
  /// itself (one crash per arm).
  void arm(const std::string& name, std::uint64_t nth = 1);

  /// Disarms everything (test teardown / post-crash recovery).
  void disarm_all();

  /// Executions of `name` since it was armed (0 if not armed).
  std::uint64_t hits(const std::string& name) const;

  bool any_armed() const noexcept {
    return armed_count_.load(std::memory_order_relaxed) != 0;
  }

  /// The crash-point call itself.  Not armed: one relaxed load.
  void hit(const char* name) {
    if (armed_count_.load(std::memory_order_relaxed) == 0) return;
    hit_slow(name);
  }

 private:
  void hit_slow(const char* name);

  struct Armed {
    std::uint64_t nth = 1;
    std::uint64_t count = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Armed> armed_;
  std::atomic<std::size_t> armed_count_{0};
  obs::Registry* const reg_;
  obs::FlightRecorder* const flight_;
};

/// Process-global hook registry (one per process, like obs::registry()),
/// counting into obs::registry() and noting into obs::flight_recorder().
CrashHooks& crash_hooks();

}  // namespace wafl::fault
