// Mount orchestration and timing (§3.4, Figure 10).
//
// After a failover or reboot, write allocation — and therefore the first
// CP, which gates the restoration of client access — cannot begin until
// the AA caches are operational.  Two paths exist:
//
//   - TopAA path: read each RAID group's one-block TopAA metafile and each
//     FlexVol's two-block HBPS metafile; seed the caches.  Work is
//     constant per file system, independent of size.  The full caches are
//     then completed in the background (complete_background()).
//
//   - Scan path: linearly walk every bitmap metafile block, recompute all
//     AA scores, and build the caches from scratch.  Work is linear in
//     file-system size.
//
// mount_all() executes the chosen path and reports what it cost: metafile
// blocks read (the I/O term — the dominant cost on real systems, modeled
// by the caller from a per-read latency) and measured CPU seconds (the
// popcount/build term, measured for real).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "wafl/aggregate.hpp"

namespace wafl {

/// Accumulated scan-phase timings (nanoseconds, fetch_add relaxed — safe
/// from any thread).  In a serial run the buckets partition the scan's
/// wall time, which is what fig10's Amdahl projection consumes; with a
/// pool they are per-thread CPU attributions, not wall.
struct ScanProfile {
  std::atomic<std::uint64_t> read_ns{0};   // metafile block loads
  std::atomic<std::uint64_t> seed_ns{0};   // per-AA scoring
  std::atomic<std::uint64_t> build_ns{0};  // heap/HBPS builds

  void reset() { read_ns = seed_ns = build_ns = 0; }

  /// Runs fn() and adds its wall time to `bucket`.
  template <typename F>
  static void timed(std::atomic<std::uint64_t>& bucket, F&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    bucket.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
  }
};

/// Process-global profile (same pattern as CpPhaseProfile): benches reset
/// it, run a scan, and read the buckets back.
ScanProfile& scan_profile();

struct MountReport {
  bool used_topaa = false;
  /// Metafile blocks read while gating the first CP.
  std::uint64_t gate_block_reads = 0;
  /// Wall-clock CPU seconds spent in the gating phase (measured).
  double gate_cpu_seconds = 0.0;
  /// RAID groups successfully seeded from TopAA (TopAA path only).
  std::size_t rgs_seeded = 0;
  /// FlexVols successfully seeded from TopAA (TopAA path only).
  std::size_t vols_seeded = 0;
};

/// Brings every AA cache in the aggregate (and its FlexVols) to an
/// operational state via the requested path.  A pool in the aggregate's
/// runtime fans the scan path out one level deep: the aggregate
/// metafile's block walk, then its RAID groups, then the volumes.
MountReport mount_all(Aggregate& agg, bool use_topaa);

/// After a TopAA mount: completes the caches in the background (full
/// bitmap walk + cache rebuild) — the work the TopAA path deferred off the
/// client-visible mount gate.  Returns the metafile blocks it read.
std::uint64_t complete_background(Aggregate& agg);

/// Crash-recovery mount: mount_all for an aggregate *reconstructed over
/// surviving media* (fresh process, stores copied from the crashed
/// instance) rather than a live failover within one process.  The bitmap
/// metafiles are the ground truth everything else is recomputed from.
/// The scan path reloads them from the stores as it walks them, so it
/// reads each block once, exactly as mount_all does.  The TopAA path
/// reloads them first, outside the gate: the boards seeded groups and
/// volumes carry are the freshly-loaded-bitmap ones, while the caches
/// still come from the TopAA blocks, so the §3.4 gate cost is unchanged.
MountReport recover_mount(Aggregate& agg, bool use_topaa);

}  // namespace wafl
