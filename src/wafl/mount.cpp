#include "wafl/mount.hpp"

#include <chrono>

#include "fault/crash_point.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace wafl {
namespace {

std::uint64_t total_reads(Aggregate& agg) {
  std::uint64_t reads = agg.meta_store().stats().block_reads +
                        agg.topaa_store().stats().block_reads;
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    reads += agg.volume(v).store().stats().block_reads;
  }
  return reads;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

// Volumes own disjoint state and stores, so per-volume mount work fans
// out; the concurrent-safe BlockStore keeps each volume's store walk
// sound next to the others.  This is the only fan-out over volumes: each
// volume's own walk is serial, because a pool call from inside a pool
// task can wait on parts no free worker is left to run (thread_pool.hpp).
// Serial with no pool (or one volume), which is also the replay-exact
// path for the named mount crash hooks.
void for_each_volume(Aggregate& agg, ThreadPool* pool,
                     const std::function<void(VolumeId)>& fn) {
  const std::size_t n = agg.volume_count();
  if (pool != nullptr && n > 1) {
    pool->parallel_for_dynamic(0, n, [&](std::size_t v) {
      fn(static_cast<VolumeId>(v));
    });
  } else {
    for (VolumeId v = 0; v < n; ++v) {
      fn(v);
    }
  }
}

}  // namespace

ScanProfile& scan_profile() {
  static ScanProfile profile;
  return profile;
}

MountReport mount_all(Aggregate& agg, bool use_topaa) {
  MountReport report;
  report.used_topaa = use_topaa;
  const Runtime& rt = agg.runtime();
  ThreadPool* pool = rt.pool();
  obs::TraceSpan mount_span(obs::SpanKind::kMount, use_topaa ? 1 : 0);

  const std::uint64_t reads0 = total_reads(agg);
  const auto t0 = std::chrono::steady_clock::now();

  WAFL_CRASH_POINT_RT(rt, "mount.begin");
  if (use_topaa) {
    report.rgs_seeded = agg.mount_from_topaa();
    for (VolumeId v = 0; v < agg.volume_count(); ++v) {
      WAFL_CRASH_POINT_RT(rt, "mount.before_vol_seed");
      obs::TraceSpan seed_span(obs::SpanKind::kMountVolSeed, v);
      // The volume loop stays serial so the per-volume crash hook keeps
      // its replay-exact firing order; a damaged volume's fallback scan
      // inside mount_from_topaa is a serial walk too.
      if (agg.volume(v).mount_from_topaa()) {
        ++report.vols_seeded;
      }
    }
  } else {
    WAFL_CRASH_POINT_RT(rt, "mount.before_scan");
    agg.scan_rebuild();
    // One level of fan-out: the aggregate scan above fans out on its own
    // (metafile blocks, then RAID groups), then the volumes scan in
    // parallel, each one serially.
    for_each_volume(agg, pool,
                    [&](VolumeId v) { agg.volume(v).scan_rebuild(); });
  }

  report.gate_cpu_seconds = seconds_since(t0);
  report.gate_block_reads = total_reads(agg) - reads0;

  WAFL_OBS({
    obs::Registry& reg = rt.registry();
    const std::string l = rt.labels();
    reg.counter("wafl.mount.count", l).inc();
    reg.counter("wafl.mount.rgs_seeded", l).add(report.rgs_seeded);
    reg.counter("wafl.mount.vols_seeded", l).add(report.vols_seeded);
    reg.counter("wafl.mount.gate_block_reads", l)
        .add(report.gate_block_reads);
  });
  return report;
}

std::uint64_t complete_background(Aggregate& agg) {
  const std::uint64_t reads0 = total_reads(agg);
  agg.scan_rebuild();
  for_each_volume(agg, agg.runtime().pool(),
                  [&](VolumeId v) { agg.volume(v).scan_rebuild(); });
  return total_reads(agg) - reads0;
}

MountReport recover_mount(Aggregate& agg, bool use_topaa) {
  WAFL_CRASH_POINT_RT(agg.runtime(), "recover.begin");
  // Ground truth first: a reconstructed aggregate's in-memory bitmaps are
  // all-free until loaded, and every recovery decision — TopAA fallback
  // scans, Iron recomputation, the next CP's allocations — reads them.
  obs::TraceSpan load_span(obs::SpanKind::kRecoverLoad);
  agg.load_activemap();
  for_each_volume(agg, agg.runtime().pool(),
                  [&](VolumeId v) { agg.volume(v).rebuild_scoreboard(); });
  load_span.end();
  return mount_all(agg, use_topaa);
}

}  // namespace wafl
