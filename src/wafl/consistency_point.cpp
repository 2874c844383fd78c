#include "wafl/consistency_point.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "fault/crash_point.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace wafl {
namespace {

/// Handles for the CP's phase histograms and boundary metric fold,
/// resolved once per drain against the aggregate runtime's registry
/// (about 25 lookups under its mutex, so not once per phase).  The hot
/// allocation loop never touches the registry: per-block accounting rides
/// on CpStats, and the fold turns one CP's stats into one batch of counter
/// adds.
struct CpMetrics {
  explicit CpMetrics(const Runtime& rt) : r(rt.registry()), l(rt.labels()) {}

  obs::Registry& r;
  const std::string l;
  obs::Counter& count = r.counter("wafl.cp.count", l);
  obs::Counter& ops = r.counter("wafl.cp.ops", l);
  obs::Counter& blocks_written = r.counter("wafl.cp.blocks_written", l);
  obs::Counter& blocks_freed = r.counter("wafl.cp.blocks_freed", l);
  obs::Counter& vol_meta_blocks = r.counter("wafl.cp.vol_meta_blocks", l);
  obs::Counter& agg_meta_blocks = r.counter("wafl.cp.agg_meta_blocks", l);
  obs::Counter& meta_flush_blocks = r.counter("wafl.cp.meta_flush_blocks", l);
  obs::Counter& tetrises = r.counter("wafl.cp.tetrises", l);
  obs::Counter& full_stripes = r.counter("wafl.cp.full_stripes", l);
  obs::Counter& partial_stripes = r.counter("wafl.cp.partial_stripes", l);
  obs::Counter& parity_read_blocks =
      r.counter("wafl.cp.parity_read_blocks", l);
  obs::Counter& write_chains = r.counter("wafl.cp.write_chains", l);
  obs::Counter& vol_bits_scanned = r.counter("wafl.vol.bits_scanned", l);
  obs::Counter& agg_bits_scanned = r.counter("wafl.agg.bits_scanned", l);
  // Incremented at the replenish sites themselves (aggregate pools don't
  // route through CpStats); resolved here only so the metric is registered
  // — and therefore exported — from the first CP even if it never fires.
  obs::Counter& hbps_replenishes = r.counter("wafl.hbps.replenishes", l);
  obs::LogHistogram& storage_time_ns =
      r.histogram("wafl.cp.storage_time_ns", l);
  obs::LogHistogram& phase_sort_ns = r.histogram("wafl.cp.phase.sort_ns", l);
  obs::LogHistogram& phase_alloc_ns = r.histogram("wafl.cp.phase.alloc_ns", l);
  obs::LogHistogram& phase_volumes_ns =
      r.histogram("wafl.cp.phase.volumes_ns", l);
  obs::LogHistogram& phase_delayed_free_ns =
      r.histogram("wafl.cp.phase.delayed_free_ns", l);
  obs::LogHistogram& phase_boundary_ns =
      r.histogram("wafl.cp.phase.boundary_ns", l);
  obs::LogHistogram& total_ns = r.histogram("wafl.cp.phase.total_ns", l);
};

/// One volume's slice of the CP: vvbn allocation + remapping over a
/// contiguous run of the (volume-grouped) dirty list and its pvbns.
/// Everything it touches is either volume-local or a disjoint element of
/// the aggregate's owner table, so slices for different volumes run
/// concurrently.
struct VolumeSlice {
  VolumeId vol;
  std::span<const DirtyBlock> dirty;
  std::span<const Vbn> pvbns;
  std::span<Vbn> vvbns;          // cp_remap's output
  CpStats stats;                 // merged into the CP's stats afterwards
  std::vector<Vbn> freed_pvbns;  // released serially afterwards
};

void run_slice(Aggregate& agg, VolumeSlice& s) {
  // Parent: the cp.volumes span on the scheduling thread — the pool
  // carried its id here through the task-context word.
  obs::TraceSpan span(obs::SpanKind::kCpVolSlice, s.vol, s.dirty.size());
  agg.volume(s.vol).cp_remap(s.dirty, s.pvbns, s.vvbns, s.freed_pvbns,
                             s.stats);
  for (std::size_t i = 0; i < s.pvbns.size(); ++i) {
    agg.set_owner(s.pvbns[i], s.vol, s.vvbns[i]);
  }
}

}  // namespace

void ConsistencyPoint::group_by_volume(std::vector<DirtyBlock>& dirty,
                                       std::size_t volume_count) {
  // A list already in volume order (one volume, or volumes submitted one
  // after another) is its own result and stays where it is.
  const auto by_vol = [](const DirtyBlock& a, const DirtyBlock& b) {
    return a.vol < b.vol;
  };
  if (std::is_sorted(dirty.begin(), dirty.end(), by_vol)) {
    WAFL_ASSERT(dirty.empty() || dirty.back().vol < volume_count);
    return;
  }
  // Counting scatter: start[v] is where volume v's run begins; each block
  // lands at its volume's next slot, so per-volume order is kept.
  std::vector<std::size_t> start(volume_count + 1, 0);
  for (const DirtyBlock& b : dirty) {
    WAFL_ASSERT(b.vol < volume_count);
    ++start[b.vol + 1];
  }
  for (std::size_t v = 1; v <= volume_count; ++v) start[v] += start[v - 1];
  std::vector<DirtyBlock> grouped(dirty.size());
  for (const DirtyBlock& b : dirty) grouped[start[b.vol]++] = b;
  dirty.swap(grouped);
}

ConsistencyPoint::Frozen ConsistencyPoint::freeze(
    Aggregate& agg, std::vector<DirtyBlock> dirty) {
  Frozen frozen;
  obs::PhaseTimer phase_timer;
  frozen.start_ns = obs::monotonic_ns();
  WAFL_OBS({
    const Runtime& rt = agg.runtime();
    obs::Counter& count = rt.registry().counter("wafl.cp.count", rt.labels());
    count.inc();
    frozen.cp_no = static_cast<std::uint32_t>(count.value());
  });
  obs::TraceSpan freeze_span(obs::SpanKind::kCpFreeze, frozen.cp_no,
                             dirty.size());
  agg.begin_cp();
  // Nothing has touched media yet: a crash here leaves exactly the last
  // completed CP.
  WAFL_CRASH_POINT_RT(agg.runtime(), "cp.in_gen_swap");

  // Group the dirty list by volume (stable, preserving per-volume order)
  // so each volume's work is one contiguous slice.
  obs::TraceSpan sort_span(obs::SpanKind::kCpSort, 0, dirty.size());
  group_by_volume(dirty, agg.volume_count());
  frozen.dirty = std::move(dirty);
  sort_span.end();
  WAFL_OBS(frozen.sort_ns = phase_timer.lap());
  return frozen;
}

CpStats ConsistencyPoint::drain(Aggregate& agg, Frozen&& frozen) {
  ThreadPool* pool = agg.runtime().pool();
  CpStats stats;
  obs::PhaseTimer phase_timer;
  const std::uint64_t cp_start_ns = frozen.start_ns;
  const std::uint32_t cp_no = frozen.cp_no;
  obs::TraceSpan drain_span(obs::SpanKind::kCpDrain, cp_no,
                            frozen.dirty.size());
  const std::vector<DirtyBlock>& sorted = frozen.dirty;
  std::optional<CpMetrics> metrics;
  WAFL_OBS({
    metrics.emplace(agg.runtime());
    metrics->phase_sort_ns.record(static_cast<double>(frozen.sort_ns));
  });

  // Phase 1: physical allocation in write order — a serial plan assigns
  // demand to RAID groups (round-robin rotation + skip bias), then the
  // per-group tetris fills execute in parallel on the pool.
  obs::TraceSpan alloc_span(obs::SpanKind::kCpAlloc, 0, sorted.size());
  std::vector<Vbn> pvbns;
  pvbns.reserve(sorted.size());
  const bool ok = agg.allocate_pvbns(sorted.size(), pvbns, stats);
  WAFL_ASSERT_MSG(ok, "aggregate out of space during CP");
  alloc_span.set_b(pvbns.size());
  alloc_span.end();
  WAFL_OBS(
      metrics->phase_alloc_ns.record(static_cast<double>(phase_timer.lap())));

  // Phase 2: per-volume virtual allocation and remapping — parallel
  // across volumes when a pool is supplied [10].
  obs::TraceSpan volumes_span(obs::SpanKind::kCpVolumes);
  std::vector<Vbn> vvbns(sorted.size());
  std::vector<VolumeSlice> slices;
  for (std::size_t begin = 0, end = 0; begin < sorted.size(); begin = end) {
    while (end < sorted.size() && sorted[end].vol == sorted[begin].vol) ++end;
    const std::size_t n = end - begin;
    slices.push_back({sorted[begin].vol,
                      std::span(sorted).subspan(begin, n),
                      std::span(pvbns).subspan(begin, n),
                      std::span(vvbns).subspan(begin, n), {}, {}});
  }
  parallel_for(pool, slices.size(), 1,
               [&](std::size_t k) { run_slice(agg, slices[k]); });
  for (VolumeSlice& slice : slices) {
    stats.merge(slice.stats);
    agg.release_pvbns(slice.freed_pvbns);
  }
  volumes_span.set_b(slices.size());
  volumes_span.end();
  WAFL_OBS(metrics->phase_volumes_ns.record(
      static_cast<double>(phase_timer.lap())));

  // Phase 2b: reclaim a bounded slice of any pending delayed frees
  // (snapshot-deletion debt) — richest regions first, a few regions per
  // CP, so bulk deletions amortize across CPs instead of stalling one.
  obs::TraceSpan delayed_span(obs::SpanKind::kCpDelayedFree);
  std::vector<Vbn> reclaimed_pvbns;
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    agg.volume(v).process_delayed_frees(kDelayedFreeRegionsPerCp,
                                        reclaimed_pvbns);
  }
  agg.release_pvbns(reclaimed_pvbns);
  delayed_span.set_b(reclaimed_pvbns.size());
  delayed_span.end();
  WAFL_OBS(metrics->phase_delayed_free_ns.record(
      static_cast<double>(phase_timer.lap())));

  // Phase 3: the CP boundary — apply frees, rebalance caches, flush
  // metafiles, persist TopAA, account device time.  The aggregate side
  // fans the group-disjoint work out across the pool (bit-identical to
  // serial; see write_allocator.hpp).
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    // nth selects the gap: a crash here leaves volumes [0, nth) flushed
    // with their TopAA committed, and the rest — plus the whole aggregate
    // side — at the previous CP.
    WAFL_CRASH_POINT_RT(agg.runtime(), "cp.before_volume_finish");
    obs::TraceSpan vol_finish_span(obs::SpanKind::kCpVolFinish, v);
    agg.volume(v).finish_cp(stats);
  }
  WAFL_CRASH_POINT_RT(agg.runtime(), "cp.before_agg_finish");
  obs::TraceSpan agg_finish_span(obs::SpanKind::kCpAggFinish);
  agg.finish_cp(stats);
  agg_finish_span.end();

  // Fold this CP's stats into the runtime's registry (one batch of adds
  // per CP).
  WAFL_OBS({
    CpMetrics& m = *metrics;
    m.phase_boundary_ns.record(static_cast<double>(phase_timer.lap()));
    m.total_ns.record(static_cast<double>(obs::monotonic_ns() - cp_start_ns));
    m.ops.add(stats.ops);
    m.blocks_written.add(stats.blocks_written);
    m.blocks_freed.add(stats.blocks_freed);
    m.vol_meta_blocks.add(stats.vol_meta_blocks);
    m.agg_meta_blocks.add(stats.agg_meta_blocks);
    m.meta_flush_blocks.add(stats.meta_flush_blocks);
    m.tetrises.add(stats.tetrises);
    m.full_stripes.add(stats.full_stripes);
    m.partial_stripes.add(stats.partial_stripes);
    m.parity_read_blocks.add(stats.parity_read_blocks);
    m.write_chains.add(stats.write_chains);
    m.vol_bits_scanned.add(stats.vol_bits_scanned);
    m.agg_bits_scanned.add(stats.agg_bits_scanned);
    m.storage_time_ns.record(static_cast<double>(stats.storage_time_ns));
  });
  return stats;
}

CpStats ConsistencyPoint::run(Aggregate& agg,
                              std::span<const DirtyBlock> dirty) {
  obs::TraceSpan cp_span(obs::SpanKind::kCp, 0, dirty.size());
  Frozen frozen = freeze(agg, {dirty.begin(), dirty.end()});
  cp_span.set_a(frozen.cp_no);
  return drain(agg, std::move(frozen));
}

}  // namespace wafl
