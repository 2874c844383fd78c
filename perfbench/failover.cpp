// failover: mount after failover, where the bitmap metafiles and TopAA
// blocks the other workloads write are read back.  A ~32M-block HDD
// aggregate (2 RAID groups of 4+1), 16 FlexVols, 40 % of each RAID group
// pre-occupied, then every volume half filled through CPs.  Cycles
// repeat: a burst of closed-loop writes over a few CPs, mount_all by
// TopAA, the first post-mount CP, complete_background; every 5th cycle
// mounts by scan instead.  Every CP pays for the TopAA commit and
// failover reaps it, so a change that cuts CP cost by persisting less
// shows up here as a regression.
#include "common.hpp"
#include "sim/aging.hpp"
#include "wafl/fleet.hpp"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
constexpr std::uint64_t kDeviceBlocks = 4'194'304;  // 2 x 4 x 4M = 32M blocks
constexpr VolumeId kVolumes = 16;
constexpr std::uint64_t kFileBlocks = 524'288;
constexpr double kSeededFraction = 0.4;
constexpr double kFill = 0.5;

std::vector<VolumeId> all_volumes() {
  std::vector<VolumeId> v;
  for (VolumeId i = 0; i < kVolumes; ++i) v.push_back(i);
  return v;
}

std::uint64_t span_blocks() {
  return static_cast<std::uint64_t>(kFill * static_cast<double>(kFileBlocks));
}

Built build(Exec& ex) {
  Built b;
  std::uint64_t t0 = now_ns();
  AggregateConfig cfg;
  cfg.raid_groups = {fleet_hdd_group(kDeviceBlocks), fleet_hdd_group(kDeviceBlocks)};
  b.agg = std::make_unique<Aggregate>(cfg, /*rng_seed=*/1234, ex.runtime());
  Aggregate& agg = *b.agg;
  for (VolumeId v = 0; v < kVolumes; ++v) {
    FlexVolConfig vol;
    vol.file_blocks = kFileBlocks;
    vol.vvbn_blocks = kFileBlocks + kFlatAaBlocks;
    agg.add_volume(vol);
  }
  b.build_s = static_cast<double>(now_ns() - t0) / 1e9;

  t0 = now_ns();
  Rng rng(77);
  for (RaidGroupId rg = 0; rg < agg.raid_group_count(); ++rg) {
    agg.seed_rg_occupancy(rg, kSeededFraction, rng);
  }
  AgingConfig fill;
  fill.fill_fraction = kFill;
  fill.overwrite_passes = 0.0;
  fill.cp_blocks = 49'152;
  fill.seed = 78;
  age_filesystem(agg, all_volumes(), fill);
  // seed_rg_occupancy leaves most seeded blocks out of the bitmap
  // metafile, so the first full bitmap load drops them.  Load once here,
  // so that every timed cycle sees the same aggregate.
  mount_all(agg, /*use_topaa=*/true);
  complete_background(agg);
  b.aging_s = static_cast<double>(now_ns() - t0) / 1e9;
  return b;
}

}  // namespace

void run_failover(const Options& o, Result& res) {
  const OverlappedCpConfig cfg = failover_policy();
  Exec ex;
  record_context(res, o, /*writers=*/1, cfg);
  Built b = repeated_setup(res, kSetupReps, [&] { return build(ex); });
  Aggregate& agg = *b.agg;
  res.info("aggregate_blocks", std::to_string(agg.total_blocks()));
  const auto free_pct = [&] {
    return std::to_string(100.0 * static_cast<double>(agg.free_blocks()) /
                          static_cast<double>(agg.total_blocks()));
  };
  res.info("aggregate_free_pct_after_setup", free_pct());

  OpStream ops(all_volumes(), span_blocks(), 0.0, o.seed);
  TraceLedger trace(o.trace);
  cp_phase_profile().reset();
  const StoreIo io0 = store_io(agg);
  OverlappedCpDriver drv(agg, cfg);
  FailoverPlan plan;
  plan.burst_cps = 3;
  FailoverOutcome f;

  // The whole run is failover cycles.  A traced run traces the second
  // half only.
  double untraced_ops_s = 0, traced_ops_s = 0;
  OverlapStats at_trace_begin;
  if (!o.trace) {
    plan.seconds = o.seconds;
    run_failover_cycles(res, agg, drv, ops, plan, trace, f);
  } else {
    plan.seconds = o.seconds / 2;
    run_failover_cycles(res, agg, drv, ops, plan, trace, f);
    const std::uint64_t ops0 = f.burst_blocks.ops;
    const double wall0 = f.burst_blocks.wall_s;
    untraced_ops_s = static_cast<double>(ops0) / wall0;
    at_trace_begin = drv.stats();
    trace.begin();
    run_failover_cycles(res, agg, drv, ops, plan, trace, f);
    trace.end();
    traced_ops_s = static_cast<double>(f.burst_blocks.ops - ops0) /
                   (f.burst_blocks.wall_s - wall0);
  }
  const OverlapStats s = drv.stats();
  res.info("aggregate_free_pct_end", free_pct());
  check_conservation(res, s, "failover");
  check_free_counts(res, agg, "failover end");
  res.ops(f.burst.ops, f.burst.failed);
  report_write_metrics(res, f.burst_blocks, s, agg.mean_write_amplification());
  report_failover_metrics(res, f);

  report_layers(res, s, cp_phase_profile(), store_io(agg) - io0, s.cps_completed, f.burst.ops,
                f.burst.submit_ns / static_cast<double>(f.burst.ops), 0.0, f);
  if (o.trace) {
    const OverlapStats traced = stats_delta(s, at_trace_begin);
    report_trace_layers(res, trace, traced.cps_completed,
                        static_cast<double>(traced.drain_ns) / 1e6,
                        untraced_ops_s, traced_ops_s);
  }
  report_closing_metrics(res);
}

}  // namespace perfbench
