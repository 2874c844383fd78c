// ssd_overwrite: the paper's Figure 6 peak-load point.  2 RAID groups of
// 4+1 SSDs (4096-page erase blocks, 7 % over-provisioning), one FlexVol,
// aged to 55 % full with Zipf 0.9 churn, then warmed until SSD write
// amplification stops climbing.  One closed-loop writer issues 8 KiB
// Zipf 0.9 overwrites as fast as the driver admits them, so CP drain —
// the FlexVol vvbn/HBPS path, the write allocator and the SSD FTL — is
// the bottleneck.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common.hpp"
#include "sim/aging.hpp"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
constexpr std::uint64_t kDeviceBlocks = 65'536;
constexpr double kFill = 0.55;
constexpr double kZipf = 0.9;
/// Warm-up: chunks of this many ops until a chunk's write amplification
/// is within 2 % of the previous chunk's (or the cap is reached).
constexpr std::uint64_t kWarmChunkOps = 100'000;
constexpr int kWarmMinChunks = 3;
constexpr int kWarmMaxChunks = 30;
constexpr std::uint64_t kWarmSeed = 0x5eed'0001;

OverlappedCpConfig flush_policy() {
  OverlappedCpConfig cfg;
  // Back-to-back 24k-block CPs (the figure bench's CP size): the writer
  // fills the next generation while one drains and stalls at the mark.
  cfg.auto_cp_trigger = 24'576;
  cfg.dirty_high_watermark = 24'576;
  return cfg;
}

std::uint64_t filled_span(const Aggregate& agg) {
  return static_cast<std::uint64_t>(
      kFill * static_cast<double>(agg.volume(0).file_blocks()));
}

Built build(Exec& ex) {
  Built b;
  std::uint64_t t0 = now_ns();
  AggregateConfig cfg;
  RaidGroupConfig rg;
  rg.data_devices = 4;
  rg.parity_devices = 1;
  rg.device_blocks = kDeviceBlocks;
  rg.media.type = MediaType::kSsd;
  rg.media.ssd.pages_per_erase_block = 4096;
  rg.media.ssd.op_fraction = 0.07;
  rg.media.ssd.program_ns = 25'000;
  cfg.raid_groups = {rg, rg};
  b.agg = std::make_unique<Aggregate>(cfg, /*rng_seed=*/20180813, ex.runtime());
  Aggregate& agg = *b.agg;
  FlexVolConfig vol;
  vol.vvbn_blocks = (agg.total_blocks() / kFlatAaBlocks + 4) * kFlatAaBlocks;
  vol.file_blocks = agg.total_blocks();
  agg.add_volume(vol);
  b.build_s = static_cast<double>(now_ns() - t0) / 1e9;

  t0 = now_ns();
  AgingConfig aging;
  aging.fill_fraction = kFill;
  aging.overwrite_passes = 1.0;
  aging.zipf_theta = kZipf;
  aging.cp_blocks = 49'152;
  aging.seed = 97;
  age_filesystem(agg, std::array{VolumeId{0}}, aging);
  b.aging_s = static_cast<double>(now_ns() - t0) / 1e9;

  t0 = now_ns();
  OverlappedCpDriver drv(agg, flush_policy());
  OpStream ops({0}, filled_span(agg), kZipf, kWarmSeed);
  double prev = 0;
  for (int chunk = 0; chunk < kWarmMaxChunks; ++chunk) {
    agg.reset_wear_windows();
    ClosedLoop loop;
    loop.run(drv, ops, kWarmChunkOps, 0, nullptr, nullptr);
    drv.start_cp();
    drv.wait_idle();
    const double wa = agg.mean_write_amplification();
    std::printf("info warmup_chunk_%d_write_amp = %.4f\n", chunk, wa);
    if (chunk + 1 >= kWarmMinChunks && std::abs(wa - prev) <= 0.02 * prev) {
      break;
    }
    prev = wa;
  }
  b.warmup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return b;
}

}  // namespace

void run_ssd_overwrite(const Options& o, Result& res) {
  const OverlappedCpConfig cfg = flush_policy();
  Exec ex;
  record_context(res, o, /*writers=*/1, cfg);
  Built b = repeated_setup(res, kSetupReps, [&] { return build(ex); });
  Aggregate& agg = *b.agg;

  OpStream ops({0}, filled_span(agg), kZipf, o.seed);
  TraceLedger trace(o.trace);
  agg.reset_wear_windows();
  cp_phase_profile().reset();
  const StoreIo io0 = store_io(agg);
  OverlappedCpDriver drv(agg, cfg);
  OverlappedCpDriver fdrv(agg, failover_policy());

  // Closed-loop writes, in blocks; a segment's last block closes when the
  // CP holding its last op completes.
  ClosedLoop loop;
  BlockSeries blocks;
  LatencySamples ack(o.seed);
  const auto write_stretch = [&](double seconds, TraceLedger* tr) {
    const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    loop.restart_cycles();
    for (bool last = false; !last;) {
      ack.clear();
      const std::uint64_t ops0 = loop.ops;
      const double lib0 = loop.in_library_s();
      const std::uint64_t stall0 = drv.stats().stall_ns;
      const std::uint64_t h0 = trace.harvest_ns();
      const double c0 = cpu_seconds();
      const double tc0 = thread_cpu_seconds();
      const std::uint64_t t0 = now_ns();
      const std::uint64_t block_end =
          std::min(end, t0 + static_cast<std::uint64_t>(kBlockSeconds * 1e9));
      last = block_end == end;
      loop.run(drv, ops, std::numeric_limits<std::uint64_t>::max(), block_end, tr,
               &ack);
      if (last) {
        loop.start_cp(drv, tr);
        drv.wait_idle();
      }
      const double cpu = system_cpu_s(
          cpu_seconds() - c0, thread_cpu_seconds() - tc0,
          loop.in_library_s() - lib0,
          static_cast<double>(drv.stats().stall_ns - stall0) / 1e9);
      const std::uint64_t wall = now_ns() - t0 - (trace.harvest_ns() - h0);
      blocks.add(loop.ops - ops0, static_cast<double>(wall) / 1e9, cpu, ack);
    }
  };

  // Segments of writes then failover cycles on the aggregate the writes
  // left.  A traced run traces the second half of its segments.
  FailoverPlan plan;
  plan.seconds = kSegmentSeconds * (1 - kWriteShare);
  FailoverOutcome f;
  const int segments = std::max(2, static_cast<int>(o.seconds / kSegmentSeconds));
  OverlapStats at_trace, fo_at_trace;
  std::uint64_t ops_at_trace = 0;
  double wall_at_trace = 0;
  double write_amp = 0;
  for (int seg = 0; seg < segments; ++seg) {
    if (o.trace && seg == segments / 2) {
      at_trace = drv.stats();
      fo_at_trace = fdrv.stats();
      ops_at_trace = blocks.ops;
      wall_at_trace = blocks.wall_s;
      trace.begin();
    }
    agg.reset_wear_windows();
    write_stretch(kSegmentSeconds * kWriteShare, trace.capturing() ? &trace : nullptr);
    write_amp += agg.mean_write_amplification() / segments;
    run_failover_cycles(res, agg, fdrv, ops, plan, trace, f);
  }
  trace.end();
  const OverlapStats window = drv.stats();
  const OverlapStats fo = fdrv.stats();
  check_conservation(res, window, "ssd_overwrite writes");
  check_conservation(res, fo, "ssd_overwrite failover");
  check_free_counts(res, agg, "ssd_overwrite end");
  res.ops(loop.ops, loop.failed);
  report_write_metrics(res, blocks, window, write_amp, loop.cycle_ops_s);
  report_failover_metrics(res, f);
  report_layers(res, window, cp_phase_profile(), store_io(agg) - io0,
                window.cps_completed + fo.cps_completed, loop.ops,
                loop.submit_ns / static_cast<double>(loop.ops), 0.0, f);
  if (o.trace) {
    const OverlapStats traced = stats_delta(window, at_trace);
    const OverlapStats traced_fo = stats_delta(fo, fo_at_trace);
    report_trace_layers(
        res, trace, traced.cps_completed + traced_fo.cps_completed,
        static_cast<double>(traced.drain_ns + traced_fo.drain_ns) / 1e6,
        static_cast<double>(ops_at_trace) / wall_at_trace,
        static_cast<double>(blocks.ops - ops_at_trace) / (blocks.wall_s - wall_at_trace));
  }
  report_closing_metrics(res);
}

}  // namespace perfbench
