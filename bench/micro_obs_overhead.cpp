// Overhead proof for the wafl::obs instrumentation (the gate: a
// <2% throughput delta on the fig6-style allocation hot loop between
// WAFL_OBS_ENABLED=ON and OFF builds).
//
// Two measurements:
//   1. Primitive costs — ns/op for counter add, histogram record, and
//      span open/close, so regressions in the obs layer itself are
//      visible.
//   2. The fig6 hot loop — an aged all-SSD aggregate running repeated
//      CPs of skewed random overwrites through the real allocator.  The
//      headline `alloc_loop_blocks_per_sec=` line is machine-parseable;
//      tools/check.sh --overhead runs this binary from the ON and OFF
//      build trees and compares.
//
// The expected result is a delta in the noise: per-block work rides on
// CpStats exactly as before, and obs folds those stats once per CP.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "sim/aging.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"
#include "wafl/aggregate.hpp"
#include "wafl/consistency_point.hpp"

namespace wafl {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void bench_primitives() {
  if constexpr (!obs::kEnabled) {
    std::printf("primitives: skipped (obs compiled out)\n");
    return;
  }
  constexpr std::uint64_t kIters = 2'000'000;
  obs::Registry& reg = obs::registry();
  obs::Counter& c = reg.counter("micro.counter");
  obs::LogHistogram& h = reg.histogram("micro.histogram");
  obs::LinearHistogram& lh =
      reg.linear_histogram("micro.linear", 0.0, 1.0, 64);

  auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) c.add(1);
  const double counter_ns = seconds_since(t0) * 1e9 / kIters;

  t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    h.record(static_cast<double>(i & 0xFFFFF));
  }
  const double hist_ns = seconds_since(t0) * 1e9 / kIters;

  t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    lh.record(static_cast<double>(i & 1023) / 1024.0);
  }
  const double linear_ns = seconds_since(t0) * 1e9 / kIters;

  // Span sites have two costs: the dormant one every instrumented phase
  // pays whether or not anyone is tracing (one relaxed load of the
  // capture gate — this is the cost the <2% hot-loop gate bounds), and
  // the armed open+close+ring-push cost paid only while capturing.
  constexpr std::uint64_t kSpanIters = 2'000'000;
  obs::set_span_capture(false);
  t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kSpanIters; ++i) {
    obs::TraceSpan s(obs::SpanKind::kRgFill, i);
    (void)s;
  }
  const double span_off_ns = seconds_since(t0) * 1e9 / kSpanIters;

  constexpr std::uint64_t kSpanOnIters = 200'000;
  obs::set_span_capture(true);
  t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kSpanOnIters; ++i) {
    obs::TraceSpan s(obs::SpanKind::kRgFill, i);
    (void)s;
  }
  const double span_on_ns = seconds_since(t0) * 1e9 / kSpanOnIters;
  obs::set_span_capture(false);
  obs::spans().clear();

  std::printf("primitive costs (single thread):\n");
  std::printf("  counter add       %8.1f ns/op\n", counter_ns);
  std::printf("  log hist record   %8.1f ns/op\n", hist_ns);
  std::printf("  linear hist record%8.1f ns/op\n", linear_ns);
  std::printf("  span (capture off)%8.1f ns/op\n", span_off_ns);
  std::printf("  span (capture on) %8.1f ns/op\n", span_on_ns);
  obs::reset_all();
}

double bench_alloc_loop(bool fast) {
  // Fig6-style system, scaled down: one RAID group of 4+1 SSDs, aged to
  // 55% full with skewed overwrites, then repeated CPs of 8 KiB random
  // overwrites driven straight through ConsistencyPoint::run.
  AggregateConfig cfg;
  RaidGroupConfig rg;
  rg.data_devices = 4;
  rg.parity_devices = 1;
  rg.device_blocks = 65'536;
  rg.media.type = MediaType::kSsd;
  rg.media.ssd.pages_per_erase_block = 4096;
  rg.media.ssd.op_fraction = 0.07;
  cfg.raid_groups = {rg};
  cfg.policy = AaSelectPolicy::kCache;
  Aggregate agg(cfg, /*rng_seed=*/20180813);

  FlexVolConfig vol;
  vol.vvbn_blocks = (agg.total_blocks() / kFlatAaBlocks + 4) * kFlatAaBlocks;
  vol.file_blocks = agg.total_blocks();
  vol.policy = AaSelectPolicy::kCache;
  agg.add_volume(vol);

  AgingConfig aging;
  aging.fill_fraction = 0.55;
  aging.overwrite_passes = fast ? 0.2 : 0.6;
  aging.zipf_theta = 0.9;
  aging.cp_blocks = 49'152;
  aging.seed = 97;
  age_filesystem(agg, std::array{VolumeId{0}}, aging);

  const auto span = static_cast<std::uint64_t>(
      0.55 * static_cast<double>(agg.volume(0).file_blocks()));
  RandomOverwriteWorkload workload({0}, span, /*blocks_per_op=*/2,
                                   /*zipf_theta=*/0.9);
  Rng rng(11);

  constexpr std::uint64_t kCpBlocks = 24'576;
  const std::uint32_t warmup_cps = 1;
  const std::uint32_t measured_cps = fast ? 3 : 12;

  std::vector<std::uint8_t> dirty_flag(agg.volume(0).file_blocks(), 0);
  std::vector<DirtyBlock> dirty;
  dirty.reserve(kCpBlocks);
  auto run_one_cp = [&]() {
    dirty.clear();
    while (dirty.size() < kCpBlocks) {
      const DirtyBlock db = workload.next_write(rng);
      if (dirty_flag[db.logical] != 0) continue;
      dirty_flag[db.logical] = 1;
      dirty.push_back(db);
    }
    for (const DirtyBlock& db : dirty) dirty_flag[db.logical] = 0;
    ConsistencyPoint::run(agg, dirty);
  };

  for (std::uint32_t i = 0; i < warmup_cps; ++i) run_one_cp();
  // Best-of-N: a short measured window on a shared machine sees scheduler
  // noise well above the effect we gate on, and the fastest repetition is
  // the least-perturbed view of the loop for both builds.
  constexpr int kReps = 3;
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < measured_cps; ++i) run_one_cp();
    const double elapsed = seconds_since(t0);
    best = std::max(best, static_cast<double>(measured_cps) *
                              static_cast<double>(kCpBlocks) / elapsed);
  }
  return best;
}

}  // namespace
}  // namespace wafl

int main() {
  using namespace wafl;
  bench::print_title("micro_obs_overhead",
                     "wafl::obs instrumentation cost on the fig6-style "
                     "allocation hot loop");
  const bool fast = bench::fast_mode();

  bench_primitives();

  const double blocks_per_sec = bench_alloc_loop(fast);
  std::printf("\nobs_enabled=%d\n", obs::kEnabled ? 1 : 0);
  std::printf("alloc_loop_blocks_per_sec=%.0f\n", blocks_per_sec);
  return 0;
}
