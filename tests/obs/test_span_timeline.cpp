// Whole-CP span timelines: one ConsistencyPoint at each worker count,
// asserting every emitted span closed with sane timestamps, unique ids,
// resolvable parents, and the expected per-phase structure.  These drive
// real CPs and are therefore slower than the unit checks in
// test_span.cpp; they run under the `trace` ctest label (tools/check.sh
// --trace) and stay out of the default `-LE slow` path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "wafl/consistency_point.hpp"

namespace wafl::obs {
namespace {

constexpr VolumeId kVols = 2;

std::unique_ptr<Aggregate> make_agg(ThreadPool* pool = nullptr) {
  AggregateConfig cfg;
  RaidGroupConfig rg;
  rg.data_devices = 4;
  rg.parity_devices = 1;
  rg.device_blocks = 8 * 1024;
  rg.media.type = MediaType::kHdd;
  rg.aa_stripes = 512;
  cfg.raid_groups = {rg, rg};
  auto agg =
      std::make_unique<Aggregate>(cfg, 7, Runtime{}.with_pool(pool));
  for (std::size_t v = 0; v < kVols; ++v) {
    FlexVolConfig vol;
    vol.file_blocks = 4'000;
    vol.vvbn_blocks = 16 * 1024;
    vol.aa_blocks = 4096;
    agg->add_volume(vol);
  }
  return agg;
}

std::vector<DirtyBlock> dirty_batch(Rng& rng, std::uint64_t per_vol) {
  std::vector<DirtyBlock> out;
  for (VolumeId v = 0; v < kVols; ++v) {
    for (std::uint64_t i = 0; i < per_vol; ++i) {
      out.push_back({v, rng.below(4'000)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const DirtyBlock& a, const DirtyBlock& b) {
              return a.vol != b.vol ? a.vol < b.vol : a.logical < b.logical;
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const DirtyBlock& a, const DirtyBlock& b) {
                          return a.vol == b.vol && a.logical == b.logical;
                        }),
            out.end());
  return out;
}

/// Flips the global capture gate for one run; restores it (off) and
/// drains the collector no matter how the test exits.
struct CaptureGuard {
  explicit CaptureGuard(bool on) {
    spans().clear();
    set_span_capture(on);
  }
  ~CaptureGuard() {
    set_span_capture(false);
    spans().clear();
  }
};

/// One CP at each worker count: every emitted span is closed (it is in
/// the snapshot at all), has sane timestamps, unique id, a resolvable
/// parent, and the expected single-instance phase structure.
TEST(SpanTimeline, BalancedMonotonicAcrossWorkerCounts) {
  if constexpr (!kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  }
  for (const unsigned workers : {0u, 1u, 2u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    CaptureGuard guard(true);
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) {
      pool = std::make_unique<ThreadPool>(workers);
    }

    auto agg = make_agg(pool ? pool.get() : nullptr);
    Rng rng(workers + 1);
    const std::uint64_t before_ns = monotonic_ns();
    ConsistencyPoint::run(*agg, dirty_batch(rng, 600));
    const std::uint64_t after_ns = monotonic_ns();

    const std::vector<SpanRecord> snap = spans().snapshot();
    ASSERT_FALSE(snap.empty());
    EXPECT_EQ(spans().dropped(), 0u);

    std::unordered_set<std::uint64_t> ids;
    std::size_t cp_roots = 0;
    for (const SpanRecord& r : snap) {
      EXPECT_TRUE(ids.insert(r.id).second) << "duplicate span id " << r.id;
      EXPECT_GE(r.t1_ns, r.t0_ns);
      EXPECT_GE(r.t0_ns, before_ns);
      EXPECT_LE(r.t1_ns, after_ns);
      if (r.kind == SpanKind::kCp) {
        ++cp_roots;
      }
    }
    EXPECT_EQ(cp_roots, 1u);
    // Snapshot order is (t0, id): start times are non-decreasing.
    for (std::size_t i = 1; i < snap.size(); ++i) {
      EXPECT_GE(snap[i].t0_ns, snap[i - 1].t0_ns);
    }
    // Causal closure: every parent reference resolves within the CP.
    std::size_t once_kinds = 0;
    std::unordered_map<SpanKind, std::size_t> per_kind;
    for (const SpanRecord& r : snap) {
      if (r.parent != 0) {
        EXPECT_TRUE(ids.contains(r.parent));
      }
      ++per_kind[r.kind];
    }
    for (const SpanKind k :
         {SpanKind::kCpSort, SpanKind::kCpAlloc, SpanKind::kCpVolumes,
          SpanKind::kFcBoundary, SpanKind::kFcFlush, SpanKind::kFcTopaa,
          SpanKind::kFcFold, SpanKind::kCpAggFinish}) {
      EXPECT_EQ(per_kind[k], 1u) << span_kind_name(k);
      ++once_kinds;
    }
    EXPECT_EQ(once_kinds, 8u);
    // Per-group kinds fire once per RAID group.
    EXPECT_EQ(per_kind[SpanKind::kFcRgBoundary], 2u);
    EXPECT_EQ(per_kind[SpanKind::kFcRgTopaa], 2u);
    // Every tetris flush submits its device writes under one
    // rg.device_write child, so the flush's self time is the RAID
    // classification and the bitmap update alone.
    EXPECT_GT(per_kind[SpanKind::kRgTetrisFlush], 0u);
    EXPECT_EQ(per_kind[SpanKind::kRgDeviceWrite],
              per_kind[SpanKind::kRgTetrisFlush]);
    std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
    for (const SpanRecord& r : snap) by_id.emplace(r.id, &r);
    for (const SpanRecord& r : snap) {
      if (r.kind != SpanKind::kRgDeviceWrite) continue;
      const SpanRecord& parent = *by_id.at(r.parent);
      EXPECT_EQ(parent.kind, SpanKind::kRgTetrisFlush);
      EXPECT_EQ(parent.a, r.a);
    }
    EXPECT_EQ(span_kind_name(SpanKind::kRgDeviceWrite), "rg.device_write");
  }
}

}  // namespace
}  // namespace wafl::obs
