// Figure 10 (§4.4): time to complete the first CP after mount, with and
// without the TopAA metafiles, scaling (A) FlexVol size and (B) FlexVol
// count.
//
// The gate on the first CP is getting the AA caches operational:
//   - TopAA path: read 1 block per RAID group + 2 per FlexVol and seed
//     the caches — constant work per file system;
//   - scan path: linearly walk every bitmap-metafile block of the
//     aggregate and of every volume, recompute all AA scores, and build
//     the caches — work linear in capacity.
//
// Reported time = modeled metafile read I/O (counted blocks x per-read
// latency) + measured CPU seconds of the gate + the first CP itself.
// Normalized columns reproduce the paper's presentation.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/topaa.hpp"
#include "util/thread_pool.hpp"
#include "wafl/consistency_point.hpp"
#include "wafl/iron.hpp"
#include "wafl/mount.hpp"

namespace wafl {
namespace {

/// Modeled latency of one 4 KiB metafile-block read during mount (mostly
/// sequential reads on HDD aggregates).
constexpr double kMetaReadMs = 0.20;

struct MountTiming {
  double topaa_ms = 0.0;
  double scan_ms = 0.0;
};

Aggregate make_aggregate(std::size_t vol_count, std::uint64_t vol_blocks,
                         ThreadPool* pool) {
  AggregateConfig cfg;
  RaidGroupConfig rg;
  rg.data_devices = 4;
  rg.parity_devices = 1;
  // Size the aggregate to hold all volumes comfortably.
  const std::uint64_t needed = vol_count * vol_blocks * 2;
  std::uint64_t device_blocks = 65'536;
  while (device_blocks * 8 < needed) device_blocks *= 2;
  rg.device_blocks = device_blocks;
  rg.media.type = MediaType::kHdd;
  rg.aa_stripes = 4096;
  cfg.raid_groups = {rg, rg};
  return Aggregate(cfg, /*rng_seed=*/12, Runtime{}.with_pool(pool));
}

void add_volumes(Aggregate& agg, std::size_t vol_count,
                 std::uint64_t vol_blocks) {
  for (std::size_t v = 0; v < vol_count; ++v) {
    FlexVolConfig vol;
    vol.file_blocks = vol_blocks;
    vol.vvbn_blocks =
        (vol_blocks + kFlatAaBlocks - 1) / kFlatAaBlocks * kFlatAaBlocks +
        kFlatAaBlocks;
    agg.add_volume(vol);
  }
}

/// Copies every persistent store byte-for-byte: the receiving aggregate
/// sees exactly the media the donor wrote, with its own (cold) in-memory
/// state — the rebuild pattern the crash harness uses.
void clone_media(Aggregate& src, Aggregate& dst) {
  dst.meta_store().copy_contents_from(src.meta_store());
  dst.topaa_store().copy_contents_from(src.topaa_store());
  for (VolumeId v = 0; v < src.volume_count(); ++v) {
    dst.volume(v).store().copy_contents_from(src.volume(v).store());
  }
}

/// Builds a file system with `vol_count` volumes of `vol_blocks` logical
/// blocks, writes data through real CPs (so bitmaps and TopAA exist on
/// media), then measures both mount paths.
MountTiming measure(std::size_t vol_count, std::uint64_t vol_blocks) {
  ThreadPool pool(2);
  Aggregate agg = make_aggregate(vol_count, vol_blocks, &pool);
  add_volumes(agg, vol_count, vol_blocks);

  // Populate each volume to ~40% through normal CPs.
  std::vector<DirtyBlock> dirty;
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    const std::uint64_t fill = vol_blocks * 4 / 10;
    for (std::uint64_t l = 0; l < fill; ++l) {
      dirty.push_back({v, l});
      if (dirty.size() == 49'152) {
        ConsistencyPoint::run(agg, dirty);
        dirty.clear();
      }
    }
  }
  if (!dirty.empty()) {
    ConsistencyPoint::run(agg, dirty);
    dirty.clear();
  }

  MountTiming timing;

  // "Failover": mount via TopAA, then run the first CP.
  {
    const MountReport r = mount_all(agg, /*use_topaa=*/true);
    for (std::uint64_t l = 0; l < 1000; ++l) {
      dirty.push_back({0, l});
    }
    ConsistencyPoint::run(agg, dirty);
    dirty.clear();
    timing.topaa_ms = static_cast<double>(r.gate_block_reads) * kMetaReadMs +
                      r.gate_cpu_seconds * 1e3;
    // Background completion happens after the first CP; not charged.
    complete_background(agg);
  }

  // Same system, scan path.
  {
    const MountReport r = mount_all(agg, /*use_topaa=*/false);
    for (std::uint64_t l = 0; l < 1000; ++l) {
      dirty.push_back({0, l});
    }
    ConsistencyPoint::run(agg, dirty);
    dirty.clear();
    timing.scan_ms = static_cast<double>(r.gate_block_reads) * kMetaReadMs +
                     r.gate_cpu_seconds * 1e3;
  }
  return timing;
}

// --- Recovery-path parallelism (PR 9): scan + Iron speedups --------------

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// FNV-1a over every cache score — divergence between worker counts is a
/// determinism bug the bench must not report a speedup over.
std::uint64_t cache_digest(Aggregate& agg) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (RaidGroupId rg = 0; rg < agg.raid_group_count(); ++rg) {
    const AaScoreBoard& board = agg.rg_scoreboard(rg);
    for (AaId aa = 0; aa < board.aa_count(); ++aa) mix(board.score(aa));
  }
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    const FlexVol& vol = agg.volume(v);
    for (AaId aa = 0; aa < vol.scoreboard().aa_count(); ++aa) {
      mix(vol.scoreboard().score(aa));
    }
    mix(vol.scoreboard().total_free());
  }
  return h;
}

struct RecoveryBench {
  double scan_serial_ms = 0.0;
  double scan_parallel_ms = 0.0;
  double scan_speedup = 0.0;         // measured, 4-worker pool
  double scan_amdahl_w4 = 0.0;       // projected from serial phase split
  double scan_read_ms = 0.0, scan_seed_ms = 0.0, scan_build_ms = 0.0;
  bool scan_determinism_ok = false;
  double iron_serial_ms = 0.0;
  double iron_parallel_ms = 0.0;
  double iron_speedup = 0.0;
  double iron_amdahl_w4 = 0.0;
  double iron_verify_ms = 0.0, iron_apply_ms = 0.0;
  bool iron_determinism_ok = false;
};

/// Corrupts every TopAA slot (groups and volumes) so Iron's verify finds
/// real damage everywhere and the apply phase performs real writes.
void damage_all_topaa(Aggregate& agg) {
  for (RaidGroupId rg = 0; rg < agg.raid_group_count(); ++rg) {
    agg.topaa_store().corrupt(agg.rg_topaa_block(rg), 1000 + rg);
  }
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    BlockStore& store = agg.volume(v).store();
    store.corrupt(store.capacity_blocks() - TopAaFile::kRaidAgnosticBlocks,
                  2000 + v);
  }
}

/// Scan + Iron, serial then with a 4-worker pool, on the largest
/// vol-size geometry.  The Amdahl projections come from the serial run's
/// phase split, so they are meaningful on any host; the measured
/// speedups need real cores (check.sh gates them only when
/// hw_threads >= 4).
RecoveryBench measure_recovery(std::size_t vol_count,
                               std::uint64_t vol_blocks) {
  // Serial and 4-worker instances over byte-identical media: with the
  // pool carried by each aggregate's Runtime, the comparison runs one
  // instance per worker count instead of re-pooling a single instance.
  ThreadPool pool(4);
  Aggregate agg = make_aggregate(vol_count, vol_blocks, nullptr);
  Aggregate par_agg = make_aggregate(vol_count, vol_blocks, &pool);
  add_volumes(agg, vol_count, vol_blocks);
  add_volumes(par_agg, vol_count, vol_blocks);
  std::vector<DirtyBlock> dirty;
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    const std::uint64_t fill = vol_blocks * 4 / 10;
    for (std::uint64_t l = 0; l < fill; ++l) {
      dirty.push_back({v, l});
      if (dirty.size() == 49'152) {
        ConsistencyPoint::run(agg, dirty);
        dirty.clear();
      }
    }
  }
  if (!dirty.empty()) ConsistencyPoint::run(agg, dirty);
  clone_media(agg, par_agg);

  RecoveryBench r;

  // Scan path, serial: the phase split feeds the Amdahl projection.
  scan_profile().reset();
  auto t0 = std::chrono::steady_clock::now();
  mount_all(agg, /*use_topaa=*/false);
  r.scan_serial_ms = wall_ms_since(t0);
  const std::uint64_t digest_serial = cache_digest(agg);
  ScanProfile& prof = scan_profile();
  r.scan_read_ms = static_cast<double>(prof.read_ns.load()) / 1e6;
  r.scan_seed_ms = static_cast<double>(prof.seed_ns.load()) / 1e6;
  r.scan_build_ms = static_cast<double>(prof.build_ns.load()) / 1e6;
  // Every profiled phase fans out (block walk, per-group and per-volume
  // scoring and builds): the projection has no serial term.
  const double parallel_part = r.scan_read_ms + r.scan_seed_ms +
                               r.scan_build_ms;
  r.scan_amdahl_w4 =
      parallel_part > 0.0 ? parallel_part / (parallel_part / 4.0) : 0.0;

  // Scan path, 4 workers: same bytes, must be the same digest.
  t0 = std::chrono::steady_clock::now();
  mount_all(par_agg, /*use_topaa=*/false);
  r.scan_parallel_ms = wall_ms_since(t0);
  r.scan_determinism_ok = cache_digest(par_agg) == digest_serial;
  r.scan_speedup = r.scan_parallel_ms > 0.0
                       ? r.scan_serial_ms / r.scan_parallel_ms
                       : 0.0;

  // Iron, serial repair of fully damaged TopAA metafiles.
  damage_all_topaa(agg);
  t0 = std::chrono::steady_clock::now();
  const IronReport serial_rep = iron_check_topaa(agg);
  r.iron_serial_ms = wall_ms_since(t0);
  r.iron_verify_ms = serial_rep.verify_ms;
  r.iron_apply_ms = serial_rep.apply_ms;
  const double va = serial_rep.verify_ms + serial_rep.apply_ms;
  r.iron_amdahl_w4 =
      va > 0.0 ? va / (serial_rep.apply_ms + serial_rep.verify_ms / 4.0)
               : 0.0;
  const std::uint64_t repaired_digest = cache_digest(agg);

  // Identical damage on the pooled instance, repaired through the
  // 4-worker verify fan-out: the staged apply must land the same bytes
  // (checked via a clean follow-up pass plus the digest).
  damage_all_topaa(par_agg);
  t0 = std::chrono::steady_clock::now();
  const IronReport par_rep = iron_check_topaa(par_agg);
  r.iron_parallel_ms = wall_ms_since(t0);
  r.iron_determinism_ok =
      cache_digest(par_agg) == repaired_digest &&
      par_rep.rg_rewritten == serial_rep.rg_rewritten &&
      par_rep.vol_rewritten == serial_rep.vol_rewritten &&
      iron_check_topaa(par_agg).clean();
  r.iron_speedup = r.iron_parallel_ms > 0.0
                       ? r.iron_serial_ms / r.iron_parallel_ms
                       : 0.0;
  return r;
}

void print_series(const char* title, const char* xlabel,
                  const std::vector<std::uint64_t>& xs,
                  const std::vector<MountTiming>& ts) {
  bench::print_section(title);
  double norm = 0.0;
  for (const MountTiming& t : ts) {
    norm = std::max(norm, t.scan_ms);
  }
  std::printf("%16s %14s %14s %12s %12s\n", xlabel, "with TopAA ms",
              "no TopAA ms", "with (norm)", "without (norm)");
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::printf("%16llu %14.2f %14.2f %12.3f %12.3f\n",
                static_cast<unsigned long long>(xs[i]), ts[i].topaa_ms,
                ts[i].scan_ms, ts[i].topaa_ms / norm, ts[i].scan_ms / norm);
  }
}

}  // namespace
}  // namespace wafl

int main() {
  using namespace wafl;
  const bool fast = bench::fast_mode();
  bench::print_title("Figure 10",
                     "time gated on AA-cache readiness for the first CP "
                     "after mount, with and without TopAA metafiles");
  bench::print_expectation(
      "with TopAA: flat, independent of volume size and count; without: "
      "grows linearly with capacity (the bitmap walk).");

  // (A) fixed volume count, growing volume size.
  const std::size_t vols = fast ? 4 : 12;
  const std::vector<std::uint64_t> sizes =
      fast ? std::vector<std::uint64_t>{65'536, 262'144}
           : std::vector<std::uint64_t>{32'768, 65'536, 131'072, 262'144,
                                        524'288};
  std::vector<MountTiming> size_ts;
  size_ts.reserve(sizes.size());
  for (const std::uint64_t s : sizes) {
    size_ts.push_back(measure(vols, s));
  }
  print_series("(A) scaling FlexVol size (12 volumes)",
               "vol blocks", sizes, size_ts);

  // (B) fixed volume size, growing volume count.
  const std::uint64_t size = 65'536;
  const std::vector<std::uint64_t> counts =
      fast ? std::vector<std::uint64_t>{4, 16}
           : std::vector<std::uint64_t>{4, 8, 16, 32, 64};
  std::vector<MountTiming> count_ts;
  count_ts.reserve(counts.size());
  for (const std::uint64_t c : counts) {
    count_ts.push_back(measure(static_cast<std::size_t>(c), size));
  }
  print_series("(B) scaling FlexVol count (64 Ki-block volumes)",
               "volumes", counts, count_ts);

  // (C) recovery-path parallelism at the largest vol-size point.
  const RecoveryBench rb = measure_recovery(vols, sizes.back());
  bench::print_section(
      "(C) parallel recovery (one-level scan fan-out + Iron)");
  std::printf(
      "  scan : serial %.2f ms, 4-worker %.2f ms, speedup %.2fx, "
      "Amdahl(w4) %.2fx, determinism %s\n",
      rb.scan_serial_ms, rb.scan_parallel_ms, rb.scan_speedup,
      rb.scan_amdahl_w4, rb.scan_determinism_ok ? "ok" : "DIVERGED");
  std::printf(
      "         phases: read %.2f seed %.2f build %.2f ms\n",
      rb.scan_read_ms, rb.scan_seed_ms, rb.scan_build_ms);
  std::printf(
      "  iron : serial %.2f ms (verify %.2f + apply %.2f), 4-worker "
      "%.2f ms, speedup %.2fx, Amdahl(w4) %.2fx, determinism %s\n",
      rb.iron_serial_ms, rb.iron_verify_ms, rb.iron_apply_ms,
      rb.iron_parallel_ms, rb.iron_speedup, rb.iron_amdahl_w4,
      rb.iron_determinism_ok ? "ok" : "DIVERGED");
  if (!rb.scan_determinism_ok || !rb.iron_determinism_ok) {
    std::fprintf(stderr,
                 "FAIL: parallel recovery diverged from serial "
                 "(scan %d, iron %d)\n",
                 rb.scan_determinism_ok, rb.iron_determinism_ok);
    return 1;
  }

  // Trajectory record: the largest point of each series — the one the
  // paper's "constant vs linear" claim separates hardest — diffed against
  // the committed baseline by tools/check.sh --perf.
  const MountTiming& big_size = size_ts.back();
  const MountTiming& big_count = count_ts.back();
  const std::string path = bench::json_path("BENCH_mount.json");
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"fig10_topaa_mount\",\n"
        "  \"mode\": \"%s\",\n"
        "  \"hw_threads\": %u,\n"
        "  \"largest_vol_size\": {\"vol_blocks\": %llu, \"vols\": %zu,\n"
        "    \"topaa_ms\": %.3f, \"scan_ms\": %.3f, \"scan_over_topaa\": "
        "%.3f},\n"
        "  \"largest_vol_count\": {\"vol_blocks\": %llu, \"vols\": %llu,\n"
        "    \"topaa_ms\": %.3f, \"scan_ms\": %.3f, \"scan_over_topaa\": "
        "%.3f},\n"
        "  \"scan\": {\"serial_ms\": %.3f, \"parallel_ms_w4\": %.3f,\n"
        "    \"scan_parallel_speedup\": %.3f, \"scan_amdahl_speedup_w4\": "
        "%.3f,\n"
        "    \"read_ms\": %.3f, \"seed_ms\": %.3f, \"build_ms\": %.3f,\n"
        "    \"determinism_ok\": %s},\n"
        "  \"iron\": {\"serial_ms\": %.3f, \"parallel_ms_w4\": %.3f,\n"
        "    \"iron_repair_speedup\": %.3f, \"iron_amdahl_speedup_w4\": "
        "%.3f,\n"
        "    \"verify_ms\": %.3f, \"apply_ms\": %.3f, "
        "\"determinism_ok\": %s}\n"
        "}\n",
        fast ? "fast" : "full", std::thread::hardware_concurrency(),
        static_cast<unsigned long long>(sizes.back()), vols,
        big_size.topaa_ms, big_size.scan_ms,
        big_size.topaa_ms > 0.0 ? big_size.scan_ms / big_size.topaa_ms : 0.0,
        static_cast<unsigned long long>(size),
        static_cast<unsigned long long>(counts.back()), big_count.topaa_ms,
        big_count.scan_ms,
        big_count.topaa_ms > 0.0 ? big_count.scan_ms / big_count.topaa_ms
                                 : 0.0,
        rb.scan_serial_ms, rb.scan_parallel_ms, rb.scan_speedup,
        rb.scan_amdahl_w4, rb.scan_read_ms, rb.scan_seed_ms,
        rb.scan_build_ms,
        rb.scan_determinism_ok ? "true" : "false",
        rb.iron_serial_ms, rb.iron_parallel_ms, rb.iron_speedup,
        rb.iron_amdahl_w4, rb.iron_verify_ms, rb.iron_apply_ms,
        rb.iron_determinism_ok ? "true" : "false");
    std::fclose(f);
    std::printf("\n[bench] trajectory written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }

  wafl::bench::dump_metrics("fig10_topaa_mount");
  return 0;
}
