// Scaling of the parallelized physical CP: allocation plus boundary.
//
// Both halves of the CP's physical work now fan out.  Allocation
// (WriteAllocator::allocate) runs a serial plan that partitions demand
// across RAID groups, executes the group-disjoint tetris fills on the
// pool, and merges the staged deltas serially.  The boundary
// (WriteAllocator::finish_cp) partitions the CP's deferred frees per group
// serially, fans the group-disjoint half out (free application + device
// invalidation, score-delta folds, cache re-admits, TopAA image builds),
// and keeps the shared half (bitmap-metafile accounting and flush, TopAA
// commits, stats folds) serial.  This bench measures both slices' wall
// time over a many-group aggregate at worker counts {serial, 1, 2, 4, 8}:
// the parallel runs must stay bit-identical (checked against the serial
// run's CpStats) while the time drops with workers until the serial tail
// dominates (Amdahl).  The headline `finish_cp_ms[w=N]=` and
// `alloc_ms[w=N]=` lines are machine-parseable.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "wafl/consistency_point.hpp"
#include "wafl/write_allocator.hpp"

namespace wafl {
namespace {

struct Shape {
  std::size_t raid_groups;
  std::uint64_t device_blocks;
  std::size_t vols;
  std::uint64_t file_blocks;
  std::uint64_t writes_per_cp;
  int cps;
};

Shape shape() {
  if (bench::fast_mode()) {
    // CPs sized so the per-CP group-disjoint work (execute + boundary)
    // dwarfs the fixed serial costs (plan, window flush, stats folds):
    // the phase split then reflects the design's Amdahl tail, not
    // fast-mode constant overheads.
    return {4, 32 * 1024, 4, 16'000, 24'000, 3};
  }
  return {8, 128 * 1024, 8, 60'000, 100'000, 6};
}

std::unique_ptr<Aggregate> make_agg(const Shape& s, ThreadPool* pool) {
  RaidGroupConfig rg;
  rg.data_devices = 4;
  rg.parity_devices = 1;
  rg.device_blocks = s.device_blocks;
  // SSD: invalidation does real FTL bookkeeping per freed block, so the
  // fanned-out half of the boundary carries its production weight (on
  // HDD, invalidate is nearly free and dispatch overhead dominates).
  rg.media.type = MediaType::kSsd;
  rg.media.ssd.pages_per_erase_block = 1024;
  rg.aa_stripes = 2048;
  AggregateConfig cfg;
  cfg.raid_groups.assign(s.raid_groups, rg);
  auto agg =
      std::make_unique<Aggregate>(cfg, 20180813, Runtime{}.with_pool(pool));
  for (std::size_t v = 0; v < s.vols; ++v) {
    FlexVolConfig vol;
    vol.file_blocks = s.file_blocks;
    vol.vvbn_blocks = 8ull * kFlatAaBlocks;
    vol.aa_blocks = 8192;
    agg->add_volume(vol);
  }
  return agg;
}

std::vector<DirtyBlock> batch(const Shape& s, Rng& rng) {
  // Overwrite-heavy so the boundary has real free work to partition.
  std::vector<DirtyBlock> out;
  for (std::uint64_t i = 0; i < s.writes_per_cp; ++i) {
    out.push_back({static_cast<VolumeId>(rng.below(s.vols)),
                   rng.below(s.file_blocks)});
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

struct RunResult {
  double boundary_ms = 0.0;  // finish_cp wall time, summed over the CPs
  double alloc_ms = 0.0;     // allocate_pvbns wall time, summed
  CpPhaseProfile phases;     // per-phase split over the timed CPs
  CpStats totals;
  std::vector<obs::SpanRecord> spans;  // all timed CPs, capture enabled
  std::uint64_t spans_dropped = 0;
};

/// Runs the workload with `workers` pool threads (0 = fully serial CP),
/// timing the physical-allocation and aggregate finish-CP slices of each
/// CP separately.  The volume phase runs serially in every configuration
/// so the measured deltas are the aggregate side's own scaling, not
/// [10]-style per-volume sharding.
RunResult run(const Shape& s, std::size_t workers) {
  std::unique_ptr<ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
  auto agg = make_agg(s, pool.get());
  Rng rng(4242);
  RunResult r;
  // Capture spans for the whole run: the serial run's spans reconcile
  // against CpPhaseProfile below, and a parallel run's become the Chrome
  // trace artifact.  (The capture sites cost nanoseconds; the timed
  // phases are milliseconds.)
  WAFL_OBS(obs::set_span_capture(true));
  // CP -1 is an untimed prefill of every logical block, so the timed CPs
  // are pure overwrites and the boundary's free-side work (the fanned-out
  // half) carries its steady-state weight.
  for (int cp = -1; cp < s.cps; ++cp) {
    if (cp == 0) {
      cp_phase_profile().reset();  // drop the prefill CP's laps
      WAFL_OBS(obs::spans().clear());
    }
    std::vector<DirtyBlock> dirty;
    if (cp < 0) {
      for (VolumeId v = 0; v < s.vols; ++v) {
        for (std::uint64_t l = 0; l < s.file_blocks; ++l) {
          dirty.push_back({v, l});
        }
      }
    } else {
      dirty = batch(s, rng);
    }

    // Inline the ConsistencyPoint phases so the clock brackets only
    // Aggregate::finish_cp; CP semantics are unchanged (allocation and
    // remapping happen exactly as ConsistencyPoint::run orders them).
    CpStats stats;
    agg->begin_cp();
    std::vector<Vbn> vvbns, pvbns, freed_pvbns;
    std::size_t at = 0;
    while (at < dirty.size()) {
      const VolumeId vol = dirty[at].vol;
      std::size_t end = at;
      while (end < dirty.size() && dirty[end].vol == vol) ++end;
      FlexVol& fv = agg->volume(vol);
      vvbns.clear();
      pvbns.clear();
      freed_pvbns.clear();
      for (std::size_t i = at; i < end; ++i) {
        vvbns.push_back(fv.allocate_vvbn(stats));
      }
      const auto a0 = std::chrono::steady_clock::now();
      const bool ok = agg->allocate_pvbns(end - at, pvbns, stats);
      if (cp >= 0) {
        r.alloc_ms += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - a0)
                          .count();
      }
      if (!ok) {
        std::fprintf(stderr, "aggregate out of space\n");
        std::exit(1);
      }
      for (std::size_t i = at; i < end; ++i) {
        const Vbn freed = fv.remap(dirty[i].logical, vvbns[i - at],
                                   pvbns[i - at]);
        agg->set_owner(pvbns[i - at], vol, vvbns[i - at]);
        if (freed != kInvalidVbn) freed_pvbns.push_back(freed);
      }
      agg->release_pvbns(freed_pvbns);
      stats.blocks_written += end - at;
      at = end;
    }
    for (VolumeId v = 0; v < agg->volume_count(); ++v) {
      agg->volume(v).finish_cp(stats);
    }

    const auto t0 = std::chrono::steady_clock::now();
    agg->finish_cp(stats);
    if (cp >= 0) {
      r.boundary_ms +=
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      r.totals.merge(stats);
    }
    // Drain the span rings every CP so one CP's spans can never wrap a
    // ring over an earlier CP's (the per-thread rings hold 8 Ki spans).
    WAFL_OBS({
      if (cp >= 0) {
        const auto batch_spans = obs::spans().snapshot();
        r.spans.insert(r.spans.end(), batch_spans.begin(),
                       batch_spans.end());
        r.spans_dropped += obs::spans().dropped();
      }
      obs::spans().clear();
    });
  }
  WAFL_OBS(obs::set_span_capture(false));
  r.phases = cp_phase_profile();
  return r;
}

/// Sums the wall time of every span of `kind`, in milliseconds.
double span_wall_ms(const std::vector<obs::SpanRecord>& spans,
                    obs::SpanKind kind) {
  std::uint64_t ns = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.kind == kind) ns += s.t1_ns - s.t0_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

/// The trace-vs-profile reconciliation (acceptance check): each profile
/// bucket's spans bracket exactly the code region the corresponding
/// lap() timed, so the summed span wall time must land within 5% of the
/// profile bucket (plus a small absolute epsilon for sub-millisecond
/// buckets, where scheduler noise outweighs the phase itself).
bool reconcile(const RunResult& serial) {
  struct Pair {
    const char* name;
    obs::SpanKind kind;
    double profile_ms;
  };
  const CpPhaseProfile& p = serial.phases;
  const Pair pairs[] = {
      {"plan", obs::SpanKind::kWaPlan, p.plan_ms},
      {"execute", obs::SpanKind::kWaExecute, p.execute_ms},
      {"alloc_merge", obs::SpanKind::kWaMerge, p.alloc_merge_ms},
      {"windows", obs::SpanKind::kFcWindows, p.windows_ms},
      {"owner", obs::SpanKind::kFcOwner, p.owner_ms},
      {"partition", obs::SpanKind::kFcPartition, p.partition_ms},
      {"boundary", obs::SpanKind::kFcBoundary, p.boundary_ms},
      {"merge", obs::SpanKind::kFcMerge, p.merge_ms},
      {"flush", obs::SpanKind::kFcFlush, p.flush_ms},
      {"topaa", obs::SpanKind::kFcTopaa, p.topaa_ms},
      {"fold", obs::SpanKind::kFcFold, p.fold_ms},
  };
  bool ok = true;
  std::printf("trace_reconciliation (span wall vs profile, serial run):\n");
  for (const Pair& pr : pairs) {
    const double span_ms = span_wall_ms(serial.spans, pr.kind);
    const double diff = std::abs(span_ms - pr.profile_ms);
    const double tol = std::max(0.05 * pr.profile_ms, 0.5);
    const bool pass = diff <= tol;
    std::printf("  %-12s span=%9.3fms profile=%9.3fms diff=%7.3fms %s\n",
                pr.name, span_ms, pr.profile_ms, diff,
                pass ? "ok" : "MISMATCH");
    if (!pass) ok = false;
  }
  return ok;
}

}  // namespace
}  // namespace wafl

int main() {
  using namespace wafl;
  const auto s = shape();
  bench::print_title("micro_parallel_cp",
                     "CP allocation + boundary wall time vs worker count");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "shape: %zu RAID groups x (4+1) x %llu blocks, %zu vols, "
      "%llu writes/CP, %d CPs%s, %u hw threads\n",
      s.raid_groups, static_cast<unsigned long long>(s.device_blocks),
      s.vols, static_cast<unsigned long long>(s.writes_per_cp), s.cps,
      bench::fast_mode() ? " (fast mode)" : "", hw);
  bench::print_expectation(
      "allocation and boundary time fall with workers while every run "
      "stays bit-identical; the serial plan/partition/merge tail bounds "
      "the speedup");

  const RunResult serial = run(s, 0);
  // The serial run's phase split is the Amdahl decomposition: the phases
  // finish_cp fans out (owner lookup, per-group boundary, metafile flush,
  // TopAA commits) against the ones it cannot (window flush, partition,
  // summary merge, stats folds).  On a single-core host the measured
  // speedup is pinned near 1x whatever the code does, so the split — and
  // the implied speedup at 4 workers — is the portable scaling headline.
  const double p_ms = serial.phases.parallel_ms();
  const double s_ms = serial.phases.serial_ms();
  const double total = serial.phases.total_ms();
  const double par_frac = total > 0.0 ? p_ms / total : 0.0;
  const double amdahl4 = total > 0.0 ? total / (s_ms + p_ms / 4.0) : 1.0;
  std::printf("finish_cp_ms[w=serial]=%.2f  (freed=%llu, flushed=%llu)\n",
              serial.boundary_ms,
              static_cast<unsigned long long>(serial.totals.blocks_freed),
              static_cast<unsigned long long>(
                  serial.totals.meta_flush_blocks));
  std::printf(
      "phase_split: plan=%.2f execute=%.2f alloc_merge=%.2f windows=%.2f "
      "owner=%.2f partition=%.2f boundary=%.2f merge=%.2f flush=%.2f "
      "topaa=%.2f fold=%.2f\n",
      serial.phases.plan_ms, serial.phases.execute_ms,
      serial.phases.alloc_merge_ms, serial.phases.windows_ms,
      serial.phases.owner_ms, serial.phases.partition_ms,
      serial.phases.boundary_ms, serial.phases.merge_ms,
      serial.phases.flush_ms, serial.phases.topaa_ms, serial.phases.fold_ms);
  // The allocation slice's own Amdahl split: the execute phase fans out,
  // the plan and the delta/stats merge cannot.
  const double alloc_total = serial.phases.plan_ms + serial.phases.execute_ms +
                             serial.phases.alloc_merge_ms;
  const double alloc_par_frac =
      alloc_total > 0.0 ? serial.phases.execute_ms / alloc_total : 0.0;
  std::printf("alloc_ms[w=serial]=%.2f  alloc_parallel_fraction=%.3f\n",
              serial.alloc_ms, alloc_par_frac);
  std::printf("parallel_fraction=%.3f  amdahl_speedup[w=4]=%.2fx\n",
              par_frac, amdahl4);

  // Acceptance check: the serial run's spans must reconcile with the
  // CpPhaseProfile laps (the spans bracket the same code regions).
  if (obs::kEnabled && !serial.spans.empty()) {
    if (serial.spans_dropped != 0) {
      std::fprintf(stderr, "warning: %llu spans dropped in serial run\n",
                   static_cast<unsigned long long>(serial.spans_dropped));
    }
    if (!reconcile(serial)) {
      std::fprintf(stderr,
                   "trace does not reconcile with CpPhaseProfile\n");
      return 1;
    }
  }

  double wall_ms[5] = {serial.boundary_ms, 0, 0, 0, 0};
  double alloc_wall_ms[5] = {serial.alloc_ms, 0, 0, 0, 0};
  std::vector<obs::SpanRecord> trace_spans;
  const std::size_t worker_counts[4] = {1, 2, 4, 8};
  for (std::size_t wi = 0; wi < 4; ++wi) {
    const std::size_t workers = worker_counts[wi];
    const RunResult r = run(s, workers);
    wall_ms[wi + 1] = r.boundary_ms;
    alloc_wall_ms[wi + 1] = r.alloc_ms;
    if (workers == 4) trace_spans = r.spans;  // the exported timeline
    const bool identical =
        r.totals.blocks_written == serial.totals.blocks_written &&
        r.totals.blocks_freed == serial.totals.blocks_freed &&
        r.totals.agg_meta_blocks == serial.totals.agg_meta_blocks &&
        r.totals.meta_flush_blocks == serial.totals.meta_flush_blocks &&
        r.totals.storage_time_ns == serial.totals.storage_time_ns;
    std::printf(
        "finish_cp_ms[w=%zu]=%.2f  speedup=%.2fx  alloc_ms[w=%zu]=%.2f  "
        "identical=%s\n",
        workers, r.boundary_ms, serial.boundary_ms / r.boundary_ms, workers,
        r.alloc_ms, identical ? "yes" : "NO");
    if (!identical) {
      std::fprintf(stderr,
                   "determinism violation at %zu workers — parallel CP "
                   "diverged from serial\n",
                   workers);
      return 1;
    }
  }

  // Trajectory record: one JSON file, overwritten each run, diffed against
  // the committed baseline by tools/check.sh --perf.
  const std::string path = bench::json_path("BENCH_parallel_cp.json");
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_parallel_cp\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"serial_total_ms\": %.3f,\n"
                 "  \"serial_phase_ms\": %.3f,\n"
                 "  \"parallel_phase_ms\": %.3f,\n"
                 "  \"parallel_fraction\": %.4f,\n"
                 "  \"amdahl_speedup_w4\": %.3f,\n"
                 "  \"measured_speedup_w4\": %.3f,\n"
                 "  \"wall_ms\": {\"serial\": %.3f, \"w1\": %.3f, "
                 "\"w2\": %.3f, \"w4\": %.3f, \"w8\": %.3f},\n"
                 "  \"alloc_plan_ms\": %.3f,\n"
                 "  \"alloc_execute_ms\": %.3f,\n"
                 "  \"alloc_merge_ms\": %.3f,\n"
                 "  \"alloc_parallel_fraction\": %.4f,\n"
                 "  \"alloc_wall_ms\": {\"serial\": %.3f, \"w1\": %.3f, "
                 "\"w2\": %.3f, \"w4\": %.3f, \"w8\": %.3f},\n"
                 "  \"identical_all_worker_counts\": true\n"
                 "}\n",
                 bench::fast_mode() ? "fast" : "full", hw, total, s_ms, p_ms,
                 par_frac, amdahl4,
                 wall_ms[3] > 0.0 ? wall_ms[0] / wall_ms[3] : 0.0, wall_ms[0],
                 wall_ms[1], wall_ms[2], wall_ms[3], wall_ms[4],
                 serial.phases.plan_ms, serial.phases.execute_ms,
                 serial.phases.alloc_merge_ms, alloc_par_frac,
                 alloc_wall_ms[0], alloc_wall_ms[1], alloc_wall_ms[2],
                 alloc_wall_ms[3], alloc_wall_ms[4]);
    std::fclose(f);
    std::printf("\n[bench] trajectory written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }

  // Chrome trace_event timeline of the 4-worker run — load the file in
  // Perfetto (ui.perfetto.dev) or chrome://tracing.
  if (obs::kEnabled && !trace_spans.empty()) {
    const std::string trace_path =
        bench::json_path("micro_parallel_cp.trace.json");
    if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
      const std::string json = obs::spans_to_chrome_json(trace_spans);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("[obs] Chrome trace (w=4 run, %zu spans) written to %s\n",
                  trace_spans.size(), trace_path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", trace_path.c_str());
    }
  }

  // Metrics snapshot carries the 4-worker run's timeline summary
  // (per-phase wall/self, per-thread occupancy, critical path).
  bench::dump_metrics_with_spans("micro_parallel_cp", trace_spans, 0);
  return 0;
}
