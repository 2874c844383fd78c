// multivol_intake: open-loop intake across many volumes.  4 RAID groups
// (2 SSD, 2 HDD), 8 FlexVols, lightly aged.  2 writer threads, each an
// independent client on a fixed-rate schedule of uniform 8 KiB writes
// across all volumes; every few CPs the control thread takes a snapshot
// of one volume and deletes that volume's older one.  This runs the
// sharded intake (claims, leases), the freeze on the submitting thread,
// the per-volume CP phase, per-RAID-group work and delayed frees (run
// serially: the runtime has no pool, see Exec).
// Ack latency is timed from each op's due time, so a freeze or
// backpressure stall is charged to every write queued behind it.
#include <pthread.h>
#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "sim/aging.hpp"
#include "wafl/fleet.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kWriters = 2;
constexpr int kSetupReps = 15;
constexpr std::uint64_t kDeviceBlocks = 131'072;
constexpr VolumeId kVolumes = 8;
constexpr std::uint64_t kFileBlocks = 65'536;
constexpr double kFill = 0.5;
/// Offered load per writer (ops/s): fixed, and below what this aggregate
/// absorbs on a 4-core host (no backpressure stalls), so the queue does
/// not grow.
constexpr double kRatePerWriter = 200'000;
/// A snapshot is taken every this many completed CPs.
constexpr std::uint64_t kSnapEveryCps = 4;
constexpr std::size_t kSnapsKeptPerVol = 2;
/// Traced runs harvest spans this often (writers paused, drain idle), and
/// sooner when a writer has submitted kHarvestOps ops since the last one.
constexpr double kHarvestSeconds = 0.015;
constexpr std::uint64_t kHarvestOps = 6000;

OverlappedCpConfig flush_policy() {
  OverlappedCpConfig cfg;
  cfg.auto_cp_trigger = 16'384;
  cfg.dirty_high_watermark = 65'536;
  return cfg;
}

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
  cfg.raid_groups = {fleet_ssd_group(kDeviceBlocks), fleet_ssd_group(kDeviceBlocks),
                     fleet_hdd_group(kDeviceBlocks), fleet_hdd_group(kDeviceBlocks)};
  b.agg = std::make_unique<Aggregate>(cfg, /*rng_seed=*/4242, ex.runtime());
  for (VolumeId v = 0; v < kVolumes; ++v) {
    FlexVolConfig vol;
    vol.file_blocks = kFileBlocks;
    vol.vvbn_blocks = kFileBlocks + 2 * kFlatAaBlocks;
    b.agg->add_volume(vol);
  }
  b.build_s = static_cast<double>(now_ns() - t0) / 1e9;

  t0 = now_ns();
  AgingConfig aging;
  aging.fill_fraction = kFill;
  aging.overwrite_passes = 0.25;
  aging.zipf_theta = 0.0;
  aging.cp_blocks = 49'152;
  aging.seed = 7;
  age_filesystem(*b.agg, all_volumes(), aging);
  b.aging_s = static_cast<double>(now_ns() - t0) / 1e9;
  return b;
}

/// One open-loop client: op i is due at base + shift + i / rate.  The
/// counters the control thread samples at block boundaries are atomics.
struct Writer {
  Writer(std::uint64_t seed, std::size_t blocks)
      : stream(all_volumes(), span_blocks(), 0.0, seed), late(seed + 1, 1 << 18) {
    for (std::size_t b = 0; b < blocks; ++b) ack.emplace_back(seed * 7919 + b, 1 << 14);
  }
  OpStream stream;
  std::vector<LatencySamples> ack;  // one per measurement block
  LatencySamples late;
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> submit_ns{0};
  std::uint64_t failed = 0;
  /// The writer thread's CPU clock, readable from the control thread while
  /// the writer runs; its final reading once it has stopped.
  clockid_t cpu_clock{};
  std::atomic<bool> started{false};
  double cpu_end_s = 0;

  double cpu_s() const {
    timespec ts{};
    clock_gettime(cpu_clock, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  }
};

class PauseGate {
 public:
  /// Writer side, between ops: parks while a pause is requested, or, with
  /// `ring_full`, asks for a harvest and parks until it is done.  True
  /// when the writer was parked (spans were harvested meanwhile).
  bool checkpoint(bool ring_full) {
    if (!ring_full && !requested_.load(std::memory_order_acquire)) return false;
    std::unique_lock lk(mu_);
    harvest_wanted_ = harvest_wanted_ || ring_full;
    const std::uint64_t epoch = epoch_;
    ++paused_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return epoch_ != epoch; });
    --paused_;
    return true;
  }
  bool harvest_wanted() {
    std::lock_guard lk(mu_);
    return harvest_wanted_;
  }
  /// Control side: returns once all `n` writers are parked (or done).
  void pause(std::size_t n, const std::atomic<std::size_t>& done) {
    std::unique_lock lk(mu_);
    requested_.store(true, std::memory_order_release);
    // A writer that finishes instead of parking does not notify: poll.
    while (!cv_.wait_for(lk, std::chrono::milliseconds(1),
                         [&] { return paused_ + done.load() >= n; })) {
    }
  }
  void resume(std::uint64_t paused_ns) {
    shift_ns_.fetch_add(paused_ns, std::memory_order_relaxed);
    std::lock_guard lk(mu_);
    requested_.store(false, std::memory_order_release);
    harvest_wanted_ = false;
    ++epoch_;
    cv_.notify_all();
  }
  std::uint64_t shift_ns() const { return shift_ns_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> requested_{false};
  bool harvest_wanted_ = false;  // guarded by mu_
  std::uint64_t epoch_ = 0;      // guarded by mu_; bumped by every resume
  std::size_t paused_ = 0;       // guarded by mu_
  std::atomic<std::uint64_t> shift_ns_{0};
};

void writer_main(OverlappedCpDriver& drv, Writer& w, PauseGate& gate,
                 std::uint64_t base_ns, std::uint64_t stop_ns, bool tracing,
                 std::atomic<std::size_t>& done) {
  pthread_getcpuclockid(pthread_self(), &w.cpu_clock);
  w.started.store(true);
  const double interval_ns = 1e9 / kRatePerWriter;
  const auto ops_per_block = static_cast<std::uint64_t>(kRatePerWriter * kBlockSeconds);
  std::array<DirtyBlock, 2> op{};
  // Each submit emits one cp.intake span into this thread's 8192-span ring.
  std::uint64_t since_harvest = 0;
  for (std::uint64_t i = 0;; ++i) {
    if (gate.checkpoint(tracing && since_harvest >= kHarvestOps)) since_harvest = 0;
    ++since_harvest;
    const std::uint64_t due =
        base_ns + gate.shift_ns() +
        static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
    if (due >= stop_ns + gate.shift_ns()) break;
    w.stream.next(op);
    // Spin to the due time: a sleeping client wakes tens of microseconds
    // late, and a sched_yield() call takes about a microsecond, either of
    // which would swamp the submit latency being measured.
    while (now_ns() < due) cpu_relax();
    const std::uint64_t t0 = now_ns();
    try {
      drv.submit(std::span<const DirtyBlock>(op));
    } catch (...) {
      ++w.failed;
    }
    const std::uint64_t t1 = now_ns();
    w.submit_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    w.ops.fetch_add(1, std::memory_order_relaxed);
    w.ack[std::min<std::size_t>(i / ops_per_block, w.ack.size() - 1)].add(
        static_cast<double>(t1 - due));
    w.late.add(static_cast<double>(t0 > due ? t0 - due : 0));
  }
  w.cpu_end_s = thread_cpu_seconds();
  done.fetch_add(1);
}

/// Process, client and driver counters at a block boundary.
struct Sample {
  std::uint64_t t = 0;
  double process_cpu_s = 0;
  double clients_cpu_s = 0;
  double in_library_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t stall_ns = 0;
};

Sample sample(const std::vector<std::unique_ptr<Writer>>& writers,
              const OverlappedCpDriver& drv, bool stopped) {
  Sample s;
  s.t = now_ns();
  s.process_cpu_s = cpu_seconds();
  for (const auto& w : writers) {
    s.clients_cpu_s += stopped ? w->cpu_end_s : w->cpu_s();
    s.in_library_s += static_cast<double>(w->submit_ns.load()) / 1e9;
    s.ops += w->ops.load();
  }
  s.stall_ns = drv.stats().stall_ns;
  return s;
}

void check_snapshot_reclaim(Result& res, Aggregate& agg,
                            const std::vector<std::deque<SnapId>>& live) {
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    const FlexVol& vol = agg.volume(v);
    std::vector<bool> ref(vol.config().vvbn_blocks, false);
    std::uint64_t referenced = 0;
    const auto mark = [&](Vbn x) {
      if (x != kInvalidVbn && !ref[x]) {
        ref[x] = true;
        ++referenced;
      }
    };
    for (std::uint64_t l = 0; l < vol.file_blocks(); ++l) {
      mark(vol.vvbn_of(l));
      for (const SnapId id : live[v]) mark(vol.snapshot_vvbn_of(id, l));
    }
    bool all_held = true;
    for (Vbn x = 0; x < ref.size(); ++x) {
      if (ref[x] && !vol.activemap().is_allocated(x)) all_held = false;
    }
    res.check(vol.pending_delayed_frees() == 0 && all_held &&
                  vol.config().vvbn_blocks - vol.free_blocks() == referenced,
              "volume " + std::to_string(v) +
                  ": deleted snapshots' blocks not reclaimed (allocated " +
                  std::to_string(vol.config().vvbn_blocks - vol.free_blocks()) +
                  ", referenced " + std::to_string(referenced) + ")");
  }
}

}  // namespace

void run_multivol_intake(const Options& o, Result& res) {
  const OverlappedCpConfig cfg = flush_policy();
  Exec ex;
  record_context(res, o, kWriters, cfg);
  res.info("offered_rate", std::to_string(kRatePerWriter * kWriters) + " ops/s");
  Built b = repeated_setup(res, kSetupReps, [&] { return build(ex); });
  Aggregate& agg = *b.agg;

  TraceLedger trace(o.trace);
  cp_phase_profile().reset();
  agg.reset_wear_windows();
  const StoreIo io0 = store_io(agg);
  OverlappedCpDriver drv(agg, cfg);
  OverlappedCpDriver fdrv(agg, failover_policy());

  const double write_s = kSegmentSeconds * kWriteShare;
  const auto n_blocks = static_cast<std::size_t>(std::ceil(write_s / kBlockSeconds));
  const auto block_ns = static_cast<std::uint64_t>(kBlockSeconds * 1e9);
  std::vector<std::unique_ptr<Writer>> writers;
  for (std::size_t k = 0; k < kWriters; ++k) {
    writers.push_back(std::make_unique<Writer>(o.seed * 1000 + k + 1, n_blocks));
  }
  const auto total_ops = [&] {
    std::uint64_t n = 0;
    for (const auto& w : writers) n += w->ops.load();
    return n;
  };
  std::vector<std::deque<SnapId>> live(kVolumes);
  std::uint64_t snaps_created = 0, snaps_deleted = 0;
  std::uint64_t next_snap_cp = kSnapEveryCps;
  std::uint64_t snap_vol = 0;
  BlockSeries blocks;
  std::uint64_t traced_ops = 0, traced_ns = 0, untraced_ops = 0, untraced_ns = 0;

  // One segment of open-loop writes: both writers on a fresh schedule,
  // the control thread sampling block boundaries, rotating snapshots and,
  // when tracing, pausing the writers to harvest spans.  The segment ends
  // when the CP holding its last op completes.
  const auto write_segment = [&] {
    for (const auto& w : writers) {
      for (LatencySamples& a : w->ack) a.clear();
      w->started.store(false);
    }
    PauseGate gate;
    std::atomic<std::size_t> done{0};
    const std::uint64_t ops0 = total_ops();
    const std::uint64_t t_start = now_ns() + 1'000'000;  // writers start together
    const std::uint64_t t_stop = t_start + static_cast<std::uint64_t>(write_s * 1e9);
    // Writer k's schedule is offset by k / kWriters of an interval, so
    // the clients' due times interleave evenly instead of colliding at a
    // start-up dependent phase.
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < kWriters; ++k) {
      const auto phase = static_cast<std::uint64_t>(
          1e9 / kRatePerWriter * static_cast<double>(k) / static_cast<double>(kWriters));
      threads.emplace_back(writer_main, std::ref(drv), std::ref(*writers[k]), std::ref(gate),
                           t_start + phase, t_stop, trace.capturing(), std::ref(done));
    }
    for (const auto& w : writers) {
      while (!w->started.load()) std::this_thread::yield();
    }
    while (now_ns() < t_start) std::this_thread::yield();
    std::vector<Sample> samples{sample(writers, drv, false)};
    std::uint64_t next_harvest = now_ns() + static_cast<std::uint64_t>(kHarvestSeconds * 1e9);
    while (done.load() < kWriters) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const std::uint64_t now = now_ns();
      if (samples.size() < n_blocks &&
          now >= t_start + gate.shift_ns() + samples.size() * block_ns) {
        samples.push_back(sample(writers, drv, false));
      }
      if (trace.capturing() && (now >= next_harvest || gate.harvest_wanted())) {
        gate.pause(kWriters, done);
        const std::uint64_t p0 = now_ns();
        drv.wait_idle();
        trace.harvest();
        next_harvest = now_ns() + static_cast<std::uint64_t>(kHarvestSeconds * 1e9);
        gate.resume(now_ns() - p0);
      }
      if (drv.stats().cps_completed >= next_snap_cp) {
        next_snap_cp += kSnapEveryCps;
        const auto v = static_cast<VolumeId>(snap_vol++ % kVolumes);
        const std::uint64_t s0 = now_ns();
        live[v].push_back(drv.create_snapshot(v));
        ++snaps_created;
        if (live[v].size() > kSnapsKeptPerVol) {
          drv.delete_snapshot(v, live[v].front());
          live[v].pop_front();
          ++snaps_deleted;
        }
        trace.bench(BenchSpan::kSnapshot, s0, now_ns());
      }
    }
    for (auto& t : threads) t.join();
    drv.start_cp();
    drv.wait_idle();
    samples.push_back(sample(writers, drv, true));
    for (std::size_t k = 1; k < samples.size(); ++k) {
      const Sample& a = samples[k - 1];
      const Sample& z = samples[k];
      LatencySamples ack(k);
      for (const auto& w : writers) ack.merge(w->ack[std::min(k - 1, n_blocks - 1)]);
      blocks.add(z.ops - a.ops, static_cast<double>(z.t - a.t) / 1e9,
                 system_cpu_s(z.process_cpu_s - a.process_cpu_s,
                              z.clients_cpu_s - a.clients_cpu_s,
                              z.in_library_s - a.in_library_s,
                              static_cast<double>(z.stall_ns - a.stall_ns) / 1e9),
                 ack);
    }
    const std::uint64_t seg_ops = total_ops() - ops0;
    const std::uint64_t seg_ns = samples.back().t - samples.front().t - gate.shift_ns();
    (trace.capturing() ? traced_ops : untraced_ops) += seg_ops;
    (trace.capturing() ? traced_ns : untraced_ns) += seg_ns;
  };

  // Segments of writes then failover cycles on the aggregate the writes
  // left.  A traced run traces the second half of its segments.
  FailoverPlan plan;
  plan.seconds = kSegmentSeconds * (1 - kWriteShare);
  OpStream fo_ops(all_volumes(), span_blocks(), 0.0, o.seed);
  FailoverOutcome f;
  const int segments = std::max(2, static_cast<int>(o.seconds / kSegmentSeconds));
  OverlapStats at_trace, fo_at_trace;
  double write_amp = 0;
  for (int seg = 0; seg < segments; ++seg) {
    if (o.trace && seg == segments / 2) {
      at_trace = drv.stats();
      fo_at_trace = fdrv.stats();
      trace.begin();
    }
    agg.reset_wear_windows();
    write_segment();
    write_amp += agg.mean_write_amplification() / segments;
    run_failover_cycles(res, agg, fdrv, fo_ops, plan, trace, f);
  }
  trace.end();
  const OverlapStats writes = drv.stats();

  // Reclaim every pending delayed free, then check nothing leaked.
  for (int i = 0; i < 10'000; ++i) {
    bool pending = false;
    for (VolumeId v = 0; v < kVolumes; ++v) {
      pending = pending || agg.volume(v).pending_delayed_frees() != 0;
    }
    if (!pending) break;
    drv.start_cp();
    drv.wait_idle();
  }
  const OverlapStats window = drv.stats();
  const OverlapStats fo = fdrv.stats();
  res.info("snapshots", "created=" + std::to_string(snaps_created) +
                            " deleted=" + std::to_string(snaps_deleted));
  check_conservation(res, window, "multivol_intake writes");
  check_conservation(res, fo, "multivol_intake failover");
  check_snapshot_reclaim(res, agg, live);
  check_free_counts(res, agg, "multivol_intake end");

  std::uint64_t failed = 0;
  double submit_ns = 0;
  LatencySamples late(o.seed);
  for (const auto& w : writers) {
    failed += w->failed;
    submit_ns += static_cast<double>(w->submit_ns.load());
    late.merge(w->late);
  }
  const std::uint64_t ops = total_ops();
  res.ops(ops, failed);
  report_write_metrics(res, blocks, writes, write_amp);
  report_failover_metrics(res, f);
  report_layers(res, writes, cp_phase_profile(), store_io(agg) - io0,
                window.cps_completed + fo.cps_completed, ops,
                submit_ns / static_cast<double>(ops), late.quantile(0.99) / 1e3, f);
  if (o.trace) {
    const OverlapStats traced = stats_delta(writes, at_trace);
    const OverlapStats traced_fo = stats_delta(fo, fo_at_trace);
    report_trace_layers(
        res, trace, traced.cps_completed + traced_fo.cps_completed,
        static_cast<double>(traced.drain_ns + traced_fo.drain_ns) / 1e6,
        static_cast<double>(untraced_ops) / (static_cast<double>(untraced_ns) / 1e9),
        static_cast<double>(traced_ops) / (static_cast<double>(traced_ns) / 1e9));
  }
  report_closing_metrics(res);
}

}  // namespace perfbench
