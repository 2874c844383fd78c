#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "obs/export.hpp"
#include "obs/scoped_timer.hpp"

namespace perfbench {

std::uint64_t now_ns() { return obs::monotonic_ns(); }

double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double smoothed_quantile(std::vector<float> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const double w = std::max(0.005, 5.0 / n);
  const auto lo = static_cast<std::size_t>(std::max(0.0, std::floor((q - w) * n)));
  const auto hi = std::min(
      v.size(), std::max(lo + 1, static_cast<std::size_t>(std::ceil((q + w) * n))));
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

void BlockSeries::add(std::uint64_t block_ops, double block_wall_s,
                      double sys_cpu_s, const LatencySamples& ack) {
  if (block_ops == 0 || block_wall_s <= 0) return;
  const auto n = static_cast<double>(block_ops);
  ops += block_ops;
  wall_s += block_wall_s;
  ops_s.push_back(n / block_wall_s);
  cpu_us_per_op.push_back(sys_cpu_s * 1e6 / n);
  ack_p50_us.push_back(ack.quantile(0.50) / 1e3);
  ack_p99_us.push_back(ack.quantile(0.99) / 1e3);
}

// --- Result -------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
  std::printf("metric %s = %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Result::info(const std::string& key, const std::string& value) {
  std::printf("info %s = %s\n", key.c_str(), value.c_str());
}

void Result::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++failed_checks_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

bool Result::emit_json(const std::vector<std::string>& names) const {
  std::string body;
  for (const std::string& n : names) {
    const auto it = metrics_.find(n);
    if (it == metrics_.end() || !std::isfinite(it->second.first)) {
      std::fprintf(stderr, "metric %s missing or not finite\n", n.c_str());
      return false;
    }
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", n.c_str(), it->second.first,
                  it->second.second.c_str());
    body += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted()),
      static_cast<unsigned long long>(failed()), body.c_str());
  return true;
}

void record_context(Result& res, const Options& o, std::size_t writers,
                    const OverlappedCpConfig& cfg) {
  res.info("workload", o.workload);
  res.info("seed", std::to_string(o.seed));
  res.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  res.info("threads",
           "writers=" + std::to_string(writers) +
               " pool_workers=0 drain_threads=1");
  res.info("flush_policy",
           "auto_cp_trigger=" + std::to_string(cfg.auto_cp_trigger) +
               " dirty_high_watermark=" +
               std::to_string(cfg.dirty_high_watermark) +
               " intake_shards=" + std::to_string(cfg.intake_shards));
}

Built repeated_setup(Result& res, int reps,
                     const std::function<Built()>& make) {
  std::vector<double> total, build, aging, warm;
  Built last;
  for (int r = 0; r < reps; ++r) {
    last = Built{};  // frees the previous aggregate before building anew
    last = make();
    build.push_back(last.build_s);
    aging.push_back(last.aging_s);
    warm.push_back(last.warmup_s);
    total.push_back(last.build_s + last.aging_s + last.warmup_s);
  }
  res.metric("setup_s", median(total), "s");
  res.metric("setup.build_s", median(build), "s");
  res.metric("setup.aging_s", median(aging), "s");
  res.metric("setup.warmup_s", median(warm), "s");
  return last;
}

// --- Trace ledger ---------------------------------------------------------

void TraceLedger::begin() {
  if (!enabled_) return;
  obs::spans().clear();
  obs::set_span_capture(true);
  capturing_ = true;
}

void TraceLedger::harvest() {
  if (!capturing_) return;
  const std::uint64_t t0 = now_ns();
  obs::SpanCollector& c = obs::spans();
  const std::uint64_t dropped = c.dropped();
  const std::vector<obs::SpanRecord> spans = c.snapshot();
  c.clear();
  dropped_ += dropped;
  ++harvests_;
  client_ops_ = 0;

  // Traced failover wall: mount, lease drain, freeze and drain roots (no
  // parent in this harvest) that start inside a marked failover.
  std::unordered_set<std::uint64_t> ids;
  for (const obs::SpanRecord& s : spans) ids.insert(s.id);
  for (const obs::SpanRecord& s : spans) {
    if (s.parent != 0 && ids.count(s.parent) != 0) continue;
    if (s.kind != obs::SpanKind::kMount && s.kind != obs::SpanKind::kCpLeaseDrain &&
        s.kind != obs::SpanKind::kCpFreeze && s.kind != obs::SpanKind::kCpDrain) {
      continue;
    }
    for (const auto& [a, b] : failover_marks_) {
      if (s.t0_ns >= a && s.t0_ns < b) {
        failover_traced_ns_ += static_cast<double>(s.t1_ns - s.t0_ns);
        break;
      }
    }
  }
  failover_marks_.clear();

  std::string summary = obs::span_summary_json(spans, dropped);
  std::replace(summary.begin(), summary.end(), '\n', ' ');
  std::printf("span_summary %s\n", summary.c_str());
  harvest_ns_ += now_ns() - t0;
}

void TraceLedger::end() {
  if (!capturing_) return;
  harvest();
  obs::set_span_capture(false);
  capturing_ = false;
}

void TraceLedger::mark_failover(std::uint64_t t0, std::uint64_t t1) {
  if (!capturing_) return;
  failover_marks_.emplace_back(t0, t1);
  failover_marked_ns_ += static_cast<double>(t1 - t0);
}

// --- Checks ---------------------------------------------------------------

std::uint64_t cache_digest(Aggregate& agg) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (RaidGroupId rg = 0; rg < agg.raid_group_count(); ++rg) {
    const AaScoreBoard& board = agg.rg_scoreboard(rg);
    for (AaId aa = 0; aa < board.aa_count(); ++aa) mix(board.score(aa));
    if (!agg.rg_is_raid_agnostic(rg)) {
      for (const AaPick& p : agg.rg_heap(rg).top(8)) {
        mix(p.aa);
        mix(p.score);
      }
    }
  }
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    const FlexVol& vol = agg.volume(v);
    for (AaId aa = 0; aa < vol.scoreboard().aa_count(); ++aa) {
      mix(vol.scoreboard().score(aa));
    }
    mix(vol.cache().peek_best_score().value_or(0));
  }
  return h;
}

void check_free_counts(Result& res, Aggregate& agg, const std::string& when) {
  const BitmapMetafile& am = agg.activemap().metafile();
  res.check(am.bits().count_clear(0, am.size_bits()) == agg.free_blocks(),
            when + ": aggregate free count != clear activemap bits");
  std::uint64_t boards = 0;
  for (RaidGroupId rg = 0; rg < agg.raid_group_count(); ++rg) {
    boards += agg.rg_scoreboard(rg).total_free();
  }
  res.check(boards == agg.free_blocks(),
            when + ": RAID-group scoreboards != aggregate free count");
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    const FlexVol& vol = agg.volume(v);
    const BitmapMetafile& vm = vol.activemap().metafile();
    res.check(vm.bits().count_clear(0, vm.size_bits()) == vol.free_blocks(),
              when + ": volume " + std::to_string(v) +
                  " free count != clear activemap bits");
  }
}

void check_conservation(Result& res, const OverlapStats& s,
                        const std::string& when) {
  res.check(s.blocks_admitted - s.blocks_coalesced == s.cp.blocks_written,
            when + ": admitted " + std::to_string(s.blocks_admitted) +
                " - coalesced " + std::to_string(s.blocks_coalesced) +
                " != written " + std::to_string(s.cp.blocks_written));
}

StoreIo store_io(Aggregate& agg) {
  StoreIo io;
  const IoStats m = agg.meta_store().stats();
  io.meta_reads = m.block_reads;
  io.meta_writes = m.block_writes;
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    const IoStats s = agg.volume(v).store().stats();
    io.meta_reads += s.block_reads;
    io.meta_writes += s.block_writes;
  }
  io.topaa_writes = agg.topaa_store().stats().block_writes;
  return io;
}

OverlapStats stats_delta(const OverlapStats& later,
                         const OverlapStats& earlier) {
  OverlapStats d = later;
  d.cps_started -= earlier.cps_started;
  d.cps_completed -= earlier.cps_completed;
  d.blocks_admitted -= earlier.blocks_admitted;
  d.blocks_coalesced -= earlier.blocks_coalesced;
  d.submit_stalls -= earlier.submit_stalls;
  d.stall_ns -= earlier.stall_ns;
  d.drain_ns -= earlier.drain_ns;
  d.freeze_ns -= earlier.freeze_ns;
  d.gap_ns -= earlier.gap_ns;
  d.lease_hits -= earlier.lease_hits;
  d.lease_misses -= earlier.lease_misses;
  d.lease_blocks_reserved -= earlier.lease_blocks_reserved;
  CpStats& c = d.cp;
  const CpStats& e = earlier.cp;
  c.ops -= e.ops;
  c.blocks_written -= e.blocks_written;
  c.blocks_freed -= e.blocks_freed;
  c.vol_meta_blocks -= e.vol_meta_blocks;
  c.agg_meta_blocks -= e.agg_meta_blocks;
  c.meta_flush_blocks -= e.meta_flush_blocks;
  c.tetrises -= e.tetrises;
  c.full_stripes -= e.full_stripes;
  c.partial_stripes -= e.partial_stripes;
  c.parity_read_blocks -= e.parity_read_blocks;
  c.write_chains -= e.write_chains;
  c.storage_time_ns -= e.storage_time_ns;
  c.hbps_replenishes -= e.hbps_replenishes;
  c.vol_bits_scanned -= e.vol_bits_scanned;
  c.agg_bits_scanned -= e.agg_bits_scanned;
  return d;
}

// --- Load -----------------------------------------------------------------

void ClosedLoop::run(OverlappedCpDriver& drv, OpStream& stream,
                     std::uint64_t n, std::uint64_t deadline_ns,
                     TraceLedger* trace, LatencySamples* ack) {
  std::array<DirtyBlock, 2> op{};
  const std::uint64_t watermark = drv.config().dirty_high_watermark;
  for (std::uint64_t i = 0; i < n; ++i) {
    stream.next(op);
    const std::uint64_t t0 = now_ns();
    // Wait at the watermark here, spinning, rather than asleep in
    // submit()'s backpressure wait: a sleeping writer is woken through the
    // scheduler once per CP, and on a shared host that wake-up costs
    // anywhere from microseconds to milliseconds.
    while (drv.drain_in_flight() && drv.active_dirty() >= watermark) cpu_relax();
    const bool idle = !drv.drain_in_flight();
    try {
      drv.submit(std::span<const DirtyBlock>(op));
    } catch (...) {
      ++failed;
    }
    const std::uint64_t t1 = now_ns();
    ++ops;
    if (idle && drv.drain_in_flight()) {  // this submit() launched a CP
      if (cycle_t0_ != 0) {
        cycle_ops_s.push_back(static_cast<double>(ops - cycle_ops0_) * 1e9 /
                              static_cast<double>(t1 - cycle_t0_));
      }
      cycle_t0_ = t1;
      cycle_ops0_ = ops;
    }
    submit_ns += static_cast<double>(t1 - t0);
    if (ack != nullptr) ack->add(static_cast<double>(t1 - t0));
    if (trace != nullptr) {
      trace->bench(BenchSpan::kSubmit, t0, t1);
      if (trace->client_op()) {
        const std::uint64_t w0 = now_ns();
        drv.wait_idle();
        trace->bench(BenchSpan::kWaitIdle, w0, now_ns());
        trace->harvest();
        restart_cycles();
      }
    }
    if (deadline_ns != 0 && t1 >= deadline_ns) break;
  }
}

void ClosedLoop::start_cp(OverlappedCpDriver& drv, TraceLedger* trace) {
  const std::uint64_t t0 = now_ns();
  drv.start_cp();
  const std::uint64_t t1 = now_ns();
  cp_ns += static_cast<double>(t1 - t0);
  if (trace != nullptr) trace->bench(BenchSpan::kStartCp, t0, t1);
}

// --- Failover cycles ------------------------------------------------------

OverlappedCpConfig failover_policy() {
  OverlappedCpConfig cfg;
  cfg.auto_cp_trigger = 0;
  return cfg;
}

void run_failover_cycles(Result& res, Aggregate& agg, OverlappedCpDriver& drv,
                         OpStream& ops, const FailoverPlan& plan,
                         TraceLedger& trace, FailoverOutcome& out) {
  if (drv.config().auto_cp_trigger != 0) {
    throw std::logic_error("failover cycles need a driver without auto CPs");
  }
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(plan.seconds * 1e9);
  const std::uint64_t ops_per_cp = plan.cp_blocks / 2;
  LatencySamples ack(plan.cp_blocks);
  for (bool first = true; first || now_ns() < deadline; first = false) {
    const std::uint32_t cycle = out.cycles;
    if (plan.burst_cps != 0) {
      ack.clear();
      const std::uint64_t ops0 = out.burst.ops;
      const double lib0 = out.burst.in_library_s();
      const std::uint64_t stall0 = drv.stats().stall_ns;
      const std::uint64_t h0 = trace.harvest_ns();
      const double c0 = cpu_seconds();
      const double tc0 = thread_cpu_seconds();
      const std::uint64_t t0 = now_ns();
      for (std::uint32_t k = 0; k < plan.burst_cps; ++k) {
        out.burst.run(drv, ops, ops_per_cp, 0, &trace, &ack);
        out.burst.start_cp(drv, &trace);
      }
      const std::uint64_t w0 = now_ns();
      drv.wait_idle();
      trace.bench(BenchSpan::kWaitIdle, w0, now_ns());
      const double cpu = system_cpu_s(
          cpu_seconds() - c0, thread_cpu_seconds() - tc0,
          out.burst.in_library_s() - lib0,
          static_cast<double>(drv.stats().stall_ns - stall0) / 1e9);
      const std::uint64_t wall = now_ns() - t0 - (trace.harvest_ns() - h0);
      out.burst_blocks.add(out.burst.ops - ops0, static_cast<double>(wall) / 1e9,
                           cpu, ack);
    }
    // The writes the first CP after mount will carry, queued while the
    // old instance still serves (untimed).
    ClosedLoop queued;
    queued.run(drv, ops, ops_per_cp, 0, &trace, nullptr);
    res.ops(queued.ops, queued.failed);

    const bool scan =
        plan.scan_every != 0 && cycle % plan.scan_every == plan.scan_every - 1;
    if (scan) {
      mount_all(agg, /*use_topaa=*/true);
      complete_background(agg);
      const std::uint64_t via_topaa = cache_digest(agg);
      const std::uint64_t t0 = now_ns();
      const MountReport r = mount_all(agg, /*use_topaa=*/false);
      const std::uint64_t t1 = now_ns();
      res.check(cache_digest(agg) == via_topaa,
                "failover cycle " + std::to_string(cycle) +
                    ": scan mount and TopAA+background mount differ");
      const std::uint64_t t2 = now_ns();
      drv.start_cp();
      drv.wait_idle();
      const std::uint64_t t3 = now_ns();
      trace.bench(BenchSpan::kMountScan, t0, t1);
      trace.bench(BenchSpan::kFirstCp, t2, t3);
      out.scan_failover_ms.push_back(
          static_cast<float>(ms_between(t0, t1) + ms_between(t2, t3)));
      out.scan_ms.push_back(static_cast<float>(ms_between(t0, t1)));
      out.scan_reads.push_back(static_cast<float>(r.gate_block_reads));
    } else {
      const std::uint64_t t0 = now_ns();
      const MountReport r = mount_all(agg, /*use_topaa=*/true);
      const std::uint64_t t1 = now_ns();
      drv.start_cp();
      drv.wait_idle();
      const std::uint64_t t2 = now_ns();
      const std::uint64_t reads = complete_background(agg);
      const std::uint64_t t3 = now_ns();
      trace.bench(BenchSpan::kMountTopaa, t0, t1);
      trace.bench(BenchSpan::kFirstCp, t1, t2);
      trace.bench(BenchSpan::kBackground, t2, t3);
      trace.mark_failover(t0, t2);
      out.failover_ms.push_back(static_cast<float>(ms_between(t0, t2)));
      out.topaa_ms.push_back(static_cast<float>(ms_between(t0, t1)));
      out.gate_reads.push_back(static_cast<float>(r.gate_block_reads));
      out.gate_cpu_ms.push_back(static_cast<float>(r.gate_cpu_seconds * 1e3));
      out.first_cp_ms.push_back(static_cast<float>(ms_between(t1, t2)));
      out.background_ms.push_back(static_cast<float>(ms_between(t2, t3)));
      out.background_reads.push_back(static_cast<float>(reads));
    }
    trace.harvest();
    ++out.cycles;
  }
}

// --- Reporting ------------------------------------------------------------

namespace {
double per(double num, double den) { return den == 0 ? 0.0 : num / den; }
double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
}  // namespace

void report_write_metrics(Result& res, const BlockSeries& b,
                          const OverlapStats& s, double write_amp,
                          const std::vector<double>& cycle_ops_s) {
  res.metric("write_ops_s",
             cycle_ops_s.empty() ? median(b.ops_s) : median(cycle_ops_s), "1/s");
  if (!cycle_ops_s.empty()) {
    res.info("write_cycles", std::to_string(cycle_ops_s.size()) +
                                 " CP cycles, block median " +
                                 std::to_string(median(b.ops_s)) + " ops/s");
  }
  res.metric("cpu_us_per_op", median(b.cpu_us_per_op), "us");
  res.metric("ack_us_p50", median(b.ack_p50_us), "us");
  res.metric("ack_us_p99", median(b.ack_p99_us), "us");
  res.info("write_blocks", std::to_string(b.ops_s.size()) + " blocks, " +
                               std::to_string(b.ops) + " ops, mean " +
                               std::to_string(per(static_cast<double>(b.ops), b.wall_s)) +
                               " ops/s");
  res.metric("write_amp", write_amp, "ratio");
  res.metric("agg_aa_free_pct", s.cp.agg_pick_free_frac.mean() * 100.0, "%");
  res.metric("vol_aa_free_pct", s.cp.vol_pick_free_frac.mean() * 100.0, "%");
}

void report_failover_metrics(Result& res, const FailoverOutcome& f) {
  res.metric("failover_ms_p50", smoothed_quantile(f.failover_ms, 0.50), "ms");
  res.metric("failover_ms_p95", smoothed_quantile(f.failover_ms, 0.95), "ms");
  res.metric("scan_failover_ms_p50", smoothed_quantile(f.scan_failover_ms, 0.50),
             "ms");
  res.info("failover_samples",
           "topaa=" + std::to_string(f.failover_ms.size()) +
               " scan=" + std::to_string(f.scan_failover_ms.size()));
}

void report_closing_metrics(Result& res) {
  res.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  res.metric("failed_op_frac",
             per(static_cast<double>(res.failed()),
                 static_cast<double>(res.attempted())),
             "ratio");
}

void report_layers(Result& res, const OverlapStats& s,
                   const CpPhaseProfile& prof, const StoreIo& io,
                   std::uint64_t all_cps, std::uint64_t client_ops,
                   double submit_ns_per_op, double late_us_p99,
                   const FailoverOutcome& f) {
  const auto cps = static_cast<double>(s.cps_completed);
  const CpStats& c = s.cp;
  const auto written = static_cast<double>(c.blocks_written);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto all = count(all_cps);
  res.metric("intake.submit_ns_per_op", submit_ns_per_op, "ns");
  res.metric("intake.coalesce_ratio",
             per(count(s.blocks_coalesced), count(s.blocks_admitted)), "ratio");
  res.metric("intake.stall_ms_per_cp", per(ns_to_ms(s.stall_ns), cps), "ms");
  res.metric("intake.stalls", count(s.submit_stalls), "count");
  res.metric("intake.lease_hit_ratio",
             per(count(s.lease_hits), count(s.lease_hits + s.lease_misses)),
             "ratio");
  res.metric("cp.freeze_ms_per_cp", per(ns_to_ms(s.freeze_ns), cps), "ms");
  res.metric("cp.drain_ms_per_cp", per(ns_to_ms(s.drain_ns), cps), "ms");
  res.metric("cp.gap_ms_per_cp", per(ns_to_ms(s.gap_ns), cps), "ms");
  res.metric("cp.blocks_per_cp", per(written, cps), "count");
  res.metric("cp.overlap_fraction", s.overlap_fraction(), "ratio");
  res.metric("wa.plan_ms", per(prof.plan_ms, all), "ms");
  res.metric("wa.execute_ms", per(prof.execute_ms, all), "ms");
  res.metric("wa.merge_ms", per(prof.alloc_merge_ms, all), "ms");
  res.metric("fc.owner_ms", per(prof.owner_ms, all), "ms");
  res.metric("fc.partition_ms", per(prof.partition_ms, all), "ms");
  res.metric("fc.boundary_ms", per(prof.boundary_ms, all), "ms");
  res.metric("fc.flush_ms", per(prof.flush_ms, all), "ms");
  res.metric("fc.topaa_ms", per(prof.topaa_ms, all), "ms");
  res.metric("fc.fold_ms", per(prof.fold_ms, all), "ms");
  res.metric("core.agg_bits_scanned_per_block", per(count(c.agg_bits_scanned), written),
             "count");
  res.metric("core.vol_bits_scanned_per_block", per(count(c.vol_bits_scanned), written),
             "count");
  res.metric("core.hbps_replenishes_per_cp", per(count(c.hbps_replenishes), cps),
             "count");
  res.metric("bitmap.meta_blocks_per_kop",
             per(count(c.vol_meta_blocks + c.agg_meta_blocks),
                 count(client_ops) / 1e3),
             "count");
  res.metric("bitmap.flush_blocks_per_cp", per(count(c.meta_flush_blocks), cps),
             "count");
  res.metric("raid.full_stripe_ratio",
             per(count(c.full_stripes), count(c.full_stripes + c.partial_stripes)),
             "ratio");
  res.metric("raid.chains_per_tetris", per(count(c.write_chains), count(c.tetrises)),
             "count");
  res.metric("raid.parity_reads_per_kblock",
             per(count(c.parity_read_blocks), written / 1e3), "count");
  res.metric("device.storage_ms_per_cp", per(ns_to_ms(c.storage_time_ns), cps), "ms");
  res.metric("storage.meta_reads", per(count(io.meta_reads), all), "count");
  res.metric("storage.meta_writes", per(count(io.meta_writes), all), "count");
  res.metric("storage.topaa_writes", per(count(io.topaa_writes), all), "count");
  res.metric("mount.topaa_ms", smoothed_quantile(f.topaa_ms, 0.5), "ms");
  res.metric("mount.gate_reads", smoothed_quantile(f.gate_reads, 0.5), "count");
  res.metric("mount.gate_cpu_ms", smoothed_quantile(f.gate_cpu_ms, 0.5), "ms");
  res.metric("mount.first_cp_ms", smoothed_quantile(f.first_cp_ms, 0.5), "ms");
  res.metric("mount.background_ms", smoothed_quantile(f.background_ms, 0.5), "ms");
  res.metric("mount.background_reads", smoothed_quantile(f.background_reads, 0.5),
             "count");
  res.metric("mount.scan_ms", smoothed_quantile(f.scan_ms, 0.5), "ms");
  res.metric("mount.scan_reads", smoothed_quantile(f.scan_reads, 0.5), "count");
  res.metric("loadgen.late_us_p99", late_us_p99, "us");
}

void report_trace_layers(Result& res, const TraceLedger& t,
                         std::uint64_t traced_cps, double untraced_drain_ms,
                         double untraced_ops_s, double traced_ops_s) {
  res.metric("trace.dropped", static_cast<double>(t.dropped()), "count");
  res.metric("trace.untraced_write_ops_s", untraced_ops_s, "1/s");
  res.metric("trace.traced_write_ops_s", traced_ops_s, "1/s");
  res.info("trace_harvests", std::to_string(t.harvests()));
  static const char* const kNames[] = {"submit",      "start_cp",
                                       "wait_idle",   "snapshot",
                                       "mount_topaa", "mount_scan",
                                       "first_cp",    "background"};
  for (std::size_t b = 0; b < static_cast<std::size_t>(BenchSpan::kCount); ++b) {
    res.info(std::string("bench_span.") + kNames[b] + "_ms",
             std::to_string(t.bench_ms(static_cast<BenchSpan>(b))));
  }

  res.check(t.dropped() == 0,
            "traced run dropped " + std::to_string(t.dropped()) + " spans");
  // Mount + first-CP spans against the benchmark's failover clock; the
  // rest is thread hand-off (start_cp -> drain executor -> wake-up).
  const double fo_ratio = per(t.traced_failover_ms(), t.marked_failover_ms());
  res.metric("trace.failover_reconcile_ratio", fo_ratio, "ratio");
  res.check(fo_ratio > 0.85 && fo_ratio <= 1.0 + 1e-9,
            "traced failover wall does not reconcile with the measured wall");
  // run.py divides the summed self times by the traced CPs and checks the
  // cp.drain spans against the driver's drain clock, which runs with or
  // without tracing.
  std::printf("trace_context {\"cps\": %llu, \"driver_drain_ms\": %.17g}\n",
              static_cast<unsigned long long>(traced_cps), untraced_drain_ms);
}

// --- Metric names ---------------------------------------------------------

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> k = {
      "write_ops_s",     "cpu_us_per_op",   "ack_us_p50",
      "write_amp",       "agg_aa_free_pct", "vol_aa_free_pct",
      "failover_ms_p50", "scan_failover_ms_p50", "setup_s",
      "peak_rss_mb"};
  return k;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> k = {
      // The tails: printed on every run, but on a shared host they spread
      // past any usable regression bound, so they are not gated.
      "ack_us_p99", "failover_ms_p95",
      "intake.submit_ns_per_op", "intake.coalesce_ratio",
      "intake.stall_ms_per_cp", "intake.stalls", "intake.lease_hit_ratio",
      "cp.freeze_ms_per_cp", "cp.drain_ms_per_cp", "cp.gap_ms_per_cp",
      "cp.blocks_per_cp", "cp.overlap_fraction",
      "wa.plan_ms", "wa.execute_ms", "wa.merge_ms", "fc.owner_ms",
      "fc.partition_ms", "fc.boundary_ms", "fc.flush_ms", "fc.topaa_ms",
      "fc.fold_ms", "core.agg_bits_scanned_per_block",
      "core.vol_bits_scanned_per_block", "core.hbps_replenishes_per_cp",
      "bitmap.meta_blocks_per_kop", "bitmap.flush_blocks_per_cp",
      "raid.full_stripe_ratio", "raid.chains_per_tetris",
      "raid.parity_reads_per_kblock", "device.storage_ms_per_cp",
      "storage.meta_reads",
      "storage.meta_writes", "storage.topaa_writes", "mount.topaa_ms",
      "mount.gate_reads", "mount.gate_cpu_ms", "mount.first_cp_ms",
      "mount.background_ms", "mount.background_reads", "mount.scan_ms",
      "mount.scan_reads", "setup.build_s",
      "setup.aging_s", "setup.warmup_s", "loadgen.late_us_p99",
      "trace.dropped", "trace.untraced_write_ops_s",
      "trace.traced_write_ops_s", "trace.failover_reconcile_ratio"};
  return k;
}

}  // namespace perfbench
