// Shared plumbing for the repo benchmark: options, timing, result
// reporting, repeated set-up, the failover cycle every workload ends with,
// correctness checks and the traced-run span analysis.
//
// The benchmark drives the library only through its public entry points
// (OverlappedCpDriver, age_filesystem, seed_rg_occupancy, mount_all,
// complete_background, stats(), cp_phase_profile(), BlockStore::stats()).
// Everything it times, it times itself around those calls.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"
#include "wafl/aggregate.hpp"
#include "wafl/mount.hpp"
#include "wafl/overlapped_cp.hpp"
#include "wafl/write_allocator.hpp"

namespace perfbench {

using namespace wafl;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Length of one measurement block.  Rates, CPU per op and latency
/// percentiles are computed per block and reported as the median over
/// blocks: on a shared host a neighbour's burst then slows a few blocks
/// instead of shifting the whole result.
constexpr double kBlockSeconds = 0.25;
/// The write workloads alternate segments of client writes (3/4) and
/// failover cycles (1/4), so both are sampled across the whole run rather
/// than each in one stretch of it.
constexpr double kSegmentSeconds = 2.0;
constexpr double kWriteShare = 0.75;

std::uint64_t now_ns();
/// One spin-wait step: the CPU's pause instruction where there is one.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}
double ms_between(std::uint64_t t0, std::uint64_t t1);
/// Process user+sys CPU seconds (getrusage).
double cpu_seconds();
/// The calling thread's CPU seconds.
double thread_cpu_seconds();
/// Peak resident set size of the process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// CPU the system under test spent over a measured stretch: process CPU
/// minus the client threads' own CPU, plus the wall time clients spent
/// inside library calls less the time they were blocked on backpressure.
/// Load generation (sampling ops, waiting for due times) is client work
/// and is not charged.
inline double system_cpu_s(double process_s, double clients_s,
                           double in_library_s, double stalled_s) {
  return process_s - clients_s + in_library_s - stalled_s;
}

/// Mean of the samples ranked within +-w of quantile q, with w = 0.5
/// percentile or wide enough to average 10 samples.  Sub-microsecond
/// latencies come in 1 ns clock steps, and a plain order statistic of a
/// few hundred failovers jumps between neighbours; the band smooths both.
/// 0 when `v` is empty.
double smoothed_quantile(std::vector<float> v, double q);
double median(std::vector<double> v);

/// A fixed-size uniform sample of latencies (reservoir sampling with the
/// benchmark's own Rng), so memory does not grow with the op count.
class LatencySamples {
 public:
  explicit LatencySamples(std::uint64_t seed, std::size_t capacity = 1 << 15)
      : v_(capacity, 0.0F), rng_(seed) {}
  void add(double ns) {
    const std::uint64_t i = seen_++;
    if (i < v_.size()) {
      v_[i] = static_cast<float>(ns);
    } else if (const std::uint64_t j = rng_.below(seen_); j < v_.size()) {
      v_[j] = static_cast<float>(ns);
    }
  }
  /// Appends another client's sample (clients run at equal rates, so the
  /// union stays uniform).
  void merge(const LatencySamples& o) {
    const auto held = o.held();
    extra_.insert(extra_.end(), held.begin(), held.end());
  }
  void clear() {
    seen_ = 0;
    extra_.clear();
  }
  double quantile(double q) const {
    std::vector<float> all = held();
    all.insert(all.end(), extra_.begin(), extra_.end());
    return smoothed_quantile(std::move(all), q);
  }

 private:
  std::vector<float> held() const {
    return {v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(
                                         seen_, v_.size()))};
  }
  std::vector<float> v_;
  std::vector<float> extra_;
  std::uint64_t seen_ = 0;
  Rng rng_;
};

/// Per-block results of a measured stretch of client writes.
struct BlockSeries {
  std::vector<double> ops_s, cpu_us_per_op, ack_p50_us, ack_p99_us;
  std::uint64_t ops = 0;
  double wall_s = 0;
  void add(std::uint64_t block_ops, double block_wall_s, double sys_cpu_s,
           const LatencySamples& ack);
};

/// Metrics and correctness bookkeeping for one run.  Every metric is
/// printed as a `metric <name> = <value> <unit>` line when recorded; the
/// closing JSON line carries the ones the run mode asks for.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A context line (`info <key> = <value>`): seed, threads, flush policy.
  void info(const std::string& key, const std::string& value);
  /// Records one correctness check; a failed check is counted and printed.
  void check(bool ok, const std::string& what);
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ops_ += attempted;
    failed_ops_ += failed;
  }
  bool correct() const { return failed_checks_ == 0 && failed_ops_ == 0; }
  /// Client ops plus correctness checks; failures of either.
  std::uint64_t attempted() const { return attempted_ops_ + checks_; }
  std::uint64_t failed() const { return failed_ops_ + failed_checks_; }
  /// Prints the closing JSON line restricted to `names`.  False (and no
  /// line) when a name was never recorded.
  bool emit_json(const std::vector<std::string>& names) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ops_ = 0;
  std::uint64_t failed_ops_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t failed_checks_ = 0;
};

/// Execution resources of one workload: the drain executor the
/// aggregate's runtime points at.  The runtime carries no ThreadPool, so
/// every parallel CP and mount phase runs serially on its caller (the
/// library's documented null-pool path, bit-identical results).
/// ThreadPool::parallel_for and parallel_for_dynamic signal completion
/// through a mutex and condition variable on the caller's stack, and the
/// last worker can still touch them after the caller has returned; with a
/// pool a few percent of benchmark runs die of SIGSEGV.  Serial phases
/// also keep the thread count, and so the exposure to a busy host, low.
struct Exec {
  Exec() : drain(1) {}
  Runtime runtime() { return Runtime{}.with_drain_executor(&drain); }
  DrainExecutor drain;
};

/// Records the seed, host cores, thread budget and flush policy.
void record_context(Result& res, const Options& o, std::size_t writers,
                    const OverlappedCpConfig& cfg);

/// What one set-up produced and what each stage cost.
struct Built {
  std::unique_ptr<Aggregate> agg;
  double build_s = 0;
  double aging_s = 0;
  double warmup_s = 0;
};

/// Runs `make` `reps` times, keeping only the last aggregate, and reports
/// setup_s (median total) and setup.{build,aging,warmup}_s (medians).
Built repeated_setup(Result& res, int reps, const std::function<Built()>& make);

/// A client op stream: 2-block (8 KiB) writes drawn from the library's
/// workload generator with the benchmark's own seeded Rng.
class OpStream {
 public:
  OpStream(std::vector<VolumeId> vols, std::uint64_t span_blocks,
           double zipf_theta, std::uint64_t seed)
      : wl_(std::move(vols), span_blocks, 2, zipf_theta), rng_(seed) {}
  /// Fills `out` with the next op's two blocks.
  void next(std::array<DirtyBlock, 2>& out) {
    out[0] = wl_.next_write(rng_);
    out[1] = {out[0].vol, out[0].logical + 1};
  }

 private:
  RandomOverwriteWorkload wl_;
  Rng rng_;
};

/// Benchmark-side spans: intervals the benchmark times around its own
/// calls into a layer, kept apart from the library's span kinds.
enum class BenchSpan : std::uint8_t {
  kSubmit,
  kStartCp,
  kWaitIdle,
  kSnapshot,
  kMountTopaa,
  kMountScan,
  kFirstCp,
  kBackground,
  kCount,
};

/// The span trace of a traced run.  harvest() must run only while every
/// span-emitting thread is idle (no submit in progress, no drain in
/// flight): it prints the harvested spans as one `span_summary <json>`
/// line (obs::span_summary_json: per-kind count, wall and self time) and
/// empties the per-thread rings, so nothing is dropped as long as no
/// thread emits a ring's capacity between harvests.  run.py sums the
/// summaries into the per-layer self times.  Drops are counted and fail
/// the run.
class TraceLedger {
 public:
  explicit TraceLedger(bool enabled) : enabled_(enabled) {}
  bool capturing() const { return capturing_; }

  /// Clears the rings and turns span capture on.  Threads must be idle.
  void begin();
  void harvest();
  /// Final harvest; turns capture off.
  void end();

  /// Marks [t0, t1) as one failover (mount start to first CP done); the
  /// root spans starting inside it are the traced failover wall.
  void mark_failover(std::uint64_t t0, std::uint64_t t1);
  /// Counts one closed-loop op (one cp.intake span on the client thread);
  /// true when the client must let the drain finish and harvest, which
  /// keeps its ring well under the 8192 spans it holds.
  bool client_op() { return capturing_ && ++client_ops_ >= 7000; }
  void bench(BenchSpan k, std::uint64_t t0, std::uint64_t t1) {
    if (!capturing_) return;
    bench_ns_[static_cast<std::size_t>(k)] += static_cast<double>(t1 - t0);
  }

  double bench_ms(BenchSpan k) const {
    return bench_ns_[static_cast<std::size_t>(k)] / 1e6;
  }
  double traced_failover_ms() const { return failover_traced_ns_ / 1e6; }
  double marked_failover_ms() const { return failover_marked_ns_ / 1e6; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t harvests() const { return harvests_; }
  /// Wall time spent inside harvest() (benchmark bookkeeping, excluded
  /// from traced throughput).
  std::uint64_t harvest_ns() const { return harvest_ns_; }

 private:
  bool enabled_;
  bool capturing_ = false;
  std::array<double, static_cast<std::size_t>(BenchSpan::kCount)> bench_ns_{};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> failover_marks_;
  double failover_marked_ns_ = 0;
  double failover_traced_ns_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t harvests_ = 0;
  std::uint64_t harvest_ns_ = 0;
  std::uint64_t client_ops_ = 0;
};

/// Digest of every RAID group's scoreboard and best AAs and every
/// volume's scoreboard and best score: what a mount must reproduce.
std::uint64_t cache_digest(Aggregate& agg);

/// Free-count checks: each bitmap's summary free count equals its clear
/// bits, and the RAID groups' scoreboards add up to the aggregate's.
void check_free_counts(Result& res, Aggregate& agg, const std::string& when);

/// Blocks admitted minus coalesced equals blocks written by the driver's
/// CPs.  The driver must be idle with an empty active generation.
void check_conservation(Result& res, const OverlapStats& s,
                        const std::string& when);

/// BlockStore I/O summed over the aggregate's stores.
struct StoreIo {
  std::uint64_t meta_reads = 0;
  std::uint64_t meta_writes = 0;
  std::uint64_t topaa_writes = 0;
  StoreIo operator-(const StoreIo& o) const {
    return {meta_reads - o.meta_reads, meta_writes - o.meta_writes,
            topaa_writes - o.topaa_writes};
  }
};
StoreIo store_io(Aggregate& agg);

/// Counter-wise difference of two driver snapshots (the pick-quality
/// running means are taken from `later`).
OverlapStats stats_delta(const OverlapStats& later, const OverlapStats& earlier);

/// Closed-loop client: submits one op at a time, each due the moment the
/// previous returned.
struct ClosedLoop {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double submit_ns = 0;  // summed submit() durations
  double cp_ns = 0;      // summed start_cp() durations

  /// Issues `n` ops from `stream` (or until `deadline_ns` passes, when
  /// non-zero), adding one ack sample per op to `ack` when given.  At the
  /// dirty high watermark the client spins until the drain ends instead
  /// of stalling in submit().  With a capturing `trace`, pauses every few
  /// thousand ops to harvest spans.
  void run(OverlappedCpDriver& drv, OpStream& stream, std::uint64_t n,
           std::uint64_t deadline_ns, TraceLedger* trace,
           LatencySamples* ack);
  /// Starts a CP from the client thread, timing the call (the freeze runs
  /// on the caller).
  void start_cp(OverlappedCpDriver& drv, TraceLedger* trace);
  /// Wall seconds spent inside library calls.
  double in_library_s() const { return (submit_ns + cp_ns) / 1e9; }
  /// Forgets the open CP cycle, so the next one starts at the next CP
  /// this client's submit() launches (after a pause in the writes).
  void restart_cycles() { cycle_t0_ = 0; }

  /// Rate of each CP cycle: ops per wall second from one CP a submit()
  /// launched (auto_cp_trigger) to the next.
  std::vector<double> cycle_ops_s;

 private:
  std::uint64_t cycle_t0_ = 0;
  std::uint64_t cycle_ops0_ = 0;
};

/// The failover cycles' flush policy: no auto-triggered CPs, so nothing
/// drains while a mount runs; the cycle starts every CP itself.
OverlappedCpConfig failover_policy();

/// Settings of the failover cycle.
struct FailoverPlan {
  double seconds = 0;
  /// CPs of closed-loop writes before each mount (0: none).
  std::uint32_t burst_cps = 0;
  /// Blocks per burst CP and in the first post-mount CP.
  std::uint64_t cp_blocks = 24576;
  /// Every n-th cycle mounts by scan instead of TopAA.
  std::uint32_t scan_every = 5;
};

/// Samples of the failover cycles; appended to by each call.
struct FailoverOutcome {
  std::vector<float> failover_ms;       // TopAA mount start -> first CP done
  std::vector<float> scan_failover_ms;  // the same on the scan path
  std::vector<float> topaa_ms, gate_reads, gate_cpu_ms, first_cp_ms;
  std::vector<float> background_ms, background_reads;
  std::vector<float> scan_ms, scan_reads;
  std::uint32_t cycles = 0;
  /// Burst writes: the client and one block per burst.
  ClosedLoop burst;
  BlockSeries burst_blocks;
};

/// Runs failover cycles on `agg` for plan.seconds: an optional burst of
/// closed-loop writes, the first CP's writes queued, a mount (TopAA, or a
/// scan every n-th cycle), the first CP, then complete_background.  A
/// scan cycle first mounts by TopAA + background and checks that both
/// mounts leave identical scoreboards and best AAs.  `drv` must run
/// failover_policy().
void run_failover_cycles(Result& res, Aggregate& agg, OverlappedCpDriver& drv,
                         OpStream& ops, const FailoverPlan& plan,
                         TraceLedger& trace, FailoverOutcome& out);

/// End-to-end write metrics: block medians of a stretch of client writes,
/// plus the driver's pick quality and the write amplification.  With CP
/// cycle rates, write_ops_s is their median instead of the blocks'.
void report_write_metrics(Result& res, const BlockSeries& b,
                          const OverlapStats& s, double write_amp,
                          const std::vector<double>& cycle_ops_s = {});
/// failover_ms_p50/p95 and scan_failover_ms_p50.
void report_failover_metrics(Result& res, const FailoverOutcome& f);
/// peak_rss_mb, and failed_op_frac (printed; not a JSON metric).
void report_closing_metrics(Result& res);

/// Per-layer metrics from driver stats, the phase profile, store I/O and
/// the mount samples.  `client_ops` normalizes bitmap.meta_blocks_per_kop.
void report_layers(Result& res, const OverlapStats& s,
                   const CpPhaseProfile& prof, const StoreIo& io,
                   std::uint64_t all_cps, std::uint64_t client_ops,
                   double submit_ns_per_op, double late_us_p99,
                   const FailoverOutcome& f);
/// Traced per-layer metrics measured here (drops, traced vs untraced
/// throughput, traced failover wall against the benchmark's clock, with
/// their checks), and the `trace_context` line run.py needs to turn the
/// span summaries into per-CP self times and to reconcile the traced
/// drain wall with the driver's own drain clock.
void report_trace_layers(Result& res, const TraceLedger& t,
                         std::uint64_t traced_cps, double untraced_drain_ms,
                         double untraced_ops_s, double traced_ops_s);

/// Every end-to-end metric name, and every per-layer one but those run.py
/// derives from the span summaries, in BENCHMARK.json order.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

void run_ssd_overwrite(const Options& o, Result& res);
void run_multivol_intake(const Options& o, Result& res);
void run_failover(const Options& o, Result& res);

}  // namespace perfbench
