// Overlapped back-to-back consistency points (DESIGN.md §13) with a
// sharded concurrent intake front end (DESIGN.md §14).
//
// Real WAFL never stops the world: it admits the next CP's writes while
// the previous CP drains to media, which is what keeps client latency
// flat as load approaches the knee (§2).  This driver supplies that
// behaviour over the generation split, and — since the front-end rework —
// lets N client threads admit writes simultaneously:
//
//   - intake (submit) fills the ACTIVE generation across `intake_shards`
//     independent shards.  A submitting thread takes only its shard's
//     lock; cross-shard coalescing of re-dirtied (vol, logical) blocks
//     goes through a per-volume AtomicClaimBitmap — racing writers CAS
//     for the claim and exactly one appends the block to its shard's
//     dirty list;
//   - start_cp() freezes: with every shard lock held (shard-id order),
//     the shards fold into one batch in shard-id order — the canonical
//     fold order.  ConsistencyPoint::freeze() then swaps the active
//     generation into the FROZEN one (cheap, no media I/O) and the
//     phased drain is launched on a drain executor (the runtime's shared
//     one, or a lazily owned single-thread executor);
//   - submit keeps admitting into the new active generation while the
//     frozen one drains, blocking only when the active generation
//     reaches the high watermark before the drain completes (the
//     backpressure rule, checked BEFORE the shard lock so a stalled
//     writer never blocks the freeze).
//
// Lock order: mu_ (control) before shard locks; shard locks in shard-id
// order; never mu_ while holding a shard lock.  The drain is the ONLY
// mutator of the aggregate while in flight; intake touches driver-owned
// buffers only.  Control operations (start_cp, wait_idle, snapshot ops)
// quiesce the drain first and must come from one thread; submit() /
// submit_to_shard() are thread-safe and may be called from many.
//
// Determinism under contention: a shard's dirty list is in claim-winner
// program order, the freeze folds shards 0..S-1, and the CP's stable
// sort by volume runs on that canonical sequence.  Routing is the only
// interleaving-dependent input — so a workload that fixes its routing
// (submit_to_shard with a content-keyed shard) produces byte-identical
// media and stats at ANY writer count, which
// CpDeterminism.ConcurrentIntakeMatchesSerial checks at T=1/2/4/8.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "util/atomic_bitmap.hpp"
#include "wafl/consistency_point.hpp"
#include "wafl/runtime.hpp"

namespace wafl {

class ThreadPool;

struct OverlappedCpConfig {
  /// Backpressure: submit() blocks once the active generation holds this
  /// many dirty blocks while a drain is in flight.  With no drain in
  /// flight intake is never blocked (the caller decides when to CP).
  std::uint64_t dirty_high_watermark = 128 * 1024;
  /// When non-zero, submit() starts a CP itself once the active
  /// generation reaches this many blocks and no drain is in flight.
  std::uint64_t auto_cp_trigger = 0;
  /// Intake shards.  Submitting threads spread round-robin across shards
  /// and contend only within one; the freeze folds all shards in id
  /// order.  1 reproduces the single-list driver exactly.
  std::size_t intake_shards = 8;
};

/// Cumulative driver counters (monotonic; snapshot via stats()).
struct OverlapStats {
  std::uint64_t cps_started = 0;
  std::uint64_t cps_completed = 0;
  /// Raw submitted blocks, including ones coalesced away.
  std::uint64_t blocks_admitted = 0;
  /// Submitted blocks dropped as re-dirties of an active-generation block
  /// (claim lost — some shard already holds the (vol, logical)).
  std::uint64_t blocks_coalesced = 0;
  /// submit() calls that hit the backpressure rule.
  std::uint64_t submit_stalls = 0;
  /// Wall time submit() spent blocked on backpressure (always during a
  /// drain — that is the only time the rule applies).
  std::uint64_t stall_ns = 0;
  /// Total frozen-generation drain wall time.
  std::uint64_t drain_ns = 0;
  /// Total generation-swap (freeze) wall time.
  std::uint64_t freeze_ns = 0;
  /// Sum of gaps from one drain's completion to the next drain's launch
  /// (back-to-back CPs make this the freeze cost plus scheduling).
  std::uint64_t gap_ns = 0;
  /// Never written; kept until perfbench drops intake.lease_hit_ratio.
  std::uint64_t lease_hits = 0;
  std::uint64_t lease_misses = 0;
  std::uint64_t lease_blocks_reserved = 0;
  /// CpStats accumulated over every completed CP.
  CpStats cp;

  /// Fraction of drain wall time during which intake was admissible
  /// (not blocked by backpressure): 1 - stall/drain.  Stop-the-world
  /// intake would score 0; full overlap scores 1.
  double overlap_fraction() const noexcept {
    if (drain_ns == 0) return 1.0;
    const double stalled =
        stall_ns > drain_ns ? 1.0
                            : static_cast<double>(stall_ns) /
                                  static_cast<double>(drain_ns);
    return 1.0 - stalled;
  }
};

class OverlappedCpDriver {
 public:
  /// Drains run on the aggregate runtime's DrainExecutor; a runtime
  /// without one gets a lazily owned single-thread executor, which
  /// reproduces the old dedicated-drain-thread behaviour.  Drains must
  /// NOT run as ThreadPool tasks: a drain occupying a pool worker would
  /// deadlock waiting for its own parallel_for parts (the drain-executor
  /// rule, DESIGN.md §16).  CP fan-out rides the runtime's pool.
  explicit OverlappedCpDriver(Aggregate& agg, OverlappedCpConfig cfg = {});
  /// Waits for any in-flight drain.  A drain error nobody collected via
  /// wait_idle()/start_cp() is dropped here (destructors cannot throw);
  /// call wait_idle() first when the error matters.
  ~OverlappedCpDriver();

  OverlappedCpDriver(const OverlappedCpDriver&) = delete;
  OverlappedCpDriver& operator=(const OverlappedCpDriver&) = delete;

  // --- Intake (thread-safe, any number of threads) --------------------------

  /// Admits one dirty block into the active generation, coalescing with
  /// any unfrozen earlier write to the same (vol, logical).  Blocks on
  /// the backpressure rule.
  void submit(VolumeId vol, std::uint64_t logical) {
    const DirtyBlock b{vol, logical};
    submit(std::span<const DirtyBlock>(&b, 1));
  }
  /// Batch intake into the calling thread's home shard (threads spread
  /// round-robin); one cp.intake span per call.
  void submit(std::span<const DirtyBlock> blocks);
  /// Batch intake into an explicit shard — for callers that key routing
  /// by content so the per-shard sequences (and hence the CP) are
  /// invariant across writer counts.
  void submit_to_shard(std::size_t shard, std::span<const DirtyBlock> blocks);

  // --- Control (single-threaded, quiesce the drain) -------------------------

  /// Freezes the active generation and launches its drain asynchronously.
  /// Waits for any prior drain first (back-to-back CPs: at most one in
  /// flight), rethrowing its error if it failed.  No-op dirty lists are
  /// allowed (an empty CP still runs — snapshot debt may be pending).
  void start_cp();

  /// Waits for the in-flight drain (if any) and rethrows its error.
  void wait_idle();

  bool drain_in_flight() const;

  /// Snapshot ops route through the driver so they order against the
  /// drain: they quiesce it, then apply directly, so a deletion's delayed
  /// frees are first drained by the NEXT CP (identical to the
  /// stop-the-world ordering).
  SnapId create_snapshot(VolumeId vol);
  void delete_snapshot(VolumeId vol, SnapId id);

  // --- Introspection --------------------------------------------------------

  /// Dirty blocks currently in the active generation (all shards).
  std::uint64_t active_dirty() const;
  OverlapStats stats() const;
  const OverlappedCpConfig& config() const noexcept { return cfg_; }
  std::size_t intake_shards() const noexcept { return shards_.size(); }

 private:
  /// One intake shard: its lock, its slice of the active generation in
  /// claim-winner order, and its counters (folded into stats_ at freeze
  /// for the cumulative ones, summed live by stats()).  Cache-line
  /// isolated so shard locks never false-share.
  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<DirtyBlock> dirty;
    std::uint64_t coalesced = 0;
    obs::Counter* admitted_metric = nullptr;
    obs::Counter* coalesced_metric = nullptr;
  };

  /// The calling thread's home shard for this driver (round-robin
  /// assigned on first submit).
  std::size_t home_shard();

  /// Blocks until the backpressure rule admits intake.  Called before
  /// taking any shard lock (a stalled writer must not block the freeze).
  void backpressure_wait();

  /// Waits for the drain under `lk` and rethrows a pending drain error.
  void quiesce_locked(std::unique_lock<std::mutex>& lk);
  /// Freezes + launches the drain; requires no drain in flight.
  void launch_cp_locked(std::unique_lock<std::mutex>& lk);
  void drain_main(ConsistencyPoint::Frozen frozen);

  Aggregate& agg_;
  OverlappedCpConfig cfg_;
  /// Process-unique (never reused, unlike `this`); keys home_shard().
  const std::uint64_t id_;
  /// Where drain_main runs.  Points at the runtime's executor, or at
  /// owned_exec_ when the runtime has none.
  DrainExecutor* drain_exec_;
  std::unique_ptr<DrainExecutor> owned_exec_;

  mutable std::mutex mu_;
  std::condition_variable cv_;

  /// Intake shards plus the cross-shard coalescing claims: one claim bit
  /// per (volume, logical).  A claim is set by the winning submitter and
  /// cleared entry-by-entry during the freeze fold (O(dirty), with every
  /// shard lock held).
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<AtomicClaimBitmap> claims_;

  /// Dirty blocks across all shards (claim winners only) — the
  /// backpressure/auto-trigger gauge, updated outside the shard locks.
  std::atomic<std::uint64_t> active_count_{0};
  /// Raw submitted blocks (OverlapStats::blocks_admitted).
  std::atomic<std::uint64_t> admitted_total_{0};
  /// Generation ordinal for intake-side spans (OverlapStats::cps_started
  /// is authoritative, under mu_; this mirror is read lock-free).
  std::atomic<std::uint64_t> generation_{0};

  /// True from launch until drain_main's last act (clear + notify under
  /// mu_); the destructor and quiesce wait on it, so a drain job never
  /// touches a destroyed driver.
  std::atomic<bool> drain_in_flight_{false};
  std::exception_ptr drain_error_;
  std::uint64_t last_drain_end_ns_ = 0;

  OverlapStats stats_;
};

}  // namespace wafl
