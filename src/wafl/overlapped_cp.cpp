#include "wafl/overlapped_cp.hpp"

#include <string>
#include <utility>

#include "fault/crash_point.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace wafl {

namespace {
/// Source of OverlappedCpDriver::id_; 0 is never issued.
std::atomic<std::uint64_t> next_driver_id{1};
}  // namespace

OverlappedCpDriver::OverlappedCpDriver(Aggregate& agg, OverlappedCpConfig cfg)
    : agg_(agg),
      cfg_(cfg),
      id_(next_driver_id.fetch_add(1, std::memory_order_relaxed)),
      drain_exec_(agg.runtime().drain_executor()) {
  WAFL_ASSERT(cfg_.dirty_high_watermark > 0);
  WAFL_ASSERT(cfg_.intake_shards > 0);
  if (drain_exec_ == nullptr) {
    // No shared executor in the runtime: own a single drain thread — the
    // old dedicated-thread behaviour, one driver at a time.
    owned_exec_ = std::make_unique<DrainExecutor>(1);
    drain_exec_ = owned_exec_.get();
  }
  const Runtime& rt = agg.runtime();
  shards_.reserve(cfg_.intake_shards);
  for (std::size_t s = 0; s < cfg_.intake_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    WAFL_OBS({
      obs::Registry& reg = rt.registry();
      const std::string label =
          rt.labels("shard=\"" + std::to_string(s) + "\"");
      Shard& sh = *shards_.back();
      sh.admitted_metric = &reg.counter("wafl.cp.intake_admitted", label);
      sh.coalesced_metric = &reg.counter("wafl.cp.intake_coalesced", label);
    });
  }
  claims_.reserve(agg_.volume_count());
  for (VolumeId v = 0; v < agg_.volume_count(); ++v) {
    claims_.emplace_back(agg_.volume(v).file_blocks());
  }
}

OverlappedCpDriver::~OverlappedCpDriver() {
  // Wait out any in-flight drain: its job captured `this`, and on a
  // shared executor we cannot join a thread to make it finish — the wait
  // on drain_in_flight_ is the ownership boundary.  drain_main touches no
  // member after clearing the flag (it notifies under mu_ first).
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] {
    return !drain_in_flight_.load(std::memory_order_relaxed);
  });
  // A pending drain_error_ dies with us — see the header contract.
}

std::size_t OverlappedCpDriver::home_shard() {
  // Round-robin thread->shard assignment, sticky per (thread, driver).
  // Keyed on id_, not `this`: a driver built where a destroyed one lived
  // must not inherit that driver's shard indices.
  static std::atomic<std::size_t> rr{0};
  thread_local std::uint64_t cached_id = 0;
  thread_local std::size_t cached_shard = 0;
  if (cached_id != id_) {
    cached_id = id_;
    cached_shard = rr.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  }
  return cached_shard;
}

void OverlappedCpDriver::backpressure_wait() {
  // Fast path: two relaxed-ish loads.  The rule only applies while a
  // drain is in flight, so overshoot past the watermark by concurrent
  // racers is bounded by one batch per writer — the watermark is a
  // throttle, not a hard capacity.
  if (!drain_in_flight_.load(std::memory_order_acquire) ||
      active_count_.load(std::memory_order_relaxed) <
          cfg_.dirty_high_watermark) {
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  if (!drain_in_flight_.load(std::memory_order_relaxed) ||
      active_count_.load(std::memory_order_relaxed) <
          cfg_.dirty_high_watermark) {
    return;
  }
  ++stats_.submit_stalls;
  obs::TraceSpan stall_span(obs::SpanKind::kCpStall,
                            generation_.load(std::memory_order_relaxed),
                            active_count_.load(std::memory_order_relaxed));
  const std::uint64_t t0 = obs::monotonic_ns();
  cv_.wait(lk, [this] {
    return !drain_in_flight_.load(std::memory_order_relaxed) ||
           active_count_.load(std::memory_order_relaxed) <
               cfg_.dirty_high_watermark;
  });
  stats_.stall_ns += obs::monotonic_ns() - t0;
}

void OverlappedCpDriver::submit(std::span<const DirtyBlock> blocks) {
  submit_to_shard(home_shard(), blocks);
}

void OverlappedCpDriver::submit_to_shard(std::size_t shard,
                                         std::span<const DirtyBlock> blocks) {
  WAFL_ASSERT(shard < shards_.size());
  obs::TraceSpan intake_span(obs::SpanKind::kCpIntake,
                             generation_.load(std::memory_order_relaxed),
                             blocks.size());
  // Backpressure BEFORE the shard lock: a stalled writer holding its
  // shard's lock would deadlock the freeze (which takes every shard lock
  // while the stall can only clear after the NEXT freeze).
  backpressure_wait();
  Shard& sh = *shards_[shard];
  std::uint64_t added = 0;
  {
    std::lock_guard<std::mutex> sl(sh.mu);
    for (const DirtyBlock& b : blocks) {
      WAFL_ASSERT(b.vol < claims_.size());
      WAFL_ASSERT(b.logical < claims_[b.vol].size_bits());
      if (!claims_[b.vol].try_claim(b.logical)) {
        ++sh.coalesced;  // re-dirty: some shard already holds it
        continue;
      }
      sh.dirty.push_back(b);
      ++added;
    }
    WAFL_OBS({
      if (sh.admitted_metric != nullptr) {
        sh.admitted_metric->add(added);
        sh.coalesced_metric->add(blocks.size() - added);
      }
    });
  }
  if (added != 0) {
    active_count_.fetch_add(added, std::memory_order_relaxed);
  }
  admitted_total_.fetch_add(blocks.size(), std::memory_order_relaxed);

  if (cfg_.auto_cp_trigger != 0 &&
      !drain_in_flight_.load(std::memory_order_acquire) &&
      active_count_.load(std::memory_order_relaxed) >= cfg_.auto_cp_trigger) {
    std::unique_lock<std::mutex> lk(mu_);
    // Re-check under mu_: a racing submitter may have launched already.
    if (!drain_in_flight_.load(std::memory_order_relaxed) &&
        active_count_.load(std::memory_order_relaxed) >=
            cfg_.auto_cp_trigger) {
      launch_cp_locked(lk);
    }
  }
}

void OverlappedCpDriver::quiesce_locked(std::unique_lock<std::mutex>& lk) {
  cv_.wait(lk,
           [this] { return !drain_in_flight_.load(std::memory_order_relaxed); });
  if (drain_error_ != nullptr) {
    std::exception_ptr err = std::exchange(drain_error_, nullptr);
    std::rethrow_exception(err);
  }
}

void OverlappedCpDriver::start_cp() {
  std::unique_lock<std::mutex> lk(mu_);
  quiesce_locked(lk);
  launch_cp_locked(lk);
}

void OverlappedCpDriver::launch_cp_locked(std::unique_lock<std::mutex>& lk) {
  WAFL_ASSERT(!drain_in_flight_.load(std::memory_order_relaxed));

  std::vector<DirtyBlock> batch;
  {
    // The freeze window: every shard lock in shard-id order (after mu_ —
    // the one place both levels are held).  No writer is mid-claim, so
    // the claim bits and the shard lists agree exactly.
    std::vector<std::unique_lock<std::mutex>> shard_locks;
    shard_locks.reserve(shards_.size());
    for (auto& sh : shards_) shard_locks.emplace_back(sh->mu);

    // A crash here loses only unfrozen intake: blocks never allocated.
    WAFL_CRASH_POINT_RT(agg_.runtime(), "cp.in_freeze");

    // Fold shards 0..S-1 — the canonical order — into one batch,
    // releasing each entry's coalescing claim.  O(dirty) total, however
    // many writers raced: claims clear entry-by-entry, never by scan.
    std::uint64_t total = 0;
    for (const auto& sh : shards_) total += sh->dirty.size();
    batch.reserve(total);
    for (auto& shp : shards_) {
      Shard& sh = *shp;
      for (const DirtyBlock& b : sh.dirty) {
        claims_[b.vol].clear(b.logical);
        batch.push_back(b);
      }
      sh.dirty.clear();
      stats_.blocks_coalesced += std::exchange(sh.coalesced, 0);
    }
    active_count_.store(0, std::memory_order_relaxed);
  }

  ++stats_.cps_started;
  generation_.fetch_add(1, std::memory_order_relaxed);
  drain_in_flight_.store(true, std::memory_order_release);
  lk.unlock();

  const std::uint64_t freeze_t0 = obs::monotonic_ns();
  ConsistencyPoint::Frozen frozen;
  try {
    frozen = ConsistencyPoint::freeze(agg_, std::move(batch));
  } catch (...) {
    std::unique_lock<std::mutex> relk(mu_);
    drain_in_flight_.store(false, std::memory_order_release);
    --stats_.cps_started;
    generation_.fetch_sub(1, std::memory_order_relaxed);
    cv_.notify_all();
    throw;
  }
  {
    std::unique_lock<std::mutex> relk(mu_);
    stats_.freeze_ns += obs::monotonic_ns() - freeze_t0;
  }
  drain_exec_->submit(
      [this, f = std::move(frozen)]() mutable { drain_main(std::move(f)); });
  lk.lock();
}

void OverlappedCpDriver::drain_main(ConsistencyPoint::Frozen frozen) {
  const std::uint64_t t0 = obs::monotonic_ns();
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (last_drain_end_ns_ != 0) {
      stats_.gap_ns += t0 - last_drain_end_ns_;
    }
  }
  CpStats cp;
  std::exception_ptr err;
  try {
    cp = ConsistencyPoint::drain(agg_, std::move(frozen));
  } catch (...) {
    err = std::current_exception();
  }
  const std::uint64_t t1 = obs::monotonic_ns();
  // Last act: publish results, clear the flag, notify — all under mu_,
  // touching no member afterwards (the destructor may be waiting).
  std::unique_lock<std::mutex> lk(mu_);
  stats_.drain_ns += t1 - t0;
  last_drain_end_ns_ = t1;
  if (err != nullptr) {
    drain_error_ = err;
  } else {
    ++stats_.cps_completed;
    stats_.cp.merge(cp);
  }
  drain_in_flight_.store(false, std::memory_order_release);
  cv_.notify_all();
}

void OverlappedCpDriver::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  quiesce_locked(lk);
}

bool OverlappedCpDriver::drain_in_flight() const {
  return drain_in_flight_.load(std::memory_order_acquire);
}

SnapId OverlappedCpDriver::create_snapshot(VolumeId vol) {
  std::unique_lock<std::mutex> lk(mu_);
  quiesce_locked(lk);
  return agg_.volume(vol).create_snapshot();
}

void OverlappedCpDriver::delete_snapshot(VolumeId vol, SnapId id) {
  std::unique_lock<std::mutex> lk(mu_);
  quiesce_locked(lk);
  // The drain is quiesced, so the deletion logs its delayed frees straight
  // into the volume's log; the next CP drains them, exactly as after a
  // stop-the-world workload's deletion.
  agg_.volume(vol).delete_snapshot(id);
}

std::uint64_t OverlappedCpDriver::active_dirty() const {
  return active_count_.load(std::memory_order_acquire);
}

OverlapStats OverlappedCpDriver::stats() const {
  std::unique_lock<std::mutex> lk(mu_);
  OverlapStats out = stats_;
  out.blocks_admitted = admitted_total_.load(std::memory_order_relaxed);
  // Live (not-yet-folded) shard counters; mu_ is held, so the shard-lock
  // acquisition order matches the freeze path's.
  for (const auto& shp : shards_) {
    std::lock_guard<std::mutex> sl(shp->mu);
    out.blocks_coalesced += shp->coalesced;
  }
  return out;
}

}  // namespace wafl
