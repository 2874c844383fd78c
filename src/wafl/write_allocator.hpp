// WriteAllocator: the aggregate's physical write-allocation engine.
//
// The engine is two layers, mirroring the sharded architecture of the
// paper's companion work ("Scalable Write Allocation in the WAFL File
// System" [10]): per-shard allocators over disjoint state, coordinated by
// a thin layer that only partitions demand.
//
//  - RgAllocator: one RAID group's (or object-store pool's) complete
//    allocation state — geometry and device models, AA layout, scoreboard,
//    the AaSelector (AA cache — max-heap §3.3.1 or HBPS §3.3.2 — open AA
//    and retired-AA list), the open tetris window, per-CP device-busy
//    accounting, and this group's TopAA slot (§3.4).  No RgAllocator
//    method reads or writes another group's state.
//
//  - WriteAllocator: owns the group list and the cross-group policy — the
//    round-robin tetris rotation ("WAFL attempts to write to all RAID
//    groups available in an aggregate"), §3.3.1's skip/resume
//    fragmentation bias, and the CP boundary's phase structure.
//
// Plan/execute allocation.  Physical allocation, under either policy, is
// a two-stage pipeline.  A cheap serial PLAN walks the CP's demand and
// assigns each pvbn-to-be to a RAID group using only CP-start information:
// the round-robin rotation, §3.3.1's skip bias driven by peek_best_score,
// and each group's exact capacity.  The plan is a per-group list of
// contiguous output runs — group-disjoint by construction — that execute
// always meets.  EXECUTE then fans the groups over the ThreadPool: each
// RgAllocator picks AAs from its own cache (or its own Rng under
// kRandom), fills tetris windows, issues writes to its group-owned
// devices, and stages its activemap bits (set_allocated_word_unaccounted
// — bits set now, a word at a time, summary delta folded later).
// A serial MERGE applies the per-group AllocDeltas to the shared summary
// and folds per-group CpStats, both in fixed group order.
//
// CP-boundary parallelism.  Because groups are disjoint, most of
// finish_cp fans out across groups on a ThreadPool — not just the
// in-memory boundary work (applying the group's deferred frees,
// invalidating translated media, folding score deltas into the cache,
// re-admitting retired AAs, staging the TopAA block image) but the
// persistence tail too: the metafile flush fans out per dirty block and
// the TopAA commits per group, which the concurrent-safe BlockStore
// (single writer per slot, disjoint-slot I/O unlocked) makes sound.
// Determinism is preserved by construction, not by luck:
//
//  1. demand is partitioned before any fan-out.  On the allocation side
//     the serial plan fixes every group's quota and output positions
//     before a single block is taken; on the free side each freed pvbn
//     joins its owning group's free list when it is deferred (note_free),
//     so every list is in deferral order before the boundary starts;
//  2. each parallel phase touches only disjoint state.  Execute and
//     cp_boundary are group-disjoint; bitmap bit sets and clears are
//     group-disjoint at word granularity too, because device_blocks is a
//     multiple of kTetrisStripes (64) and every group starts on a word
//     boundary (add_group asserts it), so every group's VBN range spans
//     whole 64-bit bitmap words.  The metafile flush partitions the dirty
//     list, so every metafile store block has exactly one writer; the
//     TopAA commits write per-group slots that never share a store block;
//  3. everything genuinely shared stays serial, in fixed group order: the
//     metafile's free-count summary and dirty set (metafile blocks can
//     straddle group boundaries, so the AllocDelta/FreeDelta merges are
//     serial) and every CpStats fold.
//
// The result is bit-identical file-system state and CpStats for any worker
// count, including none.  Only observability output (span and
// metric-update interleaving) and the order store writes land within one
// phase are outside the contract — which is also why write-count crash
// triggers under workers>0 are interleaving-dependent; named crash hooks
// at workers=0 replay exactly (DESIGN.md §9-§10).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bitmap/activemap.hpp"
#include "core/aa_selector.hpp"
#include "core/scoreboard.hpp"
#include "core/topaa.hpp"
#include "obs/obs.hpp"
#include "raid/raid_group.hpp"
#include "storage/block_store.hpp"
#include "util/rng.hpp"
#include "wafl/cp_stats.hpp"
#include "wafl/media_config.hpp"
#include "wafl/runtime.hpp"

namespace wafl {

class ThreadPool;

struct RaidGroupConfig {
  std::uint32_t data_devices = 4;
  std::uint32_t parity_devices = 1;
  /// Data blocks per device (must be a multiple of kTetrisStripes).
  std::uint64_t device_blocks = 0;
  MediaConfig media{};
  /// AA size override in stripes; by default the §3.2 sizing policy runs.
  std::optional<std::uint32_t> aa_stripes{};
};

/// One RAID group's allocation engine.  See the file comment for the
/// disjointness rules that make cp_boundary() safe to run concurrently
/// across groups.
class RgAllocator {
 public:
  /// Builds the group's full state from its config: geometry, devices,
  /// layout, scoreboard, and the cache form the media dictates (§3.3).
  /// The group owns the TopAa slot at `topaa_base` of `topaa_store`.
  /// `rng_seed` seeds the group's own kRandom probe stream.  Metrics,
  /// phase profiles and crash points route through `rt`, which must
  /// outlive the group.
  RgAllocator(RaidGroupId id, const RaidGroupConfig& rgc, Vbn base,
              AaSelectPolicy policy, double skip_fraction,
              std::uint64_t rng_seed, Activemap& activemap,
              BlockStore& topaa_store, std::uint64_t topaa_base,
              const Runtime& rt = process_runtime());

  // --- Structure accessors (re-exported by the Aggregate facade) -----------
  RaidGroupId id() const noexcept { return raid_.id(); }
  const RaidGroup& raid() const noexcept { return raid_; }
  RaidGroup& raid() noexcept { return raid_; }
  Vbn base() const noexcept { return base_; }
  const AaLayout& layout() const noexcept { return layout_; }
  const AaScoreBoard& board() const noexcept { return board_; }
  /// The AA cache (heap, or HBPS for object-store pools) and open AA.
  const AaSelector& selector() const noexcept { return selector_; }
  DeviceModel& data_device(DeviceId d) { return *data_devices_.at(d); }
  DeviceModel& parity_device(DeviceId d) { return *parity_devices_.at(d); }
  const DeviceModel& data_device(DeviceId d) const {
    return *data_devices_.at(d);
  }
  const DeviceModel& parity_device(DeviceId d) const {
    return *parity_devices_.at(d);
  }
  /// First VBN past this group's range.
  Vbn end() const noexcept { return base_ + raid_.geometry().data_blocks(); }
  /// True when no tetris window is open (quiescence check for growth).
  bool window_idle() const noexcept { return window_blocks_ == 0; }

  // --- CP-side allocation --------------------------------------------------
  /// Starts a CP interval: clears per-CP device-busy accounting.
  void begin_cp();

  /// Allocates up to `need` pvbns from the group's current tetris window,
  /// checking out a fresh AA when needed.  Free blocks are taken a bitmap
  /// word (one device's column of the window) at a time.  Runs only
  /// inside execute's staged mode, after the plan has applied §3.3.1's
  /// skip bias.  Returns the number taken (0 only when the group is
  /// full).
  std::uint64_t fill(std::uint64_t need, std::vector<Vbn>& out,
                     CpStats& stats);

  /// Builds and submits the TetrisWrite for the open window, then marks
  /// the window's blocks allocated, one bitmap word per device.
  void flush_window(CpStats& stats);

  /// Defers the free of `v`, one of this group's pvbns, to the CP
  /// boundary: queues it on the group's free list, in deferral order, and
  /// records it against the scoreboard.  The bit stays set until then, so
  /// the block cannot be re-allocated within the same CP.
  void note_free(Vbn v) {
    board_.note_free(v);
    frees_.push_back(v);
  }
  /// Frees deferred since the last cp_boundary().
  std::size_t pending_frees() const noexcept { return frees_.size(); }

  /// The group-disjoint half of the CP boundary; safe to run concurrently
  /// with other groups' cp_boundary calls.  Drains the group's free list:
  /// clears its bits in one batch (this group's bitmap words are disjoint
  /// from every other group's) and invalidates translated media in
  /// deferral order.  Then folds score deltas into the cache, re-admits
  /// retired AAs, and stages — but does not write — the group's TopAA
  /// block image.  Returns the per-metafile-block freed counts; the
  /// caller folds them into the shared free-count summary serially, in
  /// group order (apply_free_deltas — metafile blocks can straddle group
  /// boundaries).
  BitmapMetafile::FreeDelta cp_boundary();

  /// Companion to cp_boundary(): writes the staged TopAA image to the
  /// group's slot and returns the number of blocks written (0 unless the
  /// cache policy staged an image).  Groups write disjoint slots, so
  /// commits run concurrently across groups; the caller folds the counts
  /// into CpStats serially.
  std::uint64_t commit_topaa();

  /// Slowest device's busy time this CP.
  SimTime slowest_device_busy() const;

  /// Folds per-device busy time, and the SSD FTL's GC/erase deltas since
  /// the last fold, into the runtime's counters.  Serial, at the CP
  /// boundary.
  void fold_device_metrics();

  // --- Mount (§3.4) and rebuild --------------------------------------------
  /// Seeds the cache from the group's TopAA slot; on damage falls back to
  /// a scoreboard rescan + full cache rebuild.  Returns true when seeded
  /// from TopAA.
  bool mount_seed();

  /// Re-derives the scoreboard from the (already loaded) activemap,
  /// drops the tetris window and rebuilds the cache from scratch: the
  /// per-group half of the scan mount, also run by a damaged TopAA slot's
  /// fallback and by the aging seeder.
  void rescan();

 private:
  friend class WriteAllocator;

  // --- Plan/execute support (driven by WriteAllocator::allocate) ----------
  /// Plan-time eligibility under §3.3.1's skip bias: true when the group's
  /// best cached AA scores at or above the skip threshold.  Runs the
  /// deterministic HBPS replenish first if the list is dry, so a drained
  /// list never masquerades as fragmentation.
  bool plan_eligible();
  /// Exactly what execute can deliver this CP: the group's free bits
  /// minus those no fill can reach — behind the cursor (the open tetris
  /// window's included) and in the cleaner's checked-out AA (DESIGN.md
  /// §11).
  std::uint64_t plan_capacity() const;
  /// Free blocks remaining in the checked-out cursor AA (0 without one):
  /// what the group can deliver without another checkout — the cursor-
  /// drain allowance a bias-ineligible group still gets.
  std::uint64_t plan_cursor_free() const;
  /// Enters staged-allocation mode: flush_window() sets activemap words
  /// only (word-disjoint across groups) and counts them in a per-metafile-
  /// block overlay instead of touching the shared summary/dirty set.
  void begin_staged_alloc();
  /// Leaves staged mode, returning the overlay as an AllocDelta for the
  /// serial summary merge.
  BitmapMetafile::AllocDelta end_staged_alloc();

  /// Free blocks an AA has RIGHT NOW in staged mode (activemap view plus
  /// the staged overlay, which unlike the scoreboard reflects this CP's
  /// own allocations).
  std::uint64_t live_aa_free(AaId aa) const;

  /// Resolves the per-group labelled metric handles (rg="N", plus the
  /// runtime's agg="<id>" dimension when set).
  void resolve_metrics();

  const Runtime* rt_;
  RaidGroup raid_;
  Vbn base_;
  std::uint32_t aa_stripes_;
  AaScore skip_threshold_;  // best-AA score below this => skip the group
  std::vector<std::unique_ptr<DeviceModel>> data_devices_;
  std::vector<std::unique_ptr<DeviceModel>> parity_devices_;
  AaLayout layout_;
  AaScoreBoard board_;
  /// The open AA, the cache (heap for RAID groups, HBPS for object-store
  /// pools), the retired list and the kRandom stream.
  AaSelector selector_;

  Activemap& activemap_;
  BlockStore& topaa_store_;
  std::uint64_t topaa_base_;

  /// Drops the open tetris window without writing it.
  void clear_window();

  /// The open tetris window: its group-local tetris index and one word of
  /// blocks taken per data device (bit s of window_words_[d] is stripe s
  /// of device d — VBN base_ + (window_tetris_ * D + d) * 64 + s).  The
  /// bits are set in the activemap only when the window is flushed, so
  /// the builder still sees pre-CP occupancy.
  std::uint64_t window_tetris_ = 0;
  std::vector<std::uint64_t> window_words_;
  /// Blocks taken into the open window; 0 when no window is open.
  std::uint64_t window_blocks_ = 0;
  /// The last flushed window's I/O plan, rebuilt in place by every flush
  /// so its vectors keep their capacity.
  TetrisWrite tetris_write_;
  /// This CP's deferred frees, in deferral order (note_free), drained by
  /// cp_boundary().
  std::vector<Vbn> frees_;
  std::vector<SimTime> device_busy_;  // data then parity, this CP
  /// SSD FTL totals (summed over the group's devices) already folded
  /// into the wafl.ssd.* counters.
  std::uint64_t ssd_erases_folded_ = 0;
  std::uint64_t ssd_relocations_folded_ = 0;

  /// Staged-allocation mode (execute phase): per-metafile-block count of
  /// bits set via set_allocated_word_unaccounted(), pending the serial
  /// summary merge.  `staged_base_` is the group's first metafile block.
  bool staged_ = false;
  std::vector<std::uint32_t> staged_allocs_;
  std::uint64_t staged_base_ = 0;

  /// TopAA image staged by cp_boundary() for commit_topaa() to write.
  std::optional<TopAaImage> staged_topaa_;

  /// Metric handles cached at construction, labelled rg="N" so per-group
  /// series stay separate (function-local statics merged all groups into
  /// one).  Null when obs is compiled out.  The AA pick counters live in
  /// selector_.
  struct Metrics {
    std::vector<obs::Counter*> device_busy;  // data then parity
    /// wafl.ssd.* (aggregate-wide), resolved at the first fold that sees
    /// GC so a group without any exports no zero series.
    obs::Counter* ssd_collections = nullptr;
    obs::Counter* ssd_relocated = nullptr;
    obs::Counter* ssd_erases = nullptr;
  };
  Metrics metrics_{};
};

/// Wall-clock time allocate()/finish_cp() spent in each of their phases,
/// accumulated across calls until reset().  A diagnostic aid for benches
/// and tools — the parallel-CP bench derives its serial-fraction and
/// Amdahl-implied speedup numbers from it; the engine itself never reads
/// it.  Written by the allocate/finish_cp caller thread only, so it is
/// meaningful per-process for one aggregate running CPs at a time (which
/// is every bench and test).
struct CpPhaseProfile {
  // allocate() — the plan/execute pipeline.
  double plan_ms = 0.0;         // serial: per-group quota/run assignment
  double execute_ms = 0.0;      // parallel: per-group tetris fill
  double alloc_merge_ms = 0.0;  // serial: AllocDelta + stats folds
  // finish_cp().
  double windows_ms = 0.0;    // serial: flush open tetris windows
  // Never written, always 0: no finish_cp phase feeds them.  They stay
  // only while perfbench/common.cpp still reports them (fc.owner_ms,
  // fc.partition_ms).
  double owner_ms = 0.0;
  double partition_ms = 0.0;
  double boundary_ms = 0.0;   // parallel: per-group cp_boundary
  double merge_ms = 0.0;      // serial: FreeDelta summary folds
  double flush_ms = 0.0;      // parallel: metafile dirty-block flush
  double topaa_ms = 0.0;      // parallel: per-group TopAA commits
  double fold_ms = 0.0;       // serial: stats and metric folds

  double serial_ms() const noexcept {
    return plan_ms + alloc_merge_ms + windows_ms + merge_ms + fold_ms;
  }
  double parallel_ms() const noexcept {
    return execute_ms + boundary_ms + flush_ms + topaa_ms;
  }
  double total_ms() const noexcept { return serial_ms() + parallel_ms(); }
  void reset() noexcept { *this = CpPhaseProfile{}; }
};

/// Process-global phase profile (like obs::registry()).
CpPhaseProfile& cp_phase_profile();

/// The thin coordinator: demand partitioning across per-group engines.
class WriteAllocator {
 public:
  /// The engine allocates against `activemap` (shared with ownership and
  /// volume machinery, which stay in Aggregate) and persists TopAA images
  /// into `topaa_store`, one slot of TopAaFile::kRaidAgnosticBlocks per
  /// group.  `rng_seed` and the group id seed each group's kRandom
  /// stream.  `rt` supplies the worker pool, metric scope and crash-hook
  /// registry; it must outlive the engine (default: the process runtime —
  /// global singletons, serial execution).
  WriteAllocator(AaSelectPolicy policy, double skip_fraction,
                 std::uint64_t rng_seed, Activemap& activemap,
                 BlockStore& topaa_store,
                 const Runtime& rt = process_runtime());
  ~WriteAllocator();

  WriteAllocator(const WriteAllocator&) = delete;
  WriteAllocator& operator=(const WriteAllocator&) = delete;
  /// Movable so Aggregate stays a return-by-value type (benches build one
  /// in a helper).  The reference members still bind to the original
  /// aggregate's activemap and TopAA store, so a moved-to engine is only
  /// valid when the move is elided or the source aggregate outlives it.
  WriteAllocator(WriteAllocator&&) = default;

  /// Registers a group over [base, base + data blocks).  Ranges must be
  /// appended in ascending VBN order, and `base` must be a multiple of 64:
  /// the tetris windows are whole bitmap words, and the staged execute
  /// sets each group's words from its own pool worker.  The round-robin
  /// pointer is clamped so mid-run growth cannot leave it referencing a
  /// rotation slot that only exists in the new, larger modulus (the
  /// pre-engine bug: growth silently skewed the rotation until the pointer
  /// next wrapped).
  RaidGroupId add_group(const RaidGroupConfig& rgc, Vbn base);

  std::size_t group_count() const noexcept { return groups_.size(); }
  RgAllocator& group(RaidGroupId rg) { return *groups_.at(rg); }
  const RgAllocator& group(RaidGroupId rg) const { return *groups_.at(rg); }
  /// The group whose VBN range holds `v`.
  RaidGroupId group_of_pvbn(Vbn v) const;
  AaSelectPolicy policy() const noexcept { return policy_; }

  /// True when no group has an open tetris window (growth quiescence).
  bool windows_idle() const;

  // --- Segment-cleaner support ---------------------------------------------
  /// Checks a specific AA out of the group's heap.  Requires the cache
  /// policy.  False when the AA is already out or the group is HBPS.
  bool checkout_aa(RaidGroupId rg, AaId aa);
  /// Returns a checked-out AA at its current scoreboard score.
  void checkin_aa(RaidGroupId rg, AaId aa);

  // --- CP-side allocation --------------------------------------------------
  void begin_cp();

  /// Allocates `n` pvbns in write order, appending to `out`, through the
  /// plan/execute pipeline (both policies): a serial plan fixes every
  /// group's quota and output positions (round-robin rotation with
  /// §3.3.1's skip bias, escalating to force when every group declines,
  /// capped by each group's exact capacity), execute fans the
  /// group-disjoint fills over the runtime's pool (serially, in group
  /// order, when the runtime has none — the same code path, so results
  /// are bit-identical at any worker count), and a serial merge folds the
  /// staged summary deltas and per-group stats in group order.  False
  /// when out of space; `out` then carries the planned prefix.
  bool allocate(std::uint64_t n, std::vector<Vbn>& out, CpStats& stats);

  /// Defers the free of `v` to the CP boundary, on the free list of the
  /// group that owns it.
  void note_free(Vbn v) { groups_[group_of_pvbn(v)]->note_free(v); }
  /// Frees deferred since the last finish_cp(), over all groups.
  std::uint64_t pending_frees() const;

  /// The CP boundary.  Serial prologue (flush open windows, count the
  /// deferred frees); parallel phase A (per-group cp_boundary, each
  /// draining its own free list); serial merge (fold each group's
  /// FreeDelta into the shared summary, in group order); parallel phase
  /// B1 (metafile flush, partitioned by dirty block) and B2 (per-group
  /// TopAA commits); serial stats and metric folds.  With no pool in the
  /// runtime every phase runs strictly serially in the same order.
  /// Results are bit-identical for any worker count.
  void finish_cp(CpStats& stats);

  // --- Mount (§3.4) ----------------------------------------------------------
  /// Seeds every group's cache from its TopAA slot; damaged groups fall
  /// back to a scoreboard scan.  Returns the number seeded from TopAA.
  std::size_t mount_from_topaa();

  /// Reloads the bitmap metafile from its store and rebuilds every group's
  /// scoreboard and cache; per-group rebuilds parallelize on the
  /// runtime's pool.
  void scan_rebuild();

  /// Aging-seed hook: marks a random `fraction` of the group's blocks
  /// allocated and re-derives its scoreboard and cache (§4.2).
  void seed_occupancy(RaidGroupId rg, double fraction, Rng& rng);

 private:
  const Runtime* rt_;
  AaSelectPolicy policy_;
  double skip_fraction_;
  std::uint64_t rng_seed_;
  Activemap& activemap_;
  BlockStore& topaa_store_;

  std::vector<std::unique_ptr<RgAllocator>> groups_;
  /// Round-robin pointer for tetris distribution across groups.
  std::size_t rr_next_ = 0;
};

}  // namespace wafl
