// Aggregate: the shared pool of physical storage hosting FlexVols (§2.1).
//
// The aggregate's physical VBN space is the concatenation of its RAID
// groups' ranges.  Since the WriteAllocator extraction, this class owns
// only what is genuinely aggregate-wide:
//
//  - the volumes and the physical-block ownership table (the container-map
//    back-pointer the segment cleaner needs), one 32-bit entry per block;
//  - the activemap and its bitmap-metafile store;
//  - the TopAA store (per-group slots, kept separate from the bitmap area
//    so RAID-group growth can extend the bitmaps in place);
//  - growth (§3.1) and aging/wear bookkeeping.
//
// Everything physical-allocation-shaped — per-group geometry, devices,
// scoreboards, AA caches, tetris windows, the round-robin rotation and
// §3.3.1 skip bias, the CP boundary's free/rebalance/persist machinery —
// lives in wafl/write_allocator.{hpp,cpp}; the CP-side methods here
// delegate to it.  The group accessors (rg_layout etc.) are re-exports
// kept for tests, benches, and the mount/cleaner call sites.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bitmap/activemap.hpp"
#include "storage/block_store.hpp"
#include "util/rng.hpp"
#include "wafl/cp_stats.hpp"
#include "wafl/flexvol.hpp"
#include "wafl/write_allocator.hpp"

namespace wafl {

class ThreadPool;

struct AggregateConfig {
  std::vector<RaidGroupConfig> raid_groups;
  AaSelectPolicy policy = AaSelectPolicy::kCache;
  /// Skip a RAID group when its best AA's free fraction drops below this
  /// while other groups remain eligible (0 disables the §3.3.1 bias).
  double rg_skip_free_fraction = 0.0;
};

class Aggregate {
 public:
  /// `rt` scopes everything the aggregate observes or executes on: its
  /// metric registry (with the agg="<id>" label dimension), flight
  /// recorder, crash hooks, phase profile, and worker pool.  The default
  /// Runtime routes to the process-global singletons with no pool —
  /// exactly the pre-Runtime behaviour.
  Aggregate(const AggregateConfig& cfg, std::uint64_t rng_seed,
            Runtime rt = {});

  /// The runtime every layer under this aggregate routes through.
  const Runtime& runtime() const noexcept { return runtime_; }

  // --- Volumes ---------------------------------------------------------------
  /// Adds a volume.  Asserts, before building it, that its vvbn space is
  /// below 2^32-1 and that all volumes' spaces together stay within
  /// 2^32-1 (the owner table's 32-bit index space).
  FlexVol& add_volume(const FlexVolConfig& cfg);
  FlexVol& volume(VolumeId id) { return *volumes_.at(id); }
  const FlexVol& volume(VolumeId id) const { return *volumes_.at(id); }
  std::size_t volume_count() const noexcept { return volumes_.size(); }

  // --- The write-allocation engine -------------------------------------------
  WriteAllocator& write_allocator() noexcept { return walloc_; }
  const WriteAllocator& write_allocator() const noexcept { return walloc_; }

  // --- Geometry (re-exports of per-group engine state) -----------------------
  std::size_t raid_group_count() const noexcept {
    return walloc_.group_count();
  }
  std::uint64_t total_blocks() const noexcept { return total_blocks_; }
  std::uint64_t free_blocks() const noexcept {
    return activemap_.total_free();
  }
  const RaidGroup& raid_group(RaidGroupId rg) const {
    return walloc_.group(rg).raid();
  }
  RaidGroup& raid_group(RaidGroupId rg) { return walloc_.group(rg).raid(); }
  Vbn rg_base(RaidGroupId rg) const { return walloc_.group(rg).base(); }
  const AaLayout& rg_layout(RaidGroupId rg) const {
    return walloc_.group(rg).layout();
  }
  const AaScoreBoard& rg_scoreboard(RaidGroupId rg) const {
    return walloc_.group(rg).board();
  }
  const AaCache& rg_cache(RaidGroupId rg) const {
    return walloc_.group(rg).selector().cache();
  }
  /// The group's heap, for RAID groups only (asserts otherwise).
  const MaxHeapAaCache& rg_heap(RaidGroupId rg) const {
    return walloc_.group(rg).selector().heap();
  }
  /// The group's HBPS, for object-store pools only (asserts otherwise).
  const Hbps& rg_hbps(RaidGroupId rg) const {
    return walloc_.group(rg).selector().hbps();
  }
  /// True when the group is an object-store pool using the HBPS (§3.3.2).
  bool rg_is_raid_agnostic(RaidGroupId rg) const {
    return walloc_.group(rg).selector().has_hbps();
  }
  DeviceModel& data_device(RaidGroupId rg, DeviceId d) {
    return walloc_.group(rg).data_device(d);
  }
  DeviceModel& parity_device(RaidGroupId rg, DeviceId d) {
    return walloc_.group(rg).parity_device(d);
  }

  const Activemap& activemap() const noexcept { return activemap_; }
  /// Store holding the aggregate's bitmap-metafile blocks.
  BlockStore& meta_store() noexcept { return meta_store_; }
  /// Store holding the per-group TopAA slots.
  BlockStore& topaa_store() noexcept { return topaa_store_; }
  /// First block of the group's TopAA slot in topaa_store() (each group
  /// owns a two-block slot; the heap form uses only the first block).
  std::uint64_t rg_topaa_block(RaidGroupId rg) const {
    WAFL_ASSERT(rg < walloc_.group_count());
    return rg * TopAaFile::kRaidAgnosticBlocks;
  }

  /// Adds a RAID group (or object-store pool) to a live aggregate —
  /// §3.1's "RAID group creation and growth", how §4.2's imbalanced-age
  /// configurations arise.  Must be called between CPs.  Asserts, before
  /// growing anything, that the aggregate stays below 2^32-1 blocks.
  /// Returns the new group's id.
  RaidGroupId add_raid_group(const RaidGroupConfig& rgc);

  /// Mean write amplification across SSD/SMR data devices, 1.0 otherwise.
  double mean_write_amplification() const;
  void reset_wear_windows();

  /// Bench/test hook emulating §4.2's pre-aged RAID groups: marks a random
  /// `fraction` of the group's blocks allocated (as if aged by historic
  /// churn "until a random 50% of its blocks were used") and rebuilds the
  /// group's scoreboard and cache.  Must be called while no CP is in
  /// flight.  The seeded blocks belong to no volume and are never freed.
  void seed_rg_occupancy(RaidGroupId rg, double fraction, Rng& rng);

  // --- Physical-block ownership (the container-map back-pointer WAFL keeps
  // via its container files; needed by the segment cleaner to relocate
  // in-use blocks, §3.3.1) ---------------------------------------------------

  /// Owner of one physical block.
  struct BlockOwner {
    VolumeId vol;
    Vbn vvbn;
  };

  /// Records that `pvbn` now holds volume `vol`'s virtual block `vvbn`.
  void set_owner(Vbn pvbn, VolumeId vol, Vbn vvbn);
  /// Owner of `pvbn`, or nullopt for unowned blocks (free, or seeded by
  /// seed_rg_occupancy).  An owner-table entry means something only while
  /// its block is allocated: a free block reads nullopt from its activemap
  /// bit whatever its entry holds, because release_pvbns leaves the entry
  /// of a freed block stale and set_owner overwrites it on reallocation.
  std::optional<BlockOwner> owner_of(Vbn pvbn) const;

  // --- Segment-cleaner support (§3.3.1) --------------------------------------

  /// Checks a specific AA out of the group's heap so the write allocator
  /// cannot target it while the cleaner relocates its blocks.  Returns
  /// false when the AA is already out (allocator cursor, or another
  /// checkout).  Requires the cache policy.
  bool checkout_aa(RaidGroupId rg, AaId aa) {
    return walloc_.checkout_aa(rg, aa);
  }

  /// Returns a checked-out AA to the heap at its current scoreboard
  /// score.  Safe mid-CP: pending deltas re-key it at the CP boundary.
  void checkin_aa(RaidGroupId rg, AaId aa) { walloc_.checkin_aa(rg, aa); }

  // --- CP-side allocation ------------------------------------------------------

  /// Starts a CP interval: clears per-CP device busy accounting.
  void begin_cp() { walloc_.begin_cp(); }

  /// Allocates `n` physical VBNs in write order, appending to `out`.
  /// With a pool in the runtime, the engine's execute phase fans out per
  /// RAID group; results are bit-identical at any worker count (see
  /// write_allocator).  Returns false when the aggregate cannot supply
  /// them (out of space).
  bool allocate_pvbns(std::uint64_t n, std::vector<Vbn>& out, CpStats& stats) {
    return walloc_.allocate(n, out, stats);
  }

  /// Defers the free of a physical VBN to the CP boundary, on its RAID
  /// group's free list.  The bit stays set until then, so the block
  /// cannot be re-allocated within the same CP — WAFL's COW safety rule
  /// (a freed block's old contents must survive until the CP that frees
  /// it commits).
  void defer_free_pvbn(Vbn v) {
    WAFL_ASSERT_MSG(activemap_.is_allocated(v),
                    "deferring free of a free block");
    walloc_.note_free(v);
  }

  /// Releases blocks a CP no longer references: defers each one's free to
  /// the CP boundary, in order.  The owner entries are left as they are
  /// (see owner_of), so a release writes nothing proportional to the
  /// aggregate (DESIGN.md §17).
  void release_pvbns(std::span<const Vbn> pvbns);

  /// The CP boundary: flushes open tetris windows, applies deferred frees
  /// (with device invalidation), folds score deltas into the caches,
  /// re-admits retired AAs, flushes the bitmap metafile, and persists
  /// per-group TopAA blocks.  With a pool in the runtime, the
  /// group-disjoint work fans out across groups; results are bit-identical
  /// to the serial path (see write_allocator.hpp for the determinism
  /// argument).
  void finish_cp(CpStats& stats) { walloc_.finish_cp(stats); }

  // --- Mount (§3.4) --------------------------------------------------------------

  /// Seeds every RAID group's heap from its TopAA block.  Groups whose
  /// block is damaged fall back to a scoreboard scan.  Returns the number
  /// of groups seeded from TopAA.
  std::size_t mount_from_topaa() { return walloc_.mount_from_topaa(); }

  /// Reads the bitmap metafile back from the store and rebuilds all
  /// scoreboards (and full heaps); parallelized across groups on the
  /// runtime's pool.  This is both the no-TopAA mount path and the
  /// background completion after a TopAA seed.
  void scan_rebuild() { walloc_.scan_rebuild(); }

  /// Crash-recovery support: reloads the aggregate's bitmap metafile from
  /// its backing store without rebuilding any scoreboard or cache.  A
  /// reconstructed aggregate (fresh object over surviving store bytes —
  /// see recover_mount in wafl/mount.hpp) needs its bits loaded before
  /// the TopAA mount path runs (the scan path loads them itself); volumes
  /// reload theirs via FlexVol::rebuild_scoreboard().
  void load_activemap() { activemap_.metafile().load_all(runtime_.pool()); }

 private:
  AggregateConfig cfg_;
  Rng rng_;
  /// Declared before walloc_ and the volumes: they keep pointers into it.
  Runtime runtime_;
  std::uint64_t total_blocks_ = 0;

  BlockStore meta_store_;
  BlockStore topaa_store_;
  Activemap activemap_;
  WriteAllocator walloc_;

  /// pvbn -> owner index: vol_base_[vol] + vvbn, a position in the
  /// volumes' concatenated vvbn spaces (kNoOwner when unowned).
  /// Meaningful only for allocated pvbns.  Four bytes per block: the
  /// aggregate holds fewer than 2^32-1 blocks and the concatenated space
  /// is at most 2^32-1 vvbns, so no index reaches kNoOwner.
  static constexpr PackedVbn kNoOwner = kInvalidPackedVbn;
  std::vector<PackedVbn> owner_;
  /// vol_base_[v] is where volume v's vvbns start in the concatenated
  /// space; the last entry is where the next volume's would start.
  std::vector<std::uint64_t> vol_base_{0};

  std::vector<std::unique_ptr<FlexVol>> volumes_;
};

}  // namespace wafl
