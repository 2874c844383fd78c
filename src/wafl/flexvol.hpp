// FlexVol: one virtualized WAFL file-system instance (§2.1).
//
// A FlexVol owns a *virtual* VBN space with its own bitmap metafile.  Data
// in the volume carries two addresses: the virtual VBN (this class) and the
// physical VBN in the aggregate (assigned by the aggregate's allocator and
// recorded here in the container map).
//
// Virtual-VBN allocation has no physical-layout consequence; its goal is
// colocation in the number space so that each CP touches as few bitmap-
// metafile blocks as possible (§2.5).  The volume therefore uses flat
// 32 Ki-VBN allocation areas (one per metafile block) ranked by an HBPS
// cache (§3.3.2), or random AA selection for the Figure 6 baseline.
//
// The volume also exposes a single flat file ("the LUN"): logical block l
// maps to its current (vvbn, pvbn) pair, re-mapped on every overwrite —
// WAFL's copy-on-write behaviour reduced to the block-map essentials.
// The block map, the container map and each snapshot's block map hold
// 32-bit entries (PackedVbn, util/types.hpp), so a volume holds fewer than
// 2^32-1 vvbns (asserted at construction) and its pvbns come from an
// aggregate of fewer than 2^32-1 blocks.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bitmap/activemap.hpp"
#include "core/aa_selector.hpp"
#include "core/scoreboard.hpp"
#include "core/topaa.hpp"
#include "obs/obs.hpp"
#include "storage/block_store.hpp"
#include "wafl/cp_stats.hpp"
#include "wafl/delayed_free.hpp"
#include "wafl/runtime.hpp"

namespace wafl {

/// Snapshot identifier within one FlexVol.
using SnapId = std::uint32_t;

/// One dirty user block awaiting write-out.
struct DirtyBlock {
  VolumeId vol;
  std::uint64_t logical;
};

struct FlexVolConfig {
  /// Virtual VBN space size in blocks; below 2^32-1 (PackedVbn).
  std::uint64_t vvbn_blocks = 0;
  /// Logical file (LUN) size in blocks; must be <= vvbn_blocks.
  std::uint64_t file_blocks = 0;
  /// AA size; the default matches one bitmap-metafile block (§3.2.1).
  std::uint32_t aa_blocks = kFlatAaBlocks;
  AaSelectPolicy policy = AaSelectPolicy::kCache;
};

class FlexVol {
 public:
  /// `rt` scopes the volume's metric handles; the owning Aggregate passes
  /// its own runtime, which must outlive the volume.
  FlexVol(VolumeId id, const FlexVolConfig& cfg, std::uint64_t rng_seed,
          const Runtime& rt = process_runtime());

  VolumeId id() const noexcept { return id_; }
  const FlexVolConfig& config() const noexcept { return cfg_; }
  std::uint64_t file_blocks() const noexcept { return cfg_.file_blocks; }

  // --- Logical file view ----------------------------------------------------
  bool is_mapped(std::uint64_t l) const {
    WAFL_ASSERT(l < cfg_.file_blocks);
    return block_map_[l] != kInvalidPackedVbn;
  }
  Vbn vvbn_of(std::uint64_t l) const {
    WAFL_ASSERT(l < cfg_.file_blocks);
    return widen(block_map_[l]);
  }
  Vbn pvbn_of(std::uint64_t l) const {
    const Vbn v = vvbn_of(l);
    return v == kInvalidVbn ? kInvalidVbn : widen(container_map_[v]);
  }
  /// Container-map lookup: physical location of a virtual block
  /// (kInvalidVbn if unmapped).
  Vbn pvbn_of_vvbn(Vbn vvbn) const {
    WAFL_ASSERT(vvbn < cfg_.vvbn_blocks);
    return widen(container_map_[vvbn]);
  }

  // --- CP-side allocation ---------------------------------------------------

  /// Allocates the next virtual VBN: sequential fill of the current AA,
  /// taking a fresh AA from the cache (or at random) when exhausted.
  /// Records pick quality into `stats`.  A run of one (take_vvbn_run).
  Vbn allocate_vvbn(CpStats& stats);

  /// Binds logical block l to (vvbn, pvbn), deferring the free of any
  /// previous mapping to the CP boundary.  `vvbn` must be allocated (by
  /// allocate_vvbn) and unmapped.  Returns the freed pvbn (for the
  /// aggregate to free) or kInvalidVbn if l was unmapped.
  Vbn remap(std::uint64_t l, Vbn vvbn, Vbn pvbn);

  /// The CP's per-volume phase over this volume's run of the dirty list:
  /// allocate_vvbn() + remap() for each block, in order, binding
  /// dirty[i].logical to (vvbns_out[i], pvbns[i]).  Appends each freed
  /// pvbn to `freed_pvbns` in block order.  Byte-identical to the
  /// per-block calls: it takes the vvbns a bitmap word at a time
  /// (take_vvbn_run), remapping each run before taking the next, and
  /// prefetches the block-map and container-map entries of blocks a few
  /// places ahead (DESIGN.md §17).
  void cp_remap(std::span<const DirtyBlock> dirty, std::span<const Vbn> pvbns,
                std::span<Vbn> vvbns_out, std::vector<Vbn>& freed_pvbns,
                CpStats& stats);

  /// Points an existing virtual block at a new physical location — the
  /// segment cleaner's operation (§3.3.1): physical relocation changes
  /// neither the logical file nor the virtual VBN.  Returns the old pvbn.
  Vbn relocate(Vbn vvbn, Vbn new_pvbn);

  // --- Snapshots (§1/§2.2: COW snapshots; their deletion is the "other
  // internal activity" whose bulk frees feed the delayed-free machinery
  // and §4.1.1's free-space non-uniformity) -----------------------------------

  /// Freezes the current logical image.  Blocks it references stay
  /// allocated across future overwrites until every holding snapshot is
  /// deleted.
  SnapId create_snapshot();

  /// Deletes a snapshot.  Blocks no longer referenced by the active file
  /// or any remaining snapshot become DELAYED frees: they are logged per
  /// AA-sized region (richest-region-first drain via the HBPS-backed
  /// DelayedFreeLog) and reclaimed incrementally by subsequent CPs.
  /// Must not run while a CP is draining this volume.
  void delete_snapshot(SnapId id);

  std::size_t snapshot_count() const noexcept { return snapshots_.size(); }

  /// The vvbn snapshot `id` holds for logical block l (kInvalidVbn if the
  /// block was unwritten at snapshot time).
  Vbn snapshot_vvbn_of(SnapId id, std::uint64_t l) const;

  /// Delayed frees logged but not yet reclaimed.
  std::uint64_t pending_delayed_frees() const noexcept {
    return delayed_.pending_total();
  }

  /// Reclaims up to `max_regions` richest regions of delayed frees:
  /// defers the vvbn frees to this CP and appends the matching physical
  /// blocks to `freed_pvbns` for the aggregate to free.  Returns blocks
  /// reclaimed.
  std::uint64_t process_delayed_frees(std::size_t max_regions,
                                      std::vector<Vbn>& freed_pvbns);

  /// Applies deferred frees, folds score deltas into the HBPS, re-admits
  /// retired AAs, flushes the bitmap metafile, and persists the TopAA
  /// blocks.  Adds this volume's contribution to `stats`.
  void finish_cp(CpStats& stats);

  // --- Mount (§3.4) ----------------------------------------------------------

  /// Seeds the cache from the TopAA metafile — the fast path that gates
  /// the first CP after mount.  Reads only the two TopAA blocks.  Returns
  /// false (after falling back to scan_rebuild) when the metafile is
  /// missing or damaged.
  bool mount_from_topaa();

  /// Restores the scoreboard by reading the bitmap metafile back from the
  /// store.  After a TopAA mount this runs in the background while the
  /// seeded cache already serves the allocator (§3.4).  Always serial:
  /// mount and recovery run it inside their per-volume fan-out
  /// (mount.cpp).
  void rebuild_scoreboard();

  /// Full (slow) rebuild: rebuild_scoreboard() plus a from-scratch cache
  /// build — the path taken when no TopAA metafile is usable.
  void scan_rebuild();

  // --- Introspection ---------------------------------------------------------
  const Activemap& activemap() const noexcept { return activemap_; }
  const AaScoreBoard& scoreboard() const noexcept { return board_; }
  const Hbps& cache() const { return selector_.hbps(); }
  const AaLayout& layout() const noexcept { return layout_; }
  BlockStore& store() noexcept { return store_; }
  std::uint64_t free_blocks() const noexcept {
    return activemap_.total_free();
  }
  /// The AA the allocator is currently filling, if any (test hook).
  std::optional<AaId> cursor_aa() const noexcept {
    const AaId aa = selector_.open_aa();
    return aa == kInvalidAaId ? std::nullopt : std::optional<AaId>(aa);
  }

 private:
  /// Resolves the vol="<id>" metric handles into the selector and the
  /// delayed-free log.
  void resolve_metrics();

  /// A run of vvbns taken together: bit i of `mask` is vvbn base + i.
  struct VvbnRun {
    Vbn base;
    std::uint64_t mask;
  };
  /// Takes the open AA's next run of free vvbns — at most `max`, all in
  /// one bitmap word and inside the AA — marks them allocated with one
  /// metafile and one scoreboard update, and advances the cursor past the
  /// last one.  Exactly what `popcount(mask)` allocate_vvbn() calls did
  /// one at a time, vol_bits_scanned and AA retirement included.
  VvbnRun take_vvbn_run(std::uint64_t max, CpStats& stats);

  /// Queues the free of `vvbn` for finish_cp().  The bit stays set until
  /// then, so the vvbn cannot be reused within this CP — WAFL's COW
  /// safety rule (a freed block's old contents must survive until the CP
  /// that frees it commits).
  void defer_free_vvbn(Vbn vvbn);

  const Runtime* rt_;
  VolumeId id_;
  FlexVolConfig cfg_;

  /// Backing store: bitmap metafile blocks, then two TopAA blocks.
  BlockStore store_;
  std::uint64_t topaa_base_;

  Activemap activemap_;
  /// vvbn frees deferred to finish_cp(), in deferral order.
  std::vector<Vbn> frees_;
  AaLayout layout_;
  AaScoreBoard board_;
  /// The open AA, the HBPS (§3.3.2), the retired list and the kRandom
  /// stream.
  AaSelector selector_;

  std::vector<PackedVbn> block_map_;      // logical -> vvbn
  std::vector<PackedVbn> container_map_;  // vvbn -> pvbn
  /// cp_remap()'s pipeline distance, in blocks.  Measured on the
  /// benchmark's ssd_overwrite (4-core x86 host, block and container maps
  /// of 4-5 MiB each): the volume slice costs 3.5 ms per 24k-block CP at
  /// distance 0, 2.2 ms at 2 and 1.9-2.1 ms from 4 to 32.  8 sits on that
  /// plateau with room for slower memory; a larger distance only holds
  /// more lines in flight.
  static constexpr std::size_t kRemapLookahead = 8;

  struct Snapshot {
    SnapId id;
    std::vector<PackedVbn> block_map;  // logical -> vvbn at freeze time
  };
  std::vector<Snapshot> snapshots_;
  SnapId next_snap_id_ = 1;
  /// vvbns referenced by at least one snapshot.
  Bitmap snap_held_;
  /// Bulk frees from snapshot deletion, reclaimed region by region.
  DelayedFreeLog delayed_;
};

}  // namespace wafl
