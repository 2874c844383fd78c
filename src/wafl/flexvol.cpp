#include "wafl/flexvol.hpp"

#include <algorithm>
#include <bit>

#include "obs/obs.hpp"
#include "wafl/mount.hpp"

namespace wafl {
namespace {

std::uint64_t bitmap_blocks_for(std::uint64_t nbits) {
  return (nbits + kBitsPerBitmapBlock - 1) / kBitsPerBitmapBlock;
}

/// `cfg`, after checking it before anything is sized from it: the maps
/// hold 32-bit entries, so every vvbn must fit below the sentinel.
const FlexVolConfig& checked(const FlexVolConfig& cfg) {
  WAFL_ASSERT(cfg.vvbn_blocks > 0);
  WAFL_ASSERT_MSG(cfg.vvbn_blocks < kInvalidPackedVbn,
                  "volume exceeds the 32-bit vvbn space");
  WAFL_ASSERT(cfg.file_blocks <= cfg.vvbn_blocks);
  return cfg;
}

}  // namespace

FlexVol::FlexVol(VolumeId id, const FlexVolConfig& cfg, std::uint64_t rng_seed,
                 const Runtime& rt)
    : rt_(&rt),
      id_(id),
      cfg_(checked(cfg)),
      store_(bitmap_blocks_for(cfg.vvbn_blocks) +
             TopAaFile::kRaidAgnosticBlocks),
      topaa_base_(bitmap_blocks_for(cfg.vvbn_blocks)),
      activemap_(cfg.vvbn_blocks, &store_, 0),
      layout_(AaLayout::flat(0, cfg.vvbn_blocks, cfg.aa_blocks)),
      board_(layout_),
      selector_(layout_, board_, AaCacheKind::kHbps, cfg.policy, rng_seed),
      block_map_(cfg.file_blocks, kInvalidPackedVbn),
      container_map_(cfg.vvbn_blocks, kInvalidPackedVbn),
      snap_held_(cfg.vvbn_blocks),
      delayed_(cfg.vvbn_blocks, cfg.aa_blocks) {
  resolve_metrics();
}

void FlexVol::resolve_metrics() {
  WAFL_OBS({
    obs::Registry& reg = rt_->registry();
    const std::string vol =
        rt_->labels("vol=\"" + std::to_string(id_) + "\"");
    AaSelector::Metrics m;
    m.checkouts = &reg.counter("wafl.vol.aa_checkouts", vol);
    m.checkout_free_frac = &reg.linear_histogram(
        "wafl.vol.aa_checkout_free_frac", 0.0, 1.0, 64, vol);
    m.putbacks = &reg.counter("wafl.vol.aa_putbacks", vol);
    m.scoreboard_changed = &reg.counter("wafl.scoreboard.cp_changed_aas", vol);
    m.hbps_replenishes = &reg.counter("wafl.hbps.replenishes", vol);
    // Aggregate-wide (vol-unlabelled): the HBPS structures tick this
    // directly; every volume in a runtime shares the handle.
    m.hbps_rebins = &reg.counter("wafl.hbps.rebins", rt_->labels());
    selector_.bind_metrics(m);
    delayed_.bind_rebin_counter(m.hbps_rebins);
  });
}

FlexVol::VvbnRun FlexVol::take_vvbn_run(std::uint64_t max,
                                        CpStats& stats) {
  WAFL_ASSERT(max > 0);
  BitmapMetafile& map = activemap_.metafile();
  auto live_free = [&](AaId aa) {
    return map.free_in_range(layout_.aa_begin(aa), layout_.aa_end(aa));
  };
  for (;;) {
    const bool ok = selector_.ensure(live_free, stats.vol_pick_free_frac,
                                     &stats.hbps_replenishes);
    WAFL_ASSERT_MSG(ok, "FlexVol out of space");
    const Vbn pos = selector_.pos();
    const Vbn end = layout_.aa_end(selector_.open_aa());
    const Vbn v = map.find_free(pos, end);
    if (v == end) {
      stats.vol_bits_scanned += end - pos;
      selector_.retire();
      continue;
    }
    // The free bits of v's word from v on, clipped to the AA, lowest
    // `max` of them.
    const std::uint64_t word = v / 64;
    const Vbn word_base = word * 64;
    std::uint64_t free = ~map.bits().word(word) &
                         (~std::uint64_t{0} << (v - word_base));
    if (end - word_base < 64) {
      free &= (std::uint64_t{1} << (end - word_base)) - 1;
    }
    std::uint64_t take = 0;
    for (std::uint64_t n = 0; free != 0 && n < max; free &= free - 1, ++n) {
      take |= free & -free;
    }
    const Vbn next = word_base + 64 - static_cast<Vbn>(std::countl_zero(take));
    stats.vol_bits_scanned += next - pos;
    selector_.set_pos(next);
    map.set_allocated_word(word, take);
    board_.note_allocs(v, static_cast<std::uint32_t>(std::popcount(take)));
    if (next == end) selector_.retire();
    return {word_base, take};
  }
}

Vbn FlexVol::allocate_vvbn(CpStats& stats) {
  const VvbnRun run = take_vvbn_run(1, stats);
  return run.base + static_cast<Vbn>(std::countr_zero(run.mask));
}

void FlexVol::cp_remap(std::span<const DirtyBlock> dirty,
                       std::span<const Vbn> pvbns, std::span<Vbn> vvbns_out,
                       std::vector<Vbn>& freed_pvbns, CpStats& stats) {
  WAFL_ASSERT(pvbns.size() == dirty.size());
  WAFL_ASSERT(vvbns_out.size() == dirty.size());
  // vvbns come in runs of up to 64 (one bitmap word of the open AA), and
  // each run is remapped before the next is taken, so the metafile's and
  // scoreboard's first-touch order is the per-block order.
  //
  // Two-stage software pipeline over the dependent loads of remap():
  // block i+2d's block-map entry is prefetched, block i+d's is read (it
  // arrived during the last d blocks) and its old vvbn's container-map
  // entry prefetched, and block i is processed with both entries in
  // cache.  The prefetches only warm the cache; remap() re-reads
  // everything, so the result does not depend on the distance.
  const std::size_t n = dirty.size();
  std::size_t i = 0;
  while (i < n) {
    const VvbnRun run = take_vvbn_run(n - i, stats);
    for (std::uint64_t m = run.mask; m != 0; m &= m - 1, ++i) {
      if (i + 2 * kRemapLookahead < n) {
        // Address arithmetic only; a prefetch never faults.  The read
        // stage below checks the index.
        __builtin_prefetch(
            block_map_.data() + dirty[i + 2 * kRemapLookahead].logical, 1);
      }
      if (i + kRemapLookahead < n) {
        const std::uint64_t l = dirty[i + kRemapLookahead].logical;
        WAFL_ASSERT(l < cfg_.file_blocks);
        const PackedVbn old_vvbn = block_map_[l];
        if (old_vvbn != kInvalidPackedVbn) {
          __builtin_prefetch(&container_map_[old_vvbn], 1);
        }
      }
      const Vbn vvbn = run.base + static_cast<Vbn>(std::countr_zero(m));
      vvbns_out[i] = vvbn;
      const Vbn freed_pvbn = remap(dirty[i].logical, vvbn, pvbns[i]);
      if (freed_pvbn != kInvalidVbn) freed_pvbns.push_back(freed_pvbn);
    }
  }
}

Vbn FlexVol::remap(std::uint64_t l, Vbn vvbn, Vbn pvbn) {
  WAFL_ASSERT(l < cfg_.file_blocks);
  WAFL_ASSERT_MSG(activemap_.is_allocated(vvbn),
                  "remapping to an unallocated vvbn");
  WAFL_ASSERT(container_map_[vvbn] == kInvalidPackedVbn);
  Vbn freed_pvbn = kInvalidVbn;
  const PackedVbn old_vvbn = block_map_[l];
  if (old_vvbn != kInvalidPackedVbn && !snap_held_.test(old_vvbn)) {
    freed_pvbn = widen(container_map_[old_vvbn]);
    container_map_[old_vvbn] = kInvalidPackedVbn;
    defer_free_vvbn(old_vvbn);
  }
  // A snapshot-held old block stays allocated and mapped; it is reclaimed
  // (as a delayed free) when its last holding snapshot is deleted.
  block_map_[l] = narrow(vvbn);
  container_map_[vvbn] = narrow(pvbn);
  return freed_pvbn;
}

Vbn FlexVol::relocate(Vbn vvbn, Vbn new_pvbn) {
  WAFL_ASSERT(vvbn < cfg_.vvbn_blocks);
  WAFL_ASSERT_MSG(container_map_[vvbn] != kInvalidPackedVbn,
                  "relocating an unmapped vvbn");
  const Vbn old_pvbn = container_map_[vvbn];
  container_map_[vvbn] = narrow(new_pvbn);
  return old_pvbn;
}

SnapId FlexVol::create_snapshot() {
  Snapshot snap;
  snap.id = next_snap_id_++;
  snap.block_map = block_map_;
  for (const PackedVbn v : snap.block_map) {
    if (v != kInvalidPackedVbn) {
      snap_held_.set(v);
    }
  }
  snapshots_.push_back(std::move(snap));
  return snapshots_.back().id;
}

Vbn FlexVol::snapshot_vvbn_of(SnapId id, std::uint64_t l) const {
  WAFL_ASSERT(l < cfg_.file_blocks);
  for (const Snapshot& snap : snapshots_) {
    if (snap.id == id) return widen(snap.block_map[l]);
  }
  WAFL_ASSERT_MSG(false, "no such snapshot");
  return kInvalidVbn;
}

void FlexVol::delete_snapshot(SnapId id) {
  const auto it = std::find_if(
      snapshots_.begin(), snapshots_.end(),
      [id](const Snapshot& snap) { return snap.id == id; });
  WAFL_ASSERT_MSG(it != snapshots_.end(), "no such snapshot");
  const Snapshot deleted = std::move(*it);
  snapshots_.erase(it);

  // Still-held = union of the remaining snapshots' references.
  Bitmap still_held(cfg_.vvbn_blocks);
  for (const Snapshot& snap : snapshots_) {
    for (const PackedVbn v : snap.block_map) {
      if (v != kInvalidPackedVbn) still_held.set(v);
    }
  }
  // Active = the live file's current references.
  Bitmap active(cfg_.vvbn_blocks);
  for (const PackedVbn v : block_map_) {
    if (v != kInvalidPackedVbn) active.set(v);
  }

  // Blocks only the deleted snapshot referenced become delayed frees —
  // logged per region and reclaimed richest-region-first (§3.3.2's
  // delayed-free use of the HBPS), not freed in one giant burst.
  for (const PackedVbn v : deleted.block_map) {
    if (v == kInvalidPackedVbn || !snap_held_.test(v)) continue;
    if (still_held.test(v)) continue;
    snap_held_.clear(v);
    // No CP is draining this volume, so the next CP is the first to see
    // these.
    if (!active.test(v)) delayed_.log_free(v);
  }
}

void FlexVol::defer_free_vvbn(Vbn vvbn) {
  WAFL_ASSERT_MSG(activemap_.is_allocated(vvbn),
                  "deferring free of a free block");
  frees_.push_back(vvbn);
  board_.note_free(vvbn);
}

std::uint64_t FlexVol::process_delayed_frees(std::size_t max_regions,
                                             std::vector<Vbn>& freed_pvbns) {
  std::uint64_t reclaimed = 0;
  for (std::size_t i = 0; i < max_regions; ++i) {
    const auto drain = delayed_.drain_richest();
    if (!drain.has_value()) break;
    for (const Vbn vvbn : drain->vbns) {
      const PackedVbn pvbn = container_map_[vvbn];
      WAFL_ASSERT(pvbn != kInvalidPackedVbn);
      container_map_[vvbn] = kInvalidPackedVbn;
      defer_free_vvbn(vvbn);
      freed_pvbns.push_back(pvbn);
      ++reclaimed;
    }
  }
  return reclaimed;
}

void FlexVol::finish_cp(CpStats& stats) {
  // A volume untouched by this CP has nothing to apply, flush, or persist.
  if (activemap_.metafile().dirty_blocks() == 0 && frees_.empty() &&
      !selector_.has_retired()) {
    return;
  }

  // Frees are counted once, at the aggregate (vvbn and pvbn frees are 1:1
  // for overwrites).
  for (const Vbn vvbn : frees_) activemap_.free(vvbn);
  frees_.clear();

  selector_.apply_cp();
  if (selector_.replenish()) ++stats.hbps_replenishes;

  stats.vol_meta_blocks += activemap_.metafile().dirty_blocks();
  const std::uint64_t flushed = activemap_.metafile().flush();
  stats.meta_flush_blocks += flushed;

  if (const auto image = selector_.encode_topaa()) {
    TopAaFile(store_, topaa_base_).commit(*image);
    stats.meta_flush_blocks += image->nblocks;
  }
}

bool FlexVol::mount_from_topaa() {
  TopAaFile topaa(store_, topaa_base_);
  if (selector_.load_topaa(topaa)) return true;
  scan_rebuild();
  return false;
}

void FlexVol::rebuild_scoreboard() {
  // Linear walk of the bitmap metafile (§3.4): read every block back from
  // the store, then recompute per-AA scores.  Serial: volume scans fan
  // out one level up, across volumes (mount.cpp).
  ScanProfile& prof = scan_profile();
  ScanProfile::timed(prof.read_ns,
                     [&] { activemap_.metafile().load_all(nullptr); });
  ScanProfile::timed(prof.seed_ns, [&] {
    board_ = AaScoreBoard(layout_, activemap_.metafile());
  });
}

void FlexVol::scan_rebuild() {
  rebuild_scoreboard();
  ScanProfile::timed(scan_profile().build_ns, [&] { selector_.rebuild(); });
}

}  // namespace wafl
