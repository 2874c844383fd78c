// Bitmap metafile: the persistent free-space bitmap, structured as 4 KiB
// blocks of 32 Ki bits each (§2.5, §3.2.1).
//
// Beyond the raw bits, this class maintains exactly the bookkeeping the
// paper's machinery depends on:
//
//  - a per-metafile-block summary of free (clear) bits, which is what makes
//    a flat 32 Ki-VBN allocation area's score available in O(1) — the AA
//    boundary coincides with the metafile-block boundary by design;
//  - a dirty-block set for the current consistency point, so the CP can
//    flush only modified metafile blocks and so the CPU cost model can
//    charge per *distinct metafile block touched* (§2.5: colocating
//    allocations minimizes the number of metafile blocks consulted and
//    updated);
//  - flush/load against a BlockStore, which is how mount-time rebuild cost
//    (a linear walk of the bitmap metafiles, §3.4) is accounted.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitmap/bitmap.hpp"
#include "storage/block_store.hpp"
#include "util/atomic_bitmap.hpp"
#include "util/mpsc_log.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace wafl {

class ThreadPool;

class BitmapMetafile {
 public:
  /// A metafile tracking `nbits` VBNs.  If `store` is non-null, flush()
  /// persists dirty blocks to it starting at `store_base_block`.
  BitmapMetafile(std::uint64_t nbits, BlockStore* store = nullptr,
                 std::uint64_t store_base_block = 0);

  std::uint64_t size_bits() const noexcept { return bits_.size(); }
  std::uint64_t metafile_blocks() const noexcept {
    return free_per_block_.size();
  }

  bool test(Vbn v) const noexcept { return bits_.test(v); }

  /// Marks VBN allocated.  Asserts the bit was free — a double allocation
  /// is a file-system bug, never a recoverable condition.
  void set_allocated(Vbn v);

  /// Marks VBN free.  Asserts the bit was allocated.
  void set_free(Vbn v);

  /// Clears the bit for `v` WITHOUT updating the free-count summary or
  /// the dirty set; the caller must pass the same VBNs to account_frees()
  /// before the next query or flush.  The CP boundary does not call this
  /// pair: it uses clear_frees_batched()/apply_free_deltas().  The pair is
  /// the per-bit reference path the batched fuzz test compares against.
  /// Same word-disjointness contract as the batched path: bit clears for
  /// VBNs in disjoint 64-bit words may run concurrently while the shared
  /// summary stays serial.  Asserts the bit was allocated.
  void clear_unaccounted(Vbn v) {
    WAFL_ASSERT_MSG(bits_.test(v), "freeing a free block");
    bits_.clear(v);
  }

  /// Serial companion to clear_unaccounted(): folds already-cleared VBNs
  /// into the per-block free counts, the total, and the dirty set.  The
  /// per-bit reference path; the CP boundary never calls it, and
  /// BatchedFreesMatchPerBitFuzz holds the batched pair below equal to
  /// it.
  void account_frees(std::span<const Vbn> freed);

  /// Allocation mirror of clear_unaccounted(): sets the bit for `v`
  /// WITHOUT updating the free-count summary or the dirty set; the caller
  /// must fold the same VBNs in via apply_alloc_deltas() before the next
  /// summary query or flush.  Same word-disjointness contract as the free
  /// side: concurrent callers are safe when their VBNs never share a
  /// 64-bit word, which per-RAID-group ownership guarantees.  Asserts the
  /// bit was free.
  void set_allocated_unaccounted(Vbn v) {
    WAFL_ASSERT_MSG(!bits_.test(v), "allocating an allocated block");
    bits_.set(v);
  }

  /// Per-metafile-block allocated counts staged by a set_allocated_
  /// unaccounted() caller, for the serial summary merge in
  /// apply_alloc_deltas().
  struct AllocDelta {
    /// (metafile block, allocated count), ascending by block.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> per_block;
  };

  /// Serial companion to set_allocated_unaccounted(): folds a staged
  /// allocation delta into the per-block free counts, the total, and the
  /// dirty set.  Equivalent to having called set_allocated() per VBN.
  void apply_alloc_deltas(const AllocDelta& d);

  /// Per-metafile-block freed counts produced by clear_frees_batched(),
  /// for the serial summary merge in apply_free_deltas().
  struct FreeDelta {
    /// (metafile block, freed count), ascending by block.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> per_block;
  };

  /// Batched companion to clear_unaccounted(): clears the bits of `frees`
  /// (any order, no duplicates, all currently set — a free of a free
  /// block, duplicates included, aborts on "freeing a free block") and
  /// returns the per-block freed counts (ascending by block) for
  /// apply_free_deltas().  Each free clears its bit and bumps a counter
  /// for its metafile block; the counters span only the blocks between
  /// the lowest and highest free, so the cost is O(frees + blocks
  /// spanned), not O(bitmap words spanned), and a CP's deferral-order
  /// free list feeds straight in without a sort.  Touches only the bit
  /// words `frees` covers: concurrent calls are safe when the callers'
  /// VBNs live in disjoint words, which the per-RAID-group CP boundary
  /// guarantees (group ranges are multiples of kTetrisStripes, so they
  /// never share a word).
  FreeDelta clear_frees_batched(std::span<const Vbn> frees);

  /// Serial companion: folds a clear_frees_batched() delta into the
  /// per-block free counts, the total, and the dirty set.  Equivalent to
  /// account_frees() over the same VBNs.
  void apply_free_deltas(const FreeDelta& d);

  /// Free (clear) bits in [begin, end); interior whole metafile blocks
  /// are answered from the summary, only the two partial edge blocks (if
  /// any) by popcount — O(blocks) whatever the alignment.
  std::uint64_t free_in_range(Vbn begin, Vbn end) const;

  /// free_in_range() while set_allocated_unaccounted() allocations are
  /// staged: the live bits already reflect them but the summary does not,
  /// so partial edge blocks (answered by popcount) are correct as-is and
  /// interior whole blocks subtract the caller's staged-count overlay.
  /// `staged[b - staged_base]` is the number of staged (bit-set,
  /// unaccounted) allocations in metafile block `b`; blocks outside the
  /// overlay are assumed to have none.
  std::uint64_t free_in_range_staged(Vbn begin, Vbn end,
                                     std::span<const std::uint32_t> staged,
                                     std::uint64_t staged_base) const;

  /// Free bits within metafile block `b` — the O(1) summary lookup.
  std::uint32_t block_free_count(std::uint64_t b) const {
    WAFL_ASSERT(b < free_per_block_.size());
    return free_per_block_[b];
  }

  std::uint64_t total_free() const noexcept { return total_free_; }

  /// First free VBN at or after `begin`, below `end`; `end` if none.
  Vbn find_free(Vbn begin, Vbn end) const {
    return bits_.find_first_clear(begin, end);
  }

  const Bitmap& bits() const noexcept { return bits_; }

  // --- Consistency-point bookkeeping -------------------------------------

  /// Distinct metafile blocks modified since the last begin_cp().
  std::uint64_t dirty_blocks() const noexcept { return dirty_list_.size(); }

  /// The dirty set itself (distinct blocks, dirtying order), for a
  /// caller-partitioned parallel flush: partition this list, flush_block()
  /// each entry exactly once, then begin_cp().  Invalidated by any
  /// mutation of the metafile.
  std::span<const std::uint64_t> dirty_list() const noexcept {
    return dirty_list_;
  }

  /// Starts a fresh CP interval: clears the dirty set (without flushing).
  void begin_cp();

  // --- Generation split (overlapped CPs, DESIGN.md §13) -------------------

  /// Records that `block` was modified by *intake* — the active
  /// generation — without entering it into the main (frozen) dirty set
  /// an in-flight CP may be partitioning for flush.  Idempotent per
  /// generation, and thread-safe: concurrent intake threads race a CAS
  /// word claim and exactly one appends the block to the staging list
  /// (DESIGN.md §14).
  void mark_dirty_intake(std::uint64_t block);

  /// Blocks dirtied by intake and not yet folded by
  /// freeze_dirty_generation().
  std::uint64_t intake_dirty_blocks() const noexcept {
    return intake_list_.size();
  }

  /// Generation swap at CP freeze: folds the intake dirty set into the
  /// main dirty set (dirtying order preserved, duplicates collapse) and
  /// leaves the intake set empty.  Returns the number of blocks folded.
  /// Requires intake quiesced (same contract as the rest of the freeze).
  std::uint64_t freeze_dirty_generation();

  /// Writes every dirty metafile block to the backing store (if any) and
  /// clears the dirty set.  Returns the number of blocks written.
  std::uint64_t flush();

  /// Serializes and writes one metafile block to the backing store
  /// without touching the dirty set.  Reads only immutable-during-flush
  /// state, so distinct blocks may flush concurrently (each store block
  /// has exactly one writer — the single-writer-per-slot contract).
  void flush_block(std::uint64_t b) const;

  // --- Mount-time load ----------------------------------------------------

  /// Reads every metafile block from the backing store, rebuilding bits and
  /// summary.  This is the "linear walk of the bitmap metafiles" mount path
  /// (§3.4).  Each block is one word-level copy plus a popcount; with a
  /// pool the whole walk (read + copy + recount) fans out per block, which
  /// the concurrent-safe BlockStore makes sound.  Per-AA scoring
  /// (AaScoreBoard's metafile constructor) runs after it returns.
  void load_all(ThreadPool* pool = nullptr);

  /// Extends the tracked VBN space (RAID-group growth, §3.1).  New bits
  /// are free; new metafile blocks start clean.
  void grow(std::uint64_t new_nbits);

 private:
  /// One step of load_all(): reads metafile block `b` from the backing
  /// store, installing its bit words and per-block free summary.  Blocks
  /// touch disjoint word ranges (kBitsPerBitmapBlock is a multiple of
  /// 64) and the store allows disjoint-slot concurrent reads, so
  /// distinct blocks may load concurrently.
  void load_block(std::uint64_t b);

  /// Serial epilogue to load_all()'s walk: recomputes the free total from
  /// the per-block summaries and starts a fresh CP interval.
  void finish_load();

  void mark_dirty(std::uint64_t block);
  void serialize_block(std::uint64_t block,
                       std::span<std::byte> out) const;

  Bitmap bits_;
  std::vector<std::uint32_t> free_per_block_;
  std::uint64_t total_free_;

  std::vector<bool> dirty_flag_;
  std::vector<std::uint64_t> dirty_list_;
  /// Intake staging: one claim bit per metafile block (CAS-claimed, so
  /// racing intake threads dedupe without a lock) plus the claim winners
  /// in claim order.
  AtomicClaimBitmap intake_claims_;
  MpscLog<std::uint64_t> intake_list_;

  BlockStore* store_;
  std::uint64_t store_base_;
};

}  // namespace wafl
