// Consistency point: WAFL's atomic flush of a batch of modifications
// (§2.1).
//
// The CP is where every paper mechanism meets:
//   - each dirty logical block gets BOTH a new virtual VBN (FlexVol,
//     HBPS-guided, §3.3.2) and a new physical VBN (aggregate, max-heap-
//     guided tetris fill, §3.3.1);
//   - the overwritten blocks' old VBNs are freed in one batch at the CP
//     boundary, producing the score deltas that rebalance the caches;
//   - the physical writes stream to the device models as tetrises, which
//     yields stripe/chain/FTL behaviour;
//   - bitmap metafiles are flushed (their dirty-block counts are the
//     colocation cost §2.5 cares about) and TopAA metafiles are persisted
//     (§3.4).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "wafl/aggregate.hpp"
#include "wafl/cp_stats.hpp"

namespace wafl {

class ThreadPool;

class ConsistencyPoint {
 public:
  /// Delayed-free regions reclaimed per volume per CP (bounds the extra
  /// metafile-block traffic a snapshot deletion adds to any one CP).
  static constexpr std::size_t kDelayedFreeRegionsPerCp = 4;

  /// The frozen generation: the CP's input, captured by freeze() and
  /// consumed by drain().  Holds the dirty list grouped by volume
  /// (group_by_volume — per-volume submission order preserved, which is
  /// what makes the overlapped driver byte-identical to stop-the-world).
  struct Frozen {
    std::vector<DirtyBlock> dirty;
    std::uint32_t cp_no = 0;
    std::uint64_t start_ns = 0;
    /// freeze()'s sort-phase time; drain() records it with the other
    /// phase histograms.
    std::uint64_t sort_ns = 0;
  };

  /// Groups `dirty` by volume id, each volume's blocks kept in their
  /// order — what a stable sort by `vol` gives, in
  /// O(dirty + volume_count).  Every block's `vol` must be below
  /// `volume_count`.
  static void group_by_volume(std::vector<DirtyBlock>& dirty,
                              std::size_t volume_count);

  /// CP start (DESIGN.md §13): begins the aggregate's CP interval and
  /// takes the dirty list, grouped by volume.  Cheap (no media I/O,
  /// O(dirty + volumes)); the returned snapshot is bit-identical to what
  /// the pre-split run() operated on, which the determinism oracle
  /// checks.  Delayed frees need no swap: snapshot deletion logs them
  /// only while no drain is in flight.  Crash hook `cp.in_gen_swap` fires
  /// right after begin_cp(), before anything touches media.
  static Frozen freeze(Aggregate& agg, std::vector<DirtyBlock> dirty);

  /// The phased CP work over a frozen generation: physical allocation,
  /// per-volume remap, delayed-free reclaim, and the boundary.  Under the
  /// OverlappedCpDriver this runs on a drain executor while intake fills
  /// the next active generation; it is the ONLY mutator of the aggregate
  /// while in flight.  Fan-out rides the aggregate runtime's pool.
  static CpStats drain(Aggregate& agg, Frozen&& frozen);

  /// Runs one stop-the-world CP over `dirty` (already coalesced: at most
  /// one entry per (vol, logical) pair): freeze() + drain() back to back.
  /// Returns the CP's counters; `ops` is left 0 for the caller to fill
  /// (the CP does not know how blocks group into client operations).
  ///
  /// With a thread pool in the aggregate's runtime, every substantial CP
  /// phase now shards — the
  /// direction of the paper's companion work, "Scalable Write Allocation
  /// in the WAFL File System" [10].  The per-volume phase (virtual VBN
  /// allocation and remapping) runs in parallel across volumes, which own
  /// disjoint state.  Physical allocation runs as a plan/execute split: a
  /// cheap serial plan partitions demand across RAID groups (round-robin
  /// rotation + §3.3.1 skip bias, from CP-start information only), the
  /// group-disjoint tetris fills execute in parallel, and a serial merge
  /// folds the staged summary deltas and stats.  The CP boundary's
  /// per-RAID-group half (free application, device invalidation, score
  /// folds, cache re-admission, TopAA image builds), the metafile flush
  /// (per dirty block) and the TopAA commits (per group slot) fan out via
  /// WriteAllocator::finish_cp; only the shared summary merges and stats
  /// folds remain serial.  The result is bit-identical to the serial path
  /// at any worker count.
  static CpStats run(Aggregate& agg, std::span<const DirtyBlock> dirty);
};

}  // namespace wafl
