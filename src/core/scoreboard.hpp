// Per-AA free-space scores with CP-batched delta application (§3.3).
//
// "The free space of an AA is quantified by its AA score: it is the number
//  of free blocks in the AA ... AA score updates resulting from frees
//  (increments) and allocations (decrements) are delayed and performed
//  efficiently in batched fashion at the CP boundary."
//
// During a CP, note_alloc()/note_allocs()/note_free() accumulate per-AA
// deltas in O(1) without touching the caches.  apply_cp_deltas() folds the
// deltas into the scores in one pass and reports every (aa, old, new)
// change so the owning AA cache can rebalance (max-heap) or re-bin (HBPS)
// exactly once per CP.
//
// For flat layouts the score of an AA equals the free count of its single
// bitmap-metafile block, which WAFL's free-space accounting maintains
// anyway — that is why 32 Ki-VBN AAs make the scoreboard essentially free.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitmap/bitmap_metafile.hpp"
#include "core/aa_layout.hpp"
#include "util/types.hpp"

namespace wafl {

/// One score change produced by a CP boundary.
struct ScoreChange {
  AaId aa;
  AaScore old_score;
  AaScore new_score;
};

class AaScoreBoard {
 public:
  /// Initializes all scores to the AA capacities (an empty file system).
  explicit AaScoreBoard(const AaLayout& layout);

  /// Initializes scores by scanning `metafile` free counts — the per-AA
  /// scoring half of the §3.4 scan mount, run after the metafile is
  /// loaded.  `metafile` bit 0 of the scan region corresponds to
  /// layout.base().
  AaScoreBoard(const AaLayout& layout, const BitmapMetafile& metafile);

  const AaLayout& layout() const noexcept { return layout_; }

  AaScore score(AaId aa) const {
    WAFL_ASSERT(aa < scores_.size());
    return scores_[aa];
  }

  AaId aa_count() const noexcept {
    return static_cast<AaId>(scores_.size());
  }

  /// Records the allocation of `v` (score decrement), deferred to the CP.
  void note_alloc(Vbn v) { note_delta(layout_.aa_of(v), -1); }

  /// Records `n` allocations in the AA holding `v` — one delta for a
  /// run of allocations (a bitmap word's worth) that lies in one AA.
  void note_allocs(Vbn v, std::uint32_t n) {
    note_delta(layout_.aa_of(v), -static_cast<std::int32_t>(n));
  }

  /// Records the free of `v` (score increment), deferred to the CP.
  void note_free(Vbn v) { note_delta(layout_.aa_of(v), +1); }

  /// Pending (unapplied) delta for an AA — test hook.
  std::int32_t pending_delta(AaId aa) const {
    WAFL_ASSERT(aa < deltas_.size());
    return deltas_[aa];
  }

  /// Applies all pending deltas and returns the changes (valid until the
  /// next apply call).  Scores never move outside [0, aa_capacity].
  std::span<const ScoreChange> apply_cp_deltas();

  /// Recomputes one AA's score from the metafile (used by background
  /// scans / repair).  Any pending delta for the AA is discarded because
  /// the metafile is authoritative at scan time.
  void rescan(AaId aa, const BitmapMetafile& metafile);

  /// Sum of all scores == total free blocks tracked.
  std::uint64_t total_free() const noexcept;

 private:
  void note_delta(AaId aa, std::int32_t d);

  AaLayout layout_;
  std::vector<AaScore> scores_;
  std::vector<std::int32_t> deltas_;
  std::vector<AaId> dirty_;
  std::vector<bool> dirty_flag_;
  std::vector<ScoreChange> changes_;
};

}  // namespace wafl
