// AaSelector: the allocator's AA search loop, once for both block-number
// spaces (§3.3).
//
// A RAID group's or object-store pool's pvbns and a FlexVol's vvbns are
// searched the same way: keep one AA open, fill it, retire it when it runs
// out, and open the next best AA from the cache — the §3.3.1 max-heap for
// RAID groups, the §3.3.2 HBPS for flat AAs (FlexVols, object-store
// pools).  Under kRandom (§4.1's disabled-cache baseline, Figure 6) random
// probes replace the cache.
//
// The selector owns the cache, the open AA and its fill position, the
// retired list (AAs taken this CP, out until the boundary re-scores them),
// the kRandom stream, the segment cleaner's checked-out AA and the pick
// counters.  The owner keeps the layout, the scoreboard and the bitmap,
// and says how many blocks an AA has free right now (ensure()'s
// `live_free`).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/aa_layout.hpp"
#include "core/hbps.hpp"
#include "core/max_heap_cache.hpp"
#include "core/scoreboard.hpp"
#include "core/topaa.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace wafl {

/// How the allocator chooses the next AA (§4.1's comparison):
///   - kCache:  take the emptiest AA from the cache (max-heap or HBPS);
///   - kRandom: probe random AAs for one with free blocks — the disabled-
///     cache baseline of Figure 6.
enum class AaSelectPolicy {
  kCache,
  kRandom,
};

/// The cache form, chosen by the owner from its media (§3.3).
enum class AaCacheKind {
  kMaxHeap,  // RAID groups: exact best over every AA (§3.3.1)
  kHbps,     // flat AAs: bounded-memory partial sort (§3.3.2)
};

class AaSelector {
 public:
  /// Owner-resolved metric handles; null ones go uncounted.
  struct Metrics {
    obs::Counter* checkouts = nullptr;
    obs::LinearHistogram* checkout_free_frac = nullptr;
    obs::Counter* putbacks = nullptr;
    obs::Counter* cp_rekeys = nullptr;
    obs::Counter* scoreboard_changed = nullptr;
    obs::Counter* hbps_replenishes = nullptr;
    /// Bound into the cache: heap re-keys or HBPS re-bins.
    obs::Counter* heap_rekeys = nullptr;
    obs::Counter* hbps_rebins = nullptr;
  };

  /// `layout` and `board` must outlive the selector; the owner may
  /// reassign `board` in place.  Under kCache the cache is built from
  /// `board` at once.  `rng_seed` seeds the kRandom probes.
  AaSelector(const AaLayout& layout, AaScoreBoard& board, AaCacheKind kind,
             AaSelectPolicy policy, std::uint64_t rng_seed);

  /// Binds the counters, the cache's own included (kept across cache
  /// replacements).
  void bind_metrics(const Metrics& m);

  AaSelectPolicy policy() const noexcept { return policy_; }
  bool has_hbps() const noexcept { return hbps_.has_value(); }
  const AaCache& cache() const noexcept;
  /// The max-heap; asserts on HBPS spaces.
  const MaxHeapAaCache& heap() const;
  /// The HBPS; asserts on heap spaces.
  const Hbps& hbps() const;

  // --- The open AA --------------------------------------------------------
  /// The AA being filled, or kInvalidAaId.
  AaId open_aa() const noexcept { return open_; }
  /// Next VBN to examine in the open AA (absolute).
  Vbn pos() const noexcept { return pos_; }
  void set_pos(Vbn v) noexcept { pos_ = v; }
  /// True while AAs taken this CP wait for the boundary to re-admit them.
  bool has_retired() const noexcept { return !retired_.empty(); }

  /// Ensures an AA is open; false when no AA has a free block.  Returns at
  /// once when one is open (the per-block path).  Otherwise picks: under
  /// kCache the best cached AA, replenishing a dry HBPS first and retiring
  /// stale entries; under kRandom 64 random probes, then a linear sweep.
  /// Scores only change at CP boundaries, so each pick is checked against
  /// `live_free(aa)`, which counts this CP's allocations too.  The pick's
  /// free fraction goes to `pick_free_frac`, replenishes to `*replenishes`
  /// when non-null.
  template <typename LiveFree>
  bool ensure(const LiveFree& live_free, RunningStat& pick_free_frac,
              std::uint64_t* replenishes) {
    if (open_ != kInvalidAaId) return true;
    return open_next(live_free, pick_free_frac, replenishes);
  }

  /// Closes the open AA; under kCache it is retired until the boundary.
  void retire() noexcept {
    if (policy_ == AaSelectPolicy::kCache) retired_.push_back(open_);
    open_ = kInvalidAaId;
  }

  /// §3.3.2's background scan: rebuilds a drained HBPS from the board
  /// (kCache only).  True when it ran.
  bool replenish();

  /// Best cached score — the §3.3.1 fragmentation indicator.
  std::optional<AaScore> peek_best_score() const {
    return cache().peek_best_score();
  }

  // --- CP boundary and persistence (§3.4) ---------------------------------
  /// Folds the board's CP deltas (§3.3's rebalance) into the cache and
  /// re-admits the retired AAs at their new scores.
  void apply_cp();

  /// The TopAA image of the cache, including the open AA — open AAs do not
  /// survive a failover.  nullopt under kRandom, which persists nothing.
  std::optional<TopAaImage> encode_topaa() const;

  /// Closes the open AA, drops the retired list and seeds the cache from
  /// `file`; false (cache unchanged) when the image is damaged or missing.
  bool load_topaa(TopAaFile& file);

  /// Closes the open AA, drops the retired list and, under kCache, builds
  /// a fresh cache from the board.  A fresh HBPS matters: the old one would
  /// still mark the AAs taken before the rebuild as checked out and leave
  /// them untracked for good.
  void rebuild();

  // --- Segment cleaner (§3.3.1) -------------------------------------------
  /// Takes `aa` out of the heap while the cleaner relocates its blocks.
  /// One AA is out at a time: false when `aa` is already out (the open
  /// AA), another AA is checked out, or the space has no heap.
  bool checkout(AaId aa);
  /// Returns the checked-out AA to the cache at its current board score.
  void checkin(AaId aa);
  /// The cleaner's checked-out AA, or kInvalidAaId.
  AaId checked_out() const noexcept { return checked_out_; }

 private:
  AaCache& cache_mut() noexcept;

  template <typename LiveFree>
  bool open_next(const LiveFree& live_free, RunningStat& pick_free_frac,
                 std::uint64_t* replenishes);

  const AaLayout& layout_;
  AaScoreBoard& board_;
  AaSelectPolicy policy_;
  /// Exactly one is set.
  std::optional<MaxHeapAaCache> heap_;
  std::optional<Hbps> hbps_;
  Rng rng_;  // kRandom probes
  AaId open_ = kInvalidAaId;
  Vbn pos_ = 0;
  AaId checked_out_ = kInvalidAaId;
  std::vector<AaId> retired_;
  Metrics metrics_{};
};

template <typename LiveFree>
bool AaSelector::open_next(const LiveFree& live_free,
                           RunningStat& pick_free_frac,
                           std::uint64_t* replenishes) {
  int random_attempts = 0;
  for (;;) {
    AaId aa = kInvalidAaId;
    if (policy_ == AaSelectPolicy::kCache) {
      if (replenish() && replenishes != nullptr) ++*replenishes;
      const auto pick = cache_mut().take_best();
      if (!pick.has_value()) return false;
      aa = pick->aa;
      if (live_free(aa) == 0) {
        // Stale entry (consumed this CP, or full behind coarse HBPS bins):
        // keep it out until the boundary re-scores it.
        retired_.push_back(aa);
        continue;
      }
    } else if (random_attempts++ < 64) {
      aa = static_cast<AaId>(rng_.below(layout_.aa_count()));
      if (live_free(aa) == 0) continue;
    } else {
      // Random probing keeps missing: linear sweep by live free count.
      for (AaId i = 0; i < layout_.aa_count(); ++i) {
        if (live_free(i) > 0) {
          aa = i;
          break;
        }
      }
      if (aa == kInvalidAaId) return false;
    }

    const double free_frac = static_cast<double>(board_.score(aa)) /
                             static_cast<double>(layout_.aa_capacity(aa));
    pick_free_frac.add(free_frac);
    WAFL_OBS({
      if (metrics_.checkouts != nullptr) metrics_.checkouts->inc();
      if (metrics_.checkout_free_frac != nullptr) {
        metrics_.checkout_free_frac->record(free_frac);
      }
    });
    open_ = aa;
    pos_ = layout_.aa_begin(aa);
    return true;
  }
}

}  // namespace wafl
