// Delayed-free tracking — the paper's second use of the HBPS (§3.3.2):
// "The HBPS data structure has other uses in WAFL when millions of items
//  need to be sorted in close-to-optimal order and with minimal memory
//  usage.  For example, it is used to track delayed-free scores."
//
// Background (from the paper's companion work on free-space reclamation):
// frees produced by snapshot deletion and other internal operations are
// not applied immediately; they accumulate per bitmap-block-sized region
// as *delayed frees* and are processed region by region so that each pass
// dirties one bitmap block.  Processing the RICHEST regions first returns
// the most free space per metafile-block update — exactly the
// near-optimal-ordering problem the HBPS solves in two pages.
//
// DelayedFreeLog scores each region by its pending-free count and serves
// regions in close-to-richest-first order.  Scores move between bins in
// O(1); a drained region re-enters at score 0.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/hbps.hpp"
#include "util/types.hpp"

namespace wafl {

class DelayedFreeLog {
 public:
  /// Tracks VBNs in [0, total_blocks), in regions of `region_blocks`
  /// (default: one bitmap-metafile block of VBNs).
  explicit DelayedFreeLog(std::uint64_t total_blocks,
                          std::uint32_t region_blocks = kBitsPerBitmapBlock);

  /// Pass-through to the internal HBPS: routes its rebin counting to the
  /// owner's runtime-scoped "wafl.hbps.rebins" handle (null: uncounted).
  void bind_rebin_counter(obs::Counter* c) noexcept {
    hbps_.bind_rebin_counter(c);
  }

  std::uint32_t region_count() const noexcept {
    return static_cast<std::uint32_t>(pending_.size());
  }
  std::uint32_t region_of(Vbn v) const noexcept {
    return static_cast<std::uint32_t>(v / region_blocks_);
  }

  /// Logs a delayed free of `v`: its region's score rises by one.  Only
  /// safe while no CP is draining this log — snapshot deletion runs
  /// between CPs, and OverlappedCpDriver quiesces its drain first.
  void log_free(Vbn v);

  /// Frees logged but not yet drained.
  std::uint64_t pending_total() const noexcept { return pending_total_; }
  std::uint32_t pending_in_region(std::uint32_t region) const {
    return pending_[region].count;
  }

  /// Takes the (close-to-)richest region and returns its VBN list for
  /// processing; the region's score drops to zero.  Returns nullopt when
  /// nothing is pending.  The HBPS guarantee applies: the chosen region's
  /// count is within one bin width of the true maximum.
  struct Drain {
    std::uint32_t region;
    std::vector<Vbn> vbns;
  };
  std::optional<Drain> drain_richest();

  /// Structural check for tests.
  bool validate() const;

 private:
  struct Region {
    std::uint32_t count = 0;
    std::vector<Vbn> vbns;
  };

  std::uint32_t region_blocks_;
  std::vector<Region> pending_;
  std::uint64_t pending_total_ = 0;
  Hbps hbps_;
};

}  // namespace wafl
