// Activemap: allocation semantics over a bitmap metafile, with the
// delayed-free batching the paper's CP machinery relies on (§3.3: score
// updates from frees and allocations "are delayed and performed efficiently
// in batched fashion at the CP boundary").
//
// Allocations take effect immediately — they are performed by the CP itself
// while assigning VBNs.  Frees are deferred: client overwrites and deletes
// queue the old VBN, and the whole batch is applied once per CP, which both
// amortizes metafile-block touches and produces the per-AA score deltas in
// one pass.  (A FlexVol queues its vvbn frees here; the aggregate queues
// each pvbn free on its RAID group's own list instead — see
// RgAllocator::note_free.)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitmap/bitmap_metafile.hpp"
#include "util/types.hpp"

namespace wafl {

class Activemap {
 public:
  Activemap(std::uint64_t nbits, BlockStore* store = nullptr,
            std::uint64_t store_base_block = 0)
      : map_(nbits, store, store_base_block) {}

  /// Marks `v` in use.  Immediate; asserts `v` was free.
  void allocate(Vbn v) { map_.set_allocated(v); }

  bool is_allocated(Vbn v) const noexcept { return map_.test(v); }

  /// Queues `v` to be freed at the next CP boundary.  The bit stays set
  /// until the batch is applied, so the block cannot be re-allocated within
  /// the same CP — exactly WAFL's COW safety rule (a freed block's old
  /// contents must survive until the CP that frees it commits).
  void defer_free(Vbn v) {
    WAFL_ASSERT_MSG(map_.test(v), "deferring free of a free block");
    deferred_frees_.push_back(v);
  }

  /// Applies every queued free in one batch and hands the caller the list
  /// (still valid until the next defer_free) so it can derive AA score
  /// deltas.  Returns the number of blocks freed.
  std::uint64_t apply_deferred_frees() {
    for (const Vbn v : deferred_frees_) {
      map_.set_free(v);
    }
    const std::uint64_t n = deferred_frees_.size();
    applied_frees_.swap(deferred_frees_);
    deferred_frees_.clear();
    return n;
  }

  /// Frees applied by the last apply_deferred_frees() call.
  std::span<const Vbn> last_applied_frees() const noexcept {
    return applied_frees_;
  }

  std::uint64_t pending_frees() const noexcept {
    return deferred_frees_.size();
  }

  std::uint64_t total_free() const noexcept { return map_.total_free(); }
  std::uint64_t size_blocks() const noexcept { return map_.size_bits(); }

  /// Extends the tracked VBN space (§3.1 growth); new blocks are free.
  void grow(std::uint64_t new_nbits) { map_.grow(new_nbits); }

  BitmapMetafile& metafile() noexcept { return map_; }
  const BitmapMetafile& metafile() const noexcept { return map_; }

 private:
  BitmapMetafile map_;
  std::vector<Vbn> deferred_frees_;
  std::vector<Vbn> applied_frees_;
};

}  // namespace wafl
