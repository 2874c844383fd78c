// Activemap: allocation semantics over a bitmap metafile — a plain bitmap
// with free counts.  Allocations and frees take effect at once.
//
// The paper's CP batching (§3.3: score updates from frees and allocations
// "are delayed and performed efficiently in batched fashion at the CP
// boundary") lives with the owners, not here: a FlexVol keeps its deferred
// vvbn frees on its own list, and each RAID group keeps its deferred pvbn
// frees on its own (RgAllocator::note_free).  Both hold the bit set until
// the boundary, so a block freed in a CP cannot be reused within it.
#pragma once

#include <cstdint>

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

  /// Marks `v` free.  Immediate; asserts `v` was in use.
  void free(Vbn v) { map_.set_free(v); }

  bool is_allocated(Vbn v) const noexcept { return map_.test(v); }

  std::uint64_t total_free() const noexcept { return map_.total_free(); }
  std::uint64_t size_blocks() const noexcept { return map_.size_bits(); }

  /// Extends the tracked VBN space (§3.1 growth); new blocks are free.
  void grow(std::uint64_t new_nbits) { map_.grow(new_nbits); }

  BitmapMetafile& metafile() noexcept { return map_; }
  const BitmapMetafile& metafile() const noexcept { return map_; }

 private:
  BitmapMetafile map_;
};

}  // namespace wafl
