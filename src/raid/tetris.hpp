// Tetris write assembly and full/partial stripe accounting.
//
// WAFL sends writes to a RAID group in tetrises of 64 consecutive stripes
// (§4.2).  Within a tetris, each stripe is either:
//   - a *full stripe write* — every data block of the stripe is written in
//     this tetris, so parity is computed purely from the new data (§2.3);
//   - a *partial stripe write* — some data blocks of the stripe hold
//     pre-existing data that is not rewritten (COW never overwrites in
//     place), so RAID must read blocks to compute parity; or
//   - untouched — no blocks written.
//
// TetrisBuilder classifies one tetris window a 64-bit word at a time.
// With this library's VBN order (raid_geometry.hpp), device d's 64 blocks
// of tetris t are the group-local VBNs (t*D + d)*64 ... +63: one bitmap
// word, whose bit s is stripe s of the window.  The window is therefore D
// words of written blocks plus the D words of pre-write occupancy the
// activemap already holds, and the builder turns them into:
//   - per-device write runs (contiguous dbn chains, §2.4) — the runs of
//     set bits in each written word;
//   - parity-device writes (one parity block per written stripe) — the
//     runs of OR(written);
//   - the stripe classes: full = AND(written) & ~OR(in use), partial =
//     the other written stripes, untouched = ~OR(written);
//   - parity-computation reads, charged per partial stripe with the
//     cheaper of the two standard schemes: recompute (read the unwritten
//     data blocks) or read-modify-write (read old data under the writes
//     plus the old parity).  The per-stripe written counts come from
//     bit-sliced counters over the D written words.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "raid/raid_geometry.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace wafl {

/// A run of consecutive device blocks written in one chain.
struct WriteRun {
  Dbn start;
  std::uint32_t length;

  friend bool operator==(const WriteRun&, const WriteRun&) = default;
};

/// The physical I/O plan for one tetris on one RAID group.
struct TetrisWrite {
  std::uint64_t tetris = 0;

  /// Data-device write runs, indexed by device [0, data_devices).
  std::vector<std::vector<WriteRun>> device_runs;

  /// Parity-device write runs, indexed by device [0, parity_devices).
  /// Parity blocks are written for every touched stripe.
  std::vector<std::vector<WriteRun>> parity_runs;

  /// Blocks RAID must read to compute parity (across the group).
  std::uint64_t parity_read_blocks = 0;

  std::uint32_t full_stripes = 0;
  std::uint32_t partial_stripes = 0;
  std::uint32_t untouched_stripes = 0;
  std::uint64_t data_blocks_written = 0;
  std::uint64_t parity_blocks_written = 0;

  std::uint64_t touched_stripes() const noexcept {
    return full_stripes + partial_stripes;
  }

  /// Total write chains across all devices — the I/O count WAFL tries to
  /// minimize with long chains (§2.4).
  std::uint64_t total_chains() const noexcept {
    std::uint64_t n = 0;
    for (const auto& runs : device_runs) n += runs.size();
    for (const auto& runs : parity_runs) n += runs.size();
    return n;
  }
};

class TetrisBuilder {
 public:
  explicit TetrisBuilder(const RaidGeometry& geom) : geom_(&geom) {}

  /// Builds the I/O plan for tetris window `tetris` into `out`, reusing
  /// its vectors' capacity.  `written[d]` and `in_use[d]` are device d's
  /// words of the window (bit s = stripe s): the blocks written now, and
  /// the blocks that held live data before this CP.  Both spans hold
  /// data_devices() words.  A block written now must not be in use (COW
  /// writes only free blocks); overlapping words abort with "writing an
  /// in-use block".
  void build(std::uint64_t tetris, std::span<const std::uint64_t> written,
             std::span<const std::uint64_t> in_use, TetrisWrite& out) const;

 private:
  const RaidGeometry* geom_;
};

}  // namespace wafl
