// Test-side adapter from VBN lists to TetrisBuilder's word form: packs the
// written group-local VBNs of one tetris window, and the window's in-use
// blocks, into one word per data device (bit s = stripe s).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "raid/raid_geometry.hpp"
#include "raid/tetris.hpp"

namespace wafl::test {

/// Builds tetris `tetris` from `written` (group-local VBNs, all inside
/// the window) and `in_use` (true for a VBN that held live data before
/// the write).
template <typename InUseFn>
TetrisWrite build_from_vbns(const TetrisBuilder& builder,
                            const RaidGeometry& g, std::uint64_t tetris,
                            std::span<const Vbn> written, InUseFn&& in_use) {
  std::vector<std::uint64_t> written_words(g.data_devices(), 0);
  std::vector<std::uint64_t> in_use_words(g.data_devices(), 0);
  const Dbn dbn_base = tetris * kTetrisStripes;
  for (const Vbn v : written) {
    WAFL_ASSERT(g.tetris_of(v) == tetris);
    const BlockLocation loc = g.to_location(v);
    written_words[loc.device] |= std::uint64_t{1} << (loc.dbn - dbn_base);
  }
  const Vbn base = g.tetris_base_vbn(tetris);
  for (Vbn v = base; v < base + g.blocks_per_tetris(); ++v) {
    if (in_use(v)) {
      const BlockLocation loc = g.to_location(v);
      in_use_words[loc.device] |= std::uint64_t{1} << (loc.dbn - dbn_base);
    }
  }
  TetrisWrite out;
  builder.build(tetris, written_words, in_use_words, out);
  return out;
}

}  // namespace wafl::test
