#include "raid/tetris.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace wafl {
namespace {

/// Appends the runs of set bits of `word` (bit s = dbn `dbn_base + s`),
/// lowest first.
void append_runs(std::uint64_t word, Dbn dbn_base,
                 std::vector<WriteRun>& runs) {
  while (word != 0) {
    const int start = std::countr_zero(word);
    const int len = std::countr_one(word >> start);
    runs.push_back({dbn_base + static_cast<Dbn>(start),
                    static_cast<std::uint32_t>(len)});
    if (start + len == 64) break;
    word &= ~std::uint64_t{0} << (start + len);
  }
}

}  // namespace

void TetrisBuilder::build(std::uint64_t tetris,
                          std::span<const std::uint64_t> written,
                          std::span<const std::uint64_t> in_use,
                          TetrisWrite& out) const {
  const std::uint32_t d = geom_->data_devices();
  const std::uint32_t p = geom_->parity_devices();
  WAFL_ASSERT(tetris < geom_->tetrises());
  WAFL_ASSERT(written.size() == d && in_use.size() == d);
  const Dbn dbn_base = tetris * kTetrisStripes;

  out.tetris = tetris;
  out.device_runs.resize(d);
  out.parity_runs.resize(p);
  out.data_blocks_written = 0;

  // Per-stripe written counts, bit-sliced: bit s of planes[k] is bit k of
  // stripe s's count.  Each word is added with a ripple carry.
  std::array<std::uint64_t, 32> planes{};
  const auto nplanes = static_cast<std::uint32_t>(std::bit_width(d));
  std::uint64_t all_written = ~std::uint64_t{0};
  std::uint64_t any_written = 0;
  std::uint64_t any_in_use = 0;
  for (std::uint32_t dev = 0; dev < d; ++dev) {
    const std::uint64_t w = written[dev];
    WAFL_ASSERT_MSG((w & in_use[dev]) == 0, "writing an in-use block");
    all_written &= w;
    any_written |= w;
    any_in_use |= in_use[dev];
    out.data_blocks_written += static_cast<std::uint64_t>(std::popcount(w));
    out.device_runs[dev].clear();
    append_runs(w, dbn_base, out.device_runs[dev]);
    for (std::uint64_t carry = w, k = 0; carry != 0; ++k) {
      const std::uint64_t next = planes[k] & carry;
      planes[k] ^= carry;
      carry = next;
    }
  }

  const std::uint64_t full = all_written & ~any_in_use;
  const std::uint64_t partial = any_written & ~full;
  out.full_stripes = static_cast<std::uint32_t>(std::popcount(full));
  out.partial_stripes = static_cast<std::uint32_t>(std::popcount(partial));
  out.untouched_stripes =
      kTetrisStripes - static_cast<std::uint32_t>(std::popcount(any_written));

  // Parity reads over partial stripes only, grouped by written count w:
  // read-modify-write reads the old contents of the written blocks plus
  // the old parity (w + p — parity covers free blocks' on-media contents
  // too), recompute reads every block of the stripe not being written
  // (d - w).  A partial stripe has 0 < w < d.
  out.parity_read_blocks = 0;
  std::uint64_t left = partial;
  for (std::uint32_t w = 1; w < d && left != 0; ++w) {
    std::uint64_t with_w = left;
    for (std::uint32_t k = 0; k < nplanes; ++k) {
      with_w &= ((w >> k) & 1u) != 0 ? planes[k] : ~planes[k];
    }
    left &= ~with_w;
    out.parity_read_blocks +=
        static_cast<std::uint64_t>(std::popcount(with_w)) *
        std::min(w + p, d - w);
  }
  WAFL_ASSERT(left == 0);

  // Parity is written for every touched stripe, one block per parity
  // device.
  out.parity_blocks_written =
      static_cast<std::uint64_t>(std::popcount(any_written)) * p;
  for (std::uint32_t pd = 0; pd < p; ++pd) {
    out.parity_runs[pd].clear();
    append_runs(any_written, dbn_base, out.parity_runs[pd]);
  }
}

}  // namespace wafl
