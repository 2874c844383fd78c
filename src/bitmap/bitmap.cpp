#include "bitmap/bitmap.hpp"

#include <algorithm>
#include <bit>

namespace wafl {

namespace {

// Set bits in words [p, p + n).  Builds that target no popcnt
// instruction compile std::popcount to a libgcc call per word, so the
// block count is SWAR instead: each word's nibble counts are summed into
// its eight byte lanes (at most 8 per lane), the lanes accumulate over a
// run of at most 30 words (30 * 8 = 240 < 256, so no lane carries), and
// one fold per run adds the lanes up.
std::uint64_t count_set_words(const std::uint64_t* p, std::uint64_t n) {
  constexpr std::uint64_t kRunWords = 30;
  constexpr std::uint64_t k1 = 0x5555555555555555;
  constexpr std::uint64_t k2 = 0x3333333333333333;
  constexpr std::uint64_t k4 = 0x0F0F0F0F0F0F0F0F;
  constexpr std::uint64_t k8 = 0x00FF00FF00FF00FF;
  std::uint64_t total = 0;
  while (n > 0) {
    const std::uint64_t run = std::min(n, kRunWords);
    std::uint64_t lanes = 0;
    for (std::uint64_t i = 0; i < run; ++i) {
      std::uint64_t x = p[i];
      x -= (x >> 1) & k1;
      x = (x & k2) + ((x >> 2) & k2);
      lanes += (x + (x >> 4)) & k4;
    }
    // Byte lanes (<= 240) into 16-bit lanes (<= 480); the multiply sums
    // the four of them (<= 1920) into the top 16 bits.
    const std::uint64_t pairs = (lanes & k8) + ((lanes >> 8) & k8);
    total += (pairs * 0x0001000100010001) >> 48;
    p += run;
    n -= run;
  }
  return total;
}

}  // namespace

std::uint64_t Bitmap::count_set(std::uint64_t begin, std::uint64_t end) const {
  WAFL_ASSERT(begin <= end && end <= nbits_);
  if (begin == end) return 0;

  // Count the whole words the range touches as one block, then take off
  // the first word's bits below `begin` and the last word's bits from
  // `end` on.
  const std::uint64_t first_word = begin >> 6;
  const std::uint64_t last_word = (end - 1) >> 6;
  const std::uint64_t below =
      words_[first_word] & ((std::uint64_t{1} << (begin & 63)) - 1);
  const std::uint64_t tail_bits = ((end - 1) & 63) + 1;
  const std::uint64_t past =
      tail_bits < 64 ? words_[last_word] >> tail_bits : 0;
  return count_set_words(words_.data() + first_word,
                         last_word - first_word + 1) -
         static_cast<std::uint64_t>(std::popcount(below)) -
         static_cast<std::uint64_t>(std::popcount(past));
}

std::uint64_t Bitmap::find_first_clear(std::uint64_t begin,
                                       std::uint64_t end) const {
  WAFL_ASSERT(begin <= end && end <= nbits_);
  std::uint64_t i = begin;
  while (i < end) {
    const std::uint64_t word_idx = i >> 6;
    // Invert so clear bits become set, mask off bits below i.
    std::uint64_t w = ~words_[word_idx] & ~((std::uint64_t{1} << (i & 63)) - 1);
    if (w != 0) {
      const std::uint64_t bit =
          (word_idx << 6) +
          static_cast<std::uint64_t>(std::countr_zero(w));
      return bit < end ? bit : end;
    }
    i = (word_idx + 1) << 6;
  }
  return end;
}

std::uint64_t Bitmap::find_first_set(std::uint64_t begin,
                                     std::uint64_t end) const {
  WAFL_ASSERT(begin <= end && end <= nbits_);
  std::uint64_t i = begin;
  while (i < end) {
    const std::uint64_t word_idx = i >> 6;
    std::uint64_t w = words_[word_idx] & ~((std::uint64_t{1} << (i & 63)) - 1);
    if (w != 0) {
      const std::uint64_t bit =
          (word_idx << 6) +
          static_cast<std::uint64_t>(std::countr_zero(w));
      return bit < end ? bit : end;
    }
    i = (word_idx + 1) << 6;
  }
  return end;
}

std::uint64_t Bitmap::clear_run_length(std::uint64_t begin,
                                       std::uint64_t end) const {
  const std::uint64_t next_set = find_first_set(begin, end);
  return next_set - begin;
}

}  // namespace wafl
