// Dense bit vector with the operations free-space tracking needs.
//
// Convention used throughout the library: a SET bit means the block is
// ALLOCATED (in use); a clear bit means free.  This matches WAFL's
// activemap semantics ("the i-th bit tracks the state of the i-th block of
// the file system", §2.5).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace wafl {

class Bitmap {
 public:
  /// Creates a bitmap of `nbits` bits, all clear (all blocks free) unless
  /// `initially_set`.
  explicit Bitmap(std::uint64_t nbits, bool initially_set = false)
      : nbits_(nbits),
        words_((nbits + 63) / 64,
               initially_set ? ~std::uint64_t{0} : std::uint64_t{0}) {
    trim_tail();
  }

  std::uint64_t size() const noexcept { return nbits_; }

  /// Extends the bitmap to `new_nbits` (>= size()); new bits are clear.
  void grow(std::uint64_t new_nbits) {
    WAFL_ASSERT(new_nbits >= nbits_);
    nbits_ = new_nbits;
    words_.resize((new_nbits + 63) / 64, 0);
  }

  bool test(std::uint64_t i) const noexcept {
    WAFL_ASSERT(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::uint64_t i) noexcept {
    WAFL_ASSERT(i < nbits_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  void clear(std::uint64_t i) noexcept {
    WAFL_ASSERT(i < nbits_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Word `w`: bits [64w, 64w + 64), bit i of the word is bit 64w + i.
  std::uint64_t word(std::uint64_t w) const noexcept {
    WAFL_ASSERT(w < words_.size());
    return words_[w];
  }

  /// Sets the bits of `mask` in word `w`.  Bits past size() must stay
  /// clear.
  void set_word_bits(std::uint64_t w, std::uint64_t mask) noexcept {
    WAFL_ASSERT(w < words_.size());
    WAFL_ASSERT(w + 1 < words_.size() || (nbits_ & 63) == 0 ||
                (mask >> (nbits_ & 63)) == 0);
    words_[w] |= mask;
  }

  /// Number of SET bits in [begin, end): one block count over the words
  /// the range touches (a portable SWAR kernel, not a popcount call per
  /// word).
  std::uint64_t count_set(std::uint64_t begin, std::uint64_t end) const;

  /// Number of CLEAR bits (free blocks) in [begin, end).
  std::uint64_t count_clear(std::uint64_t begin, std::uint64_t end) const {
    WAFL_ASSERT(begin <= end && end <= nbits_);
    return (end - begin) - count_set(begin, end);
  }

  /// First clear bit in [begin, end), or `end` if none.
  std::uint64_t find_first_clear(std::uint64_t begin, std::uint64_t end) const;

  /// First set bit in [begin, end), or `end` if none.
  std::uint64_t find_first_set(std::uint64_t begin, std::uint64_t end) const;

  /// Length of the run of clear bits starting at `begin`, capped at `end`.
  std::uint64_t clear_run_length(std::uint64_t begin, std::uint64_t end) const;

  /// Bulk word overwrite for deserialization (the mount walk): words
  /// [first_word, first_word + src.size()) take `src`'s values verbatim.
  /// If the run covers the final word, bits beyond size() are re-cleared,
  /// so garbage a torn or corrupt medium left past the tracked range
  /// cannot skew whole-word counts.
  void store_words(std::uint64_t first_word,
                   std::span<const std::uint64_t> src) noexcept {
    WAFL_ASSERT(first_word + src.size() <= words_.size());
    std::memcpy(words_.data() + first_word, src.data(), src.size() * 8);
    if (first_word + src.size() == words_.size()) {
      trim_tail();
    }
  }

  /// Writable words [first_word, first_word + n), so the mount walk can
  /// read a metafile block straight into the bit vector.  The run must end
  /// before the final word: every bit it holds is tracked, so any value is
  /// valid.  A run that holds the final word goes through store_words().
  std::span<std::uint64_t> interior_words(std::uint64_t first_word,
                                          std::uint64_t n) noexcept {
    WAFL_ASSERT(first_word + n < words_.size());
    return {words_.data() + first_word, n};
  }

  /// Raw word access for serialization (little-endian word layout).
  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

 private:
  // Bits beyond nbits_ in the last word must stay clear so whole-word
  // popcounts are exact.
  void trim_tail() noexcept {
    const std::uint64_t tail = nbits_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (std::uint64_t{1} << tail) - 1;
    }
  }

  std::uint64_t nbits_;
  std::vector<std::uint64_t> words_;
};

}  // namespace wafl
