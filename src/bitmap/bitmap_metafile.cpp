#include "bitmap/bitmap_metafile.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/thread_pool.hpp"

namespace wafl {

namespace {
constexpr std::uint64_t kWordsPerBlock = kBitsPerBitmapBlock / 64;
}  // namespace

BitmapMetafile::BitmapMetafile(std::uint64_t nbits, BlockStore* store,
                               std::uint64_t store_base_block)
    : bits_(nbits),
      free_per_block_((nbits + kBitsPerBitmapBlock - 1) / kBitsPerBitmapBlock),
      total_free_(nbits),
      dirty_flag_(free_per_block_.size(), false),
      store_(store),
      store_base_(store_base_block) {
  // All bits start clear (free); the last block may cover fewer bits.
  for (std::uint64_t b = 0; b < free_per_block_.size(); ++b) {
    const std::uint64_t lo = b * kBitsPerBitmapBlock;
    const std::uint64_t hi = std::min<std::uint64_t>(
        lo + kBitsPerBitmapBlock, nbits);
    free_per_block_[b] = static_cast<std::uint32_t>(hi - lo);
  }
}

void BitmapMetafile::set_allocated(Vbn v) {
  WAFL_ASSERT_MSG(!bits_.test(v), "double allocation");
  bits_.set(v);
  const std::uint64_t b = v / kBitsPerBitmapBlock;
  WAFL_ASSERT(free_per_block_[b] > 0);
  --free_per_block_[b];
  --total_free_;
  mark_dirty(b);
}

void BitmapMetafile::set_allocated_word(std::uint64_t word,
                                        std::uint64_t mask) {
  WAFL_ASSERT(mask != 0);
  WAFL_ASSERT_MSG((bits_.word(word) & mask) == 0, "double allocation");
  bits_.set_word_bits(word, mask);
  const std::uint64_t b = word / kWordsPerBlock;
  const auto n = static_cast<std::uint32_t>(std::popcount(mask));
  WAFL_ASSERT(free_per_block_[b] >= n);
  free_per_block_[b] -= n;
  total_free_ -= n;
  mark_dirty(b);
}

void BitmapMetafile::set_free(Vbn v) {
  WAFL_ASSERT_MSG(bits_.test(v), "freeing a free block");
  bits_.clear(v);
  const std::uint64_t b = v / kBitsPerBitmapBlock;
  ++free_per_block_[b];
  ++total_free_;
  mark_dirty(b);
}

BitmapMetafile::FreeDelta BitmapMetafile::clear_frees_batched(
    std::span<const Vbn> frees) {
  FreeDelta d;
  if (frees.empty()) return d;

  // One counter per metafile block the span covers: a CP's per-group free
  // batch stays inside the group's VBN range, so there are at most as many
  // counters as the group has metafile blocks (512 for 16 Mi VBNs), and
  // the pass never walks the group's bitmap words.
  std::uint64_t b_lo = frees.front() / kBitsPerBitmapBlock;
  std::uint64_t b_hi = b_lo;
  for (const Vbn v : frees) {
    WAFL_ASSERT(v < bits_.size());
    const std::uint64_t b = v / kBitsPerBitmapBlock;
    b_lo = std::min(b_lo, b);
    b_hi = std::max(b_hi, b);
  }
  std::vector<std::uint32_t> freed(b_hi - b_lo + 1, 0);
  // A duplicate free finds its bit already clear and aborts here.
  for (const Vbn v : frees) {
    WAFL_ASSERT_MSG(bits_.test(v), "freeing a free block");
    bits_.clear(v);
    ++freed[v / kBitsPerBitmapBlock - b_lo];
  }
  for (std::uint64_t i = 0; i < freed.size(); ++i) {
    if (freed[i] != 0) d.per_block.emplace_back(b_lo + i, freed[i]);
  }
  return d;
}

void BitmapMetafile::apply_free_deltas(const FreeDelta& d) {
  for (const auto& [b, n] : d.per_block) {
    free_per_block_[b] += n;
    total_free_ += n;
    mark_dirty(b);
  }
}

void BitmapMetafile::apply_alloc_deltas(const AllocDelta& d) {
  for (const auto& [b, n] : d.per_block) {
    WAFL_ASSERT(free_per_block_[b] >= n);
    free_per_block_[b] -= n;
    total_free_ -= n;
    mark_dirty(b);
  }
}

std::uint64_t BitmapMetafile::free_in_range(Vbn begin, Vbn end) const {
  WAFL_ASSERT(begin <= end && end <= bits_.size());
  // Whole metafile blocks come from the O(1)-per-block summary; only the
  // partial edge blocks (at most two) pay a popcount.
  const Vbn lo_block_end =
      std::min<Vbn>((begin / kBitsPerBitmapBlock + 1) * kBitsPerBitmapBlock,
                    end);
  if (begin % kBitsPerBitmapBlock != 0 || lo_block_end == end) {
    // Range starts mid-block (or lies inside one block entirely).
    if (lo_block_end == end) return bits_.count_clear(begin, end);
    std::uint64_t total = bits_.count_clear(begin, lo_block_end);
    return total + free_in_range(lo_block_end, end);
  }
  std::uint64_t total = 0;
  const std::uint64_t end_whole = end / kBitsPerBitmapBlock;
  for (std::uint64_t b = begin / kBitsPerBitmapBlock; b < end_whole; ++b) {
    total += free_per_block_[b];
  }
  if (end % kBitsPerBitmapBlock != 0) {
    total += bits_.count_clear(end_whole * kBitsPerBitmapBlock, end);
  }
  return total;
}

std::uint64_t BitmapMetafile::free_in_range_staged(
    Vbn begin, Vbn end, std::span<const std::uint32_t> staged,
    std::uint64_t staged_base) const {
  WAFL_ASSERT(begin <= end && end <= bits_.size());
  // Same shape as free_in_range(): popcount the (at most two) partial edge
  // blocks — the live bits already include staged allocations, so those
  // are exact — and adjust the summary of interior whole blocks by the
  // staged overlay.
  const Vbn lo_block_end =
      std::min<Vbn>((begin / kBitsPerBitmapBlock + 1) * kBitsPerBitmapBlock,
                    end);
  if (begin % kBitsPerBitmapBlock != 0 || lo_block_end == end) {
    if (lo_block_end == end) return bits_.count_clear(begin, end);
    std::uint64_t total = bits_.count_clear(begin, lo_block_end);
    return total + free_in_range_staged(lo_block_end, end, staged,
                                        staged_base);
  }
  std::uint64_t total = 0;
  const std::uint64_t end_whole = end / kBitsPerBitmapBlock;
  for (std::uint64_t b = begin / kBitsPerBitmapBlock; b < end_whole; ++b) {
    std::uint32_t free = free_per_block_[b];
    if (b >= staged_base && b - staged_base < staged.size()) {
      WAFL_ASSERT(free >= staged[b - staged_base]);
      free -= staged[b - staged_base];
    }
    total += free;
  }
  if (end % kBitsPerBitmapBlock != 0) {
    total += bits_.count_clear(end_whole * kBitsPerBitmapBlock, end);
  }
  return total;
}

void BitmapMetafile::begin_cp() {
  for (const std::uint64_t b : dirty_list_) {
    dirty_flag_[b] = false;
  }
  dirty_list_.clear();
}

std::uint64_t BitmapMetafile::flush() {
  const std::uint64_t flushed = dirty_list_.size();
  if (store_ != nullptr) {
    for (const std::uint64_t b : dirty_list_) {
      flush_block(b);
    }
  }
  begin_cp();
  return flushed;
}

void BitmapMetafile::flush_block(std::uint64_t b) const {
  WAFL_ASSERT(store_ != nullptr && b < free_per_block_.size());
  alignas(8) std::byte buf[kBlockSize];
  serialize_block(b, buf);
  store_->write(store_base_ + b, buf);
}

void BitmapMetafile::load_block(std::uint64_t b) {
  WAFL_ASSERT_MSG(store_ != nullptr, "load_block without a backing store");
  WAFL_ASSERT(b < free_per_block_.size());
  const std::uint64_t first_word = b * kWordsPerBlock;
  const std::uint64_t last_word = bits_.words().size() - 1;
  if (first_word + kWordsPerBlock <= last_word) {
    // Every bit of the block is tracked: read it straight into the words.
    store_->read(store_base_ + b, std::as_writable_bytes(bits_.interior_words(
                                      first_word, kWordsPerBlock)));
  } else {
    // The final word's block: store_words() trims what the medium holds
    // past size().
    alignas(8) std::uint64_t words[kWordsPerBlock];
    store_->read(store_base_ + b,
                 std::span(reinterpret_cast<std::byte*>(words), kBlockSize));
    bits_.store_words(first_word,
                      std::span(words, last_word + 1 - first_word));
  }
  const std::uint64_t lo_bit = b * kBitsPerBitmapBlock;
  const std::uint64_t hi_bit =
      std::min<std::uint64_t>(lo_bit + kBitsPerBitmapBlock, bits_.size());
  free_per_block_[b] =
      static_cast<std::uint32_t>(bits_.count_clear(lo_bit, hi_bit));
}

void BitmapMetafile::finish_load() {
  total_free_ = 0;
  for (const std::uint32_t f : free_per_block_) total_free_ += f;
  begin_cp();
}

void BitmapMetafile::load_all(ThreadPool* pool) {
  WAFL_ASSERT_MSG(store_ != nullptr, "load_all without a backing store");
  // One metafile block is one read, copied by the store straight into the
  // bit vector, and one block count for the summary.  Blocks touch
  // disjoint word ranges and the store allows disjoint-slot concurrent
  // reads, so the whole walk fans out per block (see load_block()).
  parallel_for(pool, free_per_block_.size(), 8,
               [this](std::size_t b) { load_block(b); });
  finish_load();
}

void BitmapMetafile::grow(std::uint64_t new_nbits) {
  WAFL_ASSERT(new_nbits >= bits_.size());
  const std::uint64_t old_nbits = bits_.size();
  bits_.grow(new_nbits);
  const std::uint64_t new_blocks =
      (new_nbits + kBitsPerBitmapBlock - 1) / kBitsPerBitmapBlock;
  // The previously-last block may have been partial; its free count gains
  // the bits the growth added to it.
  if (!free_per_block_.empty()) {
    const std::uint64_t last = free_per_block_.size() - 1;
    const std::uint64_t old_hi = old_nbits;
    const std::uint64_t last_hi =
        std::min<std::uint64_t>((last + 1) * kBitsPerBitmapBlock, new_nbits);
    if (last_hi > old_hi) {
      free_per_block_[last] += static_cast<std::uint32_t>(last_hi - old_hi);
      total_free_ += last_hi - old_hi;
      mark_dirty(last);
    }
  }
  for (std::uint64_t b = free_per_block_.size(); b < new_blocks; ++b) {
    const std::uint64_t lo = b * kBitsPerBitmapBlock;
    const std::uint64_t hi =
        std::min<std::uint64_t>(lo + kBitsPerBitmapBlock, new_nbits);
    free_per_block_.push_back(static_cast<std::uint32_t>(hi - lo));
    dirty_flag_.push_back(false);
    total_free_ += hi - lo;
  }
}

void BitmapMetafile::mark_dirty(std::uint64_t block) {
  if (!dirty_flag_[block]) {
    dirty_flag_[block] = true;
    dirty_list_.push_back(block);
  }
}

void BitmapMetafile::serialize_block(std::uint64_t block,
                                     std::span<std::byte> out) const {
  WAFL_ASSERT(out.size() == kBlockSize);
  const auto& words = bits_.words();
  const std::uint64_t first_word = block * kWordsPerBlock;
  const std::uint64_t have =
      first_word < words.size()
          ? std::min<std::uint64_t>(kWordsPerBlock, words.size() - first_word)
          : 0;
  if (have > 0) {
    std::memcpy(out.data(), words.data() + first_word, have * 8);
  }
  if (have < kWordsPerBlock) {
    std::memset(out.data() + have * 8, 0, (kWordsPerBlock - have) * 8);
  }
}

}  // namespace wafl
