#include "device/ssd.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wafl {

SsdModel::SsdModel(std::uint64_t capacity_blocks, SsdParams params)
    : capacity_(capacity_blocks), params_(params) {
  WAFL_ASSERT(capacity_blocks > 0);
  WAFL_ASSERT(params_.op_fraction > 0.0);
  WAFL_ASSERT(capacity_blocks <= 0xFFFF0000u);  // 32-bit page addressing

  const auto physical = static_cast<std::uint64_t>(
      static_cast<double>(capacity_blocks) * (1.0 + params_.op_fraction));
  // Round physical capacity up to whole erase blocks, keeping at least the
  // GC reserve above logical capacity.
  const std::uint32_t ebs = std::max<std::uint32_t>(
      static_cast<std::uint32_t>((physical + params_.pages_per_erase_block -
                                  1) /
                                 params_.pages_per_erase_block),
      static_cast<std::uint32_t>(capacity_blocks /
                                 params_.pages_per_erase_block) +
          params_.gc_reserve_blocks + 2);

  l2p_.assign(capacity_blocks, kUnmapped);
  p2l_.assign(static_cast<std::size_t>(ebs) * params_.pages_per_erase_block,
              kUnmapped);
  valid_count_.assign(ebs, 0);
  is_free_eb_.assign(ebs, true);
  free_ebs_.reserve(ebs);
  // Keep free list ordered so erase block 0 opens first (determinism).
  for (std::uint32_t eb = ebs; eb-- > 0;) {
    free_ebs_.push_back(eb);
  }
  open_eb_ = free_ebs_.back();
  free_ebs_.pop_back();
  is_free_eb_[open_eb_] = false;
  open_fill_ = 0;
}

void SsdModel::unmap_page(std::uint32_t ppn) {
  const std::uint32_t lbn = p2l_[ppn];
  WAFL_ASSERT(lbn != kUnmapped);
  p2l_[ppn] = kUnmapped;
  l2p_[lbn] = kUnmapped;
  const std::uint32_t eb = ppn / params_.pages_per_erase_block;
  WAFL_ASSERT(valid_count_[eb] > 0);
  --valid_count_[eb];
  --mapped_pages_;
}

std::uint32_t SsdModel::take_page() {
  if (open_fill_ == params_.pages_per_erase_block) {
    // Open a fresh erase block; GC keeps the free list stocked.  Near the
    // write cliff one collection may not net a whole block (the victim's
    // valid pages consume most of the reclaimed space), so collect until
    // the reserve is restored — over-provisioning guarantees progress.
    // While GC itself is relocating pages it draws from the reserve
    // instead of recursing.
    if (!gc_active_) {
      while (free_ebs_.size() <= params_.gc_reserve_blocks) {
        garbage_collect();
      }
    }
    WAFL_ASSERT_MSG(!free_ebs_.empty(), "FTL out of free erase blocks");
    open_eb_ = free_ebs_.back();
    free_ebs_.pop_back();
    is_free_eb_[open_eb_] = false;
    open_fill_ = 0;
  }
  const std::uint32_t ppn =
      open_eb_ * params_.pages_per_erase_block + open_fill_;
  ++open_fill_;
  return ppn;
}

void SsdModel::program(std::uint32_t lbn, bool is_gc) {
  const std::uint32_t ppn = take_page();
  WAFL_ASSERT(p2l_[ppn] == kUnmapped);
  p2l_[ppn] = lbn;
  l2p_[lbn] = ppn;
  ++valid_count_[ppn / params_.pages_per_erase_block];
  ++mapped_pages_;
  if (is_gc) {
    ++gc_programs_;
    ++window_gc_;
  } else {
    ++host_programs_;
    ++window_host_;
  }
}

void SsdModel::garbage_collect() {
  // Greedy victim selection: the full erase block with the fewest valid
  // pages costs the fewest relocations (§3.2.2's FTL behaviour).
  std::uint32_t victim = kUnmapped;
  std::uint32_t best_valid = params_.pages_per_erase_block + 1;
  for (std::uint32_t eb = 0;
       eb < static_cast<std::uint32_t>(valid_count_.size()); ++eb) {
    if (eb == open_eb_ || is_free_eb_[eb]) continue;
    if (valid_count_[eb] < best_valid) {
      best_valid = valid_count_[eb];
      victim = eb;
      if (best_valid == 0) break;
    }
  }
  WAFL_ASSERT_MSG(victim != kUnmapped, "GC found no victim");
  WAFL_ASSERT(!gc_active_);
  gc_active_ = true;

  // Relocate the victim's valid pages into the open block.
  const std::uint32_t base = victim * params_.pages_per_erase_block;
  for (std::uint32_t i = 0; i < params_.pages_per_erase_block; ++i) {
    const std::uint32_t lbn = p2l_[base + i];
    if (lbn == kUnmapped) continue;
    ++gc_reads_;
    unmap_page(base + i);
    program(lbn, /*is_gc=*/true);
  }
  WAFL_ASSERT(valid_count_[victim] == 0);
  ++erases_;
  is_free_eb_[victim] = true;
  free_ebs_.insert(free_ebs_.begin(), victim);  // FIFO reuse for even wear
  gc_active_ = false;
}

SimTime SsdModel::write_batch(std::span<const WriteRun> runs,
                              std::uint64_t read_blocks) {
  const std::uint64_t host0 = host_programs_;
  const std::uint64_t gc0 = gc_programs_;
  const std::uint64_t reads0 = gc_reads_;
  const std::uint64_t erases0 = erases_;

  for (const WriteRun& run : runs) {
    WAFL_ASSERT(run.start + run.length <= capacity_);
    for (std::uint32_t i = 0; i < run.length; ++i) {
      const auto lbn = static_cast<std::uint32_t>(run.start + i);
      if (l2p_[lbn] != kUnmapped) {
        unmap_page(l2p_[lbn]);
      }
      program(lbn, /*is_gc=*/false);
    }
  }

  const std::uint64_t programs =
      (host_programs_ - host0) + (gc_programs_ - gc0);
  const std::uint64_t reads = (gc_reads_ - reads0) + read_blocks;
  return programs * params_.program_ns + reads * params_.read_ns +
         (erases_ - erases0) * params_.erase_ns;
}

SimTime SsdModel::read_random(std::uint64_t blocks) {
  return blocks * params_.read_ns;
}

void SsdModel::invalidate(Dbn dbn) {
  WAFL_ASSERT(dbn < capacity_);
  const std::uint32_t ppn = l2p_[static_cast<std::size_t>(dbn)];
  if (ppn != kUnmapped) {
    unmap_page(ppn);
  }
}

double SsdModel::write_amplification() const noexcept {
  if (window_host_ == 0) return 1.0;
  return static_cast<double>(window_host_ + window_gc_) /
         static_cast<double>(window_host_);
}

void SsdModel::reset_wear_window() {
  window_host_ = 0;
  window_gc_ = 0;
}

}  // namespace wafl
