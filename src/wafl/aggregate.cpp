#include "wafl/aggregate.hpp"

#include <algorithm>
#include <bit>

#include "fault/crash_point.hpp"
#include "util/thread_pool.hpp"

namespace wafl {
namespace {

std::uint64_t bitmap_blocks_for(std::uint64_t nbits) {
  return (nbits + kBitsPerBitmapBlock - 1) / kBitsPerBitmapBlock;
}

std::uint64_t group_blocks(const RaidGroupConfig& rgc) {
  return static_cast<std::uint64_t>(rgc.device_blocks) * rgc.data_devices;
}

/// Asserts the owner table's bound: every pvbn fits a 32-bit entry.
void check_aggregate_blocks(std::uint64_t total) {
  WAFL_ASSERT_MSG(total < kInvalidPackedVbn,
                  "aggregate exceeds the 32-bit pvbn space");
}

/// The configured aggregate's size, checked before anything is sized
/// from it.
std::uint64_t sum_data_blocks(const AggregateConfig& cfg) {
  std::uint64_t total = 0;
  for (const auto& rg : cfg.raid_groups) total += group_blocks(rg);
  check_aggregate_blocks(total);
  return total;
}

}  // namespace

Aggregate::Aggregate(const AggregateConfig& cfg, std::uint64_t rng_seed,
                     Runtime rt)
    : cfg_(cfg),
      rng_(rng_seed),
      runtime_(std::move(rt)),
      total_blocks_(sum_data_blocks(cfg)),
      meta_store_(bitmap_blocks_for(sum_data_blocks(cfg))),
      topaa_store_(cfg.raid_groups.size() * TopAaFile::kRaidAgnosticBlocks),
      activemap_(sum_data_blocks(cfg), &meta_store_, 0),
      walloc_(cfg.policy, cfg.rg_skip_free_fraction, rng_seed, activemap_,
              topaa_store_, runtime_),
      owner_(sum_data_blocks(cfg), kNoOwner) {
  WAFL_ASSERT(!cfg.raid_groups.empty());
  Vbn base = 0;
  for (const RaidGroupConfig& rgc : cfg.raid_groups) {
    walloc_.add_group(rgc, base);
    base += group_blocks(rgc);
  }
}

RaidGroupId Aggregate::add_raid_group(const RaidGroupConfig& rgc) {
  // Quiescence: growth happens between CPs, like adding a shelf.
  WAFL_ASSERT_MSG(walloc_.pending_frees() == 0,
                  "add_raid_group during a CP");
  WAFL_ASSERT_MSG(walloc_.windows_idle(),
                  "add_raid_group with open tetris windows");
  check_aggregate_blocks(total_blocks_ + group_blocks(rgc));
  const Vbn base = total_blocks_;
  total_blocks_ += group_blocks(rgc);
  activemap_.grow(total_blocks_);
  meta_store_.grow(bitmap_blocks_for(total_blocks_));
  topaa_store_.grow((walloc_.group_count() + 1ull) *
                    TopAaFile::kRaidAgnosticBlocks);
  owner_.resize(total_blocks_, kNoOwner);
  return walloc_.add_group(rgc, base);
}

FlexVol& Aggregate::add_volume(const FlexVolConfig& vcfg) {
  WAFL_ASSERT_MSG(vcfg.vvbn_blocks < kInvalidPackedVbn,
                  "volume exceeds the 32-bit vvbn space");
  const std::uint64_t end = vol_base_.back() + vcfg.vvbn_blocks;
  WAFL_ASSERT_MSG(end <= kInvalidPackedVbn,
                  "volumes exceed the 32-bit owner-index space");
  const auto id = static_cast<VolumeId>(volumes_.size());
  volumes_.push_back(
      std::make_unique<FlexVol>(id, vcfg, rng_.next(), runtime_));
  vol_base_.push_back(end);
  return *volumes_.back();
}

double Aggregate::mean_write_amplification() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (RaidGroupId rg = 0; rg < walloc_.group_count(); ++rg) {
    const RgAllocator& group = walloc_.group(rg);
    for (DeviceId d = 0; d < group.raid().geometry().data_devices(); ++d) {
      const DeviceModel& dev = group.data_device(d);
      if (dev.media_type() == MediaType::kSsd ||
          dev.media_type() == MediaType::kSmr) {
        sum += dev.write_amplification();
        ++n;
      }
    }
  }
  return n == 0 ? 1.0 : sum / static_cast<double>(n);
}

void Aggregate::reset_wear_windows() {
  for (RaidGroupId rg = 0; rg < walloc_.group_count(); ++rg) {
    RgAllocator& group = walloc_.group(rg);
    const RaidGeometry& geom = group.raid().geometry();
    for (DeviceId d = 0; d < geom.data_devices(); ++d) {
      group.data_device(d).reset_wear_window();
    }
    for (DeviceId p = 0; p < geom.parity_devices(); ++p) {
      group.parity_device(p).reset_wear_window();
    }
  }
}

void Aggregate::set_owner(Vbn pvbn, VolumeId vol, Vbn vvbn) {
  WAFL_ASSERT(pvbn < total_blocks_);
  WAFL_ASSERT(vol < volumes_.size());
  WAFL_ASSERT(vvbn < vol_base_[vol + 1] - vol_base_[vol]);
  owner_[pvbn] = narrow(vol_base_[vol] + vvbn);
}

void Aggregate::release_pvbns(std::span<const Vbn> pvbns) {
  for (const Vbn pvbn : pvbns) {
    WAFL_ASSERT(pvbn < total_blocks_);
    defer_free_pvbn(pvbn);
  }
}

void Aggregate::seed_rg_occupancy(RaidGroupId rg, double fraction,
                                  Rng& rng) {
  // Seeded blocks belong to no volume, but a free block's owner entry may
  // still name the volume that last held it (release_pvbns leaves it).
  // Reset the entries of the blocks seeding claims: the bits it sets,
  // found a word at a time against the group's words from before.  The
  // group spans whole words (WriteAllocator::add_group).
  const RgAllocator& group = walloc_.group(rg);
  const Bitmap& bits = activemap_.metafile().bits();
  const std::uint64_t first = group.base() / 64;
  std::vector<std::uint64_t> before(group.end() / 64 - first);
  for (std::uint64_t i = 0; i < before.size(); ++i) {
    before[i] = bits.word(first + i);
  }
  walloc_.seed_occupancy(rg, fraction, rng);
  for (std::uint64_t i = 0; i < before.size(); ++i) {
    for (std::uint64_t claimed = bits.word(first + i) & ~before[i];
         claimed != 0; claimed &= claimed - 1) {
      owner_[(first + i) * 64 +
             static_cast<std::uint64_t>(std::countr_zero(claimed))] = kNoOwner;
    }
  }
}

std::optional<Aggregate::BlockOwner> Aggregate::owner_of(Vbn pvbn) const {
  WAFL_ASSERT(pvbn < total_blocks_);
  if (!activemap_.is_allocated(pvbn)) return std::nullopt;
  const PackedVbn index = owner_[pvbn];
  if (index == kNoOwner) return std::nullopt;
  // The volume whose [base, next base) range holds the index.
  const auto next =
      std::upper_bound(vol_base_.begin(), vol_base_.end(), Vbn{index});
  const auto vol = static_cast<VolumeId>(next - vol_base_.begin() - 1);
  return BlockOwner{vol, index - vol_base_[vol]};
}

}  // namespace wafl
