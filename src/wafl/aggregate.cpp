#include "wafl/aggregate.hpp"

#include "fault/crash_point.hpp"
#include "util/thread_pool.hpp"

namespace wafl {
namespace {

std::uint64_t bitmap_blocks_for(std::uint64_t nbits) {
  return (nbits + kBitsPerBitmapBlock - 1) / kBitsPerBitmapBlock;
}

std::uint64_t sum_data_blocks(const AggregateConfig& cfg) {
  std::uint64_t total = 0;
  for (const auto& rg : cfg.raid_groups) {
    total += rg.device_blocks * rg.data_devices;
  }
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
    base += static_cast<Vbn>(rgc.device_blocks) * rgc.data_devices;
  }
}

RaidGroupId Aggregate::add_raid_group(const RaidGroupConfig& rgc) {
  // Quiescence: growth happens between CPs, like adding a shelf.
  WAFL_ASSERT_MSG(walloc_.pending_frees() == 0,
                  "add_raid_group during a CP");
  WAFL_ASSERT_MSG(walloc_.windows_idle(),
                  "add_raid_group with open tetris windows");
  const Vbn base = total_blocks_;
  total_blocks_ += static_cast<Vbn>(rgc.device_blocks) * rgc.data_devices;
  activemap_.grow(total_blocks_);
  meta_store_.grow(bitmap_blocks_for(total_blocks_));
  topaa_store_.grow((walloc_.group_count() + 1ull) *
                    TopAaFile::kRaidAgnosticBlocks);
  owner_.resize(total_blocks_, kNoOwner);
  return walloc_.add_group(rgc, base);
}

std::uint64_t Aggregate::freeze_cp_generation() {
  // Aggregate-level state first, then the volumes; the crash point sits
  // between the two so the sweep exercises a genuinely half-swapped
  // generation (aggregate frozen, volumes still staging).  Nothing here
  // touches media, so recovery sees exactly the last completed CP.
  std::uint64_t folded = activemap_.metafile().freeze_dirty_generation();
  walloc_.freeze_generation();
  WAFL_CRASH_POINT_RT(runtime_, "cp.in_gen_swap");
  for (const auto& vol : volumes_) {
    folded += vol->freeze_cp_generation();
  }
  return folded;
}

FlexVol& Aggregate::add_volume(const FlexVolConfig& vcfg) {
  const auto id = static_cast<VolumeId>(volumes_.size());
  volumes_.push_back(
      std::make_unique<FlexVol>(id, vcfg, rng_.next(), runtime_));
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
  WAFL_ASSERT(vvbn < (1ull << 48));
  owner_[pvbn] = (static_cast<std::uint64_t>(vol) << 48) | vvbn;
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
  // Reset the entries seeding may claim: every free block of the group.
  const RgAllocator& group = walloc_.group(rg);
  for (Vbn v = group.base(); v < group.end(); ++v) {
    if (!activemap_.is_allocated(v)) owner_[v] = kNoOwner;
  }
  walloc_.seed_occupancy(rg, fraction, rng);
}

std::optional<Aggregate::BlockOwner> Aggregate::owner_of(Vbn pvbn) const {
  WAFL_ASSERT(pvbn < total_blocks_);
  if (!activemap_.is_allocated(pvbn)) return std::nullopt;
  const std::uint64_t packed = owner_[pvbn];
  if (packed == kNoOwner) return std::nullopt;
  return BlockOwner{static_cast<VolumeId>(packed >> 48),
                    packed & ((1ull << 48) - 1)};
}

}  // namespace wafl
