#include "wafl/delayed_free.hpp"

#include "util/assert.hpp"

namespace wafl {
namespace {

Hbps::Config log_config(std::uint32_t region_blocks) {
  Hbps::Config cfg;
  cfg.max_score = region_blocks;
  cfg.bin_width = std::max<std::uint32_t>(1, region_blocks / kHbpsBinCount);
  cfg.list_capacity = kHbpsListCapacity;
  return cfg;
}

}  // namespace

DelayedFreeLog::DelayedFreeLog(std::uint64_t total_blocks,
                               std::uint32_t region_blocks)
    : region_blocks_(region_blocks),
      pending_((total_blocks + region_blocks - 1) / region_blocks),
      hbps_(log_config(region_blocks)) {
  WAFL_ASSERT(total_blocks > 0);
  WAFL_ASSERT(region_blocks > 0);
  for (std::uint32_t r = 0; r < pending_.size(); ++r) {
    hbps_.insert(r, 0);
  }
}

void DelayedFreeLog::log_free(Vbn v) {
  const std::uint32_t r = region_of(v);
  WAFL_ASSERT(r < pending_.size());
  Region& region = pending_[r];
  WAFL_ASSERT_MSG(region.count < region_blocks_,
                  "region has more delayed frees than blocks");
  region.vbns.push_back(v);
  ++region.count;
  ++pending_total_;
  hbps_.update_score(r, region.count - 1, region.count);
}

std::optional<DelayedFreeLog::Drain> DelayedFreeLog::drain_richest() {
  if (pending_total_ == 0) return std::nullopt;

  // Zero-count regions can share the worst bin with one-count regions, so
  // skim until a non-empty region surfaces; skimmed regions go straight
  // back at score 0.
  std::vector<std::uint32_t> zeros;
  std::optional<Drain> out;
  for (;;) {
    auto pick = hbps_.take_best();
    if (!pick.has_value()) {
      // The two-page list ran dry: rebuild from the exact counts — the
      // §3.3.2 background replenish.
      std::vector<AaScore> scores(pending_.size());
      for (std::uint32_t r = 0; r < pending_.size(); ++r) {
        scores[r] = pending_[r].count;
      }
      hbps_.build(scores);
      pick = hbps_.take_best();
      WAFL_ASSERT(pick.has_value());
    }
    const std::uint32_t r = pick->aa;
    if (pending_[r].count == 0) {
      zeros.push_back(r);
      continue;
    }
    out.emplace();
    out->region = r;
    out->vbns.swap(pending_[r].vbns);
    pending_total_ -= pending_[r].count;
    pending_[r].count = 0;
    hbps_.insert(r, 0);  // drained: back in at the bottom
    break;
  }
  for (const std::uint32_t r : zeros) {
    hbps_.insert(r, 0);
  }
  return out;
}

bool DelayedFreeLog::validate() const {
  std::uint64_t total = 0;
  for (const Region& region : pending_) {
    if (region.count != region.vbns.size()) return false;
    total += region.count;
  }
  return total == pending_total_ && hbps_.validate();
}

}  // namespace wafl
