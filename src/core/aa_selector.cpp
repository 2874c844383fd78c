#include "core/aa_selector.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wafl {
namespace {

void count(obs::Counter* c, std::uint64_t n) {
  WAFL_OBS(if (c != nullptr) c->add(n));
}

Hbps::Config hbps_config(const AaLayout& layout) {
  return Hbps::Config{
      layout.aa_blocks(),
      std::max<std::uint32_t>(1, layout.aa_blocks() / kHbpsBinCount),
      kHbpsListCapacity};
}

}  // namespace

AaSelector::AaSelector(const AaLayout& layout, AaScoreBoard& board,
                       AaCacheKind kind, AaSelectPolicy policy,
                       std::uint64_t rng_seed)
    : layout_(layout), board_(board), policy_(policy), rng_(rng_seed) {
  if (kind == AaCacheKind::kHbps) {
    hbps_.emplace(hbps_config(layout_));
  } else {
    heap_.emplace(layout_.aa_count());
  }
  rebuild();
}

void AaSelector::bind_metrics(const Metrics& m) {
  metrics_ = m;
  if (heap_.has_value()) heap_->bind_rekey_counter(m.heap_rekeys);
  if (hbps_.has_value()) hbps_->bind_rebin_counter(m.hbps_rebins);
}

const AaCache& AaSelector::cache() const noexcept {
  if (heap_.has_value()) return *heap_;
  return *hbps_;
}

AaCache& AaSelector::cache_mut() noexcept {
  if (heap_.has_value()) return *heap_;
  return *hbps_;
}

const MaxHeapAaCache& AaSelector::heap() const {
  WAFL_ASSERT_MSG(heap_.has_value(), "space has no max-heap (HBPS)");
  return *heap_;
}

const Hbps& AaSelector::hbps() const {
  WAFL_ASSERT_MSG(hbps_.has_value(), "space has no HBPS (max-heap)");
  return *hbps_;
}

bool AaSelector::replenish() {
  if (policy_ != AaSelectPolicy::kCache || !hbps_.has_value() ||
      !hbps_->needs_replenish()) {
    return false;
  }
  hbps_->build(board_);
  count(metrics_.hbps_replenishes, 1);
  return true;
}

void AaSelector::apply_cp() {
  const auto changes = board_.apply_cp_deltas();
  count(metrics_.scoreboard_changed, changes.size());
  if (policy_ != AaSelectPolicy::kCache) return;
  cache_mut().apply_changes(changes);
  count(metrics_.cp_rekeys, changes.size());
  for (const AaId aa : retired_) {
    cache_mut().insert(aa, board_.score(aa));
  }
  count(metrics_.putbacks, retired_.size());
  retired_.clear();
}

std::optional<TopAaImage> AaSelector::encode_topaa() const {
  if (policy_ != AaSelectPolicy::kCache) return std::nullopt;
  if (heap_.has_value()) {
    auto best = heap_->top(kTopAaRaidAwareEntries);
    if (open_ != kInvalidAaId) {
      best.push_back({open_, board_.score(open_)});
      std::sort(best.begin(), best.end(), [](const AaPick& a, const AaPick& b) {
        return a.score != b.score ? a.score > b.score : a.aa < b.aa;
      });
      best.resize(std::min<std::size_t>(best.size(), kTopAaRaidAwareEntries));
    }
    return TopAaFile::encode_raid_aware(best);
  }
  if (open_ == kInvalidAaId) return TopAaFile::encode_raid_agnostic(*hbps_);
  Hbps snapshot = *hbps_;
  snapshot.insert(open_, board_.score(open_));
  return TopAaFile::encode_raid_agnostic(snapshot);
}

bool AaSelector::load_topaa(TopAaFile& file) {
  open_ = kInvalidAaId;
  retired_.clear();
  if (heap_.has_value()) {
    const auto picks = file.load_raid_aware();
    if (!picks.has_value()) return false;
    heap_->seed(*picks);
    return true;
  }
  auto loaded = file.load_raid_agnostic();
  if (!loaded.has_value()) return false;
  // The loaded image arrives with no counter binding; restore ours.
  hbps_ = std::move(*loaded);
  hbps_->bind_rebin_counter(metrics_.hbps_rebins);
  return true;
}

void AaSelector::rebuild() {
  open_ = kInvalidAaId;
  retired_.clear();
  if (policy_ != AaSelectPolicy::kCache) return;
  if (heap_.has_value()) {
    heap_->build(board_);
    return;
  }
  hbps_ = Hbps(hbps_->config());
  hbps_->bind_rebin_counter(metrics_.hbps_rebins);
  hbps_->build(board_);
}

bool AaSelector::checkout(AaId aa) {
  if (!heap_.has_value()) return false;  // HBPS spaces are not cleaned
  if (checked_out_ != kInvalidAaId || !heap_->remove(aa)) return false;
  checked_out_ = aa;
  return true;
}

void AaSelector::checkin(AaId aa) {
  WAFL_ASSERT(aa == checked_out_);
  checked_out_ = kInvalidAaId;
  cache_mut().insert(aa, board_.score(aa));
}

}  // namespace wafl
