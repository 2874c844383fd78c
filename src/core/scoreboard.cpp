#include "core/scoreboard.hpp"

namespace wafl {

AaScoreBoard::AaScoreBoard(const AaLayout& layout)
    : layout_(layout),
      scores_(layout.aa_count()),
      deltas_(layout.aa_count(), 0),
      dirty_flag_(layout.aa_count(), false) {
  for (AaId aa = 0; aa < scores_.size(); ++aa) {
    scores_[aa] = layout_.aa_capacity(aa);
  }
}

AaScoreBoard::AaScoreBoard(const AaLayout& layout,
                           const BitmapMetafile& metafile)
    : layout_(layout),
      scores_(layout.aa_count()),
      deltas_(layout.aa_count(), 0),
      dirty_flag_(layout.aa_count(), false) {
  WAFL_ASSERT(layout.base() + layout.total_blocks() <= metafile.size_bits());
  for (AaId aa = 0; aa < scores_.size(); ++aa) {
    scores_[aa] = static_cast<AaScore>(
        metafile.free_in_range(layout_.aa_begin(aa), layout_.aa_end(aa)));
  }
}

void AaScoreBoard::note_delta(AaId aa, std::int32_t d) {
  deltas_[aa] += d;
  if (!dirty_flag_[aa]) {
    dirty_flag_[aa] = true;
    dirty_.push_back(aa);
  }
}

std::span<const ScoreChange> AaScoreBoard::apply_cp_deltas() {
  changes_.clear();
  for (const AaId aa : dirty_) {
    const std::int32_t d = deltas_[aa];
    deltas_[aa] = 0;
    dirty_flag_[aa] = false;
    if (d == 0) continue;
    const AaScore old_score = scores_[aa];
    const auto capacity = static_cast<std::int64_t>(layout_.aa_capacity(aa));
    const std::int64_t raw = static_cast<std::int64_t>(old_score) + d;
    WAFL_ASSERT_MSG(raw >= 0 && raw <= capacity,
                    "AA score delta out of range");
    const auto new_score = static_cast<AaScore>(raw);
    scores_[aa] = new_score;
    changes_.push_back({aa, old_score, new_score});
  }
  dirty_.clear();
  // Deliberately obs-free: this fold runs concurrently per RAID group at
  // the CP boundary, and callers (RgAllocator, FlexVol) count the changed
  // AAs through their own cached, per-owner-labelled handles.
  return changes_;
}

void AaScoreBoard::rescan(AaId aa, const BitmapMetafile& metafile) {
  WAFL_ASSERT(aa < scores_.size());
  scores_[aa] = static_cast<AaScore>(
      metafile.free_in_range(layout_.aa_begin(aa), layout_.aa_end(aa)));
  if (dirty_flag_[aa]) {
    deltas_[aa] = 0;  // the rescan already reflects any applied state
  }
}

std::uint64_t AaScoreBoard::total_free() const noexcept {
  std::uint64_t total = 0;
  for (const AaScore s : scores_) total += s;
  return total;
}

}  // namespace wafl
