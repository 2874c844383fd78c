#include "wafl/segment_cleaner.hpp"

#include "obs/obs.hpp"

namespace wafl {
namespace {

/// The group's best cleaning candidate: highest-scoring AA that is not
/// already empty, not yet cleaned, free enough to be worth the I/O, and
/// resident in the heap (not an allocator cursor).
AaId pick_candidate(const RgAllocator& group,
                    const std::unordered_set<AaId>& cleaned,
                    double min_free_fraction) {
  const AaScoreBoard& board = group.board();
  const AaLayout& layout = group.layout();
  AaId best = kInvalidAaId;
  AaScore best_score = 0;
  for (AaId aa = 0; aa < board.aa_count(); ++aa) {
    const AaScore score = board.score(aa);
    const AaScore capacity = layout.aa_capacity(aa);
    if (score == capacity) continue;  // already empty
    if (cleaned.contains(aa)) continue;
    if (static_cast<double>(score) <
        min_free_fraction * static_cast<double>(capacity)) {
      continue;
    }
    // Not in the heap: checked out elsewhere.
    if (!group.selector().heap().contains(aa)) continue;
    if (best == kInvalidAaId || score > best_score) {
      best = aa;
      best_score = score;
    }
  }
  return best;
}

std::uint32_t empty_aa_count(const RgAllocator& group) {
  const AaScoreBoard& board = group.board();
  const AaLayout& layout = group.layout();
  std::uint32_t empties = 0;
  for (AaId aa = 0; aa < board.aa_count(); ++aa) {
    if (board.score(aa) == layout.aa_capacity(aa)) ++empties;
  }
  return empties;
}

}  // namespace

std::int64_t SegmentCleaner::clean_one(Aggregate& agg, RaidGroupId rg,
                                       AaId aa, CpStats& stats) {
  obs::TraceSpan span(obs::SpanKind::kCleanerCleanOne, rg);
  const AaLayout& layout = agg.write_allocator().group(rg).layout();
  const Vbn begin = layout.aa_begin(aa);
  const Vbn end = layout.aa_end(aa);

  // Collect the AA's live blocks and verify they are all relocatable.
  std::vector<Vbn> live;
  for (Vbn v = begin; v < end; ++v) {
    if (!agg.activemap().is_allocated(v)) continue;
    if (!agg.owner_of(v).has_value()) {
      return -1;  // unowned data (aging seeds): cannot relocate safely
    }
    live.push_back(v);
  }

  // Relocate through the normal allocator; the source AA is checked out,
  // so the new locations land in other AAs.  Cleaning must not start
  // without relocation headroom — a partial failure would leak blocks.
  // The targets are newly allocated, so they never alias the live blocks
  // released after the loop.
  std::vector<Vbn> targets;
  targets.reserve(live.size());
  const bool ok = agg.allocate_pvbns(live.size(), targets, stats);
  WAFL_ASSERT_MSG(ok, "segment cleaner ran out of relocation space");
  for (std::size_t i = 0; i < live.size(); ++i) {
    const auto owner = *agg.owner_of(live[i]);
    const Vbn old = agg.volume(owner.vol).relocate(owner.vvbn, targets[i]);
    WAFL_ASSERT(old == live[i]);
    agg.set_owner(targets[i], owner.vol, owner.vvbn);
  }
  agg.release_pvbns(live);
  span.set_b(live.size());
  return static_cast<std::int64_t>(live.size());
}

CleanerReport SegmentCleaner::run(Aggregate& agg) {
  CleanerReport report;
  obs::TraceSpan pass_span(obs::SpanKind::kCleanerPass);
  // The cleaner is an allocation-engine client: candidate selection and
  // AA checkout speak to the WriteAllocator directly; the aggregate is
  // only consulted for what it still owns (activemap, block ownership,
  // volumes).
  WriteAllocator& walloc = agg.write_allocator();
  if (cleaned_.size() < walloc.group_count()) {
    cleaned_.resize(walloc.group_count());
  }

  agg.begin_cp();
  std::uint64_t budget = cfg_.relocation_budget;

  for (RaidGroupId rg = 0; rg < walloc.group_count(); ++rg) {
    const RgAllocator& group = walloc.group(rg);
    if (group.selector().has_hbps()) continue;  // heap-managed groups only
    while (budget > 0 && empty_aa_count(group) < cfg_.empty_pool_target) {
      const AaId aa =
          pick_candidate(group, cleaned_[rg], cfg_.min_free_fraction);
      if (aa == kInvalidAaId) break;

      const std::uint64_t live_blocks =
          group.layout().aa_capacity(aa) - group.board().score(aa);
      if (live_blocks > budget) break;  // not affordable this pass
      if (live_blocks > agg.free_blocks() / 2) break;  // no headroom

      if (!walloc.checkout_aa(rg, aa)) break;
      const std::int64_t moved = clean_one(agg, rg, aa, report.cp);
      walloc.checkin_aa(rg, aa);
      if (moved < 0) {
        // Unmovable content: remember so we stop retrying it.
        cleaned_[rg].insert(aa);
        ++report.aas_skipped_unowned;
        continue;
      }
      cleaned_[rg].insert(aa);
      ++report.aas_cleaned;
      report.blocks_relocated += static_cast<std::uint64_t>(moved);
      budget -= static_cast<std::uint64_t>(moved);
    }
  }

  // The cleaning pass commits as its own CP: frees apply, caches rebalance,
  // metafiles flush.
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    agg.volume(v).finish_cp(report.cp);
  }
  agg.finish_cp(report.cp);

  WAFL_OBS({
    const Runtime& rt = agg.runtime();
    obs::Registry& reg = rt.registry();
    const std::string l = rt.labels();
    reg.counter("wafl.cleaner.passes", l).inc();
    reg.counter("wafl.cleaner.aas_cleaned", l).add(report.aas_cleaned);
    reg.counter("wafl.cleaner.blocks_relocated", l)
        .add(report.blocks_relocated);
  });
  pass_span.set_b(report.blocks_relocated);
  return report;
}

}  // namespace wafl
