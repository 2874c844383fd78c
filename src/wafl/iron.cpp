#include "wafl/iron.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fault/crash_point.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace wafl {
namespace {

/// Recomputes the true top-K (descending score, ascending id on ties) from
/// a freshly scanned scoreboard.
std::vector<AaPick> recompute_top(const AaScoreBoard& board, std::size_t k) {
  std::vector<AaPick> all;
  all.reserve(board.aa_count());
  for (AaId aa = 0; aa < board.aa_count(); ++aa) {
    all.push_back({aa, board.score(aa)});
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), [](const AaPick& a, const AaPick& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.aa < b.aa;
                    });
  all.resize(k);
  return all;
}

/// A persisted heap-form TopAA is acceptable when every entry carries the
/// block's true score and no omitted AA scores strictly higher than the
/// worst persisted entry (ties are interchangeable).
bool raid_aware_content_ok(const std::vector<AaPick>& persisted,
                           const AaScoreBoard& fresh) {
  if (persisted.size() !=
      std::min<std::size_t>(kTopAaRaidAwareEntries, fresh.aa_count())) {
    return false;
  }
  std::unordered_set<AaId> in_file;
  AaScore worst = persisted.empty() ? 0 : persisted.back().score;
  for (const AaPick& p : persisted) {
    if (p.aa >= fresh.aa_count()) return false;
    if (fresh.score(p.aa) != p.score) return false;
    if (!in_file.insert(p.aa).second) return false;  // duplicate entry
  }
  for (AaId aa = 0; aa < fresh.aa_count(); ++aa) {
    if (!in_file.contains(aa) && fresh.score(aa) > worst) {
      return false;  // a better AA was omitted
    }
  }
  return true;
}

/// A persisted HBPS is acceptable when its histogram matches the bin
/// counts recomputed from the bitmaps exactly (the list is, by design,
/// any valid subset of the best bins, so only counts are checkable).
bool raid_agnostic_content_ok(const Hbps& persisted,
                              const AaScoreBoard& fresh) {
  if (persisted.size() != fresh.aa_count()) return false;
  std::vector<std::uint32_t> counts(persisted.bin_count(), 0);
  for (AaId aa = 0; aa < fresh.aa_count(); ++aa) {
    ++counts[persisted.bin_of(std::min(fresh.score(aa),
                                       persisted.config().max_score))];
  }
  for (std::uint32_t b = 0; b < persisted.bin_count(); ++b) {
    if (persisted.histogram_count(b) != counts[b]) return false;
  }
  return true;
}

Hbps rebuilt_hbps(const AaLayout& layout, const AaScoreBoard& fresh) {
  Hbps rebuilt(Hbps::Config{
      layout.aa_blocks(),
      std::max<std::uint32_t>(1, layout.aa_blocks() / kHbpsBinCount),
      kHbpsListCapacity});
  rebuilt.build(fresh);
  return rebuilt;
}

/// One checkable unit (RAID group or volume) with its verdict and, when
/// repair is needed, the staged replacement image.  Filled by the
/// (possibly parallel) verify fan-out, consumed by the serial apply —
/// verdicts and images are pure functions of the media, so the unit
/// array's content is worker-count-independent.
struct RepairUnit {
  bool is_vol = false;
  RaidGroupId rg = 0;
  VolumeId vol = 0;
  bool unreadable = false;
  bool stale = false;
  bool rewrite = false;
  bool raid_agnostic = false;
  std::vector<AaPick> picks;   // staged heap-form image
  std::optional<Hbps> hbps;    // staged HBPS-form image
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

IronReport iron_check_topaa(Aggregate& agg) {
  IronReport report;
  const Runtime& rt = agg.runtime();
  ThreadPool* pool = rt.pool();
  obs::TraceSpan span(obs::SpanKind::kIronCheck);

  // Units in fixed id order: groups, then volumes.  This order is the
  // serial apply order (and so the media write order) whatever the
  // verify scheduling was.
  std::vector<RepairUnit> units;
  units.reserve(agg.raid_group_count() + agg.volume_count());
  for (RaidGroupId rg = 0; rg < agg.raid_group_count(); ++rg) {
    RepairUnit u;
    u.rg = rg;
    u.raid_agnostic = agg.rg_is_raid_agnostic(rg);
    units.push_back(std::move(u));
  }
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    RepairUnit u;
    u.is_vol = true;
    u.vol = v;
    u.raid_agnostic = true;
    units.push_back(std::move(u));
  }

  // --- Verify fan-out: read, cross-check, stage — never write ------------
  const auto t_verify = std::chrono::steady_clock::now();
  auto verify_one = [&](std::size_t i) {
    RepairUnit& u = units[i];
    if (!u.is_vol) {
      const AaLayout& layout = agg.rg_layout(u.rg);
      const AaScoreBoard fresh(layout, agg.activemap().metafile());
      TopAaFile file(agg.topaa_store(), agg.rg_topaa_block(u.rg));
      if (u.raid_agnostic) {
        const auto loaded = file.load_raid_agnostic();
        if (!loaded.has_value()) {
          u.unreadable = true;
        } else if (!raid_agnostic_content_ok(*loaded, fresh)) {
          u.stale = true;
        }
        u.rewrite = u.unreadable || u.stale;
        if (u.rewrite) u.hbps = rebuilt_hbps(layout, fresh);
      } else {
        const auto loaded = file.load_raid_aware();
        if (!loaded.has_value()) {
          u.unreadable = true;
        } else if (!raid_aware_content_ok(*loaded, fresh)) {
          u.stale = true;
        }
        u.rewrite = u.unreadable || u.stale;
        if (u.rewrite) u.picks = recompute_top(fresh, kTopAaRaidAwareEntries);
      }
    } else {
      FlexVol& vol = agg.volume(u.vol);
      const AaScoreBoard fresh(vol.layout(), vol.activemap().metafile());
      const std::uint64_t base =
          vol.store().capacity_blocks() - TopAaFile::kRaidAgnosticBlocks;
      TopAaFile file(vol.store(), base);
      const auto loaded = file.load_raid_agnostic();
      if (!loaded.has_value()) {
        u.unreadable = true;
      } else if (!raid_agnostic_content_ok(*loaded, fresh)) {
        u.stale = true;
      }
      u.rewrite = u.unreadable || u.stale;
      if (u.rewrite) u.hbps = rebuilt_hbps(vol.layout(), fresh);
    }
    // Fires whatever the verdict: a crash here loses only staged,
    // never-written state, at any point of the fan-out.
    WAFL_CRASH_POINT_RT(rt, "iron.in_parallel_verify");
  };
  parallel_for(pool, units.size(), 1, verify_one);
  report.verify_ms = ms_since(t_verify);

  // --- Serial counter fold ----------------------------------------------
  for (const RepairUnit& u : units) {
    if (!u.is_vol) {
      ++report.rg_checked;
      if (u.unreadable) ++report.rg_unreadable;
      if (u.stale) ++report.rg_stale;
      if (u.rewrite) ++report.rg_rewritten;
    } else {
      ++report.vol_checked;
      if (u.unreadable) ++report.vol_unreadable;
      if (u.stale) ++report.vol_stale;
      if (u.rewrite) ++report.vol_rewritten;
    }
  }

  // --- Serial apply: staged images land in fixed unit order --------------
  const auto t_apply = std::chrono::steady_clock::now();
  for (RepairUnit& u : units) {
    // Fires per unit even when clean, so a crash can land between any
    // two applies — including before the first and after the last.
    WAFL_CRASH_POINT_RT(rt, "iron.in_repair_apply");
    if (!u.rewrite) continue;
    if (!u.is_vol) {
      TopAaFile file(agg.topaa_store(), agg.rg_topaa_block(u.rg));
      if (u.raid_agnostic) {
        file.save_raid_agnostic(*u.hbps);
      } else {
        file.save_raid_aware(u.picks);
      }
    } else {
      FlexVol& vol = agg.volume(u.vol);
      TopAaFile file(vol.store(),
                     vol.store().capacity_blocks() -
                         TopAaFile::kRaidAgnosticBlocks);
      file.save_raid_agnostic(*u.hbps);
    }
  }
  report.apply_ms = ms_since(t_apply);

  WAFL_OBS({
    obs::Registry& reg = rt.registry();
    const std::string l = rt.labels();
    reg.counter("wafl.iron.runs", l).inc();
    reg.counter("wafl.iron.rg_unreadable", l).add(report.rg_unreadable);
    reg.counter("wafl.iron.rg_stale", l).add(report.rg_stale);
    reg.counter("wafl.iron.vol_unreadable", l).add(report.vol_unreadable);
    reg.counter("wafl.iron.vol_stale", l).add(report.vol_stale);
    reg.counter("wafl.iron.rewrites", l)
        .add(report.rg_rewritten + report.vol_rewritten);
  });
  span.set_b(report.rg_rewritten + report.vol_rewritten);
  return report;
}

}  // namespace wafl
