#include "wafl/write_allocator.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>

#include "core/aa_sizing.hpp"
#include "device/ssd.hpp"
#include "fault/crash_point.hpp"
#include "util/thread_pool.hpp"
#include "wafl/mount.hpp"

namespace wafl {

// ---------------------------------------------------------------------------
// RgAllocator
// ---------------------------------------------------------------------------

RgAllocator::RgAllocator(RaidGroupId id, const RaidGroupConfig& rgc, Vbn base,
                         AaSelectPolicy policy, double skip_fraction,
                         std::uint64_t rng_seed, Activemap& activemap,
                         BlockStore& topaa_store, std::uint64_t topaa_base,
                         const Runtime& rt)
    : rt_(&rt),
      raid_(id, RaidGeometry(rgc.data_devices, rgc.parity_devices,
                             rgc.device_blocks)),
      base_(base),
      aa_stripes_(rgc.aa_stripes.value_or(
          choose_raid_aa_stripes(media_geometry(rgc.media)))),
      layout_(AaLayout::raid(base, raid_.geometry(), aa_stripes_)),
      board_(layout_),
      // Object-store pool (§3.3.2): bounded-memory HBPS over flat AAs;
      // RAID group (§3.3.1): exact max-heap over every AA.
      selector_(layout_, board_,
                rgc.media.type == MediaType::kObjectStore
                    ? AaCacheKind::kHbps
                    : AaCacheKind::kMaxHeap,
                policy, rng_seed),
      activemap_(activemap),
      topaa_store_(topaa_store),
      topaa_base_(topaa_base) {
  WAFL_ASSERT(rgc.device_blocks % kTetrisStripes == 0);
  WAFL_ASSERT_MSG(raid_.geometry().stripes() % aa_stripes_ == 0,
                  "device size must be a whole number of AAs");
  // Native redundancy: no RAID geometry (§3.1) — one logical device, no
  // parity, flat consecutive-VBN AAs.
  WAFL_ASSERT_MSG(rgc.media.type != MediaType::kObjectStore ||
                      (rgc.data_devices == 1 && rgc.parity_devices == 0),
                  "object-store pools are 1 device, 0 parity");
  skip_threshold_ = static_cast<AaScore>(
      skip_fraction * static_cast<double>(layout_.aa_blocks()));
  device_busy_.assign(raid_.geometry().total_devices(), 0);
  window_words_.assign(rgc.data_devices, 0);
  for (std::uint32_t d = 0; d < rgc.data_devices; ++d) {
    data_devices_.push_back(make_device(rgc.media, rgc.device_blocks));
  }
  for (std::uint32_t p = 0; p < rgc.parity_devices; ++p) {
    parity_devices_.push_back(make_device(rgc.media, rgc.device_blocks));
  }
  resolve_metrics();
}

void RgAllocator::resolve_metrics() {
  WAFL_OBS({
    obs::Registry& reg = rt_->registry();
    const std::string rg =
        rt_->labels("rg=\"" + std::to_string(raid_.id()) + "\"");
    AaSelector::Metrics m;
    m.checkouts = &reg.counter("wafl.agg.aa_checkouts", rg);
    m.checkout_free_frac = &reg.linear_histogram(
        "wafl.agg.aa_checkout_free_frac", 0.0, 1.0, 64, rg);
    m.putbacks = &reg.counter("wafl.agg.aa_putbacks", rg);
    m.cp_rekeys = &reg.counter("wafl.heap.cp_rekeys", rg);
    m.scoreboard_changed = &reg.counter("wafl.scoreboard.cp_changed_aas", rg);
    m.hbps_replenishes = &reg.counter("wafl.hbps.replenishes", rg);
    // Aggregate-wide (rg-unlabelled) counters the cache structures tick
    // directly; every group in a runtime shares the same handles.
    m.heap_rekeys = &reg.counter("wafl.heap.rekeys", rt_->labels());
    m.hbps_rebins = &reg.counter("wafl.hbps.rebins", rt_->labels());
    selector_.bind_metrics(m);
    for (std::uint32_t d = 0; d < raid_.geometry().total_devices(); ++d) {
      metrics_.device_busy.push_back(&reg.counter(
          "wafl.device.busy_ns", rg + ",dev=\"" + std::to_string(d) + "\""));
    }
  });
}

void RgAllocator::begin_cp() {
  std::fill(device_busy_.begin(), device_busy_.end(), 0);
}

std::uint64_t RgAllocator::live_aa_free(AaId aa) const {
  // Staged allocations are bit-set but not yet in the summary: edge
  // blocks (popcount) are exact already; interior blocks subtract the
  // overlay.  An AA's interior blocks never straddle groups, so the
  // group-local overlay covers every block the query consults.
  WAFL_ASSERT(staged_);
  return activemap_.metafile().free_in_range_staged(
      layout_.aa_begin(aa), layout_.aa_end(aa), staged_allocs_, staged_base_);
}

bool RgAllocator::plan_eligible() {
  if (selector_.policy() != AaSelectPolicy::kCache) return true;
  // §3.3.2's background scan — run it at plan time so a drained list does
  // not read as fragmentation.  Deterministic: the plan is serial and the
  // scan is a pure function of the group's scoreboard.
  selector_.replenish();
  const auto best = selector_.peek_best_score();
  return best.has_value() && *best >= skip_threshold_;
}

std::uint64_t RgAllocator::plan_capacity() const {
  // Frees are deferred to the CP boundary, so the bitmap's free count is
  // an exact bound for the whole CP, less the free bits no fill can reach:
  // those behind the cursor (the open tetris window's claimed blocks, not
  // yet bit-set, and blocks an earlier boundary freed behind it) and those
  // of the cleaner's checked-out AA.
  const BitmapMetafile& map = activemap_.metafile();
  const AaId open = selector_.open_aa();
  const AaId cleaned = selector_.checked_out();
  WAFL_ASSERT(window_blocks_ == 0 || open != kInvalidAaId);
  std::uint64_t unreachable = 0;
  if (open != kInvalidAaId) {
    unreachable += map.free_in_range(layout_.aa_begin(open), selector_.pos());
  }
  if (cleaned != kInvalidAaId) {
    unreachable += map.free_in_range(layout_.aa_begin(cleaned),
                                     layout_.aa_end(cleaned));
  }
  const std::uint64_t free = map.free_in_range(base_, end());
  WAFL_ASSERT(free >= unreachable);
  return free - unreachable;
}

std::uint64_t RgAllocator::plan_cursor_free() const {
  const AaId open = selector_.open_aa();
  if (open == kInvalidAaId) return 0;
  return activemap_.metafile().free_in_range(selector_.pos(),
                                             layout_.aa_end(open));
}

void RgAllocator::begin_staged_alloc() {
  WAFL_ASSERT(!staged_);
  staged_ = true;
  staged_base_ = base_ / kBitsPerBitmapBlock;
  const std::uint64_t last = (end() - 1) / kBitsPerBitmapBlock;
  staged_allocs_.assign(last - staged_base_ + 1, 0);
}

BitmapMetafile::AllocDelta RgAllocator::end_staged_alloc() {
  WAFL_ASSERT(staged_);
  BitmapMetafile::AllocDelta d;
  for (std::size_t i = 0; i < staged_allocs_.size(); ++i) {
    if (staged_allocs_[i] != 0) {
      d.per_block.emplace_back(staged_base_ + i, staged_allocs_[i]);
    }
  }
  staged_ = false;
  staged_allocs_.clear();
  return d;
}

std::uint64_t RgAllocator::fill(std::uint64_t need, std::vector<Vbn>& out,
                                CpStats& stats) {
  obs::TraceSpan span(obs::SpanKind::kRgFill, raid_.id());
  const BitmapMetafile& map = activemap_.metafile();
  const Bitmap& bits = map.bits();
  const std::uint64_t bpt = raid_.geometry().blocks_per_tetris();

  auto live_free = [this](AaId aa) { return live_aa_free(aa); };

  for (;;) {
    if (!selector_.ensure(live_free, stats.agg_pick_free_frac, nullptr)) {
      return 0;
    }
    const Vbn aa_end = layout_.aa_end(selector_.open_aa());
    Vbn pos = selector_.pos();

    if (window_blocks_ == 0) {
      // No tetris is open: jump straight to the AA's next free block so a
      // run of fully-consumed windows costs one bitmap scan, not one turn
      // per window.  The jump counts the found bit and the take below
      // counts it again, as the per-block scan did.
      const Vbn v = map.find_free(pos, aa_end);
      stats.agg_bits_scanned += (v == aa_end ? aa_end : v + 1) - pos;
      if (v == aa_end) {
        selector_.retire();
        continue;
      }
      pos = v;
      window_tetris_ = (pos - base_) / bpt;
    }

    // AAs are whole tetrises and base_ is word-aligned, so the window is
    // D whole words, one per data device, inside the open AA.
    const Vbn window_base = base_ + window_tetris_ * bpt;
    const Vbn window_end = window_base + bpt;
    WAFL_ASSERT(pos >= window_base && pos < window_end);
    WAFL_ASSERT(window_end <= aa_end);

    // Take free bits a word at a time, lowest first, stopping after the
    // `need`th: the cursor then rests just past the last block taken, or
    // at the next word when the word ran out first.
    const Vbn start = pos;
    std::uint64_t taken = 0;
    while (taken < need && pos < window_end) {
      const std::uint64_t word = pos / 64;
      std::uint64_t free =
          ~bits.word(word) & (~std::uint64_t{0} << (pos % 64));
      std::uint64_t take = 0;
      int last = 0;
      for (; free != 0 && taken < need; free &= free - 1, ++taken) {
        last = std::countr_zero(free);
        take |= std::uint64_t{1} << last;
        out.push_back(word * 64 + static_cast<Vbn>(last));
      }
      window_words_[word - window_base / 64] |= take;
      pos = taken == need ? word * 64 + static_cast<Vbn>(last) + 1
                          : (word + 1) * 64;
    }
    stats.agg_bits_scanned += pos - start;
    window_blocks_ += taken;
    selector_.set_pos(pos);

    if (pos == window_end) {
      // Window exhausted: write it out and advance (possibly off the AA).
      flush_window(stats);
      if (window_end == aa_end) selector_.retire();
    }
    if (taken > 0) {
      span.set_b(taken);
      return taken;
    }
    // Otherwise the open window had no free blocks left (a previous turn
    // drained it): it has been emitted above; try again from a fresh jump.
  }
}

void RgAllocator::clear_window() {
  std::fill(window_words_.begin(), window_words_.end(), 0);
  window_blocks_ = 0;
}

void RgAllocator::flush_window(CpStats& stats) {
  if (window_blocks_ == 0) return;
  obs::TraceSpan span(obs::SpanKind::kRgTetrisFlush, raid_.id(),
                      window_blocks_);

  // The window's in-use words are read straight from the activemap: its
  // blocks are marked allocated only below, so the classification sees
  // pre-CP occupancy.
  const RaidGeometry& geom = raid_.geometry();
  const std::uint32_t ndata = geom.data_devices();
  BitmapMetafile& map = activemap_.metafile();
  const std::uint64_t first_word =
      (base_ + geom.tetris_base_vbn(window_tetris_)) / 64;
  const std::span<const std::uint64_t> in_use(
      map.bits().words().data() + first_word, ndata);
  raid_.builder().build(window_tetris_, window_words_, in_use, tetris_write_);
  const TetrisWrite& tw = tetris_write_;
  raid_.stats().accumulate(tw);

  ++stats.tetrises;
  stats.full_stripes += tw.full_stripes;
  stats.partial_stripes += tw.partial_stripes;
  stats.parity_read_blocks += tw.parity_read_blocks;
  stats.write_chains += tw.total_chains();
  stats.blocks_written += tw.data_blocks_written;

  {
    // Submit to the device models (the simulator, timed apart from the
    // classification above).  Parity-computation reads are spread evenly
    // across the group's devices.
    obs::TraceSpan io_span(obs::SpanKind::kRgDeviceWrite, raid_.id(),
                           tw.data_blocks_written + tw.parity_blocks_written);
    const std::uint32_t ndev = geom.total_devices();
    const std::uint64_t read_share = tw.parity_read_blocks / ndev;
    std::uint64_t read_extra = tw.parity_read_blocks % ndev;
    for (std::uint32_t d = 0; d < ndata; ++d) {
      const std::uint64_t reads = read_share + (read_extra > 0 ? 1 : 0);
      if (read_extra > 0) --read_extra;
      device_busy_[d] +=
          data_devices_[d]->write_batch(tw.device_runs[d], reads);
    }
    for (std::uint32_t p = 0; p < geom.parity_devices(); ++p) {
      const std::uint64_t reads = read_share + (read_extra > 0 ? 1 : 0);
      if (read_extra > 0) --read_extra;
      device_busy_[ndata + p] +=
          parity_devices_[p]->write_batch(tw.parity_runs[p], reads);
    }
  }

  // Mark the window's blocks allocated, a word at a time in ascending VBN
  // order (the metafile's and scoreboard's first-touch order is the
  // per-block order).  In staged mode (the parallel execute phase) only
  // the bits are set — they are word-disjoint across groups — and the
  // shared summary/dirty accounting waits in the overlay for the serial
  // merge.
  for (std::uint32_t d = 0; d < ndata; ++d) {
    const std::uint64_t mask = window_words_[d];
    if (mask == 0) continue;
    const std::uint64_t word = first_word + d;
    const auto n = static_cast<std::uint32_t>(std::popcount(mask));
    if (staged_) {
      map.set_allocated_word_unaccounted(word, mask);
      staged_allocs_[word * 64 / kBitsPerBitmapBlock - staged_base_] += n;
    } else {
      map.set_allocated_word(word, mask);
    }
    board_.note_allocs(word * 64, n);
  }
  clear_window();
}

BitmapMetafile::FreeDelta RgAllocator::cp_boundary() {
  obs::TraceSpan span(obs::SpanKind::kFcRgBoundary, raid_.id(), frees_.size());
  // Apply this group's deferred frees: clear the bits in one batch (this
  // group's bitmap words are disjoint from every other group's; the
  // shared free-count summary and dirty set are settled serially by the
  // caller via apply_free_deltas) and tell translation-layer media (TRIM)
  // in deferral order, as the per-bit path did.
  BitmapMetafile& map = activemap_.metafile();
  const RaidGeometry& geom = raid_.geometry();
  BitmapMetafile::FreeDelta delta = map.clear_frees_batched(frees_);
  for (const Vbn v : frees_) {
    const BlockLocation loc = geom.to_location(v - base_);
    data_devices_[loc.device]->invalidate(loc.dbn);
  }
  frees_.clear();
  // Crash here = power loss after the in-memory frees of one group were
  // applied but before anything of this CP persisted.  May fire on a pool
  // thread; ThreadPool rethrows on the caller.
  WAFL_CRASH_POINT_RT(*rt_, "rg.after_frees");

  // CP-boundary rebalance (§3.3.1), retired-AA re-admission, and the
  // staged (not yet written) TopAA image.
  selector_.apply_cp();
  staged_topaa_ = selector_.encode_topaa();
  WAFL_CRASH_POINT_RT(*rt_, "rg.after_topaa_encode");
  return delta;
}

std::uint64_t RgAllocator::commit_topaa() {
  if (!staged_topaa_.has_value()) return 0;
  const std::uint64_t nblocks = staged_topaa_->nblocks;
  obs::TraceSpan span(obs::SpanKind::kFcRgTopaa, raid_.id(), nblocks);
  TopAaFile topaa(topaa_store_, topaa_base_);
  topaa.commit(*staged_topaa_);
  staged_topaa_.reset();
  return nblocks;
}

SimTime RgAllocator::slowest_device_busy() const {
  SimTime slowest = 0;
  for (const SimTime t : device_busy_) {
    slowest = std::max(slowest, t);
  }
  return slowest;
}

void RgAllocator::fold_device_metrics() {
  WAFL_OBS({
    for (std::size_t d = 0; d < device_busy_.size(); ++d) {
      const SimTime busy = device_busy_[d];
      if (busy == 0) continue;
      metrics_.device_busy[d]->add(static_cast<std::uint64_t>(busy));
    }
    std::uint64_t erases = 0;
    std::uint64_t relocations = 0;
    for (const auto* devs : {&data_devices_, &parity_devices_}) {
      for (const auto& dev : *devs) {
        if (const auto* ssd = dynamic_cast<const SsdModel*>(dev.get())) {
          erases += ssd->erases();
          relocations += ssd->gc_relocations();
        }
      }
    }
    if (erases != ssd_erases_folded_) {
      if (metrics_.ssd_erases == nullptr) {
        obs::Registry& reg = rt_->registry();
        const std::string l = rt_->labels();
        metrics_.ssd_collections = &reg.counter("wafl.ssd.gc_collections", l);
        metrics_.ssd_relocated =
            &reg.counter("wafl.ssd.gc_relocated_pages", l);
        metrics_.ssd_erases = &reg.counter("wafl.ssd.erases", l);
      }
      // Every GC pass erases exactly one block.
      metrics_.ssd_collections->add(erases - ssd_erases_folded_);
      metrics_.ssd_erases->add(erases - ssd_erases_folded_);
      metrics_.ssd_relocated->add(relocations - ssd_relocations_folded_);
      ssd_erases_folded_ = erases;
      ssd_relocations_folded_ = relocations;
    }
  });
}

bool RgAllocator::mount_seed() {
  clear_window();
  TopAaFile topaa(topaa_store_, topaa_base_);
  if (selector_.load_topaa(topaa)) return true;
  // Damaged/missing TopAA: rebuild this group the slow way.
  rescan();
  return false;
}

void RgAllocator::rescan() {
  ScanProfile& prof = scan_profile();
  ScanProfile::timed(prof.seed_ns, [&] {
    board_ = AaScoreBoard(layout_, activemap_.metafile());
  });
  ScanProfile::timed(prof.build_ns, [&] {
    clear_window();
    selector_.rebuild();
  });
}

// ---------------------------------------------------------------------------
// WriteAllocator
// ---------------------------------------------------------------------------

WriteAllocator::WriteAllocator(AaSelectPolicy policy, double skip_fraction,
                               std::uint64_t rng_seed, Activemap& activemap,
                               BlockStore& topaa_store, const Runtime& rt)
    : rt_(&rt),
      policy_(policy),
      skip_fraction_(skip_fraction),
      rng_seed_(rng_seed),
      activemap_(activemap),
      topaa_store_(topaa_store) {}

WriteAllocator::~WriteAllocator() = default;

RaidGroupId WriteAllocator::add_group(const RaidGroupConfig& rgc, Vbn base) {
  const auto id = static_cast<RaidGroupId>(groups_.size());
  WAFL_ASSERT(groups_.empty() || base == groups_.back()->end());
  WAFL_ASSERT_MSG(base % 64 == 0, "RAID group base is not word-aligned");
  // A per-group kRandom stream: execute fans groups out, so no stream is
  // shared across groups.
  groups_.push_back(std::make_unique<RgAllocator>(
      id, rgc, base, policy_, skip_fraction_,
      rng_seed_ ^ (0x9E3779B97F4A7C15ULL * (id + 1ULL)), activemap_,
      topaa_store_, id * TopAaFile::kRaidAgnosticBlocks, *rt_));
  // Growth changes the rotation modulus; keep the pointer inside the new
  // group list so the next CP's rotation starts from a live slot.
  if (rr_next_ >= groups_.size()) {
    rr_next_ = 0;
  }
  return id;
}

RaidGroupId WriteAllocator::group_of_pvbn(Vbn v) const {
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (v < groups_[i]->end()) {
      return static_cast<RaidGroupId>(i);
    }
  }
  WAFL_ASSERT_MSG(false, "pvbn beyond all RAID groups");
  return 0;
}

std::uint64_t WriteAllocator::pending_frees() const {
  std::uint64_t n = 0;
  for (const auto& rg : groups_) {
    n += rg->pending_frees();
  }
  return n;
}

bool WriteAllocator::windows_idle() const {
  for (const auto& rg : groups_) {
    if (!rg->window_idle()) return false;
  }
  return true;
}

bool WriteAllocator::checkout_aa(RaidGroupId rg, AaId aa) {
  WAFL_ASSERT_MSG(policy_ == AaSelectPolicy::kCache,
                  "checkout_aa requires the cache policy");
  return groups_.at(rg)->selector_.checkout(aa);
}

void WriteAllocator::checkin_aa(RaidGroupId rg, AaId aa) {
  groups_.at(rg)->selector_.checkin(aa);
}

void WriteAllocator::begin_cp() {
  for (const auto& rg : groups_) {
    rg->begin_cp();
  }
}

bool WriteAllocator::allocate(std::uint64_t n, std::vector<Vbn>& out,
                              CpStats& stats) {
  if (n == 0) return true;
  ThreadPool* pool = rt_->pool();
  CpPhaseProfile& prof = rt_->cp_phase_profile();
  auto mark = std::chrono::steady_clock::now();
  auto lap = [&mark](double& bucket) {
    const auto now = std::chrono::steady_clock::now();
    bucket += std::chrono::duration<double, std::milli>(now - mark).count();
    mark = now;
  };

  // --- Plan (serial).  Assign every output position to a group using only
  // CP-start information: a round-robin rotation in chunks of one tetris
  // window's worth of blocks (blocks_per_tetris), with §3.3.1's skip bias
  // answered by peek_best_score instead of a checkout.  A bias-ineligible
  // group with an open cursor may still drain that cursor (the bias only
  // governs the NEXT checkout), so its quota is capped at the cursor's
  // remaining free blocks.  Exact capacity caps make the plan exactly
  // executable: frees are deferred, so the reachable free-bit count cannot
  // shrink under execute's feet.
  //
  // The wa.* spans open/close at the same marks the lap() calls use, so a
  // trace's per-phase times reconcile with CpPhaseProfile.
  const std::size_t ngroups = groups_.size();
  obs::TraceSpan plan_span(obs::SpanKind::kWaPlan, ngroups, n);
  struct GroupPlan {
    std::vector<std::pair<std::size_t, std::uint64_t>> runs;  // (pos, count)
    std::uint64_t planned = 0;
  };
  std::vector<GroupPlan> plan(ngroups);
  std::vector<std::uint64_t> capacity(ngroups), cursor_free(ngroups);
  std::vector<bool> eligible(ngroups);
  for (std::size_t g = 0; g < ngroups; ++g) {
    capacity[g] = groups_[g]->plan_capacity();
    cursor_free[g] = groups_[g]->plan_cursor_free();
    eligible[g] = groups_[g]->plan_eligible();
  }
  std::uint64_t remaining = n;
  std::size_t pos = 0;
  bool force = false;
  while (remaining > 0) {
    std::uint64_t round_total = 0;
    for (std::size_t i = 0; i < ngroups && remaining > 0; ++i) {
      const std::size_t g = rr_next_;
      rr_next_ = (rr_next_ + 1) % ngroups;
      const std::uint64_t bpt =
          groups_[g]->raid().geometry().blocks_per_tetris();
      const std::uint64_t avail = capacity[g] - plan[g].planned;
      std::uint64_t chunk = 0;
      if (avail > 0) {
        if (force || eligible[g]) {
          chunk = std::min({remaining, avail, bpt});
        } else if (plan[g].planned < cursor_free[g]) {
          chunk = std::min(
              {remaining, avail, bpt, cursor_free[g] - plan[g].planned});
        }
      }
      if (chunk > 0) {
        plan[g].runs.emplace_back(pos, chunk);
        plan[g].planned += chunk;
        pos += chunk;
        remaining -= chunk;
        round_total += chunk;
      }
    }
    if (round_total == 0) {
      if (!force) {
        // Every group declined under the fragmentation threshold; the
        // allocator must still make progress (§3.3.1's "resume").
        force = true;
        continue;
      }
      break;  // out of space: the unassigned tail is the shortfall
    }
    force = false;
  }
  // Crash here = power loss after demand was partitioned but before any
  // block was taken; nothing has been mutated yet.
  WAFL_CRASH_POINT_RT(*rt_, "wa.in_alloc_plan");
  plan_span.end();
  lap(prof.plan_ms);
  obs::TraceSpan execute_span(obs::SpanKind::kWaExecute, 0, n - remaining);

  // --- Execute (parallel).  Group work lists are disjoint by construction
  // and every fill touches only group-owned state: its own cache or Rng,
  // cursor, window, devices, and bitmap words (staged mode defers the
  // shared summary).  Per-group CpStats keep the folds out of the hot
  // loop.  The plan already applied the skip bias, so fills always force.
  const std::uint64_t planned_total = n - remaining;
  const std::size_t out_base = out.size();
  out.resize(out_base + static_cast<std::size_t>(planned_total));
  std::vector<std::vector<Vbn>> got(ngroups);
  std::vector<CpStats> gstats(ngroups);
  std::vector<BitmapMetafile::AllocDelta> deltas(ngroups);
  auto execute_one = [&](std::size_t g) {
    if (plan[g].planned == 0) return;
    obs::TraceSpan rg_span(obs::SpanKind::kWaRgExecute, g, plan[g].planned);
    // Crash here = power loss mid-parallel-allocation: bits of some groups
    // staged, nothing persisted (device models are simulation state).  May
    // fire on a pool thread; ThreadPool rethrows on the caller.
    WAFL_CRASH_POINT_RT(*rt_, "wa.in_alloc_execute");
    RgAllocator& rg = *groups_[g];
    rg.begin_staged_alloc();
    std::vector<Vbn>& mine = got[g];
    mine.reserve(static_cast<std::size_t>(plan[g].planned));
    while (mine.size() < plan[g].planned) {
      const std::uint64_t taken =
          rg.fill(plan[g].planned - mine.size(), mine, gstats[g]);
      WAFL_ASSERT_MSG(taken > 0, "plan exceeded the group's capacity");
    }
    deltas[g] = rg.end_staged_alloc();
  };
  parallel_for(pool, ngroups, 1, execute_one);
  execute_span.end();
  lap(prof.execute_ms);
  obs::TraceSpan merge_span(obs::SpanKind::kWaMerge, 0, planned_total);

  // --- Merge (serial, fixed group order): staged summary deltas, stats
  // folds, and the scatter of each group's blocks into its planned output
  // positions.
  for (std::size_t g = 0; g < ngroups; ++g) {
    activemap_.metafile().apply_alloc_deltas(deltas[g]);
    stats.merge(gstats[g]);
    const Vbn* next = got[g].data();
    for (const auto& [p, count] : plan[g].runs) {
      std::copy_n(next, count, &out[out_base + p]);
      next += count;
    }
  }
  merge_span.end();
  lap(prof.alloc_merge_ms);
  return remaining == 0;
}

CpPhaseProfile& cp_phase_profile() {
  static CpPhaseProfile profile;
  return profile;
}

void WriteAllocator::finish_cp(CpStats& stats) {
  ThreadPool* pool = rt_->pool();
  CpPhaseProfile& prof = rt_->cp_phase_profile();
  auto mark = std::chrono::steady_clock::now();
  auto lap = [&mark](double& bucket) {
    const auto now = std::chrono::steady_clock::now();
    bucket += std::chrono::duration<double, std::milli>(now - mark).count();
    mark = now;
  };

  // Fires once on every CP's boundary drain; under the overlapped driver
  // this is the window where intake is concurrently filling the active
  // generation (DESIGN.md §13).
  WAFL_CRASH_POINT_RT(*rt_, "wa.in_overlap_drain");

  // Serial: flush any windows the CP left open (the next CP reopens them
  // and pays the partial-stripe cost of the blocks written now), then
  // count the deferred frees waiting on the groups' lists.  Each fc.*
  // span opens right after the previous lap() mark and ends right before
  // its own, so trace times reconcile with the CpPhaseProfile buckets.
  obs::TraceSpan windows_span(obs::SpanKind::kFcWindows);
  for (const auto& rg : groups_) {
    rg->flush_window(stats);
  }
  const std::uint64_t freed = pending_frees();
  stats.blocks_freed += freed;
  windows_span.set_b(freed);
  windows_span.end();
  lap(prof.windows_ms);
  obs::TraceSpan boundary_span(obs::SpanKind::kFcBoundary, 0, freed);
  WAFL_CRASH_POINT_RT(*rt_, "wa.before_boundary");

  // Phase A (parallel): each group drains its own free list, in deferral
  // order, and its boundary work touches only that group's state plus its
  // own disjoint bitmap words (see the file comment's disjointness
  // argument).  Per-group cost tracks its free batch and AA churn, which
  // can be very uneven, so groups are handed out one at a time.
  std::vector<BitmapMetafile::FreeDelta> deltas(groups_.size());
  parallel_for(pool, groups_.size(), 1,
               [&](std::size_t i) { deltas[i] = groups_[i]->cp_boundary(); });
  boundary_span.end();
  lap(prof.boundary_ms);
  WAFL_CRASH_POINT_RT(*rt_, "wa.after_boundary");
  obs::TraceSpan fc_merge_span(obs::SpanKind::kFcMerge);

  // Serial merge, in fixed group order: the free-count summary and dirty
  // set are shared (metafile blocks can straddle group boundaries).
  BitmapMetafile& map = activemap_.metafile();
  for (const auto& delta : deltas) {
    map.apply_free_deltas(delta);
  }
  stats.agg_meta_blocks += map.dirty_blocks();
  // The persistence steps below are the crash window the recovery story
  // is about: a crash in the gap between any two of them leaves bitmaps
  // and TopAA at different CPs, and mount + Iron must reconcile them.
  fc_merge_span.end();
  lap(prof.merge_ms);
  obs::TraceSpan flush_span(obs::SpanKind::kFcFlush);
  WAFL_CRASH_POINT_RT(*rt_, "wa.before_bitmap_flush");

  // Phase B1 (parallel): flush the dirty metafile blocks.  The dirty list
  // is partitioned, so each store block has exactly one writer; chunks of
  // 8 amortize the shared counter over the fine, near-uniform per-block
  // work.  On an exception (a crash point or an injected crash mid-flush)
  // begin_cp() is skipped, leaving the dirty set intact — same as a
  // serial crash partway down the list.
  const std::span<const std::uint64_t> dirty = map.dirty_list();
  auto flush_one = [&](std::size_t k) {
    obs::TraceSpan block_span(obs::SpanKind::kFcFlushBlock, dirty[k]);
    WAFL_CRASH_POINT_RT(*rt_, "wa.in_bitmap_flush");
    map.flush_block(dirty[k]);
  };
  parallel_for(pool, dirty.size(), 8, flush_one);
  stats.meta_flush_blocks += dirty.size();
  map.begin_cp();
  flush_span.set_b(dirty.size());
  flush_span.end();
  lap(prof.flush_ms);
  obs::TraceSpan topaa_span(obs::SpanKind::kFcTopaa);
  WAFL_CRASH_POINT_RT(*rt_, "wa.after_bitmap_flush");

  // Phase B2 (parallel): commit the staged TopAA images — per-group slots
  // never share a store block.  The block counts fold serially below.
  std::vector<std::uint64_t> topaa_blocks(groups_.size(), 0);
  auto commit_one = [&](std::size_t i) {
    WAFL_CRASH_POINT_RT(*rt_, "wa.before_topaa_commit");
    topaa_blocks[i] = groups_[i]->commit_topaa();
  };
  parallel_for(pool, groups_.size(), 1, commit_one);
  for (const std::uint64_t n : topaa_blocks) {
    stats.meta_flush_blocks += n;
  }
  topaa_span.end();
  lap(prof.topaa_ms);
  obs::TraceSpan fold_span(obs::SpanKind::kFcFold);
  WAFL_CRASH_POINT_RT(*rt_, "wa.after_topaa_commits");

  // Devices operate in parallel; the CP's storage time is the slowest one.
  SimTime slowest = 0;
  for (const auto& rg : groups_) {
    slowest = std::max(slowest, rg->slowest_device_busy());
  }
  stats.storage_time_ns = std::max(stats.storage_time_ns, slowest);

  // Per-device busy-time and FTL fold (devices in a sim CP "complete" at
  // the boundary).
  for (const auto& rg : groups_) {
    rg->fold_device_metrics();
  }
  fold_span.end();
  lap(prof.fold_ms);
}

std::size_t WriteAllocator::mount_from_topaa() {
  std::size_t seeded = 0;
  for (const auto& rg : groups_) {
    if (rg->mount_seed()) {
      ++seeded;
    }
  }
  return seeded;
}

void WriteAllocator::scan_rebuild() {
  ThreadPool* pool = rt_->pool();
  obs::TraceSpan span(obs::SpanKind::kMountScan, 0, groups_.size());
  // Linear walk of the shared aggregate metafile (§3.4), fanned out per
  // metafile block; then each group scores its own AAs and rebuilds its
  // cache, fanned out per group.  The loops run one after the other, so
  // no pool call is issued from inside a pool task.
  ScanProfile::timed(scan_profile().read_ns,
                     [&] { activemap_.metafile().load_all(pool); });
  parallel_for(pool, groups_.size(), 1,
               [&](std::size_t i) { groups_[i]->rescan(); });
}

void WriteAllocator::seed_occupancy(RaidGroupId rg_id, double fraction,
                                    Rng& rng) {
  RgAllocator& rg = *groups_.at(rg_id);
  WAFL_ASSERT(fraction >= 0.0 && fraction <= 1.0);
  WAFL_ASSERT_MSG(rg.window_idle() && rg.selector_.open_aa() == kInvalidAaId,
                  "seed_occupancy during a CP");
  // One draw per free bit in ascending VBN order, one metafile update per
  // word.  The group spans whole words (add_group).
  BitmapMetafile& map = activemap_.metafile();
  for (std::uint64_t word = rg.base() / 64; word < rg.end() / 64; ++word) {
    std::uint64_t claim = 0;
    for (std::uint64_t free = ~map.bits().word(word); free != 0;
         free &= free - 1) {
      if (rng.chance(fraction)) claim |= free & -free;
    }
    if (claim != 0) map.set_allocated_word(word, claim);
  }
  map.begin_cp();  // discard the artificial dirty set
  rg.rescan();
}

}  // namespace wafl
