// Crash-consistency property sweep: 256 seeded cases across crash points,
// media mixes, worker counts and fault mixes (DESIGN.md §9).
//
// Every case derives its entire configuration from one seed, so any
// failure is reproducible with a single environment variable:
//
//   WAFL_CRASH_SEED=<seed> ./waflfree_crash_tests
//       --gtest_filter='CrashSweep.*'   (one command line)
//
// Sharding: WAFL_CRASH_SHARD=<i> WAFL_CRASH_SHARDS=<n> runs cases with
// index % n == i — tools/check.sh --crash registers 8 shards as separate
// ctest cases.  With no environment set (the gtest-discovered instance)
// only a small smoke subset runs, so the full sweep is not duplicated.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include "support/crash_harness.hpp"
#include "util/rng.hpp"

namespace wafl {
namespace {

using test::CrashCaseConfig;
using test::CrashHarness;
using test::CrashVerdict;

constexpr int kCases = 256;

std::uint64_t case_seed(int index) {
  return 0x5EED0000u + 0x9E3779B97F4A7C15ULL *
                           (static_cast<std::uint64_t>(index) + 1);
}

/// Always-firing CP crash hooks; {name, max safe nth} (nth is drawn in
/// [1, max], where max reflects how often the point runs per CP: per
/// group, per volume, or once).
struct HookChoice {
  const char* name;
  std::uint64_t max_nth_heap_only;  // 2 HDD groups
  std::uint64_t max_nth_with_pool;  // + object-store pool
};
constexpr HookChoice kHooks[] = {
    // Fires once per CP, after the serial allocation plan fixed every
    // group's quota but before any block was taken.
    {"wa.in_alloc_plan", 1, 1},
    // Fires per RAID group with planned work inside the (possibly
    // parallel) execute phase; every sweep CP's demand spans more than one
    // rotation round, so all groups draw work.
    {"wa.in_alloc_execute", 2, 3},
    {"wa.before_boundary", 1, 1},
    {"wa.after_boundary", 1, 1},
    {"wa.before_bitmap_flush", 1, 1},
    // Fires per dirty aggregate-metafile block inside the (possibly
    // parallel) flush.  The heap-only aggregate has 3 metafile blocks and
    // the pool config 5; every sweep CP dirties at least the bound below
    // (allocations and frees land in both heap groups each CP).
    {"wa.in_bitmap_flush", 2, 3},
    {"wa.after_bitmap_flush", 1, 1},
    {"wa.before_topaa_commit", 2, 3},
    {"wa.after_topaa_commits", 1, 1},
    {"rg.after_frees", 2, 3},
    {"rg.after_topaa_encode", 2, 3},
    {"cp.before_volume_finish", 2, 2},
    {"cp.before_agg_finish", 1, 1},
    // Fires once per CP inside the generation swap — aggregate side
    // frozen, volumes still staging (DESIGN.md §13).
    {"cp.in_gen_swap", 1, 1},
    // Fires once per CP at the top of the boundary drain; under an
    // overlapped case this is while intake is concurrently admitted.
    {"wa.in_overlap_drain", 1, 1},
    // Fires inside the overlapped driver's freeze with every shard lock
    // held, before any shard folds (DESIGN.md §14) — so the crash loses
    // unfrozen intake and nothing else.  Overlapped driver only;
    // config_for forces `overlapped` for it.
    {"cp.in_freeze", 1, 1},
    // Mid-repair hooks: fire inside WAFL Iron, not inside the crash CP.
    // run_crash_cp() skips arming these; maybe_crash_during_repair()
    // corrupts two TopAA slots, recovers, and crashes inside the armed
    // repair instead — the verify fan-out stages without writing, the
    // serial apply lands repairs in fixed unit order, so any nth leaves
    // idempotently completable media.  Both fire once per unit: 2 groups
    // + 2 volumes (4), +1 with the object-store pool (5).
    {"iron.in_parallel_verify", 4, 5},
    {"iron.in_repair_apply", 4, 5},
};

CrashCaseConfig config_for(std::uint64_t seed) {
  Rng rng(seed);
  CrashCaseConfig cfg;
  cfg.seed = seed;
  constexpr unsigned kWorkerChoices[] = {0, 1, 2, 8};
  cfg.workers = kWorkerChoices[rng.below(4)];
  cfg.object_store_pool = rng.chance(0.5);
  cfg.clean_cps = static_cast<unsigned>(rng.between(2, 4));
  // Half the cases run the crash CP through the overlapped driver, so
  // every hook below also gets exercised with intake concurrently
  // admitted into the active generation.
  cfg.overlapped = rng.chance(0.5);

  const std::uint64_t mode = rng.below(3);
  if (mode == 0) {
    // Named-hook crash.
    const HookChoice& hook = kHooks[rng.below(std::size(kHooks))];
    cfg.crash_hook = hook.name;
    cfg.crash_hook_nth = rng.between(
        1, cfg.object_store_pool ? hook.max_nth_with_pool
                                 : hook.max_nth_heap_only);
    if (cfg.crash_hook == "cp.in_freeze") cfg.overlapped = true;
  } else if (mode == 1) {
    // Write-count crash (a CP issues ~10–25 metafile writes here).
    cfg.plan.crash_after_writes = rng.between(1, 18);
    constexpr fault::CrashWriteFault kFaults[] = {
        fault::CrashWriteFault::kPersisted, fault::CrashWriteFault::kTorn,
        fault::CrashWriteFault::kDropped};
    cfg.plan.crash_write_fault = kFaults[rng.below(3)];
  }
  // mode == 2: no crash — a pure determinism/replay case.

  if (mode != 2 && rng.chance(0.5)) {
    // Media faults during the crash CP on top of the crash itself.
    cfg.plan.torn_write_prob = 0.4 * rng.uniform();
    cfg.plan.dropped_write_prob = 0.25 * rng.uniform();
  }
  if (rng.chance(0.3)) {
    cfg.recovery_bitrot_prob = 0.5;
  }
  // Half the overlapped cases admit the crash CP's intake from two writer
  // threads (content-keyed shard routing keeps the case seed-
  // deterministic).  Drawn last so pre-existing case configs are intact.
  cfg.concurrent_intake = cfg.overlapped && rng.chance(0.5);
  return cfg;
}

std::string repro_line(std::uint64_t seed) {
  return "WAFL_CRASH_SEED=" + std::to_string(seed) +
         " ./waflfree_crash_tests --gtest_filter='CrashSweep.*'";
}

void run_case(int index, std::uint64_t seed) {
  SCOPED_TRACE("sweep case " + std::to_string(index) + " seed " +
               std::to_string(seed));
  // Printed (and flushed) up front: a case that hangs until the ctest
  // timeout kills the shard leaves no assertion message behind, only the
  // output so far.
  std::printf("sweep case %d: %s\n", index, repro_line(seed).c_str());
  std::fflush(stdout);
  const CrashCaseConfig cfg = config_for(seed);
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  const bool hook_mode = !cfg.crash_hook.empty();
  const bool crash_expected = hook_mode;  // write-count may not be reached
  if (!v.ok() || (crash_expected && !v.crashed)) {
    // Failure UX: the exact repro line and the black-box dump travel
    // together, so a CI log alone localizes the failing CP phase.
    ADD_FAILURE() << "crash-sweep case failed; reproduce with:\n  "
                  << repro_line(seed)
                  << (hook_mode ? "   (hook " + cfg.crash_hook + " nth=" +
                                      std::to_string(cfg.crash_hook_nth) + ")"
                                : "")
                  << "\n"
                  << (crash_expected && !v.crashed
                          ? "armed hook '" + cfg.crash_hook +
                                "' never fired\n"
                          : "")
                  << v.message()
                  << (v.flight_dump.empty()
                          ? ""
                          : "\n--- flight recorder ---\n" + v.flight_dump);
  }
}

TEST(CrashSweep, Sweep) {
  if (const char* seed_env = std::getenv("WAFL_CRASH_SEED")) {
    run_case(-1, std::strtoull(seed_env, nullptr, 0));
    return;
  }
  const char* shard_env = std::getenv("WAFL_CRASH_SHARD");
  if (shard_env == nullptr) {
    // Smoke subset for the plain test binary / tier-1 ctest run; the full
    // sweep runs as the 8 crash_sweep_shard_N ctest cases.
    for (int i = 0; i < kCases; i += 43) {
      run_case(i, case_seed(i));
    }
    return;
  }
  const int shard = std::atoi(shard_env);
  const char* shards_env = std::getenv("WAFL_CRASH_SHARDS");
  const int shards = shards_env != nullptr ? std::atoi(shards_env) : 8;
  ASSERT_GT(shards, 0);
  ASSERT_LT(shard, shards);
  for (int i = 0; i < kCases; ++i) {
    if (i % shards == shard) run_case(i, case_seed(i));
  }
}

}  // namespace
}  // namespace wafl
