// Multi-aggregate fleet (DESIGN.md §16): N aggregates, each with its own
// RuntimeBundle (registry scope, crash hooks, flight recorder), sharing
// one ThreadPool and one capped DrainExecutor.  The contract under test:
//
//   - determinism: a member's media after a concurrent fleet run is
//     byte-identical to the same member run alone (the oracle the fleet
//     bench enforces on every --perf run);
//   - isolation: a crash armed on member A's runtime fires in A only —
//     B's media and metrics match its solo run, and the process-global
//     hook registry never sees the arm;
//   - label scoping: aggregates sharing one Registry with distinct agg
//     ids register disjoint `agg="<id>"`-labelled metrics, while an
//     empty agg id leaves label strings untouched (what keeps
//     single-aggregate metric exports byte-stable);
//   - the default: `Runtime{}` is the process singletons (registry, crash
//     hooks, phase profile), which single-aggregate harnesses rely on.
//
// tools/check.sh --tsan runs the Fleet.* suite under ThreadSanitizer.
#include "wafl/fleet.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "device/ssd.hpp"
#include "fault/crash_point.hpp"
#include "fault/fault.hpp"
#include "obs/export.hpp"
#include "util/thread_pool.hpp"
#include "wafl/consistency_point.hpp"
#include "wafl/mount.hpp"

namespace wafl {
namespace {

FleetMemberConfig make_member(std::string id, MediaType media,
                              std::uint64_t seed) {
  FleetMemberConfig cfg;
  cfg.id = std::move(id);
  RaidGroupConfig rg;
  switch (media) {
    case MediaType::kSsd:
      rg = fleet_ssd_group(16 * 1024);
      break;
    case MediaType::kSmr:
      rg = fleet_smr_group(64 * 1024);
      break;
    default:
      rg = fleet_hdd_group(16 * 1024);
      break;
  }
  cfg.agg.raid_groups = {rg, rg};
  FlexVolConfig vol;
  vol.file_blocks = 16'000;
  vol.vvbn_blocks = 2ull * kFlatAaBlocks;
  vol.aa_blocks = 4096;
  cfg.volumes = {vol, vol};
  cfg.rng_seed = seed;
  cfg.workload_seed = seed * 97 + 1;
  cfg.cps = 3;
  cfg.blocks_per_cp = 4096;
  return cfg;
}

// The tentpole oracle: four mixed-geometry members with distinct seeds
// run concurrently over one shared pool and one 2-thread drain executor;
// every member's media digest must equal its solo (serial, private
// executor) run — neighbours and scheduling must leave no trace.
TEST(Fleet, MixedFleetMatchesSoloByteForByte) {
  const std::vector<FleetMemberConfig> cfgs = {
      make_member("hdd0", MediaType::kHdd, 11),
      make_member("ssd0", MediaType::kSsd, 22),
      make_member("smr0", MediaType::kSmr, 33),
      make_member("hdd1", MediaType::kHdd, 44),
  };
  ThreadPool pool(4);
  const FleetResult fleet = run_fleet(cfgs, &pool, /*drain_threads=*/2);
  ASSERT_EQ(fleet.members.size(), cfgs.size());
  for (std::size_t m = 0; m < cfgs.size(); ++m) {
    SCOPED_TRACE(cfgs[m].id);
    const FleetMemberResult solo = run_solo(cfgs[m], nullptr);
    EXPECT_EQ(fleet.members[m].id, cfgs[m].id);
    EXPECT_EQ(fleet.members[m].media_digest, solo.media_digest);
    EXPECT_EQ(fleet.members[m].stats.cps_completed, cfgs[m].cps);
    EXPECT_EQ(fleet.members[m].stats.blocks_admitted,
              solo.stats.blocks_admitted);
    EXPECT_EQ(fleet.members[m].stats.blocks_coalesced,
              solo.stats.blocks_coalesced);
  }
  // Distinct seeds really produced distinct media.
  EXPECT_NE(fleet.members[0].media_digest, fleet.members[3].media_digest);
}

// Same fleet twice: the concurrent run itself is repeatable.
TEST(Fleet, FleetRunIsRepeatable) {
  const std::vector<FleetMemberConfig> cfgs = {
      make_member("a", MediaType::kHdd, 3),
      make_member("b", MediaType::kSsd, 4),
  };
  ThreadPool pool(4);
  const FleetResult r1 = run_fleet(cfgs, &pool, 2);
  const FleetResult r2 = run_fleet(cfgs, &pool, 2);
  ASSERT_EQ(r1.members.size(), r2.members.size());
  for (std::size_t m = 0; m < r1.members.size(); ++m) {
    EXPECT_EQ(r1.members[m].media_digest, r2.members[m].media_digest);
  }
}

// Satellite: per-runtime crash hooks.  A hook armed on member A fires
// inside A's drain while B — sharing the pool and the executor — runs to
// completion with media byte-identical to its solo run.  The crash lands
// in A's registry scope only, and the process-global hook registry never
// saw the arm.
TEST(Fleet, CrashOnOneMemberLeavesNeighbourUntouched) {
  FleetMemberConfig ca = make_member("crash-a", MediaType::kHdd, 5);
  FleetMemberConfig cb = make_member("ok-b", MediaType::kSsd, 6);
  const FleetMemberResult solo_b = run_solo(cb, nullptr);

  ThreadPool pool(4);
  DrainExecutor exec(2);
  FleetMember a(ca, &pool, &exec);
  FleetMember b(cb, &pool, &exec);
  // Armed on the SECOND drain so CP 1 completes first — its bitmap
  // metafile writes flow through the fault plan below.
  a.bundle().hooks.arm("wa.in_overlap_drain", 2);
  // A FaultPlan scoped to A's runtime: every write A makes to its bitmap
  // metafile is torn, and the engine's fault counters land in A's
  // registry — the second injection mechanism that must not leak to B.
  fault::FaultPlan plan;
  plan.seed = 99;
  plan.torn_write_prob = 1.0;
  fault::FaultEngine engine(plan, a.bundle().registry, a.bundle().flight);
  a.aggregate().meta_store().set_fault_injector(&engine);

  OverlapStats sb;
  std::thread tb([&b, &sb] { sb = b.run_workload(); });
  // A's first drain dies; the parked error rethrows at the next control
  // call inside run_workload.
  EXPECT_THROW(a.run_workload(), fault::CrashPoint);
  tb.join();
  a.bundle().hooks.disarm_all();
  a.aggregate().meta_store().set_fault_injector(nullptr);

  EXPECT_EQ(sb.cps_completed, cb.cps);
  EXPECT_EQ(media_digest(b.aggregate()), solo_b.media_digest);
  // CP 1's metafile flush really went through the plan.
  EXPECT_GT(engine.writes_seen(), 0u);
  if constexpr (obs::kEnabled) {
    // The crash was recorded in A's registry scope — and only there.
    EXPECT_EQ(
        a.bundle().registry.counter("wafl.fault.crashes_injected").value(),
        1u);
    // The plan's torn writes were counted in A's scope, one per journal
    // record.
    std::uint64_t journal_torn = 0;
    for (const fault::FaultRecord& r : engine.journal()) {
      if (r.kind == fault::FaultRecord::Kind::kTorn) ++journal_torn;
    }
    EXPECT_EQ(
        a.bundle().registry.counter("wafl.fault.torn_writes").value(),
        journal_torn);
    // B's scope never saw any fault machinery.
    for (const obs::Registry::Entry& e : b.bundle().registry.entries()) {
      EXPECT_EQ(e.name.find("wafl.fault."), std::string::npos)
          << e.name << " leaked into the neighbour's registry";
    }
  }
}

// Crashed member A recovers through the normal recovery mount while B's
// state stays valid — the per-runtime hook cannot leak into recovery.
TEST(Fleet, CrashedMemberRecoversInPlace) {
  FleetMemberConfig ca = make_member("crash-a", MediaType::kHdd, 5);
  ThreadPool pool(2);
  DrainExecutor exec(1);
  FleetMember a(ca, &pool, &exec);
  a.bundle().hooks.arm("wa.in_overlap_drain", 1);
  EXPECT_THROW(a.run_workload(), fault::CrashPoint);
  a.bundle().hooks.disarm_all();
  // The surviving bytes mount through the recovery path; the armed (and
  // fired) hook lived in A's runtime, so nothing is left armed anywhere.
  const MountReport r = recover_mount(a.aggregate(), /*use_topaa=*/true);
  EXPECT_GT(r.rgs_seeded + r.vols_seeded, 0u);
}

// Satellite: the agg label dimension.  Two aggregates sharing ONE
// registry under distinct agg ids register disjoint labelled metrics;
// a default-runtime aggregate's metrics stay unlabelled, which is what
// keeps single-aggregate `<figure>.metrics.json` exports byte-stable.
TEST(Fleet, SharedRegistryScopesMetricsByAggId) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  }
  obs::Registry shared;
  AggregateConfig acfg;
  acfg.raid_groups = {fleet_hdd_group(16 * 1024)};
  FlexVolConfig vol;
  vol.file_blocks = 4'000;
  vol.vvbn_blocks = kFlatAaBlocks;
  vol.aa_blocks = 4096;

  Aggregate a1(acfg, 1,
               Runtime{}.with_agg_id("a1").with_registry(shared));
  Aggregate a2(acfg, 1,
               Runtime{}.with_agg_id("a2").with_registry(shared));
  a1.add_volume(vol);
  a2.add_volume(vol);

  std::vector<DirtyBlock> dirty;
  for (std::uint64_t l = 0; l < 512; ++l) dirty.push_back({0, l});
  ConsistencyPoint::run(a1, dirty);
  ConsistencyPoint::run(a2, dirty);
  ConsistencyPoint::run(a2, dirty);

  EXPECT_EQ(shared.counter("wafl.cp.count", "agg=\"a1\"").value(), 1u);
  EXPECT_EQ(shared.counter("wafl.cp.count", "agg=\"a2\"").value(), 2u);
  // Identical workloads: the per-member written counters agree, under
  // their own labels.
  EXPECT_EQ(
      shared.counter("wafl.cp.blocks_written", "agg=\"a1\"").value(), 512u);
  // No unlabelled aliases leaked into the shared scope.
  for (const obs::Registry::Entry& e : shared.entries()) {
    EXPECT_NE(e.labels.find("agg="), std::string::npos)
        << e.name << " registered without an agg dimension";
  }

  // And the empty-agg-id runtime leaves labels untouched.
  EXPECT_EQ(Runtime{}.labels(), "");
  EXPECT_EQ(Runtime{}.labels("rg=\"3\""), "rg=\"3\"");
  EXPECT_EQ(Runtime{}.with_agg_id("x").labels("rg=\"3\""),
            "agg=\"x\",rg=\"3\"");
}

// A default Runtime routes an aggregate to the process singletons: its CP
// count lands in obs::registry(), its phase laps in cp_phase_profile(),
// and a hook armed on fault::crash_hooks() fires inside its CP.
TEST(Fleet, DefaultRuntimeRoutesToProcessSingletons) {
  AggregateConfig acfg;
  acfg.raid_groups = {fleet_hdd_group(16 * 1024)};
  FlexVolConfig vol;
  vol.file_blocks = 4'000;
  vol.vvbn_blocks = kFlatAaBlocks;
  vol.aa_blocks = 4096;
  Aggregate agg(acfg, 1, Runtime{});
  agg.add_volume(vol);

  std::vector<DirtyBlock> dirty;
  for (std::uint64_t l = 0; l < 512; ++l) dirty.push_back({0, l});
  obs::Counter& cps = obs::registry().counter("wafl.cp.count");
  const std::uint64_t cps0 = cps.value();
  cp_phase_profile().reset();
  ConsistencyPoint::run(agg, dirty);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(cps.value(), cps0 + 1);
  }
  EXPECT_GT(cp_phase_profile().plan_ms, 0.0);
  EXPECT_GT(cp_phase_profile().boundary_ms, 0.0);

  fault::crash_hooks().arm("cp.before_agg_finish");
  EXPECT_THROW(ConsistencyPoint::run(agg, dirty), fault::CrashPoint);
  EXPECT_FALSE(fault::crash_hooks().any_armed());  // it fired
}

// The SSD FTL's GC counters fold through the aggregate's runtime: a
// member's registry carries wafl.ssd.* under its agg label, matching its
// devices' erase counts, and the process-global registry never sees them.
TEST(Fleet, SsdGcCountersLandInTheMembersRegistry) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  }
  obs::Counter& global = obs::registry().counter("wafl.ssd.erases");
  const std::uint64_t global0 = global.value();
  // One small page-mapped SSD group, overwritten well past its physical
  // pages so the FTL must garbage-collect.
  FleetMemberConfig cfg = make_member("ssd-gc", MediaType::kSsd, 9);
  RaidGroupConfig rg = fleet_ssd_group(4096);
  rg.media.ssd_ftl = SsdFtl::kPageMapped;
  rg.media.ssd.pages_per_erase_block = 64;
  rg.aa_stripes = 512;
  cfg.agg.raid_groups = {rg};
  for (FlexVolConfig& v : cfg.volumes) v.file_blocks = 2'000;
  cfg.cps = 16;
  cfg.blocks_per_cp = 2048;
  FleetMember m(cfg, nullptr, nullptr);
  m.run_workload();

  std::uint64_t erases = 0;
  for (DeviceId d = 0; d < rg.data_devices; ++d) {
    erases += dynamic_cast<SsdModel&>(m.aggregate().data_device(0, d)).erases();
  }
  erases += dynamic_cast<SsdModel&>(m.aggregate().parity_device(0, 0)).erases();
  ASSERT_GT(erases, 0u);
  const std::string agg = "agg=\"ssd-gc\"";
  EXPECT_EQ(m.bundle().registry.counter("wafl.ssd.erases", agg).value(),
            erases);
  EXPECT_EQ(global.value(), global0);
}

// The per-member registry snapshot run_fleet returns is the member's own
// scope: metrics JSON mentions the member's agg id and not its
// neighbours'.
TEST(Fleet, PerMemberMetricsSnapshotsAreScoped) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  }
  const std::vector<FleetMemberConfig> cfgs = {
      make_member("alpha", MediaType::kHdd, 7),
      make_member("beta", MediaType::kSsd, 8),
  };
  ThreadPool pool(2);
  const FleetResult fleet = run_fleet(cfgs, &pool, 1);
  ASSERT_EQ(fleet.members.size(), 2u);
  EXPECT_NE(fleet.members[0].metrics_json.find("agg=\\\"alpha\\\""),
            std::string::npos);
  EXPECT_EQ(fleet.members[0].metrics_json.find("beta"), std::string::npos);
  EXPECT_NE(fleet.members[1].metrics_json.find("agg=\\\"beta\\\""),
            std::string::npos);
  EXPECT_EQ(fleet.members[1].metrics_json.find("alpha"), std::string::npos);
}

}  // namespace
}  // namespace wafl
