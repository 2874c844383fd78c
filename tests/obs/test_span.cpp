// wafl::obs span layer: buffer/collector mechanics, the runtime capture
// gate, causal parentage across ThreadPool fan-outs, exporter shape, and
// a concurrent emit-while-snapshot stress (the TSAN target —
// tools/check.sh --tsan selects this suite by name).  The slower
// whole-CP timeline checks live in test_span_timeline.cpp under the
// `trace` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "util/task_context.hpp"
#include "util/thread_pool.hpp"

namespace wafl::obs {
namespace {

/// Every span test flips the global capture gate; restore it (off) and
/// drain the collector no matter how the test exits.
struct CaptureGuard {
  explicit CaptureGuard(bool on) {
    spans().clear();
    set_span_capture(on);
  }
  ~CaptureGuard() {
    set_span_capture(false);
    spans().clear();
  }
};

TEST(SpanTrace, BufferPushCollectAndWrap) {
  SpanBuffer buf(/*tid=*/3, /*capacity=*/8);
  SpanRecord r;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    r.id = i;
    r.t0_ns = i * 10;
    r.t1_ns = i * 10 + 5;
    buf.push(r);
  }
  std::vector<SpanRecord> out;
  buf.collect(out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.front().tid, 3u);
  EXPECT_EQ(buf.pushed(), 5u);

  // Wrap: 20 total pushes into 8 slots keeps only the newest 8.
  for (std::uint64_t i = 6; i <= 20; ++i) {
    r.id = i;
    buf.push(r);
  }
  out.clear();
  buf.collect(out);
  ASSERT_EQ(out.size(), 8u);
  std::uint64_t min_id = ~0ull;
  for (const SpanRecord& rec : out) min_id = std::min(min_id, rec.id);
  EXPECT_EQ(min_id, 13u);
  EXPECT_EQ(buf.pushed(), 20u);

  buf.clear();
  out.clear();
  buf.collect(out);
  EXPECT_TRUE(out.empty());
}

TEST(SpanTrace, CaptureGateDefaultsOff) {
  if constexpr (!kEnabled) GTEST_SKIP() << "observability compiled out";
  ASSERT_FALSE(span_capture_enabled());
  spans().clear();
  const std::uint64_t ctx_before = current_task_context();
  {
    TraceSpan span(SpanKind::kCp, 1, 2);
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    // A gated-off span must not perturb the causality word either.
    EXPECT_EQ(current_task_context(), ctx_before);
  }
  EXPECT_TRUE(spans().snapshot().empty());
}

TEST(SpanTrace, ParentageAcrossThreadPool) {
  if constexpr (!kEnabled) GTEST_SKIP() << "observability compiled out";
  CaptureGuard guard(true);
  ThreadPool pool(4);

  std::uint64_t root_id = 0;
  {
    TraceSpan root(SpanKind::kCp, 42);
    root_id = root.id();
    ASSERT_NE(root_id, 0u);
    // Chunked static fan-out: worker tasks inherit the submitter's
    // context, so spans opened inside become children of `root` even
    // though they open on other threads.
    pool.parallel_for(0, 64, 1, [](std::size_t i) {
      TraceSpan child(SpanKind::kRgFill, i);
      (void)child;
    });
  }

  const std::vector<SpanRecord> snap = spans().snapshot();
  std::size_t children = 0;
  for (const SpanRecord& r : snap) {
    if (r.kind != SpanKind::kRgFill) continue;
    ++children;
    EXPECT_EQ(r.parent, root_id);
  }
  EXPECT_EQ(children, 64u);
}

TEST(SpanTrace, NestedSpansRestoreParentage) {
  if constexpr (!kEnabled) GTEST_SKIP() << "observability compiled out";
  CaptureGuard guard(true);

  TraceSpan outer(SpanKind::kCp);
  {
    TraceSpan mid(SpanKind::kWaPlan);
    TraceSpan inner(SpanKind::kWaExecute);
    EXPECT_EQ(current_task_context(), inner.id());
  }
  // Both inner scopes closed: the causality word is back to `outer`.
  EXPECT_EQ(current_task_context(), outer.id());
  TraceSpan sibling(SpanKind::kWaMerge);
  sibling.end();
  outer.end();

  const std::vector<SpanRecord> snap = spans().snapshot();
  std::unordered_map<std::uint64_t, SpanRecord> by_id;
  for (const SpanRecord& r : snap) by_id[r.id] = r;
  ASSERT_EQ(snap.size(), 4u);
  for (const SpanRecord& r : snap) {
    if (r.kind == SpanKind::kCp) {
      EXPECT_EQ(r.parent, 0u);
    }
    if (r.kind == SpanKind::kWaPlan) {
      EXPECT_EQ(by_id.at(r.parent).kind, SpanKind::kCp);
    }
    if (r.kind == SpanKind::kWaExecute) {
      EXPECT_EQ(by_id.at(r.parent).kind, SpanKind::kWaPlan);
    }
    if (r.kind == SpanKind::kWaMerge) {
      EXPECT_EQ(by_id.at(r.parent).kind, SpanKind::kCp);
    }
  }
}

TEST(SpanTrace, ChromeJsonShape) {
  std::vector<SpanRecord> recs(2);
  recs[0] = {1, 0, 1'000'000, 4'000'000, 7, 9, SpanKind::kCp, 0};
  recs[1] = {2, 1, 2'000'000, 3'500'000, 1, 0, SpanKind::kWaPlan, 5};
  const std::string json = spans_to_chrome_json(recs);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"cp\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"wa.plan\""), std::string::npos);
  // ts is relative to the earliest span, in microseconds.
  EXPECT_NE(json.find("\"ts\": 0.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1000.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 3000.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 1500.000"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"parent\": 1"), std::string::npos);
  EXPECT_EQ(spans_to_chrome_json({}).find("error"), std::string::npos);
}

TEST(SpanTrace, SummarySelfTimeAndCriticalPath) {
  // Root [0,100ms] with children [10,40] and [20,60] (overlapping) plus
  // [70,90]: child-union 10..60 ∪ 70..90 = 70ms, so root self = 30ms.
  // Critical path = root self + max(overlap cluster) + trailing child
  // = 30 + 40 + 20 = 90ms.
  const auto ms = [](std::uint64_t m) { return m * 1'000'000; };
  std::vector<SpanRecord> recs(4);
  recs[0] = {1, 0, ms(0), ms(100), 0, 0, SpanKind::kCp, 0};
  recs[1] = {2, 1, ms(10), ms(40), 0, 0, SpanKind::kWaPlan, 0};
  recs[2] = {3, 1, ms(20), ms(60), 0, 0, SpanKind::kWaExecute, 1};
  recs[3] = {4, 1, ms(70), ms(90), 0, 0, SpanKind::kWaMerge, 1};
  const std::string json = span_summary_json(recs, /*dropped=*/0);
  EXPECT_NE(json.find("\"span_count\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"window_ms\": 100.000"), std::string::npos);
  EXPECT_NE(json.find("\"critical_path_ms\": 90.000"), std::string::npos);
  // Root self time: 100 - 70 of child cover.
  EXPECT_NE(json.find("\"self_ms\": 30.000"), std::string::npos);
  // Thread 1 busy: [20,60] ∪ [70,90] = 60ms of the 100ms window.
  EXPECT_NE(json.find("\"busy_ms\": 60.000"), std::string::npos);
  EXPECT_NE(json.find("\"occupancy\": 0.6"), std::string::npos);
}

// A tetris flush [0,10ms] of rg 3 around its device writes [2,9ms]: the
// flush keeps 3ms of self time, and both kinds break down by rg.
TEST(SpanTrace, DeviceWriteSplitsTetrisFlushSelfTime) {
  const auto ms = [](std::uint64_t m) { return m * 1'000'000; };
  std::vector<SpanRecord> recs(2);
  recs[0] = {1, 0, ms(0), ms(10), 3, 128, SpanKind::kRgTetrisFlush, 0};
  recs[1] = {2, 1, ms(2), ms(9), 3, 160, SpanKind::kRgDeviceWrite, 0};
  const std::string json = span_summary_json(recs, /*dropped=*/0);
  EXPECT_NE(json.find("{\"kind\": \"rg.tetris_flush\", \"count\": 1, "
                      "\"wall_ms\": 10.000000, \"self_ms\": 3.000000, "
                      "\"by_rg\": [{\"rg\": 3"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"kind\": \"rg.device_write\", \"count\": 1, "
                      "\"wall_ms\": 7.000000, \"self_ms\": 7.000000, "
                      "\"by_rg\": [{\"rg\": 3"),
            std::string::npos)
      << json;
}

/// TSAN target: four producers emit while the main thread snapshots
/// concurrently; every record a racing snapshot yields is internally
/// consistent, and a quiesced snapshot sees exactly the survivors.
TEST(SpanTrace, ConcurrentEmissionWhileSnapshotting) {
  if constexpr (!kEnabled) GTEST_SKIP() << "observability compiled out";
  CaptureGuard guard(true);
  ThreadPool pool(4);
  std::atomic<bool> done{false};

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<SpanRecord> snap = spans().snapshot();
      for (const SpanRecord& r : snap) {
        ASSERT_NE(r.id, 0u);
        ASSERT_GE(r.t1_ns, r.t0_ns);
      }
    }
  });
  // Enough spans per task to wrap the 8192-slot rings while the reader
  // races the overwrites.
  pool.parallel_for(0, 32, 1, [](std::size_t i) {
    TraceSpan task_span(SpanKind::kCpVolSlice, i);
    for (int j = 0; j < 2'000; ++j) {
      TraceSpan s(SpanKind::kRgFill, i, static_cast<std::uint64_t>(j));
      (void)s;
    }
  });
  done.store(true, std::memory_order_release);
  reader.join();

  const std::vector<SpanRecord> snap = spans().snapshot();
  // 32 tasks x 2000 inner + 32 task spans were pushed; the rings hold
  // whatever survived the wraps, and dropped() accounts for the rest.
  std::uint64_t total = snap.size() + spans().dropped();
  EXPECT_EQ(total, 32u * 2'000u + 32u);
}

}  // namespace
}  // namespace wafl::obs
