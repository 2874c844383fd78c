// wafl::obs spans — causal, timed intervals over the CP pipeline.
//
// Spans and the metrics registry are the one event substrate: counters
// and histograms say how much, spans say when and under what.  A span is
// an *interval with ancestry*: every span knows its parent, and parentage
// survives ThreadPool fan-outs because the pool propagates the opened
// span's id through util's task-context word (src/util/task_context.hpp)
// into every worker task.  The result is a tree per CP — root span,
// phase children, per-RAID-group grandchildren — exportable as a Chrome
// trace_event timeline and summarizable into per-phase self times, worker
// occupancy and a critical-path estimate.
//
// Emission is lock-free: each thread owns a bounded ring of all-atomic
// slots (single writer, seqlock-validated readers), registered once with
// the process-global SpanCollector.  Capture is additionally gated by a
// *runtime* flag, default off, so instrumented binaries pay one relaxed
// load per span site unless a bench/test/harness opts in — that is what
// keeps the check.sh --overhead gate honest with tracing compiled in.
// With WAFL_OBS_ENABLED=0 the TraceSpan constructor/destructor bodies are
// `if constexpr`-deleted entirely.
#pragma once

#ifndef WAFL_OBS_ENABLED
#define WAFL_OBS_ENABLED 1
#endif

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace wafl::obs {

/// Span taxonomy: one enumerator per profiled surface.  The fc.* kinds
/// bracket exactly the code regions the CpPhaseProfile buckets time, so a
/// trace's per-phase wall times reconcile with the profile (the
/// micro_parallel_cp acceptance check).  a/b are small payloads whose
/// meaning is per-kind (a is usually a rg/volume/cp id, b a magnitude).
enum class SpanKind : std::uint8_t {
  // Consistency-point phases (consistency_point.cpp).
  kCp,             // a=cp ordinal   b=dirty blocks
  kCpSort,         // b=dirty blocks
  kCpAlloc,        // b=blocks allocated
  kCpVolumes,      // b=volumes
  kCpVolSlice,     // a=volume       b=ops in slice
  kCpDelayedFree,  // b=frees applied
  kCpVolFinish,    // a=volume
  kCpAggFinish,
  // Overlapped-CP generation split (consistency_point.cpp,
  // overlapped_cp.cpp).  Freeze and drain are the two halves of every CP;
  // intake and stall are emitted by the OverlappedCpDriver on the intake
  // thread, so a trace of an overlapped run shows the two lanes —
  // cp.intake on the caller, cp.drain on the drain thread — concurrently.
  kCpFreeze,  // a=cp ordinal   b=dirty blocks
  kCpDrain,   // a=cp ordinal   b=dirty blocks
  kCpIntake,  // a=cp ordinal (generation being filled)   b=blocks admitted
  kCpStall,   // a=cp ordinal draining   b=blocks waiting
  kCpLeaseDrain,  // never emitted; kept until perfbench stops naming it
  // WriteAllocator::allocate — the plan/execute/merge split.
  kWaPlan,      // a=groups   b=blocks requested
  kWaExecute,   // b=blocks requested
  kWaRgExecute, // a=rg       b=blocks planned
  kWaMerge,     // b=blocks allocated
  // RgAllocator engine.
  kRgFill,         // a=rg   b=blocks taken
  kRgTetrisFlush,  // a=rg   b=window blocks
  // WriteAllocator::finish_cp phases (mirror CpPhaseProfile buckets).
  kFcWindows,  // b=frees deferred
  kFcBoundary,
  kFcRgBoundary,  // a=rg   b=frees applied
  kFcMerge,
  kFcFlush,
  kFcFlushBlock,  // a=metafile block index
  kFcTopaa,
  kFcRgTopaa,  // a=rg
  kFcFold,
  // Mount / recovery (mount.cpp).
  kMount,         // a=used_topaa(0/1)
  kMountVolSeed,  // a=volume
  kMountScan,     // full-bitmap-scan fallback
  kRecoverLoad,
  // Iron repair + segment cleaner.
  kIronCheck,       // b=TopAA blocks rewritten
  kCleanerPass,     // b=blocks relocated
  kCleanerCleanOne, // a=rg   b=blocks moved
};

/// Short stable dotted name ("fc.boundary", "wa.rg_execute", ...) for
/// exports and dumps.
std::string_view span_kind_name(SpanKind k) noexcept;

/// One closed span, as read back out of a buffer.
struct SpanRecord {
  std::uint64_t id = 0;      // 1-based, process-unique
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t t0_ns = 0;   // monotonic_ns() open/close
  std::uint64_t t1_ns = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  SpanKind kind = SpanKind::kCp;
  std::uint32_t tid = 0;  // emitting buffer's registration index
};

/// Single-writer bounded ring of all-atomic slots.  The owning thread
/// pushes; any thread may collect().  A collect racing a wrapping push
/// skips the slot being overwritten (seqlock ticket validation) instead
/// of blocking — emission never takes a lock.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint32_t tid, std::size_t capacity = 8192);
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// Owner-thread only.  r.tid is ignored (the buffer knows its own).
  void push(const SpanRecord& r) noexcept;

  /// Appends every consistent record to `out` (unordered).
  void collect(std::vector<SpanRecord>& out) const;

  /// Total spans ever pushed; pushed() - size-held = overwritten.
  std::uint64_t pushed() const noexcept {
    return pushed_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const noexcept { return slots_.size(); }
  std::uint32_t tid() const noexcept { return tid_; }

  void clear() noexcept;

 private:
  struct Slot {
    /// 0 = empty/being written; else the 1-based push ordinal.  Per-slot
    /// tickets differ by `capacity` across wraps, so a reader's
    /// before/after comparison detects any concurrent overwrite.
    std::atomic<std::uint64_t> ticket{0};
    std::atomic<std::uint64_t> id{0};
    std::atomic<std::uint64_t> parent{0};
    std::atomic<std::uint64_t> t0{0};
    std::atomic<std::uint64_t> t1{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint32_t> kind{0};
  };

  std::uint32_t tid_;
  std::size_t mask_;
  std::atomic<std::uint64_t> pushed_{0};
  std::vector<Slot> slots_;
};

/// Registry of per-thread SpanBuffers plus the span-id allocator.  Each
/// thread's first emission through local() registers a buffer; the
/// collector keeps it alive (shared_ptr) past thread exit so late
/// snapshots still see the records.
class SpanCollector {
 public:
  SpanCollector() = default;
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// The calling thread's buffer in this collector (registered on first
  /// use).  A thread alternating between two collectors re-registers —
  /// fine for tests, and the production path has exactly one collector.
  SpanBuffer& local();

  std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Every consistent record across all buffers, sorted by (t0, id).
  std::vector<SpanRecord> snapshot() const;

  /// Spans overwritten before they could be snapshot, summed over buffers.
  std::uint64_t dropped() const;

  std::size_t buffer_count() const;

  /// Empties every registered buffer (buffers stay registered).
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<SpanBuffer>> buffers_;
  std::atomic<std::uint64_t> next_id_{0};
};

/// Process-global collector (parallels obs::registry()).
SpanCollector& spans();

/// Runtime capture gate, default OFF.  Flipping it on/off is safe at any
/// time; spans already open finish normally.
bool span_capture_enabled() noexcept;
void set_span_capture(bool on) noexcept;

/// RAII span.  Opening publishes the span id as the thread's task
/// context, so ThreadPool tasks submitted inside the scope (and spans
/// they open) become children; closing restores the parent id.  Closes
/// on destruction — including exception unwind, which is how a crashed
/// CP's partial timeline still reaches the flight recorder — or eagerly
/// via end() for phase code that is not block-structured.
class TraceSpan {
 public:
  explicit TraceSpan(SpanKind kind, std::uint64_t a = 0,
                     std::uint64_t b = 0) noexcept {
    if constexpr (WAFL_OBS_ENABLED != 0) {
      if (span_capture_enabled()) open(kind, a, b);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if constexpr (WAFL_OBS_ENABLED != 0) {
      if (active_) end();
    }
  }

  /// Updates the a payload before close (e.g. a CP number assigned after
  /// the span opened).
  void set_a(std::uint64_t a) noexcept { a_ = a; }
  /// Updates the b payload before close (e.g. blocks moved, rewrites).
  void set_b(std::uint64_t b) noexcept { b_ = b; }

  /// Closes the span now (idempotent; no-op if capture was off at open).
  void end() noexcept;

  std::uint64_t id() const noexcept { return id_; }
  bool active() const noexcept { return active_; }

 private:
  void open(SpanKind kind, std::uint64_t a, std::uint64_t b) noexcept;

  bool active_ = false;
  SpanKind kind_ = SpanKind::kCp;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t t0_ = 0;
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
};

}  // namespace wafl::obs
