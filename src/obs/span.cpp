#include "obs/span.hpp"

#include <algorithm>

#include "obs/scoped_timer.hpp"
#include "util/task_context.hpp"

namespace wafl::obs {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::atomic<bool> g_span_capture{false};

}  // namespace

std::string_view span_kind_name(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kCp: return "cp";
    case SpanKind::kCpSort: return "cp.sort";
    case SpanKind::kCpAlloc: return "cp.alloc";
    case SpanKind::kCpVolumes: return "cp.volumes";
    case SpanKind::kCpVolSlice: return "cp.vol_slice";
    case SpanKind::kCpDelayedFree: return "cp.delayed_free";
    case SpanKind::kCpVolFinish: return "cp.vol_finish";
    case SpanKind::kCpAggFinish: return "cp.agg_finish";
    case SpanKind::kCpFreeze: return "cp.freeze";
    case SpanKind::kCpDrain: return "cp.drain";
    case SpanKind::kCpIntake: return "cp.intake";
    case SpanKind::kCpStall: return "cp.stall";
    case SpanKind::kCpLeaseDrain: return "cp.lease_drain";
    case SpanKind::kWaPlan: return "wa.plan";
    case SpanKind::kWaExecute: return "wa.execute";
    case SpanKind::kWaRgExecute: return "wa.rg_execute";
    case SpanKind::kWaMerge: return "wa.merge";
    case SpanKind::kRgFill: return "rg.fill";
    case SpanKind::kRgTetrisFlush: return "rg.tetris_flush";
    case SpanKind::kFcWindows: return "fc.windows";
    case SpanKind::kFcBoundary: return "fc.boundary";
    case SpanKind::kFcRgBoundary: return "fc.rg_boundary";
    case SpanKind::kFcMerge: return "fc.merge";
    case SpanKind::kFcFlush: return "fc.flush";
    case SpanKind::kFcFlushBlock: return "fc.flush_block";
    case SpanKind::kFcTopaa: return "fc.topaa";
    case SpanKind::kFcRgTopaa: return "fc.rg_topaa";
    case SpanKind::kFcFold: return "fc.fold";
    case SpanKind::kMount: return "mount";
    case SpanKind::kMountVolSeed: return "mount.vol_seed";
    case SpanKind::kMountScan: return "mount.scan";
    case SpanKind::kRecoverLoad: return "recover.load";
    case SpanKind::kIronCheck: return "iron.check";
    case SpanKind::kCleanerPass: return "cleaner.pass";
    case SpanKind::kCleanerCleanOne: return "cleaner.clean_one";
  }
  return "unknown";
}

SpanBuffer::SpanBuffer(std::uint32_t tid, std::size_t capacity)
    : tid_(tid),
      mask_(round_up_pow2(std::max<std::size_t>(2, capacity)) - 1),
      slots_(mask_ + 1) {}

void SpanBuffer::push(const SpanRecord& r) noexcept {
  const std::uint64_t ticket =
      pushed_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& s = slots_[static_cast<std::size_t>(ticket - 1) & mask_];
  // Seqlock write protocol, expressed without thread fences (gcc's
  // -fsanitize=thread cannot instrument atomic_thread_fence): invalidate
  // the ticket, fill the fields with release stores, publish with a
  // release ticket store.  A reader that observes any of this writer's
  // field values acquire-synchronizes with that store, which makes the
  // preceding ticket invalidation visible to its re-check — so a torn
  // read always fails validation.
  s.ticket.store(0, std::memory_order_relaxed);
  s.id.store(r.id, std::memory_order_release);
  s.parent.store(r.parent, std::memory_order_release);
  s.t0.store(r.t0_ns, std::memory_order_release);
  s.t1.store(r.t1_ns, std::memory_order_release);
  s.a.store(r.a, std::memory_order_release);
  s.b.store(r.b, std::memory_order_release);
  s.kind.store(static_cast<std::uint32_t>(r.kind), std::memory_order_release);
  s.ticket.store(ticket, std::memory_order_release);
}

void SpanBuffer::collect(std::vector<SpanRecord>& out) const {
  for (const Slot& s : slots_) {
    const std::uint64_t before = s.ticket.load(std::memory_order_acquire);
    if (before == 0) continue;
    SpanRecord r;
    // Acquire field loads: seeing a newer writer's value imports that
    // writer's ticket invalidation, so the `after` re-check (which the
    // acquire loads also pin in place) catches the tear.
    r.id = s.id.load(std::memory_order_acquire);
    r.parent = s.parent.load(std::memory_order_acquire);
    r.t0_ns = s.t0.load(std::memory_order_acquire);
    r.t1_ns = s.t1.load(std::memory_order_acquire);
    r.a = s.a.load(std::memory_order_acquire);
    r.b = s.b.load(std::memory_order_acquire);
    r.kind = static_cast<SpanKind>(s.kind.load(std::memory_order_acquire));
    r.tid = tid_;
    const std::uint64_t after = s.ticket.load(std::memory_order_relaxed);
    if (after != before) continue;  // overwritten mid-read; skip
    out.push_back(r);
  }
}

void SpanBuffer::clear() noexcept {
  for (Slot& s : slots_) {
    s.ticket.store(0, std::memory_order_release);
  }
  pushed_.store(0, std::memory_order_release);
}

SpanBuffer& SpanCollector::local() {
  thread_local struct Tls {
    SpanCollector* owner = nullptr;
    std::shared_ptr<SpanBuffer> buf;
  } tls;
  if (tls.owner != this) {
    std::lock_guard lk(mu_);
    auto buf =
        std::make_shared<SpanBuffer>(static_cast<std::uint32_t>(buffers_.size()));
    buffers_.push_back(buf);
    tls.owner = this;
    tls.buf = std::move(buf);
  }
  return *tls.buf;
}

std::vector<SpanRecord> SpanCollector::snapshot() const {
  std::vector<std::shared_ptr<SpanBuffer>> bufs;
  {
    std::lock_guard lk(mu_);
    bufs = buffers_;
  }
  std::vector<SpanRecord> out;
  for (const auto& b : bufs) {
    b->collect(out);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& x, const SpanRecord& y) {
              return x.t0_ns != y.t0_ns ? x.t0_ns < y.t0_ns : x.id < y.id;
            });
  return out;
}

std::uint64_t SpanCollector::dropped() const {
  std::lock_guard lk(mu_);
  std::uint64_t d = 0;
  for (const auto& b : buffers_) {
    const std::uint64_t pushed = b->pushed();
    if (pushed > b->capacity()) d += pushed - b->capacity();
  }
  return d;
}

std::size_t SpanCollector::buffer_count() const {
  std::lock_guard lk(mu_);
  return buffers_.size();
}

void SpanCollector::clear() {
  std::lock_guard lk(mu_);
  for (const auto& b : buffers_) {
    b->clear();
  }
}

SpanCollector& spans() {
  static SpanCollector c;
  return c;
}

bool span_capture_enabled() noexcept {
  return g_span_capture.load(std::memory_order_relaxed);
}

void set_span_capture(bool on) noexcept {
  g_span_capture.store(on, std::memory_order_relaxed);
}

void TraceSpan::open(SpanKind kind, std::uint64_t a, std::uint64_t b) noexcept {
  kind_ = kind;
  a_ = a;
  b_ = b;
  parent_ = current_task_context();
  id_ = spans().next_id();
  set_task_context(id_);
  active_ = true;
  t0_ = monotonic_ns();  // last, so setup cost stays outside the interval
}

void TraceSpan::end() noexcept {
  if (!active_) return;
  SpanRecord r;
  r.id = id_;
  r.parent = parent_;
  r.t0_ns = t0_;
  r.t1_ns = monotonic_ns();
  r.a = a_;
  r.b = b_;
  r.kind = kind_;
  spans().local().push(r);
  set_task_context(parent_);
  active_ = false;
}

}  // namespace wafl::obs
