#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/span.hpp"

namespace wafl::obs {

namespace {

std::string fmt_rel_ms(std::uint64_t t_ns, std::uint64_t base_ns) {
  char buf[48];
  if (t_ns >= base_ns) {
    std::snprintf(buf, sizeof(buf), "+%.3fms",
                  static_cast<double>(t_ns - base_ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "-%.3fms",
                  static_cast<double>(base_ns - t_ns) / 1e6);
  }
  return buf;
}

std::string counter_key(const Registry::Entry& e) {
  return e.labels.empty() ? e.name : e.name + "{" + e.labels + "}";
}

}  // namespace

FlightRecorder& flight_recorder() {
  static FlightRecorder fr(registry());
  return fr;
}

void FlightRecorder::mark() {
  std::vector<std::pair<std::string, std::uint64_t>> base;
  for (const Registry::Entry& e : reg_->entries()) {
    if (e.kind != Registry::Kind::kCounter) continue;
    base.emplace_back(counter_key(e), e.counter->value());
  }
  std::lock_guard lk(mu_);
  baseline_ = std::move(base);
  mark_ns_ = monotonic_ns();
  notes_.clear();
}

void FlightRecorder::note(std::string_view tag, std::string_view what,
                          std::uint64_t detail) {
  std::lock_guard lk(mu_);
  if (notes_.size() >= kMaxNotes) {
    notes_.erase(notes_.begin());
  }
  notes_.push_back(
      Note{monotonic_ns(), std::string(tag), std::string(what), detail});
}

std::string FlightRecorder::dump(std::size_t max_spans) const {
  std::vector<Note> notes;
  std::map<std::string, std::uint64_t> base;
  std::uint64_t mark_ns = 0;
  {
    std::lock_guard lk(mu_);
    notes = notes_;
    for (const auto& [k, v] : baseline_) base.emplace(k, v);
    mark_ns = mark_ns_;
  }
  const std::uint64_t now = monotonic_ns();

  std::string out = "flight recorder dump";
  if (mark_ns != 0) {
    out += " (window " + fmt_rel_ms(now, mark_ns) + " since mark)";
  }
  out += '\n';

  if (!notes.empty()) {
    out += "  notes:\n";
    for (const Note& n : notes) {
      out += "    " + fmt_rel_ms(n.t_ns, mark_ns != 0 ? mark_ns : n.t_ns) +
             "  [" + n.tag + "]  " + n.what;
      if (n.detail != 0) {
        out += "  n=" + std::to_string(n.detail);
      }
      out += '\n';
    }
  }

  std::vector<SpanRecord> all = spans().snapshot();
  // Keep spans overlapping the observation window, most recent last.
  std::vector<SpanRecord> in_window;
  for (const SpanRecord& s : all) {
    if (mark_ns == 0 || s.t1_ns >= mark_ns) in_window.push_back(s);
  }
  const std::size_t total = in_window.size();
  if (total > max_spans) {
    // Drop the oldest by end time; re-sort the survivors by start.
    std::sort(in_window.begin(), in_window.end(),
              [](const SpanRecord& x, const SpanRecord& y) {
                return x.t1_ns < y.t1_ns;
              });
    in_window.erase(in_window.begin(),
                    in_window.end() - static_cast<std::ptrdiff_t>(max_spans));
    std::sort(in_window.begin(), in_window.end(),
              [](const SpanRecord& x, const SpanRecord& y) {
                return x.t0_ns != y.t0_ns ? x.t0_ns < y.t0_ns : x.id < y.id;
              });
  }
  if (!in_window.empty()) {
    out += "  spans (" + std::to_string(in_window.size()) + " of " +
           std::to_string(total) + " in window):\n";
    for (const SpanRecord& s : in_window) {
      const std::uint64_t base_ns = mark_ns != 0 ? mark_ns : in_window[0].t0_ns;
      out += "    [" + fmt_rel_ms(s.t0_ns, base_ns) + " .. " +
             fmt_rel_ms(s.t1_ns, base_ns) + "]  tid" + std::to_string(s.tid) +
             "  " + std::string(span_kind_name(s.kind)) +
             "  a=" + std::to_string(s.a) + " b=" + std::to_string(s.b) +
             "  id=" + std::to_string(s.id) +
             " parent=" + std::to_string(s.parent) + '\n';
    }
  }

  std::string deltas;
  for (const Registry::Entry& e : reg_->entries()) {
    if (e.kind != Registry::Kind::kCounter) continue;
    const std::uint64_t cur = e.counter->value();
    const auto it = base.find(counter_key(e));
    const std::uint64_t old = it != base.end() ? it->second : 0;
    if (cur == old) continue;
    deltas += "    " + counter_key(e) + "  ";
    deltas += cur >= old ? "+" + std::to_string(cur - old)
                         : "-" + std::to_string(old - cur);
    deltas += '\n';
  }
  if (!deltas.empty()) {
    out += "  counter deltas since mark:\n" + deltas;
  }
  return out;
}

void FlightRecorder::clear() {
  std::lock_guard lk(mu_);
  notes_.clear();
  baseline_.clear();
  mark_ns_ = 0;
}

}  // namespace wafl::obs
