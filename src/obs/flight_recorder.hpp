// Black-box flight recorder: a bounded ring of annotated moments plus a
// counter baseline, rendered as a readable post-mortem dump.
//
// The crash harness mark()s it before the crash CP; crash hooks and the
// fault engine note() the exact trigger as it fires; on any invariant
// failure the harness dump()s — recent spans since the mark, the notes,
// and every counter that moved — so a WAFL_CRASH_SEED repro line ships
// with a timeline instead of a bare seed.  One recorder is process-global
// (flight_recorder(), bound to registry()); a wafl::RuntimeBundle owns one
// per aggregate, bound to its own registry.  Cheap enough to leave armed
// everywhere; note() is off the hot path by construction (it fires on
// crashes, not per block).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wafl::obs {

class FlightRecorder;
class Registry;

/// Process-global recorder, bound to registry().
FlightRecorder& flight_recorder();

class FlightRecorder {
 public:
  /// mark()/dump() snapshot the counters of `reg`.
  explicit FlightRecorder(Registry& reg) : reg_(&reg) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Starts (or restarts) an observation window: snapshots every counter
  /// in the bound registry and timestamps the mark.  dump() reports
  /// deltas and spans relative to the latest mark.
  void mark();

  /// Records an annotated moment ("crash", "wa.before_bitmap_flush", 3).
  /// Bounded ring; the oldest note is dropped past capacity.
  void note(std::string_view tag, std::string_view what,
            std::uint64_t detail = 0);

  /// Human-readable post-mortem: notes since the mark, the most recent
  /// spans (≤ max_spans, only those overlapping the window), and counter
  /// deltas vs the mark()ed baseline.  Empty sections are elided.
  std::string dump(std::size_t max_spans = 48) const;

  /// Drops notes and the baseline (test isolation).
  void clear();

 private:
  struct Note {
    std::uint64_t t_ns;
    std::string tag;
    std::string what;
    std::uint64_t detail;
  };

  Registry* const reg_;
  mutable std::mutex mu_;
  std::vector<Note> notes_;
  std::vector<std::pair<std::string, std::uint64_t>> baseline_;  // name{labels}
  std::uint64_t mark_ns_ = 0;

  static constexpr std::size_t kMaxNotes = 64;
};

}  // namespace wafl::obs
