// Exporters: Prometheus text exposition and JSON snapshots.
//
// Both render a Registry::entries() snapshot, so output order is stable
// (sorted by name then labels) and suitable for golden tests.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace wafl::obs {

/// Prometheus text exposition format (version 0.0.4).  Dotted metric
/// names become underscore-separated; histograms render cumulative
/// `_bucket{le="..."}` series for their non-empty buckets plus `+Inf`,
/// `_sum`, and `_count`.
std::string to_prometheus(const Registry& reg);

/// Pretty-printed JSON snapshot: {"counters": [...], "gauges": [...],
/// "histograms": [...]}.  Histogram entries carry summary stats
/// (count/sum/mean/p50/p90/p99) plus their non-empty buckets.
std::string to_json(const Registry& reg);

/// Chrome trace_event JSON (Perfetto / chrome://tracing loadable): one
/// complete event (ph "X") per span, ts/dur in microseconds relative to
/// the earliest span, tid = the emitting buffer's registration index,
/// span/parent ids and the a/b payloads in args.
std::string spans_to_chrome_json(const std::vector<SpanRecord>& spans);

/// Timeline summary JSON object: per-kind count / wall / self time (self
/// = wall minus the union of child intervals), per-RAID-group breakdown
/// for the rg-labelled kinds, per-thread busy time and occupancy over the
/// snapshot window, and a critical-path estimate (longest self-time chain
/// through the span forest, overlapping siblings counted once).
/// `dropped` is SpanCollector::dropped() at snapshot time.
std::string span_summary_json(const std::vector<SpanRecord>& spans,
                              std::uint64_t dropped = 0);

/// to_json() with a "span_summary" section appended — the shape benches
/// write into their *.metrics.json dumps.
std::string to_json_with_spans(const Registry& reg,
                               const std::vector<SpanRecord>& spans,
                               std::uint64_t dropped = 0);

}  // namespace wafl::obs
