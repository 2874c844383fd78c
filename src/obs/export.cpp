#include "obs/export.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace wafl::obs {

namespace {

/// Shortest stable rendering of a double that survives both JSON parsers
/// and Prometheus scrapers ("12", "0.4375", "1.234568e+09").
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string fmt_i64(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; dotted wafl names map
/// onto underscores ("wafl.cp.blocks_written" -> "wafl_cp_blocks_written").
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& ch : out) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    if (!ok) ch = '_';
  }
  return out;
}

/// "{rg="0"}" or "" — optionally with an extra le="..." pair merged in.
std::string prom_labels(const std::string& labels, const std::string& le = {}) {
  if (labels.empty() && le.empty()) return {};
  std::string out = "{";
  out += labels;
  if (!le.empty()) {
    if (!labels.empty()) out += ',';
    out += "le=\"";
    out += le;
    out += '"';
  }
  out += '}';
  return out;
}

void prom_type_line(std::string& out, const std::string& name,
                    const char* type, std::string& last_typed) {
  if (last_typed == name) return;  // one TYPE line per family
  last_typed = name;
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

/// Shared cumulative-bucket rendering for both histogram kinds.
/// `n_bins`, `bin_count(i)`, `bin_hi(i)` abstract over the geometry.
template <typename CountFn, typename HiFn>
void prom_histogram(std::string& out, const std::string& name,
                    const std::string& labels, std::uint32_t n_bins,
                    CountFn bin_count, HiFn bin_hi, double sum,
                    std::uint64_t count) {
  std::uint64_t cum = 0;
  for (std::uint32_t i = 0; i < n_bins; ++i) {
    const std::uint64_t c = bin_count(i);
    if (c == 0) continue;
    cum += c;
    out += name;
    out += "_bucket";
    out += prom_labels(labels, fmt_double(bin_hi(i)));
    out += ' ';
    out += fmt_u64(cum);
    out += '\n';
  }
  out += name;
  out += "_bucket";
  out += prom_labels(labels, "+Inf");
  out += ' ';
  out += fmt_u64(count);
  out += '\n';
  out += name;
  out += "_sum";
  out += prom_labels(labels);
  out += ' ';
  out += fmt_double(sum);
  out += '\n';
  out += name;
  out += "_count";
  out += prom_labels(labels);
  out += ' ';
  out += fmt_u64(count);
  out += '\n';
}

/// JSON string escaping for the (printable-ASCII) names and label strings
/// we generate; control characters degrade to \u00XX.
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

template <typename CountFn, typename LoFn, typename HiFn>
void json_buckets(std::string& out, std::uint32_t n_bins, CountFn bin_count,
                  LoFn bin_lo, HiFn bin_hi) {
  out += "\"buckets\": [";
  bool first = true;
  for (std::uint32_t i = 0; i < n_bins; ++i) {
    const std::uint64_t c = bin_count(i);
    if (c == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "{\"lo\": ";
    out += fmt_double(bin_lo(i));
    out += ", \"hi\": ";
    out += fmt_double(bin_hi(i));
    out += ", \"count\": ";
    out += fmt_u64(c);
    out += '}';
  }
  out += ']';
}

}  // namespace

std::string to_prometheus(const Registry& reg) {
  std::string out;
  std::string last_typed;
  for (const Registry::Entry& e : reg.entries()) {
    const std::string name = prom_name(e.name);
    switch (e.kind) {
      case Registry::Kind::kCounter:
        prom_type_line(out, name, "counter", last_typed);
        out += name;
        out += prom_labels(e.labels);
        out += ' ';
        out += fmt_u64(e.counter->value());
        out += '\n';
        break;
      case Registry::Kind::kGauge:
        prom_type_line(out, name, "gauge", last_typed);
        out += name;
        out += prom_labels(e.labels);
        out += ' ';
        out += fmt_i64(e.gauge->value());
        out += '\n';
        break;
      case Registry::Kind::kLogHistogram: {
        prom_type_line(out, name, "histogram", last_typed);
        const LogHistogram& h = *e.log_hist;
        prom_histogram(
            out, name, e.labels, LogHistogram::kBuckets,
            [&h](std::uint32_t i) { return h.bucket_count(i); },
            [](std::uint32_t i) { return LogHistogram::bucket_hi(i); },
            h.sum(), h.count());
        break;
      }
      case Registry::Kind::kLinearHistogram: {
        prom_type_line(out, name, "histogram", last_typed);
        const LinearHistogram& h = *e.linear_hist;
        prom_histogram(
            out, name, e.labels, h.bins(),
            [&h](std::uint32_t i) { return h.bucket_count(i); },
            [&h](std::uint32_t i) { return h.bucket_hi(i); }, h.sum(),
            h.count());
        break;
      }
    }
  }
  return out;
}

std::string to_json(const Registry& reg) {
  const std::vector<Registry::Entry> entries = reg.entries();
  std::string counters, gauges, hists;
  for (const Registry::Entry& e : entries) {
    switch (e.kind) {
      case Registry::Kind::kCounter:
        if (!counters.empty()) counters += ",\n";
        counters += "    {\"name\": " + json_str(e.name) +
                    ", \"labels\": " + json_str(e.labels) +
                    ", \"value\": " + fmt_u64(e.counter->value()) + "}";
        break;
      case Registry::Kind::kGauge:
        if (!gauges.empty()) gauges += ",\n";
        gauges += "    {\"name\": " + json_str(e.name) +
                  ", \"labels\": " + json_str(e.labels) +
                  ", \"value\": " + fmt_i64(e.gauge->value()) + "}";
        break;
      case Registry::Kind::kLogHistogram:
      case Registry::Kind::kLinearHistogram: {
        if (!hists.empty()) hists += ",\n";
        std::string h = "    {\"name\": " + json_str(e.name) +
                        ", \"labels\": " + json_str(e.labels);
        if (e.kind == Registry::Kind::kLogHistogram) {
          const LogHistogram& lh = *e.log_hist;
          h += ", \"kind\": \"log\"";
          h += ", \"count\": " + fmt_u64(lh.count());
          h += ", \"sum\": " + fmt_double(lh.sum());
          h += ", \"mean\": " + fmt_double(lh.mean());
          h += ", \"min\": " + fmt_double(lh.min());
          h += ", \"max\": " + fmt_double(lh.max());
          h += ", \"p50\": " + fmt_double(lh.percentile(50.0));
          h += ", \"p90\": " + fmt_double(lh.percentile(90.0));
          h += ", \"p99\": " + fmt_double(lh.percentile(99.0));
          h += ", ";
          json_buckets(
              h, LogHistogram::kBuckets,
              [&lh](std::uint32_t i) { return lh.bucket_count(i); },
              [](std::uint32_t i) { return LogHistogram::bucket_lo(i); },
              [](std::uint32_t i) { return LogHistogram::bucket_hi(i); });
        } else {
          const LinearHistogram& lh = *e.linear_hist;
          h += ", \"kind\": \"linear\"";
          h += ", \"count\": " + fmt_u64(lh.count());
          h += ", \"sum\": " + fmt_double(lh.sum());
          h += ", \"mean\": " + fmt_double(lh.mean());
          h += ", \"p50\": " + fmt_double(lh.percentile(50.0));
          h += ", \"p90\": " + fmt_double(lh.percentile(90.0));
          h += ", \"p99\": " + fmt_double(lh.percentile(99.0));
          h += ", ";
          json_buckets(
              h, lh.bins(),
              [&lh](std::uint32_t i) { return lh.bucket_count(i); },
              [&lh](std::uint32_t i) { return lh.bucket_lo(i); },
              [&lh](std::uint32_t i) { return lh.bucket_hi(i); });
        }
        h += '}';
        hists += h;
        break;
      }
    }
  }
  std::string out = "{\n  \"counters\": [\n";
  out += counters;
  out += "\n  ],\n  \"gauges\": [\n";
  out += gauges;
  out += "\n  ],\n  \"histograms\": [\n";
  out += hists;
  out += "\n  ]\n}\n";
  return out;
}

namespace {

/// Total length of the union of [lo, hi) intervals, optionally clipped to
/// [clip_lo, clip_hi).  `iv` is sorted in place by start.
std::uint64_t union_length(std::vector<std::pair<std::uint64_t, std::uint64_t>>& iv,
                           std::uint64_t clip_lo, std::uint64_t clip_hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, clip_lo);
    hi = std::min(hi, clip_hi);
    if (lo >= hi) continue;
    if (!open) {
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else if (lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
    } else {
      total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// Span kinds whose `a` payload is a RAID-group id (per-rg breakdown).
bool kind_is_per_rg(SpanKind k) {
  switch (k) {
    case SpanKind::kWaRgExecute:
    case SpanKind::kRgFill:
    case SpanKind::kRgTetrisFlush:
    case SpanKind::kRgDeviceWrite:
    case SpanKind::kFcRgBoundary:
    case SpanKind::kFcRgTopaa:
      return true;
    default:
      return false;
  }
}

struct SpanForest {
  const std::vector<SpanRecord>* spans = nullptr;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  std::vector<std::size_t> roots;

  explicit SpanForest(const std::vector<SpanRecord>& s) : spans(&s) {
    by_id.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) by_id.emplace(s[i].id, i);
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i].parent != 0 && by_id.count(s[i].parent) != 0) {
        children[s[i].parent].push_back(i);
      } else {
        roots.push_back(i);
      }
    }
  }

  std::uint64_t self_ns(std::size_t i) const {
    const SpanRecord& s = (*spans)[i];
    const auto it = children.find(s.id);
    const std::uint64_t wall = s.t1_ns - s.t0_ns;
    if (it == children.end()) return wall;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    iv.reserve(it->second.size());
    for (std::size_t c : it->second) {
      iv.emplace_back((*spans)[c].t0_ns, (*spans)[c].t1_ns);
    }
    const std::uint64_t covered = union_length(iv, s.t0_ns, s.t1_ns);
    return wall > covered ? wall - covered : 0;
  }

  /// Critical-path estimate: self time plus, for each cluster of
  /// time-overlapping children, the longest child path (concurrent
  /// siblings collapse to the slowest; sequential clusters add up).
  std::uint64_t crit_ns(std::size_t i) const {
    const auto it = children.find((*spans)[i].id);
    std::uint64_t total = self_ns(i);
    if (it != children.end()) total += cluster_crit(it->second);
    return total;
  }

  /// Cluster-combine an arbitrary sibling set (also used for the roots).
  std::uint64_t cluster_crit(const std::vector<std::size_t>& sibs) const {
    std::vector<std::size_t> order = sibs;
    std::sort(order.begin(), order.end(), [this](std::size_t x, std::size_t y) {
      return (*spans)[x].t0_ns < (*spans)[y].t0_ns;
    });
    std::uint64_t total = 0;
    std::size_t k = 0;
    while (k < order.size()) {
      std::uint64_t cluster_end = (*spans)[order[k]].t1_ns;
      std::uint64_t best = crit_ns(order[k]);
      std::size_t j = k + 1;
      while (j < order.size() && (*spans)[order[j]].t0_ns < cluster_end) {
        cluster_end = std::max(cluster_end, (*spans)[order[j]].t1_ns);
        best = std::max(best, crit_ns(order[j]));
        ++j;
      }
      total += best;
      k = j;
    }
    return total;
  }
};

std::string fmt_ms(std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

std::string spans_to_chrome_json(const std::vector<SpanRecord>& spans) {
  // ~0 sentinel, not 0: a genuine t0 of 0 must not re-arm the min scan.
  std::uint64_t t_min = ~0ull;
  for (const SpanRecord& s : spans) t_min = std::min(t_min, s.t0_ns);
  if (spans.empty()) t_min = 0;
  std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  char buf[64];
  for (const SpanRecord& s : spans) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"name\": " +
           json_str(std::string(span_kind_name(s.kind))) +
           ", \"cat\": \"wafl\", \"ph\": \"X\"";
    std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f",
                  static_cast<double>(s.t0_ns - t_min) / 1e3);
    out += buf;
    std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f",
                  static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
    out += buf;
    out += ", \"pid\": 1, \"tid\": " + fmt_u64(s.tid);
    out += ", \"args\": {\"id\": " + fmt_u64(s.id) +
           ", \"parent\": " + fmt_u64(s.parent) + ", \"a\": " + fmt_u64(s.a) +
           ", \"b\": " + fmt_u64(s.b) + "}}";
  }
  out += "\n]}\n";
  return out;
}

std::string span_summary_json(const std::vector<SpanRecord>& spans,
                              std::uint64_t dropped) {
  const SpanForest forest(spans);

  struct KindAgg {
    std::uint64_t count = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t self_ns = 0;
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        by_rg;  // rg -> {count, wall_ns}
  };
  std::map<std::string, KindAgg> kinds;  // name-keyed: stable output order
  std::map<std::uint32_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      tid_iv;
  std::uint64_t t_min = ~0ull, t_max = 0;

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    KindAgg& k = kinds[std::string(span_kind_name(s.kind))];
    k.count += 1;
    k.wall_ns += s.t1_ns - s.t0_ns;
    k.self_ns += forest.self_ns(i);
    if (kind_is_per_rg(s.kind)) {
      auto& [cnt, wall] = k.by_rg[s.a];
      cnt += 1;
      wall += s.t1_ns - s.t0_ns;
    }
    tid_iv[s.tid].emplace_back(s.t0_ns, s.t1_ns);
    t_min = std::min(t_min, s.t0_ns);
    t_max = std::max(t_max, s.t1_ns);
  }
  const std::uint64_t window_ns = t_max > t_min ? t_max - t_min : 0;

  std::string out = "{\n    \"span_count\": " +
                    fmt_u64(static_cast<std::uint64_t>(spans.size())) +
                    ",\n    \"dropped\": " + fmt_u64(dropped) +
                    ",\n    \"window_ms\": " + fmt_ms(window_ns) +
                    ",\n    \"critical_path_ms\": " +
                    fmt_ms(spans.empty() ? 0 : forest.cluster_crit(forest.roots)) +
                    ",\n    \"phases\": [\n";
  bool first = true;
  for (const auto& [name, k] : kinds) {
    if (!first) out += ",\n";
    first = false;
    out += "      {\"kind\": " + json_str(name) +
           ", \"count\": " + fmt_u64(k.count) +
           ", \"wall_ms\": " + fmt_ms(k.wall_ns) +
           ", \"self_ms\": " + fmt_ms(k.self_ns);
    if (!k.by_rg.empty()) {
      out += ", \"by_rg\": [";
      bool f2 = true;
      for (const auto& [rg, cw] : k.by_rg) {
        if (!f2) out += ", ";
        f2 = false;
        out += "{\"rg\": " + fmt_u64(rg) + ", \"count\": " + fmt_u64(cw.first) +
               ", \"wall_ms\": " + fmt_ms(cw.second) + "}";
      }
      out += ']';
    }
    out += '}';
  }
  out += "\n    ],\n    \"threads\": [\n";
  first = true;
  for (auto& [tid, iv] : tid_iv) {
    const std::uint64_t busy = union_length(iv, t_min, t_max);
    if (!first) out += ",\n";
    first = false;
    out += "      {\"tid\": " + fmt_u64(tid) +
           ", \"busy_ms\": " + fmt_ms(busy) + ", \"occupancy\": " +
           fmt_double(window_ns > 0
                          ? static_cast<double>(busy) /
                                static_cast<double>(window_ns)
                          : 0.0) +
           '}';
  }
  out += "\n    ]\n  }";
  return out;
}

std::string to_json_with_spans(const Registry& reg,
                               const std::vector<SpanRecord>& spans,
                               std::uint64_t dropped) {
  std::string out = to_json(reg);
  // Splice "span_summary" in before the closing brace of the to_json()
  // object (its last two characters are "}\n").
  const std::size_t close = out.rfind('}');
  if (close == std::string::npos) return out;
  std::string spliced = out.substr(0, close);
  spliced += ",\n  \"span_summary\": ";
  spliced += span_summary_json(spans, dropped);
  spliced += "\n}\n";
  return spliced;
}

}  // namespace wafl::obs
