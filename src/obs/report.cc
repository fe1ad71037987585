#include "src/obs/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include "src/obs/trace_export.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace safe {
namespace obs {

namespace {

constexpr int kReportSchemaVersion = 2;

std::string FormatFixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

}  // namespace

JsonValue MetricsToJson(const MetricsSnapshot& metrics) {
  JsonValue out = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : metrics.counters) {
    counters.Set(name, JsonValue(value));
  }
  out.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, value] : metrics.gauges) {
    gauges.Set(name, JsonValue(value));
  }
  out.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, snap] : metrics.histograms) {
    JsonValue h = JsonValue::Object();
    h.Set("count", JsonValue(snap.count));
    h.Set("sum", JsonValue(snap.sum));
    JsonValue buckets = JsonValue::Array();
    for (size_t i = 0; i < snap.counts.size(); ++i) {
      // Skip empty buckets to keep reports compact; the overflow bucket
      // has no finite upper bound and serializes le = null.
      if (snap.counts[i] == 0) continue;
      JsonValue bucket = JsonValue::Object();
      if (i < snap.upper_bounds.size()) {
        bucket.Set("le", JsonValue(snap.upper_bounds[i]));
      } else {
        bucket.Set("le", JsonValue());
      }
      bucket.Set("count", JsonValue(snap.counts[i]));
      buckets.Append(std::move(bucket));
    }
    h.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(h));
  }
  out.Set("histograms", std::move(histograms));
  return out;
}

std::vector<SpanRecord> SpansFromTimelines(
    const std::vector<ThreadTimeline>& timelines) {
  std::vector<SpanRecord> spans;
  for (const ThreadTimeline& timeline : timelines) {
    std::vector<size_t> open;  // indices into `spans`, innermost last
    uint64_t last_ts_ns = 0;
    for (const TraceEvent& event : timeline.events) {
      if (event.ts_ns > last_ts_ns) last_ts_ns = event.ts_ns;
      if (event.type == TraceEventType::kBegin) {
        SpanRecord span;
        span.name = event.name != nullptr ? event.name : "";
        span.start_ns = event.ts_ns;
        span.thread_index = timeline.thread_index;
        span.depth = static_cast<uint32_t>(open.size());
        open.push_back(spans.size());
        spans.push_back(std::move(span));
      } else if (event.type == TraceEventType::kEnd && !open.empty()) {
        SpanRecord& span = spans[open.back()];
        span.duration_ns = event.ts_ns - span.start_ns;
        open.pop_back();
      }
    }
    for (const size_t index : open) {
      spans[index].duration_ns = last_ts_ns - spans[index].start_ns;
    }
  }
  // Start time, then depth; equal keys keep their order above (timeline,
  // then begin order within it).
  std::vector<size_t> order(spans.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&spans](size_t a, size_t b) {
    if (spans[a].start_ns != spans[b].start_ns) {
      return spans[a].start_ns < spans[b].start_ns;
    }
    if (spans[a].depth != spans[b].depth) {
      return spans[a].depth < spans[b].depth;
    }
    return a < b;
  });
  std::vector<SpanRecord> sorted;
  sorted.reserve(spans.size());
  for (const size_t index : order) sorted.push_back(std::move(spans[index]));
  return sorted;
}

JsonValue SpansToJson(const std::vector<SpanRecord>& spans) {
  JsonValue out = JsonValue::Array();
  for (const auto& span : spans) {
    JsonValue s = JsonValue::Object();
    s.Set("name", JsonValue(span.name));
    s.Set("start_us", JsonValue(static_cast<double>(span.start_ns) / 1e3));
    s.Set("duration_us",
          JsonValue(static_cast<double>(span.duration_ns) / 1e3));
    s.Set("thread", JsonValue(static_cast<uint64_t>(span.thread_index)));
    s.Set("depth", JsonValue(static_cast<uint64_t>(span.depth)));
    out.Append(std::move(s));
  }
  return out;
}

void RunReport::CaptureTelemetry() {
#if defined(__unix__) || defined(__APPLE__)
  // Peak RSS at emission time, so bench reports record memory next to
  // time (groundwork for out-of-core work, ROADMAP item 3).
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    const double peak_bytes = static_cast<double>(usage.ru_maxrss);
#else
    const double peak_bytes = static_cast<double>(usage.ru_maxrss) * 1024.0;
#endif
    MetricsRegistry::Global()->gauge("process.peak_rss_bytes")
        ->Set(peak_bytes);
  }
#endif
  metrics_ = MetricsRegistry::Global()->Snapshot();
  const std::vector<ThreadTimeline> timelines =
      FlightRecorder::Global()->Snapshot();
  spans_ = SpansFromTimelines(timelines);
  // The flight-recorder summary rides along whenever anything was
  // recorded (or dropped), so reports show event volume and drops per
  // thread next to the spans.
  uint64_t total = 0;
  for (const ThreadTimeline& timeline : timelines) {
    total += timeline.events.size() + timeline.dropped;
  }
  if (total > 0) {
    AddSection("flight_recorder", FlightRecorderSummaryJson(timelines));
  }
}

void RunReport::AddSection(const std::string& key, JsonValue value) {
  for (auto& [k, v] : sections_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  sections_.emplace_back(key, std::move(value));
}

JsonValue RunReport::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("tool", JsonValue(tool_));
  out.Set("schema_version", JsonValue(kReportSchemaVersion));
  out.Set("wall_seconds", JsonValue(wall_seconds_));
  out.Set("metrics", MetricsToJson(metrics_));
  out.Set("spans", SpansToJson(spans_));
  for (const auto& [key, value] : sections_) {
    out.Set(key, value);
  }
  return out;
}

std::string RunReport::ToTable() const {
  std::ostringstream out;
  out << "== run report: " << tool_ << " ==\n";
  out << "wall time: " << FormatFixed(wall_seconds_, 3) << "s\n";

  if (!metrics_.counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : metrics_.counters) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  if (!metrics_.gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, value] : metrics_.gauges) {
      out << "  " << name << " = " << FormatFixed(value, 3) << "\n";
    }
  }
  if (!metrics_.histograms.empty()) {
    out << "histograms (count / sum / mean):\n";
    for (const auto& [name, snap] : metrics_.histograms) {
      out << "  " << name << " = " << snap.count << " / "
          << FormatFixed(snap.sum, 1) << " / "
          << FormatFixed(snap.mean(), 1) << "\n";
    }
  }

  if (!spans_.empty()) {
    // Aggregate the timeline by span name for a digestible summary.
    struct Agg {
      uint64_t count = 0;
      uint64_t total_ns = 0;
    };
    std::map<std::string, Agg> by_name;
    for (const auto& span : spans_) {
      Agg& agg = by_name[span.name];
      agg.count += 1;
      agg.total_ns += span.duration_ns;
    }
    std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                  by_name.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.total_ns > b.second.total_ns;
    });
    out << "spans (count / total ms / mean ms):\n";
    for (const auto& [name, agg] : rows) {
      const double total_ms = static_cast<double>(agg.total_ns) / 1e6;
      out << "  " << name << " = " << agg.count << " / "
          << FormatFixed(total_ms, 2) << " / "
          << FormatFixed(total_ms / static_cast<double>(agg.count), 3)
          << "\n";
    }
  }
  return out.str();
}

bool RunReport::WriteFile(const std::string& path,
                          std::string* error) const {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "' for writing";
    }
    return false;
  }
  out << ToJsonString();
  if (!out) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

}  // namespace obs
}  // namespace safe
