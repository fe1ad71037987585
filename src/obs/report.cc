#include "src/obs/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include "src/obs/trace_export.h"

namespace safe {
namespace obs {

namespace {

constexpr int kReportSchemaVersion = 3;

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

std::vector<SpanSummary> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanSummary> by_name;
  for (const auto& span : spans) {
    SpanSummary& summary = by_name[span.name];
    summary.count += 1;
    summary.total_ns += span.duration_ns;
  }
  std::vector<SpanSummary> out;
  out.reserve(by_name.size());
  for (auto& [name, summary] : by_name) {
    summary.name = name;
    out.push_back(std::move(summary));
  }
  std::sort(out.begin(), out.end(),
            [](const SpanSummary& a, const SpanSummary& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              return a.name < b.name;
            });
  return out;
}

JsonValue SpansToJson(const std::vector<SpanRecord>& spans) {
  JsonValue out = JsonValue::Array();
  for (const SpanSummary& summary : SummarizeSpans(spans)) {
    const double total_us = static_cast<double>(summary.total_ns) / 1e3;
    JsonValue s = JsonValue::Object();
    s.Set("name", JsonValue(summary.name));
    s.Set("count", JsonValue(summary.count));
    s.Set("total_us", JsonValue(total_us));
    s.Set("mean_us",
          JsonValue(total_us / static_cast<double>(summary.count)));
    out.Append(std::move(s));
  }
  return out;
}

void RunReport::CaptureTelemetry() {
  // Peak RSS at emission time, so reports record memory next to time.
  MetricsRegistry::Global()->gauge("process.peak_rss_bytes")
      ->Set(static_cast<double>(PeakRssBytes()));
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
    out << "spans (count / total ms / mean ms):\n";
    for (const SpanSummary& summary : SummarizeSpans(spans_)) {
      const double total_ms = static_cast<double>(summary.total_ns) / 1e6;
      out << "  " << summary.name << " = " << summary.count << " / "
          << FormatFixed(total_ms, 2) << " / "
          << FormatFixed(total_ms / static_cast<double>(summary.count), 3)
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
