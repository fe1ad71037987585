#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace safe {
namespace obs {

/// \brief One completed span: a named, nested interval on one thread.
/// Times are nanoseconds since the process-wide trace epoch (NowNanos),
/// so spans from different threads share a timeline.
struct SpanRecord {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint32_t thread_index = 0;  ///< the timeline's dense index, not the OS tid
  uint32_t depth = 0;         ///< nesting level at span start (0 = root)
};

/// \brief Pairs flight-recorder begin/end events into completed spans.
///
/// Within each timeline every kEnd closes the innermost open kBegin; a
/// span's depth is the number of spans open at its begin. An end with no
/// open begin is skipped, and a begin whose end was dropped (the buffer
/// filled) is closed at the timeline's last timestamp, as
/// ChromeTraceJson does. Instants and counters carry no duration and are
/// left out. The result is sorted by start time, then depth.
std::vector<SpanRecord> SpansFromTimelines(
    const std::vector<ThreadTimeline>& timelines);

/// \brief All spans of one name: how many and their summed duration.
struct SpanSummary {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;
};

/// Spans aggregated by name, largest total first (equal totals by name).
std::vector<SpanSummary> SummarizeSpans(const std::vector<SpanRecord>& spans);

/// \brief Structured end-of-run report: metrics + span summary + caller
/// sections (e.g. SAFE's per-iteration funnel diagnostics), serializable
/// to JSON (machines) and a fixed-width table (humans). The span timeline
/// itself belongs in the Chrome trace that arming the recorder writes;
/// the report keeps only its per-name summary.
///
/// Typical use:
///   obs::RunReport report("safe_cli fit");
///   report.CaptureTelemetry();                // registry + flight recorder
///   report.AddSection("iterations", IterationDiagnosticsToJson(diags));
///   report.set_wall_seconds(watch.ElapsedSeconds());
///   report.WriteFile(path, &error);
class RunReport {
 public:
  explicit RunReport(std::string tool) : tool_(std::move(tool)) {}

  void set_wall_seconds(double seconds) { wall_seconds_ = seconds; }

  /// Snapshots the global MetricsRegistry and FlightRecorder into the
  /// report: the recorder's timelines become the span list (summarized
  /// by name on output) and a `flight_recorder` summary section. The
  /// recorder holds events only while armed (--trace, `safe_cli trace`,
  /// tests), so a report of an unarmed run has metrics and no spans.
  void CaptureTelemetry();

  void SetMetrics(MetricsSnapshot metrics) { metrics_ = std::move(metrics); }
  void SetSpans(std::vector<SpanRecord> spans) { spans_ = std::move(spans); }

  /// Attaches a caller-provided JSON section under `key` (top level).
  void AddSection(const std::string& key, JsonValue value);

  const MetricsSnapshot& metrics() const { return metrics_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Full report as a JSON document (schema documented in DESIGN.md).
  JsonValue ToJson() const;
  std::string ToJsonString() const { return ToJson().Serialize(); }

  /// Human-readable summary: counters/gauges, histogram stats, and spans
  /// aggregated by name (count, total, mean).
  std::string ToTable() const;

  /// Writes the JSON document to `path`. Returns false and fills
  /// `*error` (when non-null) on I/O failure.
  bool WriteFile(const std::string& path, std::string* error = nullptr) const;

 private:
  std::string tool_;
  double wall_seconds_ = 0.0;
  MetricsSnapshot metrics_;
  std::vector<SpanRecord> spans_;
  std::vector<std::pair<std::string, JsonValue>> sections_;
};

/// MetricsSnapshot as JSON: {"counters": {...}, "gauges": {...},
/// "histograms": {name: {count, sum, buckets: [{le, count}...]}}}.
JsonValue MetricsToJson(const MetricsSnapshot& metrics);

/// SummarizeSpans as a JSON array of {name, count, total_us, mean_us}.
JsonValue SpansToJson(const std::vector<SpanRecord>& spans);

}  // namespace obs
}  // namespace safe
