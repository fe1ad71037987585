#pragma once

#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/json.h"

namespace safe {
namespace obs {

/// \brief Renders flight-recorder timelines as a Chrome trace-event
/// document (the `{"traceEvents": [...]}` object form), loadable in
/// chrome://tracing and https://ui.perfetto.dev.
///
/// Layout: one process (pid 1); each ThreadTimeline becomes a track
/// (tid = thread_index) named by a `thread_name` metadata record (the
/// timeline label, or "thread<index>" when unlabeled). Events map to
/// phases "B"/"E" (span begin/end), "i" (instant, thread-scoped) and
/// "C" (counter); timestamps are microseconds since the trace epoch.
///
/// The emitted stream is guaranteed well-nested per track even when the
/// ring dropped events mid-span: an end whose begin is missing is
/// skipped, and a begin whose end is missing is closed synthetically at
/// the track's last timestamp. Exporting is lossy only in those drop
/// cases — FlightScope already skips the end when its begin dropped, so
/// in-capacity recordings export verbatim.
JsonValue ChromeTraceJson(const std::vector<ThreadTimeline>& timelines);

/// \brief Compact per-run summary for RunReport sections:
/// {events, dropped, threads: [{thread, label, events, dropped}, ...]}.
JsonValue FlightRecorderSummaryJson(
    const std::vector<ThreadTimeline>& timelines);

/// Snapshots the global FlightRecorder and writes ChromeTraceJson to
/// `path` (compact, single line). Returns false and fills `*error`
/// (when non-null) on I/O failure.
bool WriteChromeTrace(const std::string& path, std::string* error = nullptr);

}  // namespace obs
}  // namespace safe
