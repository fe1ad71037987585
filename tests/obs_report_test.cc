#include "src/obs/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json.h"

namespace safe {
namespace obs {
namespace {

/// Builds a fully deterministic report (no CaptureTelemetry, so no
/// process state leaks into the content).
RunReport MakeFixtureReport() {
  RunReport report("unit_test");
  report.set_wall_seconds(1.5);

  MetricsSnapshot metrics;
  metrics.counters["engine.iterations"] = 2;
  metrics.counters["gbdt.trees_trained"] = 40;
  metrics.gauges["threadpool.queue_depth"] = 0.0;
  HistogramSnapshot hist;
  hist.upper_bounds = {10.0, 100.0};
  hist.counts = {3, 1, 0};  // includes the overflow bucket
  hist.count = 4;
  hist.sum = 52.0;
  metrics.histograms["gbdt.tree_fit_us"] = hist;
  report.SetMetrics(std::move(metrics));

  std::vector<SpanRecord> spans;
  spans.push_back({"engine.fit", 1000, 9000, 0, 0});
  spans.push_back({"engine.iteration", 2000, 7000, 0, 1});
  spans.push_back({"engine.mine_combinations", 2500, 1000, 0, 2});
  report.SetSpans(std::move(spans));
  return report;
}

TEST(RunReportTest, GoldenJson) {
  RunReport report = MakeFixtureReport();
  const std::string expected = R"({
  "tool": "unit_test",
  "schema_version": 2,
  "wall_seconds": 1.5,
  "metrics": {
    "counters": {
      "engine.iterations": 2,
      "gbdt.trees_trained": 40
    },
    "gauges": {
      "threadpool.queue_depth": 0
    },
    "histograms": {
      "gbdt.tree_fit_us": {
        "count": 4,
        "sum": 52,
        "buckets": [
          {
            "le": 10,
            "count": 3
          },
          {
            "le": 100,
            "count": 1
          }
        ]
      }
    }
  },
  "spans": [
    {
      "name": "engine.fit",
      "start_us": 1,
      "duration_us": 9,
      "thread": 0,
      "depth": 0
    },
    {
      "name": "engine.iteration",
      "start_us": 2,
      "duration_us": 7,
      "thread": 0,
      "depth": 1
    },
    {
      "name": "engine.mine_combinations",
      "start_us": 2.5,
      "duration_us": 1,
      "thread": 0,
      "depth": 2
    }
  ]
}
)";
  EXPECT_EQ(report.ToJsonString(), expected);
}

TEST(RunReportTest, JsonRoundTrip) {
  RunReport report = MakeFixtureReport();
  std::vector<IterationDiagnostics> iterations(1);
  iterations[0].num_paths = 12;
  iterations[0].num_combinations = 30;
  iterations[0].num_generated = 120;
  iterations[0].num_candidates = 130;
  iterations[0].num_after_iv = 60;
  iterations[0].num_after_redundancy = 40;
  iterations[0].num_selected = 20;
  iterations[0].seconds = 0.25;
  iterations[0].stages.push_back({"mine_combinations", 0.0, 0.1});
  iterations[0].stages.push_back({"iv_filter", 0.1, 0.05});
  report.AddSection("iterations", IterationDiagnosticsToJson(iterations));

  const JsonValue original = report.ToJson();
  JsonValue reparsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(original.Serialize(), &reparsed, &error))
      << error;
  EXPECT_EQ(reparsed, original);

  // Every IterationDiagnostics field survives the round trip.
  const JsonValue* iters = reparsed.Find("iterations");
  ASSERT_NE(iters, nullptr);
  ASSERT_EQ(iters->items().size(), 1u);
  const JsonValue& entry = iters->items()[0];
  const struct {
    const char* key;
    double value;
  } kFields[] = {
      {"num_paths", 12},         {"num_combinations", 30},
      {"num_generated", 120},    {"num_candidates", 130},
      {"num_after_iv", 60},      {"num_after_redundancy", 40},
      {"num_selected", 20},      {"seconds", 0.25},
  };
  for (const auto& field : kFields) {
    const JsonValue* v = entry.Find(field.key);
    ASSERT_NE(v, nullptr) << field.key;
    EXPECT_DOUBLE_EQ(v->number_value(), field.value) << field.key;
  }
  const JsonValue* stages = entry.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->items().size(), 2u);
  EXPECT_EQ(stages->items()[0].Find("stage")->string_value(),
            "mine_combinations");
  EXPECT_DOUBLE_EQ(stages->items()[1].Find("start_seconds")->number_value(),
                   0.1);
  EXPECT_DOUBLE_EQ(stages->items()[1].Find("seconds")->number_value(), 0.05);
}

TEST(RunReportTest, TableListsMetricsAndSpans) {
  RunReport report = MakeFixtureReport();
  const std::string table = report.ToTable();
  EXPECT_NE(table.find("engine.iterations"), std::string::npos);
  EXPECT_NE(table.find("gbdt.tree_fit_us"), std::string::npos);
  EXPECT_NE(table.find("engine.mine_combinations"), std::string::npos);
}

TEST(RunReportTest, WriteFileRoundTrips) {
  RunReport report = MakeFixtureReport();
  const std::string path = ::testing::TempDir() + "/obs_report_test.json";
  std::string error;
  ASSERT_TRUE(report.WriteFile(path, &error)) << error;

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), report.ToJsonString());
  std::remove(path.c_str());
}

TEST(RunReportTest, WriteFileReportsFailure) {
  RunReport report = MakeFixtureReport();
  std::string error;
  EXPECT_FALSE(report.WriteFile("/nonexistent-dir/x/y/report.json", &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonValueTest, ParseRejectsMalformedInput) {
  JsonValue out;
  EXPECT_FALSE(JsonValue::Parse("{", &out));
  EXPECT_FALSE(JsonValue::Parse("[1,]", &out));
  EXPECT_FALSE(JsonValue::Parse("{}extra", &out));
  EXPECT_TRUE(JsonValue::Parse("{\"a\": [1, 2.5, \"x\", true, null]}", &out));
}

TEST(RunReportTest, CaptureTelemetryPicksUpGlobalState) {
  MetricsRegistry::Global()->Reset();
  FlightRecorder::Global()->Clear();
  MetricsRegistry::Global()->counter("report_test.counter")->Increment(3);
  FlightRecorder::Arm();
  {
    SAFE_FR_SCOPE("report_test.span");
  }
  FlightRecorder::Disarm();
  RunReport report("capture_test");
  report.CaptureTelemetry();
  EXPECT_EQ(report.metrics().counters.at("report_test.counter"), 3u);
  bool found = false;
  for (const auto& span : report.spans()) {
    if (span.name == "report_test.span") found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_NE(report.ToJson().Find("flight_recorder"), nullptr);
  MetricsRegistry::Global()->Reset();
  FlightRecorder::Global()->Clear();
}

TEST(RunReportTest, CaptureWithRecorderDisarmedHasMetricsAndNoSpans) {
  MetricsRegistry::Global()->Reset();
  FlightRecorder::Global()->Clear();
  FlightRecorder::Disarm();
  MetricsRegistry::Global()->counter("report_test.counter")->Increment(2);
  {
    SAFE_FR_SCOPE("report_test.unrecorded");
  }
  RunReport report("capture_disarmed_test");
  report.CaptureTelemetry();
  EXPECT_EQ(report.metrics().counters.at("report_test.counter"), 2u);
  EXPECT_TRUE(report.spans().empty());
  EXPECT_EQ(report.ToJson().Find("flight_recorder"), nullptr);
  MetricsRegistry::Global()->Reset();
}

// --- Spans paired from flight-recorder timelines. Clearing the recorder
// is covered by FlightRecorderTest.OverflowDropsAreExactAndClearResets
// (trace_recorder_test). ---

std::vector<SpanRecord> FindByName(const std::vector<SpanRecord>& spans,
                                   const std::string& name) {
  std::vector<SpanRecord> out;
  for (const auto& s : spans) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

TraceEvent Event(TraceEventType type, const char* name, uint64_t ts_ns) {
  TraceEvent event;
  event.type = type;
  event.name = name;
  event.ts_ns = ts_ns;
  return event;
}

/// Runs `body` with the global recorder armed and returns the spans it
/// recorded; leaves the recorder disarmed and cleared.
template <typename Body>
std::vector<SpanRecord> RecordSpans(Body body) {
  FlightRecorder::Global()->Clear();
  FlightRecorder::Arm();
  body();
  FlightRecorder::Disarm();
  std::vector<SpanRecord> spans =
      SpansFromTimelines(FlightRecorder::Global()->Snapshot());
  FlightRecorder::Global()->Clear();
  return spans;
}

TEST(SpansFromTimelinesTest, NestedSpansRecordDepthAndContainment) {
  const std::vector<SpanRecord> spans = RecordSpans([] {
    SAFE_FR_SCOPE("outer");
    {
      SAFE_FR_SCOPE("middle");
      { SAFE_FR_SCOPE("inner"); }
    }
  });
  auto outer = FindByName(spans, "outer");
  auto middle = FindByName(spans, "middle");
  auto inner = FindByName(spans, "inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(middle.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);

  EXPECT_EQ(outer[0].depth, 0u);
  EXPECT_EQ(middle[0].depth, 1u);
  EXPECT_EQ(inner[0].depth, 2u);

  // Nesting implies interval containment: each child starts no earlier
  // and ends no later than its parent.
  EXPECT_GE(middle[0].start_ns, outer[0].start_ns);
  EXPECT_LE(middle[0].start_ns + middle[0].duration_ns,
            outer[0].start_ns + outer[0].duration_ns);
  EXPECT_GE(inner[0].start_ns, middle[0].start_ns);
  EXPECT_LE(inner[0].start_ns + inner[0].duration_ns,
            middle[0].start_ns + middle[0].duration_ns);

  // All on the same thread.
  EXPECT_EQ(outer[0].thread_index, middle[0].thread_index);
  EXPECT_EQ(outer[0].thread_index, inner[0].thread_index);
}

TEST(SpansFromTimelinesTest, SnapshotSortedByStartTime) {
  const std::vector<SpanRecord> spans = RecordSpans([] {
    for (int i = 0; i < 5; ++i) {
      SAFE_FR_SCOPE("sequential");
    }
  });
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_TRUE(std::is_sorted(
      spans.begin(), spans.end(),
      [](const SpanRecord& a, const SpanRecord& b) {
        return a.start_ns < b.start_ns;
      }));
  // Sequential spans on one thread must not overlap.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_ns,
              spans[i - 1].start_ns + spans[i - 1].duration_ns);
  }

  // Across timelines the order is start time, then depth.
  ThreadTimeline a;
  a.thread_index = 0;
  a.events = {Event(TraceEventType::kBegin, "a.outer", 10),
              Event(TraceEventType::kBegin, "a.inner", 10),
              Event(TraceEventType::kEnd, "a.inner", 20),
              Event(TraceEventType::kEnd, "a.outer", 30)};
  ThreadTimeline b;
  b.thread_index = 1;
  b.events = {Event(TraceEventType::kBegin, "b", 5),
              Event(TraceEventType::kEnd, "b", 15)};
  const std::vector<SpanRecord> merged = SpansFromTimelines({a, b});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].name, "b");
  EXPECT_EQ(merged[0].thread_index, 1u);
  EXPECT_EQ(merged[1].name, "a.outer");
  EXPECT_EQ(merged[1].duration_ns, 20u);
  EXPECT_EQ(merged[2].name, "a.inner");
  EXPECT_EQ(merged[2].depth, 1u);
}

TEST(SpansFromTimelinesTest, SpansFromDifferentThreadsGetDistinctThreadIndices) {
  constexpr int kThreads = 4;
  const std::vector<SpanRecord> spans = RecordSpans([] {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        SAFE_FR_SCOPE("worker");
        { SAFE_FR_SCOPE("worker.child"); }
      });
    }
    for (auto& t : threads) t.join();
  });
  auto workers = FindByName(spans, "worker");
  auto children = FindByName(spans, "worker.child");
  ASSERT_EQ(workers.size(), static_cast<size_t>(kThreads));
  ASSERT_EQ(children.size(), static_cast<size_t>(kThreads));

  std::set<uint32_t> indices;
  for (const auto& s : workers) indices.insert(s.thread_index);
  EXPECT_EQ(indices.size(), static_cast<size_t>(kThreads));

  // Depth is tracked per thread: every root is depth 0, every child 1.
  for (const auto& s : workers) EXPECT_EQ(s.depth, 0u);
  for (const auto& s : children) EXPECT_EQ(s.depth, 1u);
}

TEST(SpansFromTimelinesTest, ResetDropsSpans) {
  FlightRecorder* recorder = FlightRecorder::Global();
  recorder->Clear();
  FlightRecorder::Arm();
  { SAFE_FR_SCOPE("doomed"); }
  EXPECT_FALSE(SpansFromTimelines(recorder->Snapshot()).empty());
  recorder->Clear();
  EXPECT_TRUE(SpansFromTimelines(recorder->Snapshot()).empty());
  // The recorder still works after a clear.
  { SAFE_FR_SCOPE("revived"); }
  const std::vector<SpanRecord> spans =
      SpansFromTimelines(recorder->Snapshot());
  FlightRecorder::Disarm();
  recorder->Clear();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "revived");
}

TEST(SpansFromTimelinesTest, DroppedEndsStillYieldClosedWellNestedSpans) {
  // The ring filled inside "inner": its end and the outer end were
  // dropped, and an instant is the last event that made it in. An orphan
  // end (its begin lost before the timeline starts) is skipped.
  ThreadTimeline timeline;
  timeline.thread_index = 3;
  timeline.dropped = 2;
  timeline.events = {Event(TraceEventType::kEnd, "orphan", 5),
                     Event(TraceEventType::kBegin, "outer", 10),
                     Event(TraceEventType::kBegin, "inner", 20),
                     Event(TraceEventType::kInstant, "tick", 35)};
  const std::vector<SpanRecord> spans = SpansFromTimelines({timeline});
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[0].start_ns, 10u);
  EXPECT_EQ(spans[0].duration_ns, 25u);  // closed at the last timestamp
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[1].start_ns, 20u);
  EXPECT_EQ(spans[1].duration_ns, 15u);
  for (const SpanRecord& span : spans) EXPECT_EQ(span.thread_index, 3u);
  // Well nested: the inner span ends no later than the outer one.
  EXPECT_LE(spans[1].start_ns + spans[1].duration_ns,
            spans[0].start_ns + spans[0].duration_ns);
}

}  // namespace
}  // namespace obs
}  // namespace safe
