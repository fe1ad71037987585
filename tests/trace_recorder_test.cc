// Flight-recorder suite (src/obs/flight_recorder.h + trace_export.h):
// concurrent no-loss recording below capacity, deterministic drop
// counters on overflow, armed/disarmed macro behaviour, sampling-rate
// exactness, thread-pool worker labeling, and Chrome-trace export that
// parses back through obs::JsonValue with well-nested B/E pairs per
// track. The exporter tests run on hand-built timelines; the rest drive
// the real recorder.

#include "src/obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/obs/json.h"
#include "src/obs/trace_export.h"

namespace safe {
namespace obs {
namespace {

TraceEvent MakeTestEvent(const char* name, TraceEventType type,
                         uint64_t ts_ns, double value = 0.0) {
  TraceEvent event;
  event.ts_ns = ts_ns;
  event.name = name;
  event.value = value;
  event.type = type;
  return event;
}

/// Walks a parsed Chrome trace document and checks, per tid, that "E"
/// records only ever close a previously opened "B" and that every "B"
/// is eventually closed. Returns per-tid completed-span counts.
std::map<uint64_t, size_t> CheckWellNested(const JsonValue& doc) {
  std::map<uint64_t, size_t> completed;
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || events->type() != JsonValue::Type::kArray) {
    ADD_FAILURE() << "document has no traceEvents array";
    return completed;
  }
  std::map<uint64_t, std::vector<std::string>> open;
  for (const JsonValue& record : events->items()) {
    const JsonValue* ph = record.Find("ph");
    const JsonValue* tid = record.Find("tid");
    const JsonValue* name = record.Find("name");
    if (ph == nullptr || tid == nullptr || name == nullptr) {
      ADD_FAILURE() << "record missing ph/tid/name: "
                    << record.Serialize(/*indent=*/-1);
      continue;
    }
    const uint64_t t = static_cast<uint64_t>(tid->number_value());
    const std::string& phase = ph->string_value();
    if (phase == "B") {
      open[t].push_back(name->string_value());
    } else if (phase == "E") {
      if (open[t].empty()) {
        ADD_FAILURE() << "E for '" << name->string_value()
                      << "' without open B, tid " << t;
        continue;
      }
      EXPECT_EQ(open[t].back(), name->string_value())
          << "mis-nested close, tid " << t;
      open[t].pop_back();
      ++completed[t];
    }
  }
  for (const auto& [t, stack] : open) {
    EXPECT_TRUE(stack.empty()) << stack.size() << " unclosed B, tid " << t;
  }
  return completed;
}

// --- Exporter on hand-built timelines ---

TEST(ChromeTraceExportTest, HandBuiltTimelineRoundTripsThroughJsonParse) {
  ThreadTimeline timeline;
  timeline.thread_index = 7;
  timeline.label = "pool0.worker3";
  timeline.events.push_back(
      MakeTestEvent("outer", TraceEventType::kBegin, 1000));
  timeline.events.push_back(
      MakeTestEvent("inner", TraceEventType::kBegin, 2000));
  timeline.events.push_back(
      MakeTestEvent("tick", TraceEventType::kInstant, 2500));
  timeline.events.push_back(
      MakeTestEvent("depth", TraceEventType::kCounter, 3000, 4.0));
  timeline.events.push_back(MakeTestEvent("inner", TraceEventType::kEnd, 4000));
  timeline.events.push_back(MakeTestEvent("outer", TraceEventType::kEnd, 5000));

  const JsonValue doc = ChromeTraceJson({timeline});
  // Serialize compact and parse back: the exporter must emit a document
  // our own parser accepts, or the CI trace artifact is useless.
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(doc.Serialize(/*indent=*/-1), &parsed, &error))
      << error;
  EXPECT_EQ(parsed, doc);

  const JsonValue* events = parsed.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 1 metadata + 6 events.
  ASSERT_EQ(events->items().size(), 7u);

  // Metadata record names the track after the timeline label.
  const JsonValue& meta = events->items()[0];
  EXPECT_EQ(meta.Find("ph")->string_value(), "M");
  EXPECT_EQ(meta.Find("name")->string_value(), "thread_name");
  EXPECT_EQ(meta.Find("args")->Find("name")->string_value(), "pool0.worker3");
  EXPECT_EQ(meta.Find("tid")->number_value(), 7.0);

  // Timestamps are microseconds: 1000 ns -> 1 us.
  const JsonValue& begin = events->items()[1];
  EXPECT_EQ(begin.Find("ph")->string_value(), "B");
  EXPECT_EQ(begin.Find("ts")->number_value(), 1.0);

  // Instants are thread-scoped; counters carry their value in args.
  const JsonValue& instant = events->items()[3];
  EXPECT_EQ(instant.Find("ph")->string_value(), "i");
  EXPECT_EQ(instant.Find("s")->string_value(), "t");
  const JsonValue& counter = events->items()[4];
  EXPECT_EQ(counter.Find("ph")->string_value(), "C");
  EXPECT_EQ(counter.Find("args")->Find("value")->number_value(), 4.0);

  const auto completed = CheckWellNested(parsed);
  EXPECT_EQ(completed.at(7), 2u);
}

TEST(ChromeTraceExportTest, RepairsDropDamagedSpans) {
  // An orphan end (its begin was dropped) followed by a begin whose end
  // was dropped: the exporter must skip the former and close the latter
  // synthetically at the track's last timestamp.
  ThreadTimeline timeline;
  timeline.thread_index = 0;
  timeline.dropped = 2;
  timeline.events.push_back(
      MakeTestEvent("lost_begin", TraceEventType::kEnd, 1000));
  timeline.events.push_back(
      MakeTestEvent("lost_end", TraceEventType::kBegin, 2000));
  timeline.events.push_back(
      MakeTestEvent("tick", TraceEventType::kInstant, 9000));

  const JsonValue doc = ChromeTraceJson({timeline});
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // metadata + B + i + synthetic E; the orphan E is gone.
  ASSERT_EQ(events->items().size(), 4u);
  const JsonValue& synthetic = events->items()[3];
  EXPECT_EQ(synthetic.Find("ph")->string_value(), "E");
  EXPECT_EQ(synthetic.Find("name")->string_value(), "lost_end");
  EXPECT_EQ(synthetic.Find("ts")->number_value(), 9.0);
  CheckWellNested(doc);
}

TEST(ChromeTraceExportTest, UnlabeledTimelineGetsIndexTrackName) {
  ThreadTimeline timeline;
  timeline.thread_index = 3;
  const JsonValue doc = ChromeTraceJson({timeline});
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_EQ(events->items().size(), 1u);
  EXPECT_EQ(events->items()[0].Find("args")->Find("name")->string_value(),
            "thread3");
}

TEST(ChromeTraceExportTest, SummaryTotalsEventsAndDrops) {
  ThreadTimeline a;
  a.thread_index = 0;
  a.label = "main";
  a.dropped = 3;
  a.events.push_back(MakeTestEvent("x", TraceEventType::kInstant, 100));
  ThreadTimeline b;
  b.thread_index = 1;
  b.events.push_back(MakeTestEvent("y", TraceEventType::kInstant, 200));
  b.events.push_back(MakeTestEvent("z", TraceEventType::kInstant, 300));

  const JsonValue summary = FlightRecorderSummaryJson({a, b});
  EXPECT_EQ(summary.Find("events")->number_value(), 3.0);
  EXPECT_EQ(summary.Find("dropped")->number_value(), 3.0);
  const JsonValue* threads = summary.Find("threads");
  ASSERT_NE(threads, nullptr);
  ASSERT_EQ(threads->items().size(), 2u);
  EXPECT_EQ(threads->items()[0].Find("label")->string_value(), "main");
  EXPECT_EQ(threads->items()[1].Find("label")->string_value(), "thread1");
}

TEST(FlightRecorderTest, EightThreadsRecordWithoutLossBelowCapacity) {
  FlightRecorder recorder(/*events_per_thread=*/4096);
  constexpr size_t kThreads = 8;
  constexpr size_t kEvents = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      recorder.SetCurrentThreadLabel("t" + std::to_string(t));
      for (size_t i = 0; i < kEvents; ++i) {
        recorder.RecordInstant("evt");
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const std::vector<ThreadTimeline> timelines = recorder.Snapshot();
  ASSERT_EQ(timelines.size(), kThreads);
  for (const ThreadTimeline& timeline : timelines) {
    EXPECT_EQ(timeline.events.size(), kEvents) << timeline.label;
    EXPECT_EQ(timeline.dropped, 0u) << timeline.label;
    // Single-writer buffers on a monotonic clock: timestamps never go
    // backwards within a timeline.
    for (size_t i = 1; i < timeline.events.size(); ++i) {
      ASSERT_GE(timeline.events[i].ts_ns, timeline.events[i - 1].ts_ns)
          << timeline.label << " event " << i;
    }
  }
}

TEST(FlightRecorderTest, OverflowDropsAreExactAndClearResets) {
  FlightRecorder recorder(/*events_per_thread=*/64);
  for (int i = 0; i < 100; ++i) recorder.RecordInstant("evt");
  internal::EventBuffer* buffer = recorder.LocalBuffer();
  // Drop-on-full, not wrap: capacity K and K+N records means exactly N
  // drops, every time.
  EXPECT_EQ(buffer->size(), 64u);
  EXPECT_EQ(buffer->dropped(), 36u);
  EXPECT_EQ(buffer->capacity(), 64u);

  std::vector<ThreadTimeline> timelines = recorder.Snapshot();
  ASSERT_EQ(timelines.size(), 1u);
  EXPECT_EQ(timelines[0].events.size(), 64u);
  EXPECT_EQ(timelines[0].dropped, 36u);

  recorder.Clear();
  EXPECT_EQ(buffer->size(), 0u);
  EXPECT_EQ(buffer->dropped(), 0u);
  for (int i = 0; i < 10; ++i) recorder.RecordInstant("evt");
  EXPECT_EQ(buffer->size(), 10u);
  EXPECT_EQ(buffer->dropped(), 0u);
}

TEST(FlightRecorderTest, LabelOnlyThreadsRegisterWithoutAllocatingRings) {
  // Event storage is allocated on first Record, not at registration: a
  // thread that only labels itself (a scoring-server shard worker in a
  // disarmed process) must cost a registry entry, not a full ring —
  // otherwise server lifecycle churn retains capacity*32 bytes per
  // worker thread forever. Snapshot still surfaces the label with an
  // empty timeline, and recording later works normally.
  FlightRecorder recorder(/*events_per_thread=*/4096);
  std::thread labeler([&recorder] {
    recorder.SetCurrentThreadLabel("label-only");
  });
  labeler.join();

  std::vector<ThreadTimeline> timelines = recorder.Snapshot();
  ASSERT_EQ(timelines.size(), 1u);
  EXPECT_EQ(timelines[0].label, "label-only");
  EXPECT_TRUE(timelines[0].events.empty());
  EXPECT_EQ(timelines[0].dropped, 0u);

  // First record from this thread publishes the lazily allocated ring
  // together with the event; concurrent snapshots racing that first
  // record must see either an empty timeline or the event, never torn
  // state (this is the lazy-allocation handshake, run under tsan).
  std::atomic<bool> stop{false};
  std::thread snapshotter([&recorder, &stop] {
    // lint: mo-ok(acquire pairs with the main thread's release store after join)
    while (!stop.load(std::memory_order_acquire)) {
      for (const ThreadTimeline& timeline : recorder.Snapshot()) {
        ASSERT_LE(timeline.events.size(), 2u);
      }
    }
  });
  std::thread recorder_thread([&recorder] {
    recorder.SetCurrentThreadLabel("records");
    recorder.RecordInstant("first");
    recorder.RecordInstant("second");
  });
  recorder_thread.join();
  // lint: mo-ok(release pairs with the snapshotter's acquire load)
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  timelines = recorder.Snapshot();
  ASSERT_EQ(timelines.size(), 2u);
  EXPECT_TRUE(timelines[0].events.empty());
  ASSERT_EQ(timelines[1].events.size(), 2u);
  EXPECT_EQ(timelines[1].label, "records");
}

TEST(FlightRecorderTest, ZeroCapacityIsClampedToOne) {
  FlightRecorder recorder(/*events_per_thread=*/0);
  recorder.RecordInstant("a");
  recorder.RecordInstant("b");
  internal::EventBuffer* buffer = recorder.LocalBuffer();
  EXPECT_EQ(buffer->capacity(), 1u);
  EXPECT_EQ(buffer->size(), 1u);
  EXPECT_EQ(buffer->dropped(), 1u);
}

TEST(FlightRecorderTest, MacrosRecordOnlyWhileArmed) {
  FlightRecorder* global = FlightRecorder::Global();
  internal::EventBuffer* buffer = global->LocalBuffer();
  FlightRecorder::Disarm();

  const uint64_t before = buffer->size();
  {
    SAFE_FR_SCOPE("disarmed.scope");
    SAFE_FR_INSTANT("disarmed.instant");
    SAFE_FR_COUNTER("disarmed.counter", 1.0);
  }
  EXPECT_EQ(buffer->size(), before) << "disarmed sites must record nothing";

  FlightRecorder::Arm();
  {
    SAFE_FR_SCOPE("armed.scope");
    SAFE_FR_INSTANT("armed.instant");
    SAFE_FR_COUNTER("armed.counter", 2.0);
  }
  FlightRecorder::Disarm();
  // begin + instant + counter + end.
  EXPECT_EQ(buffer->size(), before + 4);
}

TEST(FlightRecorderTest, SampledScopeRateIsExactOverFullPeriods) {
  FlightRecorder* global = FlightRecorder::Global();
  internal::EventBuffer* buffer = global->LocalBuffer();
  FlightRecorder::Arm();
  const uint64_t before = buffer->size();
  // 256 entries at 1-in-64: the shared per-thread counter passes through
  // exactly 4 multiples of 64 in any window of 256 consecutive values,
  // so the span count is phase-independent.
  for (int i = 0; i < 256; ++i) {
    SAFE_FR_SAMPLED_SCOPE("sampled.scope", 64);
  }
  FlightRecorder::Disarm();
  EXPECT_EQ(buffer->size(), before + 8);  // 4 spans = 4 begin + 4 end
}

TEST(FlightRecorderTest, ThreadPoolWorkersAreLabeledAndChunksTraced) {
  FlightRecorder::Arm();
  {
    ThreadPool pool(4);
    ParallelForChunks(&pool, 0, 1000, 100,
                      [](size_t, size_t, size_t) {});
  }
  FlightRecorder::Disarm();

  const std::vector<ThreadTimeline> timelines =
      FlightRecorder::Global()->Snapshot();
  size_t begins = 0;
  size_t ends = 0;
  size_t labeled_workers = 0;
  for (const ThreadTimeline& timeline : timelines) {
    if (timeline.label.rfind("pool", 0) == 0 &&
        timeline.label.find(".worker") != std::string::npos) {
      ++labeled_workers;
    }
    for (const TraceEvent& event : timeline.events) {
      if (event.name == nullptr ||
          std::string(event.name) != "pool.chunk") {
        continue;
      }
      if (event.type == TraceEventType::kBegin) ++begins;
      if (event.type == TraceEventType::kEnd) ++ends;
    }
  }
  // 1000 elements at grain 100 = 10 chunks, each a complete span on a
  // labeled worker timeline.
  EXPECT_GE(begins, 10u);
  EXPECT_EQ(begins, ends);
  EXPECT_GE(labeled_workers, 4u);
}

TEST(FlightRecorderTest, GlobalSnapshotExportsWellNestedTrace) {
  FlightRecorder* global = FlightRecorder::Global();
  global->SetCurrentThreadLabel("main");
  FlightRecorder::Arm();
  {
    SAFE_FR_SCOPE("export.outer");
    SAFE_FR_COUNTER("export.depth", 1.0);
    {
      SAFE_FR_SCOPE("export.inner");
      SAFE_FR_INSTANT("export.tick");
    }
  }
  FlightRecorder::Disarm();

  const JsonValue doc = ChromeTraceJson(global->Snapshot());
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(doc.Serialize(/*indent=*/-1), &parsed, &error))
      << error;
  CheckWellNested(parsed);

  // The recorded span names survive the export.
  size_t outer_begin = 0;
  for (const JsonValue& record : parsed.Find("traceEvents")->items()) {
    if (record.Find("ph")->string_value() == "B" &&
        record.Find("name")->string_value() == "export.outer") {
      ++outer_begin;
    }
  }
  EXPECT_GE(outer_begin, 1u);
}

TEST(FlightRecorderTest, WriteChromeTraceProducesParseableFile) {
  FlightRecorder::Arm();
  FlightRecorder::Global()->RecordInstant("file.tick");
  FlightRecorder::Disarm();

  const std::string path =
      ::testing::TempDir() + "/trace_recorder_test_trace.json";
  std::string error;
  ASSERT_TRUE(WriteChromeTrace(path, &error)) << error;

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(contents.str(), &parsed, &error)) << error;
  EXPECT_NE(parsed.Find("traceEvents"), nullptr);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace safe
