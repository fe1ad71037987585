#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/data/synthetic.h"
#include "src/dataframe/spill.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/report.h"

namespace safe {
namespace {

data::SyntheticSpec QuickSpec() {
  data::SyntheticSpec spec;
  spec.num_rows = 1500;
  spec.num_features = 8;
  spec.num_informative = 4;
  spec.num_interactions = 3;
  spec.seed = 99;
  return spec;
}

SafeParams QuickParams() {
  SafeParams params;
  params.miner.num_trees = 10;
  params.miner.max_depth = 3;
  params.ranker.num_trees = 10;
  params.ranker.max_depth = 3;
  params.seed = 11;
  return params;
}

Result<SafeFitResult> FitOnce() {
  auto data = data::MakeSyntheticDataset(QuickSpec());
  if (!data.ok()) return data.status();
  SafeEngine engine(QuickParams());
  return engine.Fit(*data);
}

TEST(SafeEngineTelemetryTest, StageTimingsAreMonotoneAndNonOverlapping) {
  auto result = FitOnce();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->iterations.empty());
  for (const auto& diag : result->iterations) {
    ASSERT_FALSE(diag.stages.empty());
    double previous_end = 0.0;
    for (const auto& stage : diag.stages) {
      EXPECT_FALSE(stage.stage.empty());
      EXPECT_GE(stage.seconds, 0.0);
      // Stages run sequentially, so each one starts at or after the end
      // of the one before it, and all fit inside the iteration.
      EXPECT_GE(stage.start_seconds, previous_end);
      previous_end = stage.start_seconds + stage.seconds;
    }
    EXPECT_LE(previous_end, diag.seconds + 1e-6);
  }
}

TEST(SafeEngineTelemetryTest, StageNamesCoverThePipeline) {
  auto result = FitOnce();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const char* kExpected[] = {"mine_combinations", "generate_features",
                             "candidate_pool",    "iv_filter",
                             "redundancy_filter", "importance_rank"};
  for (const auto& diag : result->iterations) {
    std::vector<std::string> names;
    for (const auto& stage : diag.stages) names.push_back(stage.stage);
    for (const char* expected : kExpected) {
      EXPECT_NE(std::find(names.begin(), names.end(), expected),
                names.end())
          << "missing stage " << expected;
    }
  }
}

TEST(SafeEngineTelemetryTest, FunnelCountsAreOrdered) {
  auto result = FitOnce();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& diag : result->iterations) {
    // Each selection stage can only discard features, so the funnel
    // shrinks: candidates >= after IV >= after redundancy >= selected.
    EXPECT_GE(diag.num_candidates, diag.num_after_iv);
    EXPECT_GE(diag.num_after_iv, diag.num_after_redundancy);
    EXPECT_GE(diag.num_after_redundancy, diag.num_selected);
    EXPECT_GT(diag.num_candidates, 0u);
    EXPECT_GT(diag.num_selected, 0u);
  }
}

const StageTiming* FindStage(const IterationDiagnostics& diag,
                             const std::string& name) {
  for (const auto& stage : diag.stages) {
    if (stage.stage == name) return &stage;
  }
  return nullptr;
}

TEST(SafeEngineTelemetryTest, StageRecordsOfAResidentFitReadNoSpill) {
  auto result = FitOnce();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& diag : result->iterations) {
    uint64_t previous_peak = 0;
    for (const auto& stage : diag.stages) {
      SCOPED_TRACE(stage.stage);
      // A resident fit never touches a spill file.
      EXPECT_EQ(stage.spill_read_bytes, 0u);
      EXPECT_EQ(stage.spill_write_bytes, 0u);
      EXPECT_GE(stage.cpu_seconds, 0.0);
      // The high-water mark only rises.
      EXPECT_GE(stage.peak_rss_bytes, previous_peak);
      previous_peak = stage.peak_rss_bytes;
    }
  }
}

TEST(SafeEngineTelemetryTest, PooledFitRecordsSpillWritesWhileGenerating) {
  data::SyntheticSpec spec = QuickSpec();
  spec.num_rows = 3 * kMinRowGroupRows;
  auto data = data::MakeSyntheticDataset(spec);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  // Two groups' worth of budget: the pool spills as soon as the fit
  // stores a generated column.
  SpillPool::Options options;
  options.resident_budget_bytes = 2 * kMinRowGroupRows * sizeof(double);
  auto pool = SpillPool::Create(options);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  const Dataset pooled = ToChunkedDataset(*data, *pool, kMinRowGroupRows);
  auto result = SafeEngine(QuickParams()).Fit(pooled);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->iterations.empty());
  const IterationDiagnostics& diag = result->iterations.front();
  const StageTiming* generate = FindStage(diag, "generate_features");
  ASSERT_NE(generate, nullptr);
  EXPECT_GT(generate->spill_write_bytes, 0u);
  uint64_t previous_peak = 0;
  for (const auto& stage : diag.stages) {
    EXPECT_GE(stage.cpu_seconds, 0.0) << stage.stage;
    EXPECT_GE(stage.peak_rss_bytes, previous_peak) << stage.stage;
    previous_peak = stage.peak_rss_bytes;
  }
}

TEST(SafeEngineTelemetryTest, FitEmitsNestedSpansForEveryStage) {
  // Spans come from the flight recorder, which records only while armed.
  obs::FlightRecorder::Global()->Clear();
  obs::FlightRecorder::Arm();
  auto result = FitOnce();
  obs::FlightRecorder::Disarm();
  obs::RunReport report("core_engine_telemetry_test");
  report.CaptureTelemetry();
  obs::FlightRecorder::Global()->Clear();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<obs::SpanRecord>& spans = report.spans();

  auto find = [&](const std::string& name) -> const obs::SpanRecord* {
    for (const auto& s : spans) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const obs::SpanRecord* fit = find("engine.fit");
  const obs::SpanRecord* iteration = find("engine.iteration");
  ASSERT_NE(fit, nullptr);
  ASSERT_NE(iteration, nullptr);
  EXPECT_LT(fit->depth, iteration->depth);
  EXPECT_GE(iteration->start_ns, fit->start_ns);
  EXPECT_LE(iteration->start_ns + iteration->duration_ns,
            fit->start_ns + fit->duration_ns);

  const char* kStageSpans[] = {
      "engine.mine_combinations", "engine.generate_features",
      "engine.iv_filter", "engine.redundancy_filter",
      "engine.importance_rank"};
  for (const char* name : kStageSpans) {
    const obs::SpanRecord* stage = find(name);
    ASSERT_NE(stage, nullptr) << "missing span " << name;
    // Stage spans nest inside the iteration span.
    EXPECT_GT(stage->depth, iteration->depth);
    EXPECT_GE(stage->start_ns, iteration->start_ns);
    EXPECT_LE(stage->start_ns + stage->duration_ns,
              iteration->start_ns + iteration->duration_ns);
  }
}

}  // namespace
}  // namespace safe
