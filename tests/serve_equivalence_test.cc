// Equivalence suite for the serving path (src/serve/): the compiled
// FeaturePlan executor and the fused RowScorer must be bit-identical to
// the interpreted two-step path (FeaturePlan::Transform/TransformRow +
// Booster::PredictRowProba) — same value bits for every finite output,
// NaN exactly where the interpreted path is NaN — for every registered
// operator, for custom operators through the generic fallback, and on
// randomized property datasets with constant and mostly-missing columns.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/engine.h"
#include "src/core/feature_plan.h"
#include "src/core/operators.h"
#include "src/dataframe/dataframe.h"
#include "src/gbdt/booster.h"
#include "src/gbdt/forest_layout.h"
#include "src/obs/report.h"
#include "src/serve/compiled_plan.h"
#include "src/serve/scorer.h"
#include "src/serve/serve_bench.h"
#include "tests/property_util.h"

namespace safe {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// NaN-aware bitwise agreement: missingness must match exactly; finite
/// values must match to the bit.
::testing::AssertionResult SameBits(double expected, double actual) {
  if (std::isnan(expected) || std::isnan(actual)) {
    if (std::isnan(expected) && std::isnan(actual)) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "missingness differs: expected=" << expected
           << " actual=" << actual;
  }
  if (Bits(expected) == Bits(actual)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "bits differ: expected=" << expected << " actual=" << actual;
}

/// Same parent frame as core_plan_consistency_test: negatives, zeros,
/// NaNs, an all-missing row, -0.0, and enough rows for fitted operators.
DataFrame MakeParentFrame() {
  const size_t rows = 64;
  Rng rng(2024);
  std::vector<double> a(rows), b(rows), c(rows);
  for (size_t r = 0; r < rows; ++r) {
    a[r] = rng.NextDouble() * 8.0 - 4.0;
    b[r] = rng.NextDouble() * 3.0 - 1.0;
    c[r] = rng.NextDouble() * 100.0 - 50.0;
  }
  a[3] = 0.0;
  b[5] = 0.0;
  a[7] = kNaN;
  b[11] = kNaN;
  c[13] = kNaN;
  a[17] = kNaN;
  b[17] = kNaN;
  c[19] = -0.0;
  DataFrame x;
  SAFE_CHECK(x.AddColumn(Column("a", std::move(a))).ok());
  SAFE_CHECK(x.AddColumn(Column("b", std::move(b))).ok());
  SAFE_CHECK(x.AddColumn(Column("c", std::move(c))).ok());
  return x;
}

TEST(CompiledPlanTest, MatchesInterpretedPathForEveryRegisteredOperator) {
  const OperatorRegistry registry = OperatorRegistry::Default();
  const DataFrame x = MakeParentFrame();
  const std::vector<std::string> parent_names = {"a", "b", "c"};

  const std::vector<std::string> names = registry.Names();
  // The serving compiler must specialize the whole built-in vocabulary.
  ASSERT_GE(names.size(), 22u);
  for (const std::string& op_name : names) {
    SCOPED_TRACE("operator " + op_name);
    auto op = registry.Find(op_name);
    ASSERT_TRUE(op.ok());
    const size_t arity = (*op)->arity();
    ASSERT_LE(arity, parent_names.size());

    std::vector<const std::vector<double>*> parents;
    std::vector<std::string> used_parents;
    for (size_t p = 0; p < arity; ++p) {
      parents.push_back(&x.column(p).values());
      used_parents.push_back(parent_names[p]);
    }
    auto params = (*op)->FitParams(parents);
    ASSERT_TRUE(params.ok()) << params.status().ToString();

    GeneratedFeature feature;
    feature.name = "gen_" + op_name;
    feature.op = op_name;
    feature.parents = used_parents;
    feature.params = *params;
    // Select the generated feature plus one original column so both slot
    // kinds flow through the compiled program.
    auto plan = FeaturePlan::Create(parent_names, {feature},
                                    {feature.name, "a"});
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();

    auto compiled = serve::CompiledPlan::Compile(*plan, registry);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    // Every built-in operator must get a specialized opcode, not the
    // virtual-dispatch fallback.
    for (const serve::Instruction& inst : compiled->instructions()) {
      EXPECT_NE(inst.code, serve::OpCode::kGeneric) << "operator " << op_name;
    }

    for (size_t r = 0; r < x.num_rows(); ++r) {
      const std::vector<double> row = x.Row(r);
      auto expected = plan->TransformRow(row, registry);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      auto actual = compiled->ExecuteRow(row);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ASSERT_EQ(actual->size(), expected->size());
      for (size_t s = 0; s < expected->size(); ++s) {
        EXPECT_TRUE(SameBits((*expected)[s], (*actual)[s]))
            << "row " << r << " slot " << s;
      }
    }
  }
}

TEST(CompiledPlanTest, ChainedFeaturesUseGeneratedSlotsAsParents) {
  // gen2 consumes gen1's slot, so the compiled program must evaluate in
  // creation order and route intermediate results through scratch.
  const OperatorRegistry registry = OperatorRegistry::Default();
  const DataFrame x = MakeParentFrame();
  GeneratedFeature gen1;
  gen1.name = "gen1";
  gen1.op = "mul";
  gen1.parents = {"a", "b"};
  GeneratedFeature gen2;
  gen2.name = "gen2";
  gen2.op = "add";
  gen2.parents = {"gen1", "c"};
  auto plan = FeaturePlan::Create({"a", "b", "c"}, {gen1, gen2},
                                  {"gen2", "gen1", "b"});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto compiled = serve::CompiledPlan::Compile(*plan, registry);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  for (size_t r = 0; r < x.num_rows(); ++r) {
    const std::vector<double> row = x.Row(r);
    auto expected = plan->TransformRow(row, registry);
    ASSERT_TRUE(expected.ok());
    auto actual = compiled->ExecuteRow(row);
    ASSERT_TRUE(actual.ok());
    ASSERT_EQ(actual->size(), expected->size());
    for (size_t s = 0; s < expected->size(); ++s) {
      EXPECT_TRUE(SameBits((*expected)[s], (*actual)[s]))
          << "row " << r << " slot " << s;
    }
  }
}

/// Custom operator unknown to the compiler's opcode table: must compile
/// through the generic fallback and still agree with the interpreter.
class Clamp01Op final : public Operator {
 public:
  std::string name() const override { return "clamp01"; }
  size_t arity() const override { return 1; }
  Result<std::vector<double>> FitParams(
      const std::vector<const std::vector<double>*>&) const override {
    return std::vector<double>{};
  }
  double Apply(const double* inputs,
               const std::vector<double>&) const override {
    if (inputs[0] < 0.0) return 0.0;
    if (inputs[0] > 1.0) return 1.0;
    return inputs[0];
  }
};

TEST(CompiledPlanTest, GenericFallbackHandlesCustomOperators) {
  OperatorRegistry registry = OperatorRegistry::Default();
  ASSERT_TRUE(registry.Register(std::make_shared<Clamp01Op>()).ok());
  const DataFrame x = MakeParentFrame();
  GeneratedFeature feature;
  feature.name = "gen_clamp";
  feature.op = "clamp01";
  feature.parents = {"b"};
  auto plan =
      FeaturePlan::Create({"a", "b", "c"}, {feature}, {"gen_clamp", "c"});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto compiled = serve::CompiledPlan::Compile(*plan, registry);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->instructions().size(), 1u);
  EXPECT_EQ(compiled->instructions()[0].code, serve::OpCode::kGeneric);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    const std::vector<double> row = x.Row(r);
    auto expected = plan->TransformRow(row, registry);
    ASSERT_TRUE(expected.ok());
    auto actual = compiled->ExecuteRow(row);
    ASSERT_TRUE(actual.ok());
    for (size_t s = 0; s < expected->size(); ++s) {
      EXPECT_TRUE(SameBits((*expected)[s], (*actual)[s]))
          << "row " << r << " slot " << s;
    }
  }
}

TEST(CompiledPlanTest, RejectsWrongRowWidth) {
  auto plan = FeaturePlan::Create({"a", "b"}, {}, {"a"});
  ASSERT_TRUE(plan.ok());
  auto compiled = serve::CompiledPlan::Compile(*plan);
  ASSERT_TRUE(compiled.ok());
  EXPECT_FALSE(compiled->ExecuteRow({1.0}).ok());
  EXPECT_FALSE(compiled->ExecuteRow({1.0, 2.0, 3.0}).ok());
  EXPECT_TRUE(compiled->ExecuteRow({1.0, 2.0}).ok());
}

/// Full pipeline on a seed-randomized dataset: SAFE fit, GBDT on the
/// engineered features, then every row must score bit-identically
/// through the fused path.
void CheckFusedPipeline(uint64_t seed) {
  Dataset data = testutil::MakePropertyDataset(seed);
  testutil::AppendConstantColumn(&data, "const_col", 3.25);
  testutil::AppendMostlyMissingColumn(&data, "sparse_col", seed);

  SafeParams params;
  params.seed = seed;
  SafeEngine engine(params);
  auto fit = engine.Fit(data);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  const FeaturePlan& plan = fit->plan;

  auto engineered = plan.Transform(data.x);
  ASSERT_TRUE(engineered.ok()) << engineered.status().ToString();
  gbdt::GbdtParams gbdt_params;
  gbdt_params.seed = seed;
  gbdt_params.num_trees = 20;
  Dataset engineered_train{std::move(*engineered), data.y};
  auto booster = gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params);
  ASSERT_TRUE(booster.ok()) << booster.status().ToString();

  auto scorer = serve::RowScorer::Create(plan, *booster);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  EXPECT_EQ(scorer->num_inputs(), data.x.num_columns());
  EXPECT_EQ(scorer->num_features(), plan.selected().size());

  serve::RowScorer::Scratch scratch = scorer->MakeScratch();
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const std::vector<double> row = data.x.Row(r);
    auto transformed = plan.TransformRow(row);
    ASSERT_TRUE(transformed.ok()) << transformed.status().ToString();
    const double naive_margin = booster->PredictRowMargin(*transformed);
    const double naive_proba = booster->PredictRowProba(*transformed);
    EXPECT_TRUE(
        SameBits(naive_margin, scorer->ScoreRowMargin(row.data(), &scratch)))
        << "margin, row " << r;
    EXPECT_TRUE(SameBits(naive_proba, scorer->ScoreRow(row.data(), &scratch)))
        << "proba, row " << r;
    // The checked convenience API must agree with the unchecked core.
    auto checked = scorer->Score(row);
    ASSERT_TRUE(checked.ok()) << checked.status().ToString();
    EXPECT_TRUE(SameBits(naive_proba, *checked)) << "Score(), row " << r;
  }

  // ScoreBatch over all rows must reproduce the per-row outputs.
  std::vector<std::vector<double>> rows;
  rows.reserve(data.num_rows());
  for (size_t r = 0; r < data.num_rows(); ++r) rows.push_back(data.x.Row(r));
  std::vector<double> batch_out;
  ASSERT_TRUE(scorer->ScoreBatch(rows, &batch_out).ok());
  ASSERT_EQ(batch_out.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_TRUE(
        SameBits(scorer->ScoreRow(rows[r].data(), &scratch), batch_out[r]))
        << "batch row " << r;
  }

  // ScoreBatch must surface its batch shape in telemetry: the
  // serve.batch_rows and serve.batch_latency_us histograms land in the
  // global registry, so any RunReport (including the bench harness's)
  // picks them up via CaptureTelemetry.
  obs::RunReport report("serve_equivalence_test");
  report.CaptureTelemetry();
  EXPECT_EQ(report.metrics().histograms.count("serve.batch_rows"), 1u);
  EXPECT_EQ(report.metrics().histograms.count("serve.batch_latency_us"), 1u);
  const obs::JsonValue doc = report.ToJson();
  const obs::JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::JsonValue* histograms = metrics->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_NE(histograms->Find("serve.batch_rows"), nullptr);
  EXPECT_NE(histograms->Find("serve.batch_latency_us"), nullptr);
}

TEST(RowScorerTest, FusedPipelineMatchesNaiveOnPropertyDatasets) {
  for (uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckFusedPipeline(seed);
  }
}

/// Depth-8 trees: some exceed the forest's 64-leaf bitvector limit, so
/// the stepped layout is checked end to end against the interpreter, on
/// a NaN-bearing property dataset (seeds divisible by 3 carry NaNs).
TEST(RowScorerTest, DeepTreesMatchNaiveOnPropertyDataset) {
  const uint64_t seed = 3;
  Dataset data = testutil::MakePropertyDataset(seed);
  SafeParams params;
  params.seed = seed;
  SafeEngine engine(params);
  auto fit = engine.Fit(data);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  auto engineered = fit->plan.Transform(data.x);
  ASSERT_TRUE(engineered.ok()) << engineered.status().ToString();
  gbdt::GbdtParams gbdt_params;
  gbdt_params.seed = seed;
  gbdt_params.num_trees = 20;
  gbdt_params.max_depth = 8;
  // Leaves down to a few rows, so trees grow past 64 leaves on a
  // dataset of under a thousand rows (7 of the 20 here).
  gbdt_params.min_child_weight = 0.1;
  Dataset engineered_train{std::move(*engineered), data.y};
  auto booster = gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params);
  ASSERT_TRUE(booster.ok()) << booster.status().ToString();
  auto scorer = serve::RowScorer::Create(fit->plan, *booster);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();

  const gbdt::PackedForest& forest = scorer->batch().forest();
  size_t stepped = 0;
  for (size_t t = 0; t < forest.num_trees(); ++t) {
    if (!forest.tree_uses_bitvector(t)) ++stepped;
  }
  ASSERT_GT(stepped, 0u) << "no tree over 64 leaves to check";

  serve::RowScorer::Scratch scratch = scorer->MakeScratch();
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const std::vector<double> row = data.x.Row(r);
    auto transformed = fit->plan.TransformRow(row);
    ASSERT_TRUE(transformed.ok()) << transformed.status().ToString();
    const double naive = booster->PredictRowProba(*transformed);
    EXPECT_TRUE(SameBits(naive, scorer->ScoreRow(row.data(), &scratch)))
        << "ScoreRow, row " << r;
    auto checked = scorer->Score(row);
    ASSERT_TRUE(checked.ok()) << checked.status().ToString();
    EXPECT_TRUE(SameBits(naive, *checked)) << "Score(), row " << r;
  }
}

TEST(RowScorerTest, RejectsMismatchedBoosterAndRow) {
  Dataset data = testutil::MakePropertyDataset(11);
  SafeParams params;
  params.seed = 11;
  SafeEngine engine(params);
  auto fit = engine.Fit(data);
  ASSERT_TRUE(fit.ok());

  // A booster trained on the ORIGINAL features disagrees with the plan's
  // output width, so Create must refuse to fuse them.
  gbdt::GbdtParams gbdt_params;
  gbdt_params.seed = 11;
  gbdt_params.num_trees = 5;
  auto raw_booster = gbdt::Booster::Fit(data, nullptr, gbdt_params);
  ASSERT_TRUE(raw_booster.ok());
  if (raw_booster->num_features() != fit->plan.selected().size()) {
    EXPECT_FALSE(serve::RowScorer::Create(fit->plan, *raw_booster).ok());
  }

  auto engineered = fit->plan.Transform(data.x);
  ASSERT_TRUE(engineered.ok());
  Dataset engineered_train{std::move(*engineered), data.y};
  auto booster = gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params);
  ASSERT_TRUE(booster.ok());
  auto scorer = serve::RowScorer::Create(fit->plan, *booster);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  // Checked APIs must reject malformed rows instead of reading past them.
  std::vector<double> short_row(data.x.num_columns() - 1, 0.0);
  EXPECT_FALSE(scorer->Score(short_row).ok());
  EXPECT_FALSE(scorer->ScoreMargin(short_row).ok());
  std::vector<double> out;
  EXPECT_FALSE(scorer->ScoreBatch({short_row}, &out).ok());
  EXPECT_FALSE(scorer->ScoreBatch({}, nullptr).ok());
}

TEST(ServeBenchTest, GateBaselineIsReadable) {
  EXPECT_FALSE(serve::ReadServingGate("/nonexistent/serving.json").ok());

  // A baseline in the committed format parses all three gate knobs; the
  // overhead budget and batch floor stay optional (0 = disabled) for
  // older baselines.
  const std::string path = ::testing::TempDir() + "/serving_gate.json";
  {
    std::ofstream out(path);
    out << R"({"min_speedup": 2.0, "min_batch_speedup": 3.5,)"
        << R"( "max_recorder_overhead_pct": 3.0})";
  }
  auto gate = serve::ReadServingGate(path);
  ASSERT_TRUE(gate.ok()) << gate.status().ToString();
  EXPECT_EQ(gate->min_speedup, 2.0);
  EXPECT_EQ(gate->min_batch_speedup, 3.5);
  EXPECT_EQ(gate->max_recorder_overhead_pct, 3.0);
  {
    std::ofstream out(path);
    out << R"({"min_speedup": 1.5})";
  }
  auto legacy = serve::ReadServingGate(path);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->min_speedup, 1.5);
  EXPECT_EQ(legacy->min_batch_speedup, 0.0);
  EXPECT_EQ(legacy->max_recorder_overhead_pct, 0.0);
  {
    std::ofstream out(path);
    out << R"({"min_speedup": 1.5, "min_batch_speedup": "high"})";
  }
  EXPECT_FALSE(serve::ReadServingGate(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace safe
