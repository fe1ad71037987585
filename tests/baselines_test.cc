#include "src/baselines/fctree.h"
#include "src/baselines/feature_engineer.h"
#include "src/baselines/tfc.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/data/synthetic.h"
#include "src/models/classifier.h"
#include "src/stats/auc.h"

namespace safe {
namespace baselines {
namespace {

data::SyntheticSpec Spec() {
  data::SyntheticSpec spec;
  spec.num_rows = 2400;
  spec.num_features = 8;
  spec.num_informative = 4;
  spec.num_interactions = 3;
  spec.linear_weight = 0.2;
  spec.noise = 0.2;
  spec.seed = 888;
  return spec;
}

DatasetSplit MakeSplit() {
  auto split = data::MakeSyntheticSplit(Spec(), 1600, 0, 800);
  EXPECT_TRUE(split.ok());
  return *split;
}

double EvalPlan(const FeaturePlan& plan, const DatasetSplit& split) {
  auto train_z = plan.Transform(split.train.x);
  auto test_z = plan.Transform(split.test.x);
  EXPECT_TRUE(train_z.ok() && test_z.ok());
  auto clf =
      models::MakeClassifier(models::ClassifierKind::kLogisticRegression, 3);
  Dataset train{*train_z, split.train.y};
  EXPECT_TRUE(clf->Fit(train).ok());
  auto scores = clf->PredictScores(*test_z);
  EXPECT_TRUE(scores.ok());
  return *Auc(*scores, split.test.labels());
}

TEST(OrigEngineerTest, IdentityPlan) {
  DatasetSplit split = MakeSplit();
  OrigEngineer orig;
  auto plan = orig.FitPlan(split.train, nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->generated().empty());
  auto z = plan->Transform(split.test.x);
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(z->num_columns(), split.test.x.num_columns());
  for (size_t c = 0; c < z->num_columns(); ++c) {
    EXPECT_EQ(&z->column(c).values(),
              &split.test.x.column(c).values());  // zero-copy identity
  }
}

TEST(SafeEngineerTest, NamesFollowStrategy) {
  SafeParams params;
  EXPECT_EQ(MakeSafe(params)->name(), "SAFE");
  EXPECT_EQ(MakeRand(params)->name(), "RAND");
  EXPECT_EQ(MakeImp(params)->name(), "IMP");
}

TEST(TfcEngineerTest, GeneratesAndCaps) {
  DatasetSplit split = MakeSplit();
  TfcParams params;
  TfcEngineer tfc(params);
  auto plan = tfc.FitPlan(split.train, nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_LE(plan->selected().size(), 2 * split.train.x.num_columns());
  EXPECT_GT(plan->NumSelectedGenerated(), 0u);
  // Plan replays on unseen data.
  auto z = plan->Transform(split.test.x);
  ASSERT_TRUE(z.ok()) << z.status().ToString();
}

TEST(TfcEngineerTest, ImprovesLinearModelOnInteractionData) {
  DatasetSplit split = MakeSplit();
  OrigEngineer orig;
  auto orig_plan = orig.FitPlan(split.train, nullptr);
  ASSERT_TRUE(orig_plan.ok());
  TfcEngineer tfc(TfcParams{});
  auto tfc_plan = tfc.FitPlan(split.train, nullptr);
  ASSERT_TRUE(tfc_plan.ok());
  EXPECT_GT(EvalPlan(*tfc_plan, split), EvalPlan(*orig_plan, split) - 0.02);
}

TEST(TfcEngineerTest, CandidateCapFailsLoudly) {
  DatasetSplit split = MakeSplit();
  TfcParams params;
  params.max_candidates = 10;  // far below 8 choose 2 * |O|
  TfcEngineer tfc(params);
  auto plan = tfc.FitPlan(split.train, nullptr);
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("scalability"), std::string::npos);
}

TEST(TfcEngineerTest, MultipleIterationsCompose) {
  DatasetSplit split = MakeSplit();
  TfcParams params;
  params.num_iterations = 2;
  params.max_output_features = 10;
  TfcEngineer tfc(params);
  auto plan = tfc.FitPlan(split.train, nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto z = plan->Transform(split.test.x);
  ASSERT_TRUE(z.ok()) << z.status().ToString();
  EXPECT_EQ(z->num_columns(), plan->selected().size());
}

TEST(TfcEngineerTest, RejectsNonBinaryOperators) {
  DatasetSplit split = MakeSplit();
  TfcParams params;
  params.operator_names = {"log"};
  TfcEngineer tfc(params, OperatorRegistry::Default());
  EXPECT_FALSE(tfc.FitPlan(split.train, nullptr).ok());
}

TEST(FcTreeEngineerTest, GeneratesChosenConstructedFeatures) {
  DatasetSplit split = MakeSplit();
  FcTreeParams params;
  params.ne = 20;
  FcTreeEngineer fct(params);
  auto plan = fct.FitPlan(split.train, nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_LE(plan->selected().size(), 2 * split.train.x.num_columns());
  auto z = plan->Transform(split.test.x);
  ASSERT_TRUE(z.ok()) << z.status().ToString();
  EXPECT_EQ(z->num_columns(), plan->selected().size());
}

TEST(FcTreeEngineerTest, DeterministicInSeed) {
  DatasetSplit split = MakeSplit();
  FcTreeParams params;
  params.seed = 9;
  FcTreeEngineer a(params);
  FcTreeEngineer b(params);
  auto pa = a.FitPlan(split.train, nullptr);
  auto pb = b.FitPlan(split.train, nullptr);
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_EQ(pa->Serialize(), pb->Serialize());
}

TEST(FcTreeEngineerTest, RejectsEmptyData) {
  FcTreeEngineer fct(FcTreeParams{});
  Dataset empty;
  EXPECT_FALSE(fct.FitPlan(empty, nullptr).ok());
  TfcEngineer tfc(TfcParams{});
  EXPECT_FALSE(tfc.FitPlan(empty, nullptr).ok());
}

TEST(AllEngineersTest, SafeBeatsRandomOnInteractionData) {
  // The paper's central comparison: SAFE >= IMP >= RAND in the typical
  // case. Randomness means orderings can tie; assert SAFE is at least
  // competitive with RAND (and strictly above ORIG).
  DatasetSplit split = MakeSplit();
  SafeParams params;
  params.miner.num_trees = 15;
  params.ranker.num_trees = 15;
  params.seed = 4;

  auto safe_plan = MakeSafe(params)->FitPlan(split.train, nullptr);
  auto rand_plan = MakeRand(params)->FitPlan(split.train, nullptr);
  auto orig_plan = OrigEngineer().FitPlan(split.train, nullptr);
  ASSERT_TRUE(safe_plan.ok() && rand_plan.ok() && orig_plan.ok());

  const double auc_safe = EvalPlan(*safe_plan, split);
  const double auc_rand = EvalPlan(*rand_plan, split);
  const double auc_orig = EvalPlan(*orig_plan, split);
  EXPECT_GT(auc_safe, auc_orig);
  EXPECT_GT(auc_safe, auc_rand - 0.03);
}

}  // namespace
}  // namespace baselines
}  // namespace safe
