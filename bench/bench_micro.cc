// Component micro-benchmarks (google-benchmark): the inner loops whose
// costs the paper's Section IV-D complexity analysis is built from.

#include <benchmark/benchmark.h>

#include "src/common/random.h"
#include "src/core/combination.h"
#include "src/core/engine.h"
#include "src/core/operators.h"
#include "src/core/selection.h"
#include "src/data/synthetic.h"
#include "src/dataframe/binning.h"
#include "src/gbdt/booster.h"
#include "src/gbdt/forest_layout.h"
#include "src/serve/batch_scorer.h"
#include "src/stats/auc.h"
#include "src/stats/correlation.h"
#include "src/stats/entropy.h"
#include "src/stats/iv.h"

namespace safe {
namespace {

std::vector<double> RandomColumn(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.NextGaussian();
  return out;
}

std::vector<double> RandomLabels(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
  return out;
}

void BM_InformationValue(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto feature = RandomColumn(n, 1);
  auto labels = RandomLabels(n, 2);
  for (auto _ : state) {
    auto iv = InformationValue(feature, labels, 10);
    benchmark::DoNotOptimize(iv);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_InformationValue)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PearsonCorrelation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto a = RandomColumn(n, 3);
  auto b = RandomColumn(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PearsonCorrelation(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_PearsonCorrelation)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Auc(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto scores = RandomColumn(n, 5);
  auto labels = RandomLabels(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Auc(scores, labels));
  }
}
BENCHMARK(BM_Auc)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BinnedInformationGain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto feature = RandomColumn(n, 7);
  auto labels = RandomLabels(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BinnedInformationGain(feature, labels, 10));
  }
}
BENCHMARK(BM_BinnedInformationGain)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_OperatorApply(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto a = RandomColumn(n, 9);
  auto b = RandomColumn(n, 10);
  OperatorRegistry registry = OperatorRegistry::Arithmetic();
  auto op = registry.Find("div");
  for (auto _ : state) {
    auto out = ApplyOperator(**op, {}, {&a, &b});
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_OperatorApply)->Arg(1000)->Arg(100000);

void BM_EqualFrequencyEdges(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto values = RandomColumn(n, 11);
  for (auto _ : state) {
    auto edges = EqualFrequencyEdges(values, 256);
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_EqualFrequencyEdges)->Arg(10000)->Arg(131072)->Arg(1 << 20);

// Bin lookups over 9 edges (the IV filter's 10 bins) or 255 (the GBDT
// quantizer's 256).
void BM_BinIndex(benchmark::State& state) {
  const size_t num_bins = static_cast<size_t>(state.range(0)) + 1;
  auto edges = EqualFrequencyEdges(RandomColumn(100000, 12), num_bins);
  auto probes = RandomColumn(4096, 13);
  for (auto _ : state) {
    size_t sum = 0;
    for (double probe : probes) sum += edges->BinIndex(probe);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_BinIndex)->Arg(9)->Arg(255);

Dataset MicroDataset(size_t rows, size_t features) {
  data::SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_features = features;
  spec.num_informative = features / 2;
  spec.num_interactions = 3;
  spec.seed = 11;
  auto data = data::MakeSyntheticDataset(spec);
  SAFE_CHECK(data.ok());
  return *data;
}

void BM_GbdtFit(benchmark::State& state) {
  Dataset data = MicroDataset(static_cast<size_t>(state.range(0)), 10);
  gbdt::GbdtParams params;
  params.num_trees = 20;
  params.max_depth = 4;
  for (auto _ : state) {
    auto model = gbdt::Booster::Fit(data, nullptr, params);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_GbdtFit)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_GbdtPredict(benchmark::State& state) {
  Dataset data = MicroDataset(5000, 10);
  gbdt::GbdtParams params;
  params.num_trees = 20;
  auto model = gbdt::Booster::Fit(data, nullptr, params);
  SAFE_CHECK(model.ok());
  for (auto _ : state) {
    auto proba = model->PredictProba(data.x);
    benchmark::DoNotOptimize(proba);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 5000);
}
BENCHMARK(BM_GbdtPredict);

/// Serving-shaped forest: 50 depth-4 trees fitted on a 48-feature
/// synthetic set with 2% missing cells, packed once, plus a slot-major
/// panel of 128 of its rows (feature f of lane i at panel[f * 128 + i]).
struct ForestFixture {
  static constexpr size_t kLanes = 128;
  gbdt::PackedForest forest;
  std::vector<double> panel;
};

const ForestFixture& ServingForest() {
  static const ForestFixture fixture = [] {
    data::SyntheticSpec spec;
    spec.num_rows = 4096;
    spec.num_features = 48;
    spec.num_informative = 16;
    spec.num_interactions = 3;
    spec.missing_rate = 0.02;
    spec.seed = 17;
    auto data = data::MakeSyntheticDataset(spec);
    SAFE_CHECK(data.ok());
    gbdt::GbdtParams params;
    params.num_trees = 50;
    params.max_depth = 4;
    auto model = gbdt::Booster::Fit(*data, nullptr, params);
    SAFE_CHECK(model.ok());
    auto forest =
        gbdt::PackedForest::Build(model->trees(), model->num_features());
    SAFE_CHECK(forest.ok());
    ForestFixture out;
    out.forest = *std::move(forest);
    out.panel.resize(spec.num_features * ForestFixture::kLanes);
    for (size_t lane = 0; lane < ForestFixture::kLanes; ++lane) {
      const std::vector<double> row = data->x.Row(lane);
      for (size_t f = 0; f < row.size(); ++f) {
        out.panel[f * ForestFixture::kLanes + lane] = row[f];
      }
    }
    return out;
  }();
  return fixture;
}

// PackedForest::AccumulateMargins at the lane counts serving runs: one
// row (RowScorer, and the scoring server's single-request blocks), a
// few, and a full block. Each iteration scores the panel's 128 rows in
// slices of `lanes` (126 rows at 3), so rows/s compare across widths;
// n == 1 takes the stepped walk, wider slices the bitvector scan.
void BM_ForestMargins(benchmark::State& state) {
  const size_t lanes = static_cast<size_t>(state.range(0));
  const ForestFixture& fixture = ServingForest();
  constexpr size_t kLanes = ForestFixture::kLanes;
  std::vector<double> margins(kLanes, 0.0);
  size_t rows = 0;
  for (auto _ : state) {
    rows = 0;
    for (size_t base = 0; base + lanes <= kLanes; base += lanes) {
      fixture.forest.AccumulateMargins(fixture.panel.data() + base, kLanes,
                                       lanes, margins.data() + base);
      rows += lanes;
    }
    benchmark::DoNotOptimize(margins.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_ForestMargins)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(128);

/// A fitted SAFE plan and GBDT on bench_serving's default workload (24
/// input features, 1000 training rows) as a BatchScorer, plus 128 of
/// its scoring rows.
struct BlockScorerFixture {
  static constexpr size_t kRows = 128;
  serve::BatchScorer scorer;
  std::vector<std::vector<double>> rows;
};

const BlockScorerFixture& ServingScorer() {
  static const BlockScorerFixture fixture = [] {
    data::SyntheticSpec spec;
    spec.num_rows = 1000;
    spec.num_features = 24;
    spec.num_informative = 12;
    spec.num_interactions = 3;
    spec.seed = 42;
    auto data = data::MakeSyntheticDataset(spec);
    SAFE_CHECK(data.ok());
    SafeParams params;
    params.seed = spec.seed;
    auto fit = SafeEngine(params).Fit(*data);
    SAFE_CHECK(fit.ok());
    auto engineered = fit->plan.Transform(data->x);
    SAFE_CHECK(engineered.ok());
    gbdt::GbdtParams gbdt_params;
    gbdt_params.seed = spec.seed;
    Dataset engineered_train{*std::move(engineered), data->y};
    auto booster = gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params);
    SAFE_CHECK(booster.ok());
    auto scorer = serve::BatchScorer::Create(fit->plan, *booster);
    SAFE_CHECK(scorer.ok());
    BlockScorerFixture out;
    out.scorer = *std::move(scorer);
    for (size_t r = 0; r < BlockScorerFixture::kRows; ++r) {
      out.rows.push_back(data->x.Row(r));
    }
    return out;
  }();
  return fixture;
}

// BatchScorer::ScoreBlockPtrs, the scoring server's path, at the cut
// widths it sees: one request (every cut at light load), a few, and
// full blocks. Each iteration scores the fixture's 128 rows in cuts of
// `rows`, so rows/s compare across widths.
void BM_ScoreBlockPtrs(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  const BlockScorerFixture& fixture = ServingScorer();
  constexpr size_t kRows = BlockScorerFixture::kRows;
  std::vector<const double*> ptrs;
  for (const std::vector<double>& row : fixture.rows) {
    ptrs.push_back(row.data());
  }
  serve::BatchScorer::Scratch scratch = fixture.scorer.MakeScratch();
  std::vector<double> out(kRows, 0.0);
  size_t rows = 0;
  for (auto _ : state) {
    rows = 0;
    for (size_t base = 0; base + width <= kRows; base += width) {
      fixture.scorer.ScoreBlockPtrs(ptrs.data() + base, width, &scratch,
                                    out.data() + base);
      rows += width;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_ScoreBlockPtrs)->Arg(1)->Arg(2)->Arg(4)->Arg(64)->Arg(128);

void BM_MineAndRankCombinations(benchmark::State& state) {
  Dataset data = MicroDataset(4000, 12);
  gbdt::GbdtParams params;
  params.num_trees = 20;
  params.max_depth = 4;
  auto model = gbdt::Booster::Fit(data, nullptr, params);
  SAFE_CHECK(model.ok());
  const auto paths = model->ExtractAllPaths();
  for (auto _ : state) {
    CombinationMinerOptions options;
    auto combos = MineCombinations(paths, options);
    auto ranked = RankCombinations(std::move(combos), data.x,
                                   data.labels(), 48);
    benchmark::DoNotOptimize(ranked);
  }
  state.SetLabel(std::to_string(paths.size()) + " paths");
}
BENCHMARK(BM_MineAndRankCombinations)->Unit(benchmark::kMillisecond);

void BM_SelectionPipeline(benchmark::State& state) {
  Dataset data = MicroDataset(4000, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto ivs = ComputeIvs(data.x, data.labels(), 10);
    auto after_iv = IvFilterIndices(ivs, 0.1);
    if (after_iv.empty()) {
      after_iv.resize(data.x.num_columns());
      for (size_t c = 0; c < after_iv.size(); ++c) after_iv[c] = c;
    }
    auto kept = RedundancyFilterIndices(data.x, ivs, after_iv, 0.8);
    benchmark::DoNotOptimize(kept);
  }
}
BENCHMARK(BM_SelectionPipeline)->Arg(10)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_SingleRowTransform(benchmark::State& state) {
  // Real-time inference path: Ψ applied to one event.
  Dataset data = MicroDataset(2000, 10);
  SafeParams params;
  params.seed = 3;
  SafeEngine engine(params);
  auto result = engine.Fit(data);
  SAFE_CHECK(result.ok());
  const auto row = data.x.Row(0);
  for (auto _ : state) {
    auto z = result->plan.TransformRow(row);
    benchmark::DoNotOptimize(z);
  }
  state.SetLabel(std::to_string(result->plan.selected().size()) +
                 " output features");
}
BENCHMARK(BM_SingleRowTransform);

}  // namespace
}  // namespace safe

BENCHMARK_MAIN();
