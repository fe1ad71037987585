#include "perfbench/fit_workload.h"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/core/combination.h"
#include "src/core/selection.h"
#include "src/dataframe/chunked.h"
#include "src/dataframe/split.h"
#include "src/gbdt/booster.h"
#include "src/gbdt/quantizer.h"

namespace perfbench {

using safe::Result;
using safe::Status;

namespace {

// Layer span names; each doubles as the metric prefix it reports under.
constexpr const char* kMinerFit = "gbdt.miner_fit";
constexpr const char* kMine = "core.mine";
constexpr const char* kRank = "core.rank";
constexpr const char* kGenerate = "core.generate";
constexpr const char* kIv = "stats.iv";
constexpr const char* kRedundancy = "stats.redundancy";
constexpr const char* kImportance = "core.importance";
constexpr const char* kQuantize = "gbdt.quantize";

/// The layers one replay walks, in pipeline order.
constexpr const char* kReplayLayers[] = {kMinerFit, kMine,       kRank,
                                         kGenerate, kIv,         kRedundancy,
                                         kImportance};

/// Display name of a generated feature, as SafeEngine::Fit names it.
std::string FeatureName(const safe::Operator& op,
                        const std::vector<std::string>& parents) {
  if (op.arity() == 1) return op.name() + "(" + parents[0] + ")";
  if (op.arity() == 2 && op.symbol().size() <= 2 && op.symbol() != op.name()) {
    return "(" + parents[0] + op.symbol() + parents[1] + ")";
  }
  std::string out = op.name() + "(";
  for (size_t i = 0; i < parents.size(); ++i) {
    if (i > 0) out += ";";
    out += parents[i];
  }
  return out + ")";
}

struct Candidate {
  const safe::Operator* op = nullptr;
  std::vector<int> ordering;
  std::string name;
  bool ok = false;
  safe::Column column;
};

/// The generation stage: every (combination, operator, ordering) column
/// fitted and applied in parallel, kept in enumeration order.
Result<safe::DataFrame> GenerateCandidates(
    const safe::DataFrame& x, const std::vector<safe::FeatureCombination>& combos,
    const std::vector<std::shared_ptr<const safe::Operator>>& operators,
    safe::ThreadPool* pool) {
  std::unordered_set<std::string> known;  // lint: unordered-ok(membership only)
  for (const auto& name : x.ColumnNames()) known.insert(name);
  std::vector<Candidate> tasks;
  for (const auto& combo : combos) {
    for (const auto& op : operators) {
      if (op->arity() != combo.features.size()) continue;
      std::vector<std::vector<int>> orderings = {combo.features};
      if (!op->commutative() && combo.features.size() == 2) {
        orderings.push_back({combo.features[1], combo.features[0]});
      }
      for (auto& ordering : orderings) {
        std::vector<std::string> parents;
        for (int f : ordering) {
          parents.push_back(x.column(static_cast<size_t>(f)).name());
        }
        Candidate task;
        task.op = op.get();
        task.name = FeatureName(*op, parents);
        if (known.count(task.name)) continue;
        task.ordering = std::move(ordering);
        tasks.push_back(std::move(task));
      }
    }
  }
  safe::ParallelFor(pool, 0, tasks.size(), [&](size_t t) {
    Candidate& task = tasks[t];
    std::vector<std::vector<double>> gathered;
    gathered.reserve(task.ordering.size());
    std::vector<const std::vector<double>*> parents;
    const safe::ChunkedVector<double>* chunk_home = nullptr;
    for (int f : task.ordering) {
      const safe::Column& parent = x.column(static_cast<size_t>(f));
      if (parent.chunked()) {
        if (chunk_home == nullptr) chunk_home = parent.chunks().get();
        gathered.push_back(parent.Gather());
        parents.push_back(&gathered.back());
      } else {
        parents.push_back(&parent.values());
      }
    }
    auto params = task.op->FitParams(parents);
    if (!params.ok()) return;
    auto values = safe::ApplyOperator(*task.op, *params, parents);
    if (!values.ok()) return;
    safe::Column column(task.name, std::move(*values));
    if (column.IsConstant() || column.CountMissing() == column.size()) return;
    if (chunk_home != nullptr) {
      column = column.AsChunked(chunk_home->pool(), chunk_home->group_rows());
    }
    task.column = std::move(column);
    task.ok = true;
  });
  safe::DataFrame generated;
  for (Candidate& task : tasks) {
    if (!task.ok) continue;
    SAFE_RETURN_NOT_OK(generated.AddColumn(std::move(task.column)));
    known.insert(task.name);
  }
  return generated;
}

}  // namespace

Result<FitData> MakeFitData(const safe::data::SyntheticSpec& spec,
                            uint64_t shuffle_seed, size_t train_rows, bool spill,
                            const std::string& spill_dir) {
  SAFE_ASSIGN_OR_RETURN(safe::Dataset table, safe::data::MakeSyntheticDataset(spec));
  // Which rows train and which are held out is fixed by the table's own
  // seed, so every seed fits the same rows and does the same work;
  // `shuffle_seed` only permutes the order of each set.
  SAFE_ASSIGN_OR_RETURN(safe::DatasetSplit split,
                        safe::SplitDataset(table, train_rows, 0,
                                           spec.num_rows - train_rows, spec.seed));
  safe::Rng rng(shuffle_seed);
  auto permuted = [&rng](const safe::Dataset& set) {
    std::vector<size_t> order(set.num_rows());
    std::iota(order.begin(), order.end(), size_t{0});
    rng.Shuffle(&order);
    return safe::TakeDatasetRows(set, order);
  };
  FitData data;
  data.train = permuted(split.train);
  data.held_out = permuted(split.test);
  if (!spill) return data;
  std::error_code ec;
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) return Status::IoError("cannot create " + spill_dir + ": " + ec.message());
  safe::SpillPool::Options options;
  options.resident_budget_bytes = train_rows * spec.num_features * sizeof(double) / 4;
  options.dir = spill_dir;
  SAFE_ASSIGN_OR_RETURN(data.pool, safe::SpillPool::Create(options));
  data.train = safe::ToChunkedDataset(data.train, data.pool, safe::kDefaultRowGroupRows);
  return data;
}

Result<TimedFit> RunTimedFit(const safe::Dataset& train,
                             const safe::SafeParams& params) {
  const safe::SafeEngine engine(params);
  const double cpu_start = CpuSeconds();
  const double start = NowSeconds();
  SAFE_ASSIGN_OR_RETURN(safe::SafeFitResult result, engine.Fit(train));
  TimedFit fit;
  fit.seconds = NowSeconds() - start;
  fit.cpu_seconds = CpuSeconds() - cpu_start;
  fit.plan_text = result.plan.Serialize();
  fit.plan = std::move(result.plan);
  if (!result.iterations.empty()) fit.diag = result.iterations.front();
  return fit;
}

Result<ReplayResult> RunReplay(const safe::Dataset& train,
                                     const safe::SafeParams& params,
                                     LayerLedger* ledger) {
  if (params.num_iterations != 1 ||
      params.strategy != safe::MiningStrategy::kTreePaths) {
    return Status::InvalidArgument("replay covers one tree-path iteration");
  }
  const double start = NowSeconds();
  const safe::OperatorRegistry registry = safe::OperatorRegistry::Default();
  std::vector<std::shared_ptr<const safe::Operator>> operators;
  for (const auto& name : params.operator_names) {
    SAFE_ASSIGN_OR_RETURN(auto op, registry.Find(name));
    if (op->arity() <= params.max_arity) operators.push_back(std::move(op));
  }
  const size_t num_features = train.x.num_columns();
  const size_t gamma = params.gamma > 0 ? params.gamma
                                        : std::min<size_t>(4 * num_features, 1000);
  const size_t max_output = params.max_output_features > 0
                                ? params.max_output_features
                                : 2 * num_features;
  safe::PoolSelection selection = safe::ResolvePool(params.n_threads);
  safe::ThreadPool* pool = selection.pool;
  safe::Rng rng(params.seed);
  ReplayResult out;

  safe::gbdt::GbdtParams miner_params = params.miner;
  miner_params.seed = rng.NextUint64();
  if (params.n_threads != 0) miner_params.n_threads = params.n_threads;
  SAFE_ASSIGN_OR_RETURN(safe::gbdt::Booster miner, ledger->Run(kMinerFit, [&] {
    return safe::gbdt::Booster::Fit(train, nullptr, miner_params);
  }));

  std::vector<safe::FeatureCombination> combos = ledger->Run(kMine, [&] {
    const auto paths = miner.ExtractAllPaths();
    out.diag.num_paths = paths.size();
    safe::CombinationMinerOptions options;
    options.max_arity = params.max_arity;
    return safe::MineCombinations(paths, options, pool);
  });
  combos = ledger->Run(kRank, [&] {
    return safe::RankCombinations(std::move(combos), train.x, train.labels(),
                                  gamma, pool);
  });
  out.diag.num_combinations = combos.size();

  auto generate = [&]() -> Result<safe::DataFrame> {
    SAFE_ASSIGN_OR_RETURN(safe::DataFrame generated,
                          GenerateCandidates(train.x, combos, operators, pool));
    out.diag.num_generated = generated.num_columns();
    return train.x.Concat(generated);
  };
  SAFE_ASSIGN_OR_RETURN(safe::DataFrame candidate_frame,
                        ledger->Run(kGenerate, generate));
  safe::Dataset candidates;
  candidates.x = std::move(candidate_frame);
  candidates.y = train.y;
  out.diag.num_candidates = candidates.x.num_columns();

  std::vector<double> ivs;
  const std::vector<size_t> after_iv = ledger->Run(kIv, [&] {
    ivs = safe::ComputeIvs(candidates.x, candidates.labels(), params.iv_bins, pool);
    std::vector<size_t> kept = safe::IvFilterIndices(ivs, params.iv_threshold);
    if (kept.empty()) {
      for (size_t c = 0; c < candidates.x.num_columns(); ++c) kept.push_back(c);
    }
    return kept;
  });
  out.diag.num_after_iv = after_iv.size();

  const std::vector<size_t> after_redundancy = ledger->Run(kRedundancy, [&] {
    return safe::RedundancyFilterIndices(candidates.x, ivs, after_iv,
                                         params.pearson_threshold, pool);
  });
  out.diag.num_after_redundancy = after_redundancy.size();

  safe::gbdt::GbdtParams ranker_params = params.ranker;
  ranker_params.seed = rng.NextUint64();
  if (params.n_threads != 0) ranker_params.n_threads = params.n_threads;
  SAFE_ASSIGN_OR_RETURN(std::vector<size_t> selected, ledger->Run(kImportance, [&] {
    return safe::ImportanceRankIndices(candidates, after_redundancy, ivs,
                                       ranker_params, max_output);
  }));
  out.diag.num_selected = selected.size();
  SAFE_ASSIGN_OR_RETURN(safe::DataFrame kept, candidates.x.Select(selected));
  out.selected = kept.ColumnNames();
  out.seconds = NowSeconds() - start;
  return out;
}

Status RunQuantizeProbe(const safe::Dataset& train,
                        const safe::SafeParams& params, LayerLedger* ledger) {
  safe::PoolSelection selection = safe::ResolvePool(params.n_threads);
  return ledger->Run(kQuantize, [&]() -> Status {
    SAFE_ASSIGN_OR_RETURN(
        safe::gbdt::FeatureQuantizer quantizer,
        safe::gbdt::FeatureQuantizer::Fit(train.x, params.miner.max_bins,
                                          selection.pool));
    return quantizer.Transform(train.x, selection.pool).status();
  });
}

void ReportFitLayers(const LayerLedger& ledger, const ReplayResult& replay,
                     Report* report) {
  const std::string kS = "s";
  auto seconds = [&](const char* layer) { return ledger.totals(layer).self_s; };
  auto cpu = [&](const char* layer) { return ledger.totals(layer).cpu_ratio(); };
  report->Add("gbdt.miner_fit_s", seconds(kMinerFit), kS);
  report->Add("gbdt.miner_cpu_ratio", cpu(kMinerFit), "ratio");
  report->Add("gbdt.quantize_s", seconds(kQuantize), kS, "probe, not in coverage");
  report->Add("core.mine_s", seconds(kMine), kS);
  report->Add("core.rank_s", seconds(kRank), kS);
  report->Add("core.generate_s", seconds(kGenerate), kS);
  report->Add("core.importance_s", seconds(kImportance), kS);
  report->Add("core.importance_cpu_ratio", cpu(kImportance), "ratio");
  report->Add("stats.iv_s", seconds(kIv), kS);
  report->Add("stats.iv_cpu_ratio", cpu(kIv), "ratio");
  report->Add("stats.redundancy_s", seconds(kRedundancy), kS);
  report->Add("stats.redundancy_cpu_ratio", cpu(kRedundancy), "ratio");

  const safe::IterationDiagnostics& d = replay.diag;
  report->Add("core.paths", static_cast<double>(d.num_paths), "count");
  report->Add("core.combinations", static_cast<double>(d.num_combinations), "count");
  report->Add("core.generated", static_cast<double>(d.num_generated), "count");
  report->Add("stats.after_iv", static_cast<double>(d.num_after_iv), "count");
  report->Add("stats.after_redundancy",
              static_cast<double>(d.num_after_redundancy), "count");
  report->Add("core.selected", static_cast<double>(d.num_selected), "count");

  double layer_sum = 0.0;
  double write_mb = 0.0;
  uint64_t faults = 0;
  uint64_t evictions = 0;
  for (const char* layer : kReplayLayers) {
    const LayerTotals& t = ledger.totals(layer);
    layer_sum += t.self_s;
    write_mb += t.write_mb;
    faults += t.faults;
    evictions += t.evictions;
    // "core.generate" -> "dataframe.read_mb.generate"
    const std::string name = layer;
    report->Add("dataframe.read_mb." + name.substr(name.find('.') + 1),
                t.read_mb, "MB");
  }
  report->Add("dataframe.write_mb", write_mb, "MB");
  report->Add("dataframe.faults", static_cast<double>(faults), "count");
  report->Add("dataframe.evictions", static_cast<double>(evictions), "count");
  report->Add("fit.layer_coverage",
              replay.seconds > 0.0 ? layer_sum / replay.seconds : 0.0, "ratio");
}

}  // namespace perfbench
