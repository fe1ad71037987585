#include "src/core/engine.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>
#include <utility>

#include "src/common/random.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/core/combination.h"
#include "src/core/selection.h"
#include "src/gbdt/booster.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/stats/iv.h"

namespace safe {

namespace {

/// Builds the display name of a generated feature.
std::string FeatureName(const Operator& op,
                        const std::vector<std::string>& parents) {
  if (op.arity() == 1) {
    return op.name() + "(" + parents[0] + ")";
  }
  if (op.arity() == 2 && op.symbol().size() <= 2 &&
      op.symbol() != op.name()) {
    return "(" + parents[0] + op.symbol() + parents[1] + ")";
  }
  std::string out = op.name() + "(";
  for (size_t i = 0; i < parents.size(); ++i) {
    if (i > 0) out += ";";
    out += parents[i];
  }
  out += ")";
  return out;
}

/// Random distinct pairs drawn from `pool`, as FeatureCombinations without
/// split values (RAND / IMP / non-split mining).
std::vector<FeatureCombination> RandomPairs(const std::vector<int>& pool,
                                            size_t count, Rng* rng) {
  std::vector<FeatureCombination> out;
  if (pool.size() < 2 || count == 0) return out;
  std::set<std::pair<int, int>> seen;
  const size_t max_distinct = pool.size() * (pool.size() - 1) / 2;
  const size_t target = std::min(count, max_distinct);
  size_t attempts = 0;
  while (seen.size() < target && attempts < target * 50) {
    ++attempts;
    int a = pool[rng->NextUint64Below(pool.size())];
    int b = pool[rng->NextUint64Below(pool.size())];
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (!seen.insert({a, b}).second) continue;
  }
  for (const auto& [a, b] : seen) {
    FeatureCombination combo;
    combo.features = {a, b};
    combo.split_values = {{}, {}};
    out.push_back(std::move(combo));
  }
  return out;
}

/// Funnel counters shared by every Fit call; resolved once so the
/// per-iteration updates touch only atomics.
struct EngineCounters {
  obs::Counter* iterations;
  obs::Counter* paths;
  obs::Counter* combinations;
  obs::Counter* generated;
  obs::Counter* candidates;
  obs::Counter* after_iv;
  obs::Counter* after_redundancy;
  obs::Counter* selected;
  obs::Counter* generation_tasks;
  obs::Gauge* n_threads;
  obs::Counter* spill_read_bytes;
  obs::Counter* spill_write_bytes;

  static const EngineCounters& Get() {
    static const EngineCounters counters = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
      return EngineCounters{registry->counter("engine.iterations"),
                            registry->counter("engine.paths_mined"),
                            registry->counter("engine.combinations_mined"),
                            registry->counter("engine.features_generated"),
                            registry->counter("engine.candidates"),
                            registry->counter("engine.features_after_iv"),
                            registry->counter(
                                "engine.features_after_redundancy"),
                            registry->counter("engine.features_selected"),
                            registry->counter("engine.generation_tasks"),
                            registry->gauge("engine.n_threads"),
                            registry->counter("dataframe.spill.read_bytes"),
                            registry->counter("dataframe.spill.write_bytes")};
    }();
    return counters;
  }
};

/// Where a stage began: its offset into the iteration and the process
/// counters its StageTiming reports the change of.
struct StageStart {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  uint64_t spill_read_bytes = 0;
  uint64_t spill_write_bytes = 0;
};

/// One candidate generated column: a (combination, operator, ordering)
/// triple. Tasks are enumerated serially in combination order — the
/// exact order a serial run generates columns in — then evaluated
/// independently on the pool, each filling only its own slot. The
/// assembly pass walks tasks in enumeration order, so the produced
/// frame (column order, names, survivors) is identical at any thread
/// count.
struct GenerationTask {
  const Operator* op = nullptr;
  std::vector<int> ordering;
  std::string name;
  std::vector<std::string> parent_names;

  // Filled by the parallel evaluation phase. A task that yields a usable
  // column keeps its recipe (params) and IV; only a column that is built
  // — its IV clears α, or the degenerate branch rebuilds it — is stored
  // and gets validation values.
  bool ok = false;
  std::vector<double> params;
  double iv = 0.0;
  bool built = false;
  Column train_column;
  std::vector<double> valid_values;
};

}  // namespace

obs::JsonValue IterationDiagnosticsToJson(
    const std::vector<IterationDiagnostics>& iterations) {
  obs::JsonValue out = obs::JsonValue::Array();
  for (const auto& diag : iterations) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("num_paths", obs::JsonValue(uint64_t{diag.num_paths}));
    entry.Set("num_combinations",
              obs::JsonValue(uint64_t{diag.num_combinations}));
    entry.Set("num_generated", obs::JsonValue(uint64_t{diag.num_generated}));
    entry.Set("num_candidates",
              obs::JsonValue(uint64_t{diag.num_candidates}));
    entry.Set("num_after_iv", obs::JsonValue(uint64_t{diag.num_after_iv}));
    entry.Set("num_after_redundancy",
              obs::JsonValue(uint64_t{diag.num_after_redundancy}));
    entry.Set("num_selected", obs::JsonValue(uint64_t{diag.num_selected}));
    entry.Set("seconds", obs::JsonValue(diag.seconds));
    obs::JsonValue stages = obs::JsonValue::Array();
    for (const auto& stage : diag.stages) {
      obs::JsonValue s = obs::JsonValue::Object();
      s.Set("stage", obs::JsonValue(stage.stage));
      s.Set("start_seconds", obs::JsonValue(stage.start_seconds));
      s.Set("seconds", obs::JsonValue(stage.seconds));
      s.Set("cpu_seconds", obs::JsonValue(stage.cpu_seconds));
      s.Set("spill_read_bytes", obs::JsonValue(stage.spill_read_bytes));
      s.Set("spill_write_bytes", obs::JsonValue(stage.spill_write_bytes));
      s.Set("peak_rss_bytes", obs::JsonValue(stage.peak_rss_bytes));
      stages.Append(std::move(s));
    }
    entry.Set("stages", std::move(stages));
    out.Append(std::move(entry));
  }
  return out;
}

Result<SafeFitResult> SafeEngine::Fit(const Dataset& train,
                                      const Dataset* valid) const {
  if (train.num_rows() == 0 || train.x.num_columns() == 0) {
    return Status::InvalidArgument("safe: empty training data");
  }
  if (train.y == nullptr || train.y->size() != train.num_rows()) {
    return Status::InvalidArgument("safe: label size mismatch");
  }
  if (params_.num_iterations == 0) {
    return Status::InvalidArgument("safe: num_iterations must be > 0");
  }
  if (params_.max_arity < 1 || params_.max_arity > 3) {
    return Status::InvalidArgument("safe: max_arity must be 1..3");
  }
  if (params_.iv_bins < 2) {
    return Status::InvalidArgument("safe: iv_bins must be >= 2");
  }
  // Resolve operators up front so a typo fails fast.
  std::vector<std::shared_ptr<const Operator>> operators;
  for (const auto& name : params_.operator_names) {
    SAFE_ASSIGN_OR_RETURN(auto op, registry_.Find(name));
    if (op->arity() > params_.max_arity) continue;
    operators.push_back(std::move(op));
  }
  if (operators.empty()) {
    return Status::InvalidArgument(
        "safe: no usable operators (check names and max_arity)");
  }

  const size_t orig_m = train.x.num_columns();
  const size_t gamma =
      params_.gamma > 0 ? params_.gamma
                        : std::min<size_t>(4 * orig_m, 1000);
  const size_t max_output =
      params_.max_output_features > 0 ? params_.max_output_features
                                      : 2 * orig_m;

  SAFE_FR_SCOPE("engine.fit");
  Stopwatch total_watch;
  Rng rng(params_.seed);

  // One pool serves every engine stage (and, via n_threads below, the
  // miner/ranker boosters): 0 = the shared global pool, 1 = serial
  // (null — ParallelFor runs inline), k > 1 = a dedicated pool for this
  // fit. The fitted plan is bit-identical at any setting.
  PoolSelection engine_pool = ResolvePool(params_.n_threads);
  ThreadPool* pool = engine_pool.pool;
  EngineCounters::Get().n_threads->Set(
      static_cast<double>(engine_pool.num_threads()));

  Dataset current = train;
  Dataset current_valid;
  const bool has_valid = valid != nullptr && valid->num_rows() > 0;
  if (has_valid) {
    if (valid->x.num_columns() != orig_m) {
      return Status::InvalidArgument("safe: valid column count mismatch");
    }
    current_valid = *valid;
  }

  std::vector<GeneratedFeature> all_generated;
  std::unordered_set<std::string> known_names;  // lint: unordered-ok(membership-only dedup; never iterated)
  for (const auto& name : train.x.ColumnNames()) known_names.insert(name);

  SafeFitResult result;

  for (size_t iter = 0; iter < params_.num_iterations; ++iter) {
    if (total_watch.ElapsedSeconds() >= params_.time_budget_seconds &&
        iter > 0) {
      break;
    }
    SAFE_FR_SCOPE("engine.iteration");
    Stopwatch iter_watch;
    IterationDiagnostics diag;
    const EngineCounters& counters = EngineCounters::Get();
    auto start_stage = [&] {
      return StageStart{iter_watch.ElapsedSeconds(), obs::ProcessCpuSeconds(),
                        counters.spill_read_bytes->value(),
                        counters.spill_write_bytes->value()};
    };
    // Closes the stage opened at `start` and appends its record; stages
    // are sequential, so start offsets are monotone within the iteration.
    auto record_stage = [&](const char* stage, const StageStart& start) {
      diag.stages.push_back(StageTiming{
          stage, start.seconds, iter_watch.ElapsedSeconds() - start.seconds,
          obs::ProcessCpuSeconds() - start.cpu_seconds,
          counters.spill_read_bytes->value() - start.spill_read_bytes,
          counters.spill_write_bytes->value() - start.spill_write_bytes,
          obs::PeakRssBytes()});
    };

    // -------------------------------------------------- mine combinations
    std::vector<FeatureCombination> combos;
    const StageStart mine_start = start_stage();
    {
    SAFE_FR_SCOPE("engine.mine_combinations");
    if (params_.strategy == MiningStrategy::kTreePaths ||
        params_.strategy == MiningStrategy::kSplitFeaturePairs ||
        params_.strategy == MiningStrategy::kNonSplitPairs) {
      gbdt::GbdtParams miner_params = params_.miner;
      miner_params.seed = rng.NextUint64();
      if (params_.n_threads != 0) miner_params.n_threads = params_.n_threads;
      SAFE_ASSIGN_OR_RETURN(
          gbdt::Booster miner,
          gbdt::Booster::Fit(current, has_valid ? &current_valid : nullptr,
                             miner_params));
      if (params_.strategy == MiningStrategy::kTreePaths) {
        const auto paths = miner.ExtractAllPaths();
        diag.num_paths = paths.size();
        CombinationMinerOptions options;
        options.max_arity = params_.max_arity;
        combos = MineCombinations(paths, options, pool);
        {
          SAFE_FR_SCOPE("engine.rank_combinations");
          combos = RankCombinations(combos, current.x, current.labels(),
                                    gamma, pool);
        }
      } else {
        std::vector<int> pool;
        if (params_.strategy == MiningStrategy::kSplitFeaturePairs) {
          pool = miner.SplitFeatures();
        } else {
          const auto split = miner.SplitFeatures();
          std::set<int> split_set(split.begin(), split.end());
          for (size_t c = 0; c < current.x.num_columns(); ++c) {
            if (!split_set.count(static_cast<int>(c))) {
              pool.push_back(static_cast<int>(c));
            }
          }
          if (pool.size() < 2) {
            // Everything splits: fall back to the full pool (keeps the
            // ablation runnable on tiny frames).
            pool.clear();
            for (size_t c = 0; c < current.x.num_columns(); ++c) {
              pool.push_back(static_cast<int>(c));
            }
          }
        }
        combos = RandomPairs(pool, gamma, &rng);
      }
    } else {  // kRandomPairs
      std::vector<int> pool;
      for (size_t c = 0; c < current.x.num_columns(); ++c) {
        pool.push_back(static_cast<int>(c));
      }
      combos = RandomPairs(pool, gamma, &rng);
    }
    }
    record_stage("mine_combinations", mine_start);
    diag.num_combinations = combos.size();

    // -------------------------------------------------- generate features
    std::vector<GeneratedFeature> iteration_features;
    std::vector<GenerationTask> tasks;
    // Lends the parents of `task` in `frame` to `loan`.
    auto lend = [](const GenerationTask& task, const DataFrame& frame,
                   ColumnLoan* loan) {
      for (int f : task.ordering) {
        loan->Lend(frame.column(static_cast<size_t>(f)));
      }
    };
    // Builds a task's column from its training values: stores it like its
    // parents and applies the operator to the validation parents. False
    // when the validation side fails, which leaves the task unbuilt.
    auto build = [&](GenerationTask& task, std::vector<double> values,
                     const ColumnLoan& train_parents) {
      task.train_column =
          train_parents.StoreLike(Column(task.name, std::move(values)));
      if (has_valid) {
        ColumnLoan valid_parents;
        lend(task, current_valid.x, &valid_parents);
        auto valid_values =
            ApplyOperator(*task.op, task.params, valid_parents.vectors());
        if (!valid_values.ok()) return false;
        task.valid_values = std::move(*valid_values);
      }
      task.built = true;
      return true;
    };
    const StageStart generate_start = start_stage();
    {
    SAFE_FR_SCOPE("engine.generate_features");
    // Enumerate candidate columns serially in combination order (the
    // order a serial run would generate them in), evaluate each one as
    // an independent pool task, then record them in enumeration order —
    // see GenerationTask.
    for (const auto& combo : combos) {
      for (const auto& op : operators) {
        if (op->arity() != combo.features.size()) continue;
        // Non-commutative operators act once per ordering (paper treats
        // "÷" as two operators). Ternary orderings stay at identity to
        // bound blow-up.
        std::vector<std::vector<int>> orderings;
        orderings.push_back(combo.features);
        if (!op->commutative() && combo.features.size() == 2) {
          orderings.push_back({combo.features[1], combo.features[0]});
        }
        for (auto& ordering : orderings) {
          GenerationTask task;
          task.op = op.get();
          for (int f : ordering) {
            task.parent_names.push_back(
                current.x.column(static_cast<size_t>(f)).name());
          }
          task.name = FeatureName(*op, task.parent_names);
          if (known_names.count(task.name)) continue;
          task.ordering = std::move(ordering);
          tasks.push_back(std::move(task));
        }
      }
    }
    counters.generation_tasks->Increment(tasks.size());

    // Alg. 3 runs inside each task, on the buffer the operator wrote, and
    // only a column whose IV clears α is built. Each worker takes one
    // contiguous block of tasks (ParallelFor's static split) and reuses
    // one output buffer across it, so a dropped column's pages go to the
    // next task instead of back to the allocator.
    const size_t workers = engine_pool.num_threads();
    const size_t block = (tasks.size() + workers - 1) / workers;
    ParallelForChunks(pool, 0, tasks.size(), block,
                      [&](size_t, size_t lo, size_t hi) {
      std::vector<double> values;
      for (size_t t = lo; t < hi; ++t) {
        const uint64_t start_ns = obs::NowNanos();
        GenerationTask& task = tasks[t];
        ColumnLoan train_parents;
        lend(task, current.x, &train_parents);
        // Failures here (unfittable params, inapplicable operator,
        // constant output, which includes an all-missing one) simply
        // leave the task !ok — the serial code skipped those columns the
        // same way.
        auto params_result = task.op->FitParams(train_parents.vectors());
        if (!params_result.ok()) continue;
        if (!ApplyOperatorInto(*task.op, *params_result,
                               train_parents.vectors(), &values)
                 .ok()) {
          continue;
        }
        if (IsConstant(values)) continue;  // carries no information
        task.params = std::move(*params_result);
        task.iv = FilterIv(values, current.labels(), params_.iv_bins);
        // A dropped task never applies its validation side: after the
        // training side succeeded, that could fail only on arity, params
        // or unequal parent lengths, none of which differ there.
        task.ok = true;
        if (task.iv > params_.iv_threshold) {
          task.ok = build(task, std::exchange(values, {}), train_parents);
        }
        obs::PerThreadHistogram("engine.generate_us",
                                obs::DefaultLatencyBucketsUs())
            ->Observe(static_cast<double>(obs::NowNanos() - start_ns) / 1e3);
      }
    });

    // Every usable column counts as generated and keeps its recipe, built
    // or not, so later iterations deduplicate against it.
    for (GenerationTask& task : tasks) {
      if (!task.ok) continue;
      known_names.insert(task.name);
      GeneratedFeature feature;
      feature.name = task.name;
      feature.op = task.op->name();
      feature.parents = std::move(task.parent_names);
      feature.params = task.params;
      iteration_features.push_back(std::move(feature));
    }
    }
    record_stage("generate_features", generate_start);
    diag.num_generated = iteration_features.size();

    // -------------------------------------------------- candidate pool
    // The current columns, then the built generated columns in
    // enumeration order; `generated_ivs` holds the latter's IVs.
    DataFrame generated_valid;
    std::vector<double> generated_ivs;
    auto assemble = [&]() -> Result<DataFrame> {
      DataFrame generated_train;
      generated_valid = DataFrame();
      generated_ivs.clear();
      for (GenerationTask& task : tasks) {
        if (!task.built) continue;
        if (has_valid) {
          SAFE_RETURN_NOT_OK(generated_valid.AddColumn(
              Column(task.name, std::move(task.valid_values))));
        }
        SAFE_RETURN_NOT_OK(
            generated_train.AddColumn(std::move(task.train_column)));
        generated_ivs.push_back(task.iv);
      }
      return current.x.Concat(generated_train);
    };
    const StageStart pool_start = start_stage();
    Dataset candidates;
    SAFE_ASSIGN_OR_RETURN(candidates.x, assemble());
    candidates.y = current.y;
    diag.num_candidates = current.x.num_columns() + diag.num_generated;
    record_stage("candidate_pool", pool_start);

    // -------------------------------------------------- Alg. 3: IV filter
    const StageStart iv_start = start_stage();
    std::vector<double> ivs;
    std::vector<size_t> after_iv;
    {
      SAFE_FR_SCOPE("engine.iv_filter");
      ivs = ComputeIvs(current.x, current.labels(), params_.iv_bins, pool);
      const size_t num_raw = ivs.size();
      ivs.insert(ivs.end(), generated_ivs.begin(), generated_ivs.end());
      after_iv = IvFilterIndices(ivs, params_.iv_threshold);
      if (after_iv.empty()) {
        // Degenerate task (no feature clears α, so no generated column
        // was built): rebuild every generated column from its recipe and
        // fall back to every candidate so the pipeline still emits a
        // usable feature set.
        ParallelFor(pool, 0, tasks.size(), [&](size_t t) {
          GenerationTask& task = tasks[t];
          if (!task.ok) return;
          ColumnLoan train_parents;
          lend(task, current.x, &train_parents);
          std::vector<double> values;
          if (ApplyOperatorInto(*task.op, task.params,
                                train_parents.vectors(), &values)
                  .ok()) {
            build(task, std::move(values), train_parents);
          }
        });
        for (const GenerationTask& task : tasks) {
          if (task.ok && !task.built) {
            return Status::Internal("safe: cannot rebuild generated feature " +
                                    task.name);
          }
        }
        SAFE_ASSIGN_OR_RETURN(candidates.x, assemble());
        ivs.resize(num_raw);
        ivs.insert(ivs.end(), generated_ivs.begin(), generated_ivs.end());
        after_iv.resize(candidates.x.num_columns());
        for (size_t c = 0; c < after_iv.size(); ++c) after_iv[c] = c;
      }
    }
    record_stage("iv_filter", iv_start);
    diag.num_after_iv = after_iv.size();

    // -------------------------------------------------- Alg. 4: redundancy
    const StageStart redundancy_start = start_stage();
    std::vector<size_t> after_redundancy;
    {
      SAFE_FR_SCOPE("engine.redundancy_filter");
      after_redundancy = RedundancyFilterIndices(
          candidates.x, ivs, after_iv, params_.pearson_threshold, pool);
    }
    record_stage("redundancy_filter", redundancy_start);
    diag.num_after_redundancy = after_redundancy.size();

    // -------------------------------------------------- importance ranking
    const StageStart rank_start = start_stage();
    gbdt::GbdtParams ranker_params = params_.ranker;
    ranker_params.seed = rng.NextUint64();
    if (params_.n_threads != 0) ranker_params.n_threads = params_.n_threads;
    std::vector<size_t> selected;
    {
      SAFE_FR_SCOPE("engine.importance_rank");
      SAFE_ASSIGN_OR_RETURN(
          selected, ImportanceRankIndices(candidates, after_redundancy, ivs,
                                          ranker_params, max_output));
    }
    record_stage("importance_rank", rank_start);
    if (selected.empty()) {
      return Status::Internal("safe: selection produced no features");
    }
    diag.num_selected = selected.size();

    // -------------------------------------------------- next iteration
    SAFE_ASSIGN_OR_RETURN(DataFrame next_train,
                          candidates.x.Select(selected));
    current.x = std::move(next_train);
    if (has_valid) {
      SAFE_ASSIGN_OR_RETURN(DataFrame valid_candidates,
                            current_valid.x.Concat(generated_valid));
      SAFE_ASSIGN_OR_RETURN(DataFrame next_valid,
                            valid_candidates.Select(selected));
      current_valid.x = std::move(next_valid);
    }
    all_generated.insert(all_generated.end(),
                         std::make_move_iterator(iteration_features.begin()),
                         std::make_move_iterator(iteration_features.end()));

    diag.seconds = iter_watch.ElapsedSeconds();
    counters.iterations->Increment();
    counters.paths->Increment(diag.num_paths);
    counters.combinations->Increment(diag.num_combinations);
    counters.generated->Increment(diag.num_generated);
    counters.candidates->Increment(diag.num_candidates);
    counters.after_iv->Increment(diag.num_after_iv);
    counters.after_redundancy->Increment(diag.num_after_redundancy);
    counters.selected->Increment(diag.num_selected);
    result.iterations.push_back(diag);
  }

  // Prune generated features the final selection does not need
  // (transitively), so inference pays only for what Ψ outputs.
  const std::vector<std::string> selected_names = current.x.ColumnNames();
  std::unordered_set<std::string> needed(selected_names.begin(),  // lint: unordered-ok(membership-only keep-mark; iteration is over the all_generated vector)
                                         selected_names.end());
  std::vector<char> keep(all_generated.size(), 0);
  for (size_t g = all_generated.size(); g-- > 0;) {
    if (needed.count(all_generated[g].name)) {
      keep[g] = 1;
      for (const auto& parent : all_generated[g].parents) {
        needed.insert(parent);
      }
    }
  }
  std::vector<GeneratedFeature> pruned;
  for (size_t g = 0; g < all_generated.size(); ++g) {
    if (keep[g]) pruned.push_back(std::move(all_generated[g]));
  }

  SAFE_ASSIGN_OR_RETURN(
      result.plan, FeaturePlan::Create(train.x.ColumnNames(),
                                       std::move(pruned), selected_names));
  return result;
}

}  // namespace safe
