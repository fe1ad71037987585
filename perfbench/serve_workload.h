#pragma once

// The serving half of every workload: bulk BatchScorer scoring, a per-row
// RowScorer loop and an open-loop ScoringServer rate ladder, plus the
// traced decomposition of the same paths into their layers.

#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "src/common/result.h"
#include "src/core/feature_plan.h"
#include "src/gbdt/booster.h"
#include "src/serve/batch_scorer.h"
#include "src/serve/scorer.h"

namespace perfbench {

/// Open-loop settings, frozen in BENCHMARK.json's command line.
struct LoadOptions {
  std::vector<double> ladder_qps;  ///< ascending arrival rates
  double light_qps = 0.0;          ///< a rung of the ladder
  double heavy_qps = 0.0;          ///< a rung of the ladder
  double p99_limit_us = 0.0;       ///< serve_max_qps latency limit
  size_t shards = 2;
  size_t generators = 2;  ///< threads, each holding one blocking request
};

/// A fitted plan and booster with both scorers, the request rows and the
/// interpreted reference score of every request row.
struct ServingKit {
  safe::FeaturePlan plan;
  safe::gbdt::Booster booster;
  safe::serve::BatchScorer batch;
  safe::serve::RowScorer row;
  std::vector<std::vector<double>> requests;
  std::vector<double> reference;
};

/// Trains the 50-tree booster on plan-transformed `train` and builds both
/// scorers; every row of `requests` becomes a request. Leaves `reference`
/// empty (see ComputeReference).
[[nodiscard]] safe::Result<ServingKit> BuildServingKit(
    const safe::FeaturePlan& plan, const safe::Dataset& train,
    const safe::Dataset& requests, size_t n_threads);

/// Fills kit->reference with booster.PredictRowProba(plan.TransformRow(r))
/// for every request row: the interpreted path every phase must match.
[[nodiscard]] safe::Status ComputeReference(ServingKit* kit);

/// The three timed phases, `seconds` in total. Measures batch_rows_per_s,
/// row_rows_per_s and serve_p50_us (reported by the untraced run) and the
/// server's tail: server.p99_us, server.p99_us_heavy and server.max_qps
/// (reported by the traced run, which calls this with the recorder
/// disarmed). Each run shows the other group in its table only.
void RunServePhases(const ServingKit& kit, const LoadOptions& load,
                    double seconds, bool traced_run, Report* report, Checks* checks);

/// The traced serving run: the batch path as GatherBlock -> ExecuteBlock
/// -> AccumulateMargins, the row path as Execute vs the fused row score,
/// and the server at the light rate. Emits the serve.*, server.* and
/// loadgen.* layer metrics; returns the tracing overhead of the block
/// composition (recorder armed vs disarmed) in percent.
double RunServeTraced(const ServingKit& kit, const LoadOptions& load,
                      double seconds, Report* report, Checks* checks,
                      uint64_t* dropped_events);

}  // namespace perfbench
