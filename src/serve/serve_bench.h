#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/obs/json.h"

namespace safe {
namespace serve {

/// \brief Load-generator knobs for the scoring-server section of the
/// serving benchmark (src/serve/server/, DESIGN.md "Scoring server").
struct ServerLoadOptions {
  size_t num_shards = 2;
  /// Per-shard queue bound in requests (admission control).
  size_t queue_capacity = 1024;
  /// Most rows per server cut (ServerOptions::max_batch_rows).
  size_t max_batch_rows = 64;
  /// Concurrent client threads in both loop modes.
  size_t client_threads = 4;
  /// Closed loop: requests each client issues back-to-back (one
  /// outstanding request per client — throughput tracks service rate).
  size_t closed_requests_per_client = 2500;
  /// Open loop: total arrivals scheduled at `open_target_qps`,
  /// independent of completions — the backlog-honest tail-latency mode.
  size_t open_requests = 20000;
  double open_target_qps = 20000.0;
};

/// \brief One load-generator run: latency distribution over completed
/// requests plus the sustained completion rate.
struct ServerLoadStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Completed requests per wall-clock second over the whole run (the
  /// CI gate's subject in open-loop mode).
  double sustained_qps = 0.0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
};

/// \brief Configuration of the serving benchmark (bench/bench_serving.cc).
struct ServeBenchOptions {
  /// Rows used to fit the SAFE plan and the GBDT.
  size_t train_rows = 2000;
  /// Original feature count of the synthetic workload. The default is
  /// transform-heavy enough (2x features generated downstream) that the
  /// fused/naive ratio is a stable gate subject.
  size_t features = 24;
  /// Rows scored per timing pass.
  size_t score_rows = 20000;
  /// Timing passes over the scoring rows (latency samples accumulate).
  size_t repeats = 3;
  /// Rows per ScoreBatch call in the micro-batch measurement.
  size_t batch_size = 256;
  uint64_t seed = 42;
  /// Shrinks every knob for CI smoke runs (a few seconds end to end).
  bool quick = false;
  /// Scoring-server load generation (closed + open loop).
  ServerLoadOptions server;
};

/// \brief Per-path latency/throughput summary.
struct PathStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double rows_per_s = 0.0;
};

/// \brief One point of the batch-size sweep: ScoreBatch throughput at a
/// given rows-per-call, outputs verified bit-identical to the per-row
/// path before timing.
struct BatchSweepPoint {
  size_t batch_size = 0;
  double rows_per_s = 0.0;
};

/// \brief Machine-readable result of one serving benchmark run.
struct ServeBenchReport {
  size_t score_rows = 0;
  /// Effective timing passes (after any --quick clamping).
  size_t repeats = 0;
  size_t features = 0;
  size_t outputs = 0;
  size_t generated = 0;
  size_t trees = 0;
  /// Naive per-row path: FeaturePlan::TransformRow + PredictRowProba.
  PathStats naive;
  /// Fused per-row path: RowScorer::ScoreRow over reusable scratch.
  PathStats fused;
  /// Vectorized micro-batch path: RowScorer::ScoreBatch (block panels +
  /// block-wise opcodes + packed forest).
  double batch_rows_per_s = 0.0;
  /// Naive-loop batch pass: the same chunks scored by looping
  /// RowScorer::ScoreRow — the pre-vectorization ScoreBatch — so the
  /// vectorization win is measured against a loop, not just against the
  /// interpreted path.
  double loop_batch_rows_per_s = 0.0;
  /// BatchScorer::kBlockRows of the measured binary.
  size_t block_rows = 0;
  /// ScoreBatch throughput at several rows-per-call sizes (each verified
  /// bit-identical to the per-row outputs before timing).
  std::vector<BatchSweepPoint> sweep;
  /// fused.rows_per_s / naive.rows_per_s (the CI gate's subject).
  double speedup = 0.0;
  /// batch_rows_per_s / naive.rows_per_s (gated by min_batch_speedup).
  double batch_speedup = 0.0;
  /// Every scored row was bit-identical across naive and fused paths.
  bool outputs_identical = false;
  /// Fused path re-timed with the flight recorder armed (sampled
  /// serve.score_row spans) vs disarmed over short rounds of rows,
  /// alternating which arm goes first; each rate is the median round's.
  double fused_armed_rows_per_s = 0.0;
  double fused_disarmed_rows_per_s = 0.0;
  /// Median per-round armed/disarmed time ratio minus one, in percent
  /// (slightly negative values are timing noise).
  double recorder_overhead_pct = 0.0;

  /// --- Scoring server under load (src/serve/server/) ---
  /// Effective server/load-gen configuration (after --quick clamping).
  size_t server_shards = 0;
  size_t server_clients = 0;
  size_t server_batch_rows = 0;
  /// Every server response (mixed single-row and batch requests) was
  /// bit-identical to the fused per-row path. The run aborts when not.
  bool server_outputs_identical = false;
  /// Closed loop: client_threads clients, one outstanding request each.
  ServerLoadStats server_closed;
  /// Open loop: arrivals scheduled at server_open_target_qps; latency is
  /// measured from the *scheduled* arrival, so queueing delay under
  /// overload is included (the honest tail).
  ServerLoadStats server_open;
  double server_open_target_qps = 0.0;
  /// Mean rows per server cut across both loops (server stats).
  double server_mean_batch_fill = 0.0;

  /// Serializes to the BENCH_serving.json schema.
  obs::JsonValue ToJson() const;
};

/// Runs the benchmark: fits a SAFE plan + GBDT on a synthetic workload,
/// verifies the fused scorer is bit-identical to the naive path over
/// every scoring row, then times both per-row paths (p50/p99/rows-per-s)
/// and the fused micro-batch path.
[[nodiscard]] Result<ServeBenchReport> RunServeBench(
    const ServeBenchOptions& options);

/// \brief Committed CI thresholds for the serving benchmark
/// (bench/baselines/serving.json).
struct ServingGate {
  /// Minimum fused/naive per-row speedup.
  double min_speedup = 0.0;
  /// Minimum vectorized-batch/naive speedup (report.batch_speedup);
  /// <= 0 disables that check (legacy baselines).
  double min_batch_speedup = 0.0;
  /// Ceiling on recorder_overhead_pct (armed vs disarmed fused path);
  /// <= 0 disables that check.
  double max_recorder_overhead_pct = 0.0;
  /// Floor on the open-loop sustained completion rate
  /// (report.server_open.sustained_qps); <= 0 disables that check.
  double min_sustained_qps = 0.0;
  /// Ceiling on the open-loop median latency
  /// (report.server_open.p50_us); <= 0 disables that check.
  double max_open_loop_p50_us = 0.0;
};

/// Reads the committed gate file: "min_speedup" (required), plus
/// "min_batch_speedup", "max_recorder_overhead_pct",
/// "min_sustained_qps" and "max_open_loop_p50_us" (all optional,
/// default 0 = disabled).
[[nodiscard]] Result<ServingGate> ReadServingGate(
    const std::string& baseline_path);

}  // namespace serve
}  // namespace safe
