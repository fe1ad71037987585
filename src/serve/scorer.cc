#include "src/serve/scorer.h"

#include <memory>
#include <string>
#include <utility>

#include "src/gbdt/loss.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace safe {
namespace serve {

namespace {

obs::Histogram* LatencyHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global()->histogram(
          "serve.latency_us", obs::DefaultLatencyBucketsUs());
  return histogram;
}

obs::Counter* RowsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global()->counter("serve.rows");
  return counter;
}

obs::Histogram* BatchLatencyHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global()->histogram(
          "serve.batch_latency_us", obs::DefaultLatencyBucketsUs());
  return histogram;
}

obs::Histogram* BatchRowsHistogram() {
  static obs::Histogram* histogram = [] {
    // Power-of-two batch-size buckets up to 4096 rows (typical batches
    // are tens to hundreds; larger ones land in the overflow bucket).
    std::vector<double> bounds;
    for (double b = 1.0; b <= 4096.0; b *= 2.0) bounds.push_back(b);
    return obs::MetricsRegistry::Global()->histogram("serve.batch_rows",
                                                     std::move(bounds));
  }();
  return histogram;
}

/// 1-in-N request sampling for flight-recorder spans on the per-row hot
/// path: keeps armed-recorder overhead within the serving budget
/// (bench_serving measures and gates it) while still populating the
/// timeline with representative requests.
constexpr uint32_t kScoreRowSampleOneInN = 64;

}  // namespace

Result<RowScorer> RowScorer::Create(const FeaturePlan& plan,
                                    const gbdt::Booster& booster,
                                    const OperatorRegistry& registry) {
  // The batch engine compiles the plan, validates the booster against it
  // and packs the forest; the row path shares all three.
  SAFE_ASSIGN_OR_RETURN(BatchScorer batch,
                        BatchScorer::Create(plan, booster, registry));
  RowScorer scorer;
  scorer.batch_ = std::make_shared<const BatchScorer>(std::move(batch));
  return scorer;
}

Result<RowScorer> RowScorer::Create(const FeaturePlan& plan,
                                    const gbdt::Booster& booster) {
  static const OperatorRegistry registry = OperatorRegistry::Default();
  return Create(plan, booster, registry);
}

RowScorer::Scratch RowScorer::MakeScratch() const {
  Scratch scratch;
  scratch.slots.resize(plan().scratch_size());
  scratch.features.resize(plan().num_outputs());
  return scratch;
}

// lint: hot-path
double RowScorer::ScoreRowMargin(const double* row, Scratch* scratch) const {
  const BatchScorer& batch = *batch_;
  batch.plan().Execute(row, scratch->slots.data(), scratch->features.data());
  // The forest's split features were remapped to program slots, so the
  // single-row walk reads the scratch slots directly (stride 1, one
  // lane). Base score first, then the trees in order: the same sum as
  // Booster::PredictRowMargin.
  double margin = batch.base_score();
  batch.forest().AccumulateMargins(scratch->slots.data(), 1, 1, &margin);
  return margin;
}

// lint: hot-path
double RowScorer::ScoreRow(const double* row, Scratch* scratch) const {
  SAFE_FR_SAMPLED_SCOPE("serve.score_row", kScoreRowSampleOneInN);
  return gbdt::TransformMargin(batch_->objective(),
                               ScoreRowMargin(row, scratch));
}

RowScorer::Scratch* RowScorer::LocalScratch() const {
  // Per-thread scratch keyed by scorer identity: threads never share a
  // buffer, so concurrent Score calls on one shared scorer are race-free.
  // The vector is tiny (one entry per live scorer the thread has used);
  // lookups are a pointer scan, steady state allocates nothing.
  thread_local std::vector<std::pair<const RowScorer*, std::unique_ptr<Scratch>>>
      cache;
  for (auto& [key, scratch] : cache) {
    if (key == this) {
      // Guard against address reuse after another scorer's destruction.
      if (scratch->slots.size() != plan().scratch_size() ||
          scratch->features.size() != plan().num_outputs()) {
        *scratch = MakeScratch();
      }
      return scratch.get();
    }
  }
  cache.emplace_back(this, std::make_unique<Scratch>(MakeScratch()));
  return cache.back().second.get();
}

Result<double> RowScorer::Score(const std::vector<double>& row) const {
  const uint64_t start_ns = obs::NowNanos();
  if (row.size() != plan().num_inputs()) {
    return Status::InvalidArgument(
        "scorer: expected " + std::to_string(plan().num_inputs()) +
        " values, got " + std::to_string(row.size()));
  }
  const double proba = ScoreRow(row.data(), LocalScratch());
  RowsCounter()->Increment();
  LatencyHistogram()->Observe(
      static_cast<double>(obs::NowNanos() - start_ns) / 1e3);
  return proba;
}

Result<double> RowScorer::ScoreMargin(const std::vector<double>& row) const {
  if (row.size() != plan().num_inputs()) {
    return Status::InvalidArgument(
        "scorer: expected " + std::to_string(plan().num_inputs()) +
        " values, got " + std::to_string(row.size()));
  }
  return ScoreRowMargin(row.data(), LocalScratch());
}

Status RowScorer::ScoreBatch(const std::vector<std::vector<double>>& rows,
                             std::vector<double>* out) const {
  SAFE_TRACE_SPAN("serve.score_batch");
  SAFE_FR_SCOPE("serve.score_batch");
  const uint64_t start_ns = obs::NowNanos();
  if (out == nullptr) {
    return Status::InvalidArgument("scorer: null output vector");
  }
  // Vectorized path: cache-blocked column panels through the compiled
  // program, then the QuickScorer-style packed forest — bit-identical to
  // looping ScoreRow (serve_batch_equivalence_test). Row-width
  // validation happens inside ScoreRows.
  SAFE_RETURN_NOT_OK(batch_->ScoreRows(rows, out));
  RowsCounter()->Increment(rows.size());
  // Batch-level series: serve.latency_us stays per-row (Score) so batch
  // totals no longer pollute its distribution.
  BatchRowsHistogram()->Observe(static_cast<double>(rows.size()));
  BatchLatencyHistogram()->Observe(
      static_cast<double>(obs::NowNanos() - start_ns) / 1e3);
  return Status::OK();
}

}  // namespace serve
}  // namespace safe
