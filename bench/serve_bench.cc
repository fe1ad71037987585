#include "bench/serve_bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/data/synthetic.h"
#include "src/gbdt/booster.h"
#include "src/obs/flight_recorder.h"
#include "src/serve/batch_scorer.h"
#include "src/serve/scorer.h"
#include "src/serve/server/scoring_server.h"

namespace safe {
namespace serve {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// NaN-aware bitwise agreement (NaN payload bits are not contractual).
bool SameOutput(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return Bits(a) == Bits(b);
}

PathStats SummarizeSamples(std::vector<uint64_t>* samples_ns) {
  PathStats stats;
  if (samples_ns->empty()) return stats;
  std::sort(samples_ns->begin(), samples_ns->end());
  const size_t n = samples_ns->size();
  stats.p50_us = static_cast<double>((*samples_ns)[n / 2]) / 1e3;
  stats.p99_us =
      static_cast<double>((*samples_ns)[std::min(n - 1, (n * 99) / 100)]) /
      1e3;
  uint64_t total_ns = 0;
  for (uint64_t s : *samples_ns) total_ns += s;
  if (total_ns > 0) {
    stats.rows_per_s =
        static_cast<double>(n) / (static_cast<double>(total_ns) / 1e9);
  }
  return stats;
}

/// Upper median (the element at n / 2 in sorted order); reorders
/// `values`, which must be non-empty.
template <typename T>
T UpperMedian(std::vector<T>* values) {
  auto mid = values->begin() + static_cast<long>(values->size() / 2);
  std::nth_element(values->begin(), mid, values->end());
  return *mid;
}

obs::JsonValue PathStatsToJson(const PathStats& stats) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("p50_us", obs::JsonValue(stats.p50_us));
  out.Set("p99_us", obs::JsonValue(stats.p99_us));
  out.Set("rows_per_s", obs::JsonValue(stats.rows_per_s));
  return out;
}

/// Percentiles over completed-request latencies plus the run-wide
/// completion rate (completed / wall-clock, not 1/mean-latency — the two
/// differ whenever clients overlap).
ServerLoadStats SummarizeLoad(std::vector<uint64_t>* samples_ns,
                              uint64_t wall_ns, uint64_t rejected) {
  ServerLoadStats stats;
  stats.completed = samples_ns->size();
  stats.rejected = rejected;
  if (!samples_ns->empty()) {
    std::sort(samples_ns->begin(), samples_ns->end());
    const size_t n = samples_ns->size();
    stats.p50_us = static_cast<double>((*samples_ns)[n / 2]) / 1e3;
    stats.p99_us =
        static_cast<double>((*samples_ns)[std::min(n - 1, (n * 99) / 100)]) /
        1e3;
  }
  if (wall_ns > 0) {
    stats.sustained_qps = static_cast<double>(stats.completed) /
                          (static_cast<double>(wall_ns) / 1e9);
  }
  return stats;
}

obs::JsonValue LoadStatsToJson(const ServerLoadStats& stats) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("p50_us", obs::JsonValue(stats.p50_us));
  out.Set("p99_us", obs::JsonValue(stats.p99_us));
  out.Set("sustained_qps", obs::JsonValue(stats.sustained_qps));
  out.Set("completed", obs::JsonValue(uint64_t{stats.completed}));
  out.Set("rejected", obs::JsonValue(uint64_t{stats.rejected}));
  return out;
}

}  // namespace

obs::JsonValue ServeBenchReport::ToJson() const {
  obs::JsonValue out = obs::JsonValue::Object();
  obs::JsonValue config = obs::JsonValue::Object();
  config.Set("score_rows", obs::JsonValue(uint64_t{score_rows}));
  config.Set("repeats", obs::JsonValue(uint64_t{repeats}));
  config.Set("features", obs::JsonValue(uint64_t{features}));
  config.Set("outputs", obs::JsonValue(uint64_t{outputs}));
  config.Set("generated", obs::JsonValue(uint64_t{generated}));
  config.Set("trees", obs::JsonValue(uint64_t{trees}));
  out.Set("config", std::move(config));
  out.Set("naive_per_row", PathStatsToJson(naive));
  out.Set("fused_per_row", PathStatsToJson(fused));
  obs::JsonValue batch = obs::JsonValue::Object();
  batch.Set("rows_per_s", obs::JsonValue(batch_rows_per_s));
  batch.Set("loop_rows_per_s", obs::JsonValue(loop_batch_rows_per_s));
  batch.Set("block_rows", obs::JsonValue(uint64_t{block_rows}));
  out.Set("fused_batch", std::move(batch));
  obs::JsonValue sweep_json = obs::JsonValue::Array();
  for (const BatchSweepPoint& point : sweep) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("batch", obs::JsonValue(uint64_t{point.batch_size}));
    entry.Set("rows_per_s", obs::JsonValue(point.rows_per_s));
    sweep_json.Append(std::move(entry));
  }
  out.Set("batch_sweep", std::move(sweep_json));
  out.Set("speedup_per_row", obs::JsonValue(speedup));
  out.Set("speedup_batch", obs::JsonValue(batch_speedup));
  out.Set("outputs_identical", obs::JsonValue(outputs_identical));
  obs::JsonValue recorder = obs::JsonValue::Object();
  recorder.Set("fused_armed_rows_per_s",
               obs::JsonValue(fused_armed_rows_per_s));
  recorder.Set("fused_disarmed_rows_per_s",
               obs::JsonValue(fused_disarmed_rows_per_s));
  recorder.Set("overhead_pct", obs::JsonValue(recorder_overhead_pct));
  out.Set("recorder", std::move(recorder));
  obs::JsonValue server_json = obs::JsonValue::Object();
  obs::JsonValue server_config = obs::JsonValue::Object();
  server_config.Set("shards", obs::JsonValue(uint64_t{server_shards}));
  server_config.Set("clients", obs::JsonValue(uint64_t{server_clients}));
  server_config.Set("max_batch_rows",
                    obs::JsonValue(uint64_t{server_batch_rows}));
  server_json.Set("config", std::move(server_config));
  server_json.Set("outputs_identical",
                  obs::JsonValue(server_outputs_identical));
  server_json.Set("closed_loop", LoadStatsToJson(server_closed));
  obs::JsonValue open_json = LoadStatsToJson(server_open);
  open_json.Set("target_qps", obs::JsonValue(server_open_target_qps));
  server_json.Set("open_loop", std::move(open_json));
  server_json.Set("mean_batch_fill", obs::JsonValue(server_mean_batch_fill));
  out.Set("server", std::move(server_json));
  return out;
}

Result<ServeBenchReport> RunServeBench(const ServeBenchOptions& options) {
  ServeBenchOptions opts = options;
  if (opts.quick) {
    opts.train_rows = std::min<size_t>(opts.train_rows, 1000);
    opts.score_rows = std::min<size_t>(opts.score_rows, 8000);
    opts.server.closed_requests_per_client =
        std::min<size_t>(opts.server.closed_requests_per_client, 800);
    opts.server.open_requests =
        std::min<size_t>(opts.server.open_requests, 6000);
    opts.server.open_target_qps =
        std::min(opts.server.open_target_qps, 12000.0);
  }
  if (opts.train_rows == 0 || opts.score_rows == 0 || opts.repeats == 0 ||
      opts.features == 0 || opts.batch_size == 0) {
    return Status::InvalidArgument("serve bench: all sizes must be > 0");
  }
  if (opts.server.num_shards == 0 || opts.server.client_threads == 0 ||
      opts.server.max_batch_rows == 0 || opts.server.queue_capacity == 0) {
    return Status::InvalidArgument("serve bench: server sizes must be > 0");
  }

  // Fit a SAFE plan and a GBDT on a synthetic workload.
  data::SyntheticSpec spec;
  spec.num_rows = opts.train_rows;
  spec.num_features = opts.features;
  spec.num_informative = std::max<size_t>(1, opts.features / 2);
  spec.num_interactions = 3;
  spec.seed = opts.seed;
  SAFE_ASSIGN_OR_RETURN(Dataset train, data::MakeSyntheticDataset(spec));

  SafeParams safe_params;
  safe_params.seed = opts.seed;
  SafeEngine engine(safe_params);
  SAFE_ASSIGN_OR_RETURN(SafeFitResult fit, engine.Fit(train));
  const FeaturePlan& plan = fit.plan;

  SAFE_ASSIGN_OR_RETURN(DataFrame engineered, plan.Transform(train.x));
  gbdt::GbdtParams gbdt_params;
  gbdt_params.seed = opts.seed;
  Dataset engineered_train{std::move(engineered), train.y};
  SAFE_ASSIGN_OR_RETURN(
      gbdt::Booster booster,
      gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params));

  SAFE_ASSIGN_OR_RETURN(RowScorer scorer, RowScorer::Create(plan, booster));

  // Fresh rows from the same distribution for scoring.
  data::SyntheticSpec score_spec = spec;
  score_spec.num_rows = opts.score_rows;
  score_spec.seed = opts.seed + 1;
  SAFE_ASSIGN_OR_RETURN(Dataset score_data,
                        data::MakeSyntheticDataset(score_spec));
  std::vector<std::vector<double>> rows;
  rows.reserve(opts.score_rows);
  for (size_t r = 0; r < opts.score_rows; ++r) {
    rows.push_back(score_data.x.Row(r));
  }

  ServeBenchReport report;
  report.score_rows = opts.score_rows;
  report.repeats = opts.repeats;
  report.features = opts.features;
  report.outputs = plan.selected().size();
  report.generated = plan.generated().size();
  report.trees = booster.trees().size();
  report.block_rows = BatchScorer::kBlockRows;

  // Bit-identity sweep (doubles as warmup for both paths).
  RowScorer::Scratch scratch = scorer.MakeScratch();
  report.outputs_identical = true;
  for (const std::vector<double>& row : rows) {
    SAFE_ASSIGN_OR_RETURN(std::vector<double> transformed,
                          plan.TransformRow(row));
    const double naive = booster.PredictRowProba(transformed);
    const double fused = scorer.ScoreRow(row.data(), &scratch);
    if (!SameOutput(naive, fused)) {
      report.outputs_identical = false;
      break;
    }
  }
  if (!report.outputs_identical) {
    return Status::Internal(
        "serve bench: fused scorer diverged from the naive path");
  }

  // Batch chunks are staged (and warmed once, untimed) before any timing
  // so neither path pays their construction.
  std::vector<std::vector<std::vector<double>>> chunks;
  for (size_t begin = 0; begin < rows.size(); begin += opts.batch_size) {
    const size_t end = std::min(rows.size(), begin + opts.batch_size);
    chunks.emplace_back(rows.begin() + static_cast<long>(begin),
                        rows.begin() + static_cast<long>(end));
  }
  std::vector<double> batch_out;
  for (const auto& chunk : chunks) {
    SAFE_RETURN_NOT_OK(scorer.ScoreBatch(chunk, &batch_out));
  }

  // The three paths are timed interleaved, pass by pass, so slow clock
  // drift (thermal / frequency scaling) biases the speedup ratio as
  // little as possible on a shared machine.
  std::vector<uint64_t> naive_samples;
  std::vector<uint64_t> fused_samples;
  naive_samples.reserve(opts.score_rows * opts.repeats);
  fused_samples.reserve(opts.score_rows * opts.repeats);
  uint64_t batch_ns = 0;
  uint64_t loop_batch_ns = 0;
  for (size_t pass = 0; pass < opts.repeats; ++pass) {
    // Naive per-row path: interpreted TransformRow + booster row predict.
    for (const std::vector<double>& row : rows) {
      const uint64_t t0 = NowNs();
      auto transformed = plan.TransformRow(row);
      if (!transformed.ok()) return transformed.status();
      const double proba = booster.PredictRowProba(*transformed);
      naive_samples.push_back(NowNs() - t0);
      (void)proba;  // the call's cost is the subject; value unused
    }
    // Fused per-row path over one reusable scratch.
    for (const std::vector<double>& row : rows) {
      const uint64_t t0 = NowNs();
      const double proba = scorer.ScoreRow(row.data(), &scratch);
      fused_samples.push_back(NowNs() - t0);
      (void)proba;
    }
    // Naive-loop batch pass: the same chunks scored by looping ScoreRow
    // (what ScoreBatch did before vectorization), so the vectorized
    // pass below is compared against a loop and not just against the
    // interpreted path.
    const uint64_t loop_t0 = NowNs();
    for (const auto& chunk : chunks) {
      batch_out.resize(chunk.size());
      for (size_t r = 0; r < chunk.size(); ++r) {
        batch_out[r] = scorer.ScoreRow(chunk[r].data(), &scratch);
      }
    }
    loop_batch_ns += NowNs() - loop_t0;
    // Vectorized micro-batch path.
    const uint64_t batch_t0 = NowNs();
    for (const auto& chunk : chunks) {
      SAFE_RETURN_NOT_OK(scorer.ScoreBatch(chunk, &batch_out));
    }
    batch_ns += NowNs() - batch_t0;
  }
  report.naive = SummarizeSamples(&naive_samples);
  report.fused = SummarizeSamples(&fused_samples);
  if (batch_ns > 0) {
    report.batch_rows_per_s =
        static_cast<double>(opts.score_rows * opts.repeats) /
        (static_cast<double>(batch_ns) / 1e9);
  }
  if (loop_batch_ns > 0) {
    report.loop_batch_rows_per_s =
        static_cast<double>(opts.score_rows * opts.repeats) /
        (static_cast<double>(loop_batch_ns) / 1e9);
  }

  if (report.naive.rows_per_s > 0.0) {
    report.speedup = report.fused.rows_per_s / report.naive.rows_per_s;
    report.batch_speedup = report.batch_rows_per_s / report.naive.rows_per_s;
  }

  // Batch-size sweep: ScoreBatch throughput as rows-per-call varies.
  // Every size is first verified bit-identical to the fused per-row
  // outputs (block boundaries and ragged tails must never change
  // results), then timed over the whole scoring set.
  {
    std::vector<double> expected(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      expected[r] = scorer.ScoreRow(rows[r].data(), &scratch);
    }
    for (const size_t size : {size_t{1}, size_t{16}, size_t{64}, size_t{128},
                              size_t{256}, size_t{1024}}) {
      if (size > rows.size()) continue;
      std::vector<std::vector<std::vector<double>>> sweep_chunks;
      for (size_t begin = 0; begin < rows.size(); begin += size) {
        const size_t end = std::min(rows.size(), begin + size);
        sweep_chunks.emplace_back(rows.begin() + static_cast<long>(begin),
                                  rows.begin() + static_cast<long>(end));
      }
      // Warm + equivalence check, untimed.
      size_t checked = 0;
      for (const auto& chunk : sweep_chunks) {
        SAFE_RETURN_NOT_OK(scorer.ScoreBatch(chunk, &batch_out));
        for (size_t r = 0; r < chunk.size(); ++r, ++checked) {
          if (!SameOutput(expected[checked], batch_out[r])) {
            return Status::Internal(
                "serve bench: batch size " + std::to_string(size) +
                " diverged from the per-row path at row " +
                std::to_string(checked));
          }
        }
      }
      uint64_t best_ns = 0;
      for (size_t pass = 0; pass < std::max<size_t>(opts.repeats, 2); ++pass) {
        const uint64_t t0 = NowNs();
        for (const auto& chunk : sweep_chunks) {
          SAFE_RETURN_NOT_OK(scorer.ScoreBatch(chunk, &batch_out));
        }
        const uint64_t elapsed = NowNs() - t0;
        if (best_ns == 0 || elapsed < best_ns) best_ns = elapsed;
      }
      BatchSweepPoint point;
      point.batch_size = size;
      if (best_ns > 0) {
        point.rows_per_s = static_cast<double>(rows.size()) /
                           (static_cast<double>(best_ns) / 1e9);
      }
      report.sweep.push_back(point);
    }
  }

  // Recorder overhead on the fused path, from many short rounds. Each
  // round takes a slice of kOverheadRoundRows rows, scores it once
  // untimed (so both timed arms find it in cache), then times it armed
  // and disarmed, alternating which arm goes first. The gate reads
  // the median of the per-round armed/disarmed ratios: a preempted or
  // migrated round moves one ratio, not the estimate, where a ratio of
  // whole-pass minima follows whichever pass the host disturbed least.
  {
    constexpr size_t kOverheadRoundRows = 256;
    const bool was_armed = obs::FlightRecorder::armed();
    const size_t round_rows = std::min(kOverheadRoundRows, rows.size());
    const size_t slices = rows.size() / round_rows;
    const size_t rounds = 2 * std::max<size_t>(opts.repeats, 5) * slices;
    std::vector<double> ratios;
    std::vector<uint64_t> armed_ns;
    std::vector<uint64_t> disarmed_ns;
    ratios.reserve(rounds);
    armed_ns.reserve(rounds);
    disarmed_ns.reserve(rounds);
    auto score_slice = [&](size_t begin) {
      for (size_t r = begin; r < begin + round_rows; ++r) {
        const double proba = scorer.ScoreRow(rows[r].data(), &scratch);
        (void)proba;
      }
    };
    for (size_t round = 0; round < rounds; ++round) {
      const size_t begin = (round % slices) * round_rows;
      obs::FlightRecorder::Disarm();
      score_slice(begin);  // warm, untimed
      uint64_t elapsed[2] = {0, 0};  // [disarmed, armed]
      const bool armed_first = (round % 2) != 0;
      for (int half = 0; half < 2; ++half) {
        const bool arm = (half == 0) == armed_first;
        if (arm) {
          obs::FlightRecorder::Arm();
        } else {
          obs::FlightRecorder::Disarm();
        }
        const uint64_t t0 = NowNs();
        score_slice(begin);
        elapsed[arm ? 1 : 0] = NowNs() - t0;
      }
      if (elapsed[0] == 0 || elapsed[1] == 0) continue;
      disarmed_ns.push_back(elapsed[0]);
      armed_ns.push_back(elapsed[1]);
      ratios.push_back(static_cast<double>(elapsed[1]) /
                       static_cast<double>(elapsed[0]));
    }
    if (was_armed) {
      obs::FlightRecorder::Arm();
    } else {
      obs::FlightRecorder::Disarm();
    }
    if (!ratios.empty()) {
      report.recorder_overhead_pct = (UpperMedian(&ratios) - 1.0) * 100.0;
      const double scored = static_cast<double>(round_rows);
      report.fused_armed_rows_per_s =
          scored / (static_cast<double>(UpperMedian(&armed_ns)) / 1e9);
      report.fused_disarmed_rows_per_s =
          scored / (static_cast<double>(UpperMedian(&disarmed_ns)) / 1e9);
    }
  }

  // --- Scoring server under load (src/serve/server/) ---
  {
    server::ServerOptions server_options;
    server_options.num_shards = opts.server.num_shards;
    server_options.queue_capacity = opts.server.queue_capacity;
    server_options.max_batch_rows = opts.server.max_batch_rows;
    SAFE_ASSIGN_OR_RETURN(
        std::unique_ptr<server::ScoringServer> scoring_server,
        server::ScoringServer::Create(plan, booster, server_options));
    report.server_shards = scoring_server->num_shards();
    report.server_clients = opts.server.client_threads;
    report.server_batch_rows = opts.server.max_batch_rows;
    report.server_open_target_qps = opts.server.open_target_qps;

    // Server equivalence before any timing: mixed single-row and batch
    // requests, every response bit-compared to the fused per-row path
    // (which the earlier sweep already proved equal to the naive path).
    {
      std::vector<double> expected(rows.size());
      for (size_t r = 0; r < rows.size(); ++r) {
        expected[r] = scorer.ScoreRow(rows[r].data(), &scratch);
      }
      const size_t single_rows = std::min<size_t>(rows.size(), 512);
      for (size_t r = 0; r < single_rows; ++r) {
        SAFE_ASSIGN_OR_RETURN(const double proba,
                              scoring_server->Score(r, rows[r]));
        if (!SameOutput(expected[r], proba)) {
          return Status::Internal(
              "serve bench: server single-row response diverged from the "
              "fused path at row " +
              std::to_string(r));
        }
      }
      size_t checked = 0;
      for (size_t c = 0; c < chunks.size(); ++c) {
        SAFE_RETURN_NOT_OK(
            scoring_server->ScoreBatch(c, chunks[c], &batch_out));
        for (size_t r = 0; r < chunks[c].size(); ++r, ++checked) {
          if (!SameOutput(expected[checked], batch_out[r])) {
            return Status::Internal(
                "serve bench: server batch response diverged from the "
                "fused path at row " +
                std::to_string(checked));
          }
        }
      }
      report.server_outputs_identical = true;
    }

    const size_t clients = opts.server.client_threads;
    std::atomic<bool> failed{false};

    // Closed loop: each client keeps exactly one request outstanding, so
    // completions track the service rate and queues never saturate.
    {
      const size_t per_client = opts.server.closed_requests_per_client;
      std::vector<std::vector<uint64_t>> samples(clients);
      std::atomic<uint64_t> rejected{0};
      const uint64_t wall_t0 = NowNs();
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          std::vector<uint64_t>& mine = samples[c];
          mine.reserve(per_client);
          for (size_t i = 0; i < per_client; ++i) {
            const size_t r = (c * per_client + i) % rows.size();
            const uint64_t t0 = NowNs();
            const Result<double> proba =
                scoring_server->Score(c * per_client + i, rows[r]);
            if (!proba.ok()) {
              if (proba.status().code() == StatusCode::kUnavailable) {
                // lint: mo-ok(standalone tally, read only after the thread joins)
                rejected.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              // lint: mo-ok(standalone flag, read only after the thread joins)
              failed.store(true, std::memory_order_relaxed);
              return;
            }
            mine.push_back(NowNs() - t0);
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      const uint64_t wall_ns = NowNs() - wall_t0;
      // lint: mo-ok(joins above order every worker write before this read)
      if (failed.load(std::memory_order_relaxed)) {
        return Status::Internal("serve bench: closed-loop request failed");
      }
      std::vector<uint64_t> merged;
      for (const std::vector<uint64_t>& part : samples) {
        merged.insert(merged.end(), part.begin(), part.end());
      }
      report.server_closed =
          SummarizeLoad(&merged, wall_ns,
                        // lint: mo-ok(joins above order every worker write before this read)
                        rejected.load(std::memory_order_relaxed));
    }

    // Open loop: arrivals are scheduled on a fixed grid at the target
    // rate regardless of completions, and latency is measured from the
    // *scheduled* arrival — a server falling behind pays its backlog in
    // the tail instead of quietly slowing the generator down.
    {
      const size_t total = opts.server.open_requests;
      const double target_qps = std::max(1.0, opts.server.open_target_qps);
      const double ns_per_req = 1e9 / target_qps;
      std::vector<std::vector<uint64_t>> samples(clients);
      std::vector<uint64_t> last_done(clients, 0);
      std::atomic<uint64_t> rejected{0};
      // Start 1 ms out so no client begins behind its first arrival.
      const uint64_t start_ns = NowNs() + 1000000;
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (size_t i = c; i < total; i += clients) {
            const uint64_t arrival =
                start_ns +
                static_cast<uint64_t>(static_cast<double>(i) * ns_per_req);
            for (;;) {
              const uint64_t now = NowNs();
              if (now >= arrival) break;
              const uint64_t remaining = arrival - now;
              if (remaining > 200000) {
                // Sleep to within ~100 us of the arrival, then spin the
                // rest (sleep_for wakeups are too coarse for the grid).
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(remaining - 100000));
              } else {
                std::this_thread::yield();
              }
            }
            const Result<double> proba =
                scoring_server->Score(i, rows[i % rows.size()]);
            const uint64_t done = NowNs();
            if (!proba.ok()) {
              if (proba.status().code() == StatusCode::kUnavailable) {
                // lint: mo-ok(standalone tally, read only after the thread joins)
                rejected.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              // lint: mo-ok(standalone flag, read only after the thread joins)
              failed.store(true, std::memory_order_relaxed);
              return;
            }
            samples[c].push_back(done - arrival);
            last_done[c] = done;
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      // lint: mo-ok(joins above order every worker write before this read)
      if (failed.load(std::memory_order_relaxed)) {
        return Status::Internal("serve bench: open-loop request failed");
      }
      uint64_t end_ns = start_ns;
      for (const uint64_t done : last_done) end_ns = std::max(end_ns, done);
      std::vector<uint64_t> merged;
      for (const std::vector<uint64_t>& part : samples) {
        merged.insert(merged.end(), part.begin(), part.end());
      }
      report.server_open =
          SummarizeLoad(&merged, end_ns - start_ns,
                        // lint: mo-ok(joins above order every worker write before this read)
                        rejected.load(std::memory_order_relaxed));
    }

    scoring_server->Stop();
    const server::ServerStats server_stats = scoring_server->stats();
    if (server_stats.batches > 0) {
      report.server_mean_batch_fill =
          static_cast<double>(server_stats.completed_rows) /
          static_cast<double>(server_stats.batches);
    }
  }
  return report;
}

Result<ServingGate> ReadServingGate(const std::string& baseline_path) {
  std::ifstream in(baseline_path);
  if (!in) {
    return Status::IoError("cannot open gate baseline '" + baseline_path +
                           "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  obs::JsonValue doc;
  std::string error;
  if (!obs::JsonValue::Parse(buffer.str(), &doc, &error)) {
    return Status::InvalidArgument("gate baseline '" + baseline_path +
                                   "': " + error);
  }
  const obs::JsonValue* min_speedup = doc.Find("min_speedup");
  if (min_speedup == nullptr ||
      min_speedup->type() != obs::JsonValue::Type::kNumber) {
    return Status::InvalidArgument("gate baseline '" + baseline_path +
                                   "' lacks a numeric min_speedup");
  }
  ServingGate gate;
  gate.min_speedup = min_speedup->number_value();
  const obs::JsonValue* overhead = doc.Find("max_recorder_overhead_pct");
  if (overhead != nullptr) {
    if (overhead->type() != obs::JsonValue::Type::kNumber) {
      return Status::InvalidArgument(
          "gate baseline '" + baseline_path +
          "': max_recorder_overhead_pct must be a number");
    }
    gate.max_recorder_overhead_pct = overhead->number_value();
  }
  const obs::JsonValue* batch = doc.Find("min_batch_speedup");
  if (batch != nullptr) {
    if (batch->type() != obs::JsonValue::Type::kNumber) {
      return Status::InvalidArgument("gate baseline '" + baseline_path +
                                     "': min_batch_speedup must be a number");
    }
    gate.min_batch_speedup = batch->number_value();
  }
  const obs::JsonValue* qps = doc.Find("min_sustained_qps");
  if (qps != nullptr) {
    if (qps->type() != obs::JsonValue::Type::kNumber) {
      return Status::InvalidArgument("gate baseline '" + baseline_path +
                                     "': min_sustained_qps must be a number");
    }
    gate.min_sustained_qps = qps->number_value();
  }
  const obs::JsonValue* open_p50 = doc.Find("max_open_loop_p50_us");
  if (open_p50 != nullptr) {
    if (open_p50->type() != obs::JsonValue::Type::kNumber) {
      return Status::InvalidArgument(
          "gate baseline '" + baseline_path +
          "': max_open_loop_p50_us must be a number");
    }
    gate.max_open_loop_p50_us = open_p50->number_value();
  }
  return gate;
}

}  // namespace serve
}  // namespace safe
