// Serving-path benchmark: compiled FeaturePlan executor + fused GBDT
// scorer (src/serve/) against the naive two-step path
// (FeaturePlan::TransformRow + Booster::PredictRowProba). Emits a
// machine-readable BENCH_serving.json with per-path p50/p99 latency and
// rows/s (including the naive-loop batch pass, the vectorized ScoreBatch
// pass, and a batch-size sweep), and — when --gate points at a committed
// baseline file — exits non-zero if the fused/naive speedup falls below
// its "min_speedup" or the vectorized-batch/naive speedup falls below
// its "min_batch_speedup".
// The run aborts outright if any scored row is not bit-identical across
// the two paths (the equivalence contract of DESIGN.md "Serving path").
//
// The run also re-times the fused path with the flight recorder armed vs
// disarmed; when the gate file carries "max_recorder_overhead_pct",
// overhead above that ceiling fails the gate the same way a speedup
// shortfall does.
//
// The run also drives the sharded scoring server (src/serve/server/)
// with a closed-loop and an open-loop load generator (arrivals on a
// fixed grid at --open-qps; latency measured from the scheduled
// arrival, so backlog shows up in the tail). Server responses are
// verified bit-identical to the fused per-row path before timing. A
// "min_sustained_qps" key in the gate file puts a floor under the
// open-loop completion rate, and "max_open_loop_p50_us" a ceiling on
// the open-loop median latency.
//
// Flags: --quick --train_rows=N --features=M --rows=N --repeats=K
//        --batch=B --seed=S --out=BENCH_serving.json
//        --gate=bench/baselines/serving.json --report=path --trace=path
//        --server-shards=S --clients=C --server-queue=N --batch-rows=B
//        --closed-requests=N --open-requests=N --open-qps=Q

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "bench/serve_bench.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"

namespace safe {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Stopwatch total_watch;
  Flags flags(argc, argv);
  ArmTraceFromFlags(flags);

  serve::ServeBenchOptions options;
  options.quick = flags.GetBool("quick", false);
  options.train_rows = static_cast<size_t>(
      flags.GetInt("train_rows", static_cast<int64_t>(options.train_rows)));
  options.features = static_cast<size_t>(
      flags.GetInt("features", static_cast<int64_t>(options.features)));
  options.score_rows = static_cast<size_t>(
      flags.GetInt("rows", static_cast<int64_t>(options.score_rows)));
  options.repeats = static_cast<size_t>(
      flags.GetInt("repeats", static_cast<int64_t>(options.repeats)));
  options.batch_size = static_cast<size_t>(
      flags.GetInt("batch", static_cast<int64_t>(options.batch_size)));
  options.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int64_t>(options.seed)));
  serve::ServerLoadOptions& load = options.server;
  load.num_shards = static_cast<size_t>(flags.GetInt(
      "server-shards", static_cast<int64_t>(load.num_shards)));
  load.client_threads = static_cast<size_t>(
      flags.GetInt("clients", static_cast<int64_t>(load.client_threads)));
  load.queue_capacity = static_cast<size_t>(flags.GetInt(
      "server-queue", static_cast<int64_t>(load.queue_capacity)));
  load.max_batch_rows = static_cast<size_t>(flags.GetInt(
      "batch-rows", static_cast<int64_t>(load.max_batch_rows)));
  load.closed_requests_per_client = static_cast<size_t>(flags.GetInt(
      "closed-requests",
      static_cast<int64_t>(load.closed_requests_per_client)));
  load.open_requests = static_cast<size_t>(flags.GetInt(
      "open-requests", static_cast<int64_t>(load.open_requests)));
  load.open_target_qps =
      flags.GetDouble("open-qps", load.open_target_qps);

  auto report = serve::RunServeBench(options);
  if (!report.ok()) {
    std::cerr << "bench_serving: " << report.status().ToString() << "\n";
    return 1;
  }

  std::cout << "=== Serving: fused scorer vs naive TransformRow+Predict ===\n";
  std::cout << "workload: " << report->features << " input features -> "
            << report->generated << " generated -> " << report->outputs
            << " served, " << report->trees << " trees, "
            << report->score_rows << " rows x " << report->repeats
            << " passes\n";
  std::cout << "bit-identical outputs: "
            << (report->outputs_identical ? "yes" : "NO") << "\n\n";
  TablePrinter table({"path", "p50 us", "p99 us", "rows/s"}, {16, 9, 9, 12});
  table.PrintHeader();
  table.PrintRow({"naive", FormatDouble(report->naive.p50_us, 2),
                  FormatDouble(report->naive.p99_us, 2),
                  FormatDouble(report->naive.rows_per_s, 0)});
  table.PrintRow({"fused", FormatDouble(report->fused.p50_us, 2),
                  FormatDouble(report->fused.p99_us, 2),
                  FormatDouble(report->fused.rows_per_s, 0)});
  table.PrintRow({"loop batch", "-", "-",
                  FormatDouble(report->loop_batch_rows_per_s, 0)});
  table.PrintRow({"vector batch", "-", "-",
                  FormatDouble(report->batch_rows_per_s, 0)});
  table.PrintSeparator();
  std::cout << "speedup per-row " << FormatDouble(report->speedup, 2)
            << "x, batch " << FormatDouble(report->batch_speedup, 2)
            << "x (vs naive), "
            << FormatDouble(report->loop_batch_rows_per_s > 0.0
                                ? report->batch_rows_per_s /
                                      report->loop_batch_rows_per_s
                                : 0.0,
                            2)
            << "x (vs per-row loop)\n";
  std::cout << "batch sweep (block=" << report->block_rows << "):";
  for (const auto& point : report->sweep) {
    std::cout << " " << point.batch_size << "->"
              << FormatDouble(point.rows_per_s / 1000.0, 0) << "K/s";
  }
  std::cout << "\n";
  std::cout << "recorder overhead (fused, armed vs disarmed): "
            << FormatDouble(report->recorder_overhead_pct, 2) << "% ("
            << FormatDouble(report->fused_armed_rows_per_s, 0) << " vs "
            << FormatDouble(report->fused_disarmed_rows_per_s, 0)
            << " rows/s)\n";

  std::cout << "\n=== Scoring server: " << report->server_shards
            << " shards, " << report->server_clients << " clients, B="
            << report->server_batch_rows << " rows ===\n";
  std::cout << "bit-identical server responses: "
            << (report->server_outputs_identical ? "yes" : "NO")
            << ", mean batch fill "
            << FormatDouble(report->server_mean_batch_fill, 1) << " rows\n";
  TablePrinter server_table({"load", "p50 us", "p99 us", "qps", "rejected"},
                            {16, 9, 9, 12, 9});
  server_table.PrintHeader();
  server_table.PrintRow(
      {"closed loop", FormatDouble(report->server_closed.p50_us, 2),
       FormatDouble(report->server_closed.p99_us, 2),
       FormatDouble(report->server_closed.sustained_qps, 0),
       std::to_string(report->server_closed.rejected)});
  server_table.PrintRow(
      {"open loop", FormatDouble(report->server_open.p50_us, 2),
       FormatDouble(report->server_open.p99_us, 2),
       FormatDouble(report->server_open.sustained_qps, 0),
       std::to_string(report->server_open.rejected)});
  server_table.PrintSeparator();
  std::cout << "open loop target " << FormatDouble(
                   report->server_open_target_qps, 0)
            << " qps, sustained "
            << FormatDouble(report->server_open.sustained_qps, 0)
            << " qps\n";

  const std::string out_path = flags.GetString("out", "BENCH_serving.json");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_serving: cannot write '" << out_path << "'\n";
      return 1;
    }
    out << report->ToJson().Serialize();
    std::cout << "wrote " << out_path << "\n";
  }

  std::vector<std::pair<std::string, obs::JsonValue>> sections;
  sections.emplace_back("serving", report->ToJson());
  EmitRunReport(flags, "bench_serving", total_watch.ElapsedSeconds(),
                nullptr, false, &sections);

  const std::string gate_path = flags.GetString("gate", "");
  if (!gate_path.empty()) {
    auto gate = serve::ReadServingGate(gate_path);
    if (!gate.ok()) {
      std::cerr << "bench_serving: " << gate.status().ToString() << "\n";
      return 1;
    }
    if (report->speedup < gate->min_speedup) {
      std::cerr << "bench_serving: GATE FAILED — fused/naive speedup "
                << FormatDouble(report->speedup, 2) << "x is below the "
                << FormatDouble(gate->min_speedup, 2) << "x floor from '"
                << gate_path << "'\n";
      return 1;
    }
    std::cout << "gate ok: " << FormatDouble(report->speedup, 2)
              << "x >= " << FormatDouble(gate->min_speedup, 2) << "x ("
              << gate_path << ")\n";
    if (gate->min_batch_speedup > 0.0) {
      if (report->batch_speedup < gate->min_batch_speedup) {
        std::cerr << "bench_serving: GATE FAILED — batch/naive speedup "
                  << FormatDouble(report->batch_speedup, 2)
                  << "x is below the "
                  << FormatDouble(gate->min_batch_speedup, 2)
                  << "x floor from '" << gate_path << "'\n";
        return 1;
      }
      std::cout << "gate ok: batch " << FormatDouble(report->batch_speedup, 2)
                << "x >= " << FormatDouble(gate->min_batch_speedup, 2)
                << "x (" << gate_path << ")\n";
    }
    if (gate->max_recorder_overhead_pct > 0.0) {
      if (report->recorder_overhead_pct > gate->max_recorder_overhead_pct) {
        std::cerr << "bench_serving: GATE FAILED — recorder-armed overhead "
                  << FormatDouble(report->recorder_overhead_pct, 2)
                  << "% exceeds the "
                  << FormatDouble(gate->max_recorder_overhead_pct, 2)
                  << "% budget from '" << gate_path << "'\n";
        return 1;
      }
      std::cout << "gate ok: recorder overhead "
                << FormatDouble(report->recorder_overhead_pct, 2)
                << "% <= "
                << FormatDouble(gate->max_recorder_overhead_pct, 2)
                << "% (" << gate_path << ")\n";
    }
    if (gate->min_sustained_qps > 0.0) {
      if (report->server_open.sustained_qps < gate->min_sustained_qps) {
        std::cerr << "bench_serving: GATE FAILED — open-loop sustained "
                  << FormatDouble(report->server_open.sustained_qps, 0)
                  << " qps is below the "
                  << FormatDouble(gate->min_sustained_qps, 0)
                  << " qps floor from '" << gate_path << "'\n";
        return 1;
      }
      std::cout << "gate ok: sustained "
                << FormatDouble(report->server_open.sustained_qps, 0)
                << " qps >= "
                << FormatDouble(gate->min_sustained_qps, 0) << " qps ("
                << gate_path << ")\n";
    }
    if (gate->max_open_loop_p50_us > 0.0) {
      if (report->server_open.p50_us > gate->max_open_loop_p50_us) {
        std::cerr << "bench_serving: GATE FAILED — open-loop p50 "
                  << FormatDouble(report->server_open.p50_us, 2)
                  << " us exceeds the "
                  << FormatDouble(gate->max_open_loop_p50_us, 2)
                  << " us ceiling from '" << gate_path << "'\n";
        return 1;
      }
      std::cout << "gate ok: open-loop p50 "
                << FormatDouble(report->server_open.p50_us, 2) << " us <= "
                << FormatDouble(gate->max_open_loop_p50_us, 2) << " us ("
                << gate_path << ")\n";
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace safe

int main(int argc, char** argv) { return safe::bench::Main(argc, argv); }
