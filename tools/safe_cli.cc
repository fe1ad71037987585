// safe_cli — command-line driver for the SAFE feature-engineering library.
//
// Subcommands:
//   fit        learn a feature plan from a labelled CSV
//     safe_cli fit --train=train.csv --label=label --plan=plan.txt
//              [--method=SAFE|RAND|IMP|TFC|FCT|AUTOLEARN] [--iterations=1]
//              [--operators=add,sub,mul,div] [--max-output=0]
//              [--gamma=0] [--seed=42]
//   transform  apply a plan to a CSV (label column optional, passed through)
//     safe_cli transform --input=data.csv --plan=plan.txt --output=out.csv
//              [--label=label]
//   evaluate   AUC of a classifier on original vs plan-transformed features
//     safe_cli evaluate --train=train.csv --test=test.csv --label=label
//              --plan=plan.txt [--clf=XGB]
//   inspect    human-readable summary of a serialized plan
//     safe_cli inspect --plan=plan.txt
//   demo       end-to-end run on a synthetic workload (no files needed)
//     safe_cli demo [--rows=2000] [--features=10] [--seed=42]
//   trace      demo workload with the flight recorder armed; writes a
//              Chrome trace-event JSON for chrome://tracing / Perfetto
//     safe_cli trace [--rows=2000] [--features=10] [--seed=42]
//              [--out=trace.json]
//
// Every subcommand accepts --report=<path>: at exit the telemetry run
// report (metrics, trace spans, and — for fit/demo — the per-iteration
// funnel diagnostics) is written there as JSON and a summary table is
// printed (see DESIGN.md "Observability"). --trace=<path> arms the
// flight recorder for the run and drains every thread's event timeline
// to that path (DESIGN.md "Flight recorder"); the report's spans come
// from that recording, so they are empty unless --trace (or the trace
// subcommand) armed it.
//
// Exit code 0 on success; errors print the Status message to stderr.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "bench/harness.h"
#include "src/baselines/autolearn.h"
#include "src/baselines/fctree.h"
#include "src/baselines/feature_engineer.h"
#include "src/baselines/tfc.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/core/engine.h"
#include "src/data/synthetic.h"
#include "src/dataframe/csv.h"
#include "src/gbdt/booster.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace_export.h"
#include "src/stats/auc.h"

namespace safe {
namespace cli {
namespace {

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteWholeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << content;
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

int RunFit(const bench::Flags& flags) {
  const std::string train_path = flags.GetString("train", "");
  const std::string label = flags.GetString("label", "label");
  const std::string plan_path = flags.GetString("plan", "plan.txt");
  const std::string method_name = flags.GetString("method", "SAFE");
  if (train_path.empty()) return Fail("--train is required");

  auto train = ReadCsvDataset(train_path, label);
  if (!train.ok()) return Fail(train.status());
  std::cout << "loaded " << train->num_rows() << " rows x "
            << train->x.num_columns() << " features from " << train_path
            << "\n";

  std::unique_ptr<baselines::FeatureEngineer> method;
  const size_t m = train->x.num_columns();
  const auto max_output =
      static_cast<size_t>(flags.GetInt("max-output", 0));
  if (method_name == "TFC") {
    baselines::TfcParams params;
    params.operator_names = flags.GetList("operators", "add,sub,mul,div");
    params.num_iterations =
        static_cast<size_t>(flags.GetInt("iterations", 1));
    params.max_output_features = max_output;
    method = std::make_unique<baselines::TfcEngineer>(
        params, OperatorRegistry::Default());
  } else if (method_name == "AUTOLEARN") {
    baselines::AutoLearnParams params;
    params.max_output_features = max_output;
    params.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    method = std::make_unique<baselines::AutoLearnEngineer>(params);
  } else if (method_name == "FCT") {
    baselines::FcTreeParams params;
    params.operator_names = flags.GetList("operators", "add,sub,mul,div");
    params.max_output_features = max_output;
    params.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    method = std::make_unique<baselines::FcTreeEngineer>(
        params, OperatorRegistry::Default());
  } else {
    SafeParams params;
    params.operator_names = flags.GetList("operators", "add,sub,mul,div");
    params.num_iterations =
        static_cast<size_t>(flags.GetInt("iterations", 1));
    params.gamma = static_cast<size_t>(flags.GetInt("gamma", 0));
    params.max_output_features = max_output;
    params.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    if (method_name == "SAFE") {
      params.strategy = MiningStrategy::kTreePaths;
    } else if (method_name == "RAND") {
      params.strategy = MiningStrategy::kRandomPairs;
    } else if (method_name == "IMP") {
      params.strategy = MiningStrategy::kSplitFeaturePairs;
    } else {
      return Fail("unknown --method '" + method_name + "'");
    }
    method = std::make_unique<baselines::SafeEngineer>(
        params, OperatorRegistry::Default());
  }
  (void)m;

  Stopwatch watch;
  auto plan = method->FitPlan(*train, nullptr);
  if (!plan.ok()) return Fail(plan.status());
  std::cout << method->name() << " fit in " << watch.ElapsedSeconds()
            << "s: " << plan->selected().size() << " features selected ("
            << plan->NumSelectedGenerated() << " generated)\n";

  Status st = WriteWholeFile(plan_path, plan->Serialize());
  if (!st.ok()) return Fail(st);
  std::cout << "plan written to " << plan_path << "\n";

  const std::vector<IterationDiagnostics>* diagnostics = nullptr;
  if (const auto* safe_method =
          dynamic_cast<const baselines::SafeEngineer*>(method.get())) {
    diagnostics = &safe_method->last_diagnostics();
  }
  if (!bench::EmitRunReport(flags, "safe_cli fit", watch.ElapsedSeconds(),
                            diagnostics, /*print_table=*/true)) {
    return 1;
  }
  return 0;
}

int RunDemo(const bench::Flags& flags) {
  // Self-contained workload for telemetry inspection: synthesize a
  // labelled dataset, run the full SAFE pipeline, then train and score a
  // GBDT on the engineered features.
  data::SyntheticSpec spec;
  spec.num_rows = static_cast<size_t>(flags.GetInt("rows", 2000));
  spec.num_features = static_cast<size_t>(flags.GetInt("features", 10));
  spec.num_informative = std::max<size_t>(1, spec.num_features / 2);
  spec.num_interactions = 3;
  spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  auto data = data::MakeSyntheticDataset(spec);
  if (!data.ok()) return Fail(data.status());
  std::cout << "synthetic workload: " << data->num_rows() << " rows x "
            << data->x.num_columns() << " features\n";

  Stopwatch watch;
  SafeParams params;
  params.seed = spec.seed;
  SafeEngine engine(params);
  auto result = engine.Fit(*data);
  if (!result.ok()) return Fail(result.status());
  std::cout << "SAFE fit in " << watch.ElapsedSeconds() << "s: "
            << result->plan.selected().size() << " features selected ("
            << result->plan.NumSelectedGenerated() << " generated)\n";

  auto transformed = result->plan.Transform(data->x);
  if (!transformed.ok()) return Fail(transformed.status());
  gbdt::GbdtParams gbdt_params;
  gbdt_params.seed = spec.seed;
  Dataset engineered{std::move(*transformed), data->y};
  auto model = gbdt::Booster::Fit(engineered, nullptr, gbdt_params);
  if (!model.ok()) return Fail(model.status());
  auto scores = model->PredictProba(engineered.x);
  if (!scores.ok()) return Fail(scores.status());
  auto auc = Auc(*scores, data->labels());
  if (!auc.ok()) return Fail(auc.status());
  std::cout << "GBDT train AUC x100: " << FormatDouble(100.0 * *auc, 2)
            << "\n";

  if (!bench::EmitRunReport(flags, "safe_cli demo", watch.ElapsedSeconds(),
                            &result->iterations, /*print_table=*/true)) {
    return 1;
  }
  return 0;
}

int RunTrace(const bench::Flags& flags) {
  // Demo workload under an armed recorder: the resulting timeline shows
  // engine stages, pool task grains and GBDT histogram builds end to end
  // without requiring any input files.
  obs::FlightRecorder::Global()->SetCurrentThreadLabel("main");
  obs::FlightRecorder::Arm();
  const int rc = RunDemo(flags);
  obs::FlightRecorder::Disarm();
  if (rc != 0) return rc;
  const std::string out_path = flags.GetString("out", "trace.json");
  std::string error;
  if (!obs::WriteChromeTrace(out_path, &error)) return Fail(error);
  std::cout << "trace written to " << out_path
            << " (load in chrome://tracing or ui.perfetto.dev)\n";
  return 0;
}

int RunTransform(const bench::Flags& flags) {
  const std::string input_path = flags.GetString("input", "");
  const std::string plan_path = flags.GetString("plan", "plan.txt");
  const std::string output_path = flags.GetString("output", "");
  const std::string label = flags.GetString("label", "");
  if (input_path.empty() || output_path.empty()) {
    return Fail("--input and --output are required");
  }
  auto plan_text = ReadWholeFile(plan_path);
  if (!plan_text.ok()) return Fail(plan_text.status());
  auto plan = FeaturePlan::Deserialize(*plan_text);
  if (!plan.ok()) return Fail(plan.status());

  auto frame = ReadCsv(input_path);
  if (!frame.ok()) return Fail(frame.status());

  // Pop the label column (if named) so the feature schema matches.
  DataFrame features = *frame;
  Column label_column;
  bool has_label = false;
  if (!label.empty()) {
    auto idx = features.ColumnIndex(label);
    if (idx.ok()) {
      has_label = true;
      label_column = features.column(*idx);
      std::vector<size_t> keep;
      for (size_t c = 0; c < features.num_columns(); ++c) {
        if (c != *idx) keep.push_back(c);
      }
      auto selected = features.Select(keep);
      if (!selected.ok()) return Fail(selected.status());
      features = std::move(*selected);
    }
  }

  auto transformed = plan->Transform(features);
  if (!transformed.ok()) return Fail(transformed.status());
  DataFrame out = std::move(*transformed);
  if (has_label) {
    Status st = out.AddColumn(label_column);
    if (!st.ok()) return Fail(st);
  }
  Status st = WriteCsv(out, output_path);
  if (!st.ok()) return Fail(st);
  std::cout << "wrote " << out.num_rows() << " rows x " << out.num_columns()
            << " columns to " << output_path << "\n";
  return 0;
}

int RunEvaluate(const bench::Flags& flags) {
  const std::string train_path = flags.GetString("train", "");
  const std::string test_path = flags.GetString("test", "");
  const std::string label = flags.GetString("label", "label");
  const std::string plan_path = flags.GetString("plan", "plan.txt");
  const std::string clf_name = flags.GetString("clf", "XGB");
  if (train_path.empty() || test_path.empty()) {
    return Fail("--train and --test are required");
  }

  auto train = ReadCsvDataset(train_path, label);
  if (!train.ok()) return Fail(train.status());
  auto test = ReadCsvDataset(test_path, label);
  if (!test.ok()) return Fail(test.status());
  auto plan_text = ReadWholeFile(plan_path);
  if (!plan_text.ok()) return Fail(plan_text.status());
  auto plan = FeaturePlan::Deserialize(*plan_text);
  if (!plan.ok()) return Fail(plan.status());

  models::ClassifierKind kind = models::ClassifierKind::kXgboost;
  bool found = false;
  for (auto candidate : models::AllClassifierKinds()) {
    if (clf_name == models::ClassifierShortName(candidate)) {
      kind = candidate;
      found = true;
    }
  }
  if (!found) return Fail("unknown --clf '" + clf_name + "'");

  auto eval = [&](const DataFrame& train_x,
                  const DataFrame& test_x) -> Result<double> {
    auto clf = models::MakeClassifier(kind, 17);
    Dataset fit_train{train_x, train->y};
    SAFE_RETURN_NOT_OK(clf->Fit(fit_train));
    SAFE_ASSIGN_OR_RETURN(auto scores, clf->PredictScores(test_x));
    return Auc(scores, test->labels());
  };

  auto auc_orig = eval(train->x, test->x);
  if (!auc_orig.ok()) return Fail(auc_orig.status());
  auto train_z = plan->Transform(train->x);
  if (!train_z.ok()) return Fail(train_z.status());
  auto test_z = plan->Transform(test->x);
  if (!test_z.ok()) return Fail(test_z.status());
  auto auc_plan = eval(*train_z, *test_z);
  if (!auc_plan.ok()) return Fail(auc_plan.status());

  std::cout << clf_name << " AUC x100\n";
  std::cout << "  original: " << FormatDouble(100.0 * *auc_orig, 2) << "\n";
  std::cout << "  plan:     " << FormatDouble(100.0 * *auc_plan, 2) << "\n";
  std::cout << "  delta:    "
            << FormatDouble(100.0 * (*auc_plan - *auc_orig), 2) << "\n";
  if (!bench::EmitRunReport(flags, "safe_cli evaluate", 0.0, nullptr,
                            /*print_table=*/true)) {
    return 1;
  }
  return 0;
}

int RunInspect(const bench::Flags& flags) {
  const std::string plan_path = flags.GetString("plan", "plan.txt");
  auto plan_text = ReadWholeFile(plan_path);
  if (!plan_text.ok()) return Fail(plan_text.status());
  auto plan = FeaturePlan::Deserialize(*plan_text);
  if (!plan.ok()) return Fail(plan.status());

  std::cout << "plan: " << plan_path << "\n";
  std::cout << "  input schema: " << plan->input_columns().size()
            << " columns\n";
  std::cout << "  generated features: " << plan->generated().size() << "\n";
  std::cout << "  selected outputs: " << plan->selected().size() << " ("
            << plan->NumSelectedGenerated() << " generated, "
            << plan->selected().size() - plan->NumSelectedGenerated()
            << " original)\n";
  // Operator usage histogram.
  std::map<std::string, size_t> by_op;
  for (const auto& feature : plan->generated()) {
    by_op[feature.op] += 1;
  }
  if (!by_op.empty()) {
    std::cout << "  operators used:";
    for (const auto& [op, count] : by_op) {
      std::cout << " " << op << "x" << count;
    }
    std::cout << "\n";
  }
  std::cout << "  outputs:\n";
  for (const auto& name : plan->selected()) {
    std::cout << "    " << name << "\n";
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: safe_cli "
                 "<fit|transform|evaluate|inspect|demo|trace> "
                 "[--flags]\n"
                 "(see the header comment of tools/safe_cli.cc)\n";
    return 1;
  }
  const std::string command = argv[1];
  bench::Flags flags(argc, argv);
  // --trace=<path> arms the recorder for any subcommand; EmitRunReport
  // (via --report handling) drains it. The `trace` subcommand arms
  // unconditionally and writes to --out instead.
  bench::ArmTraceFromFlags(flags);
  if (command == "fit") return RunFit(flags);
  if (command == "transform") return RunTransform(flags);
  if (command == "evaluate") return RunEvaluate(flags);
  if (command == "inspect") return RunInspect(flags);
  if (command == "demo") return RunDemo(flags);
  if (command == "trace") return RunTrace(flags);
  return Fail("unknown command '" + command + "'");
}

}  // namespace
}  // namespace cli
}  // namespace safe

int main(int argc, char** argv) { return safe::cli::Main(argc, argv); }
