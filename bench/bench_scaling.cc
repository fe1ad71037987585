// Empirically checks the complexity claims of paper Section IV-D:
//   - SAFE's cost grows ~linearly in the number of records N (Eq. 13:
//     O(N * K1 * (K1 + K2)) for fixed tree budgets), and
//   - the cost is controlled by the number of miner trees K1.
// Also contrasts the growth in M (feature count) against TFC's O(N*M^2),
// and sweeps thread counts over (a) histogram GBDT training and (b) the
// full SAFE pipeline (mining, generation, IV filter, redundancy filter,
// importance ranking), checking the serialized model / FeaturePlan stays
// byte-identical at every count.
//
// A second personality, --external_memory, exercises the out-of-core
// chunked dataframe: it streams a dataset several times larger than the
// spill pool's resident budget through generation → quantize/train →
// IV → Pearson → feature generation, reports rows/s, spill traffic and
// peak RSS into the RunReport, and (with --gate=) enforces the committed
// bench/baselines/scaling.json ceilings.
//
// Flags: --quick --threads=1,2,4,8 --sweep_rows=N --engine_sweep_rows=N
//        --report=path
//        --external_memory [--budget_mb=N --rows=N --features=N
//                           --gate=bench/baselines/scaling.json]

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/data/synthetic.h"
#include "src/dataframe/spill.h"
#include "src/gbdt/booster.h"
#include "src/obs/metrics.h"
#include "src/stats/correlation.h"
#include "src/stats/iv.h"

namespace safe {
namespace bench {
namespace {

double TimeSafeFit(const Dataset& train, size_t miner_trees, uint64_t seed) {
  SafeParams params;
  params.seed = seed;
  params.miner.num_trees = miner_trees;
  baselines::SafeEngineer engineer(params);
  Stopwatch watch;
  auto plan = engineer.FitPlan(train, nullptr);
  SAFE_CHECK(plan.ok()) << plan.status().ToString();
  return watch.ElapsedSeconds();
}

Dataset MakeData(size_t rows, size_t features, uint64_t seed) {
  data::SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_features = features;
  spec.num_informative = std::max<size_t>(3, features / 4);
  spec.num_interactions = 3;
  spec.seed = seed;
  auto data = data::MakeSyntheticDataset(spec);
  SAFE_CHECK(data.ok());
  return *data;
}

/// Thread sweep over histogram GBDT training: fits the same large
/// synthetic workload at each thread count, reports wall time and
/// speedup vs 1 thread, and asserts the serialized models are
/// byte-identical — the determinism contract of DESIGN.md. Returns the
/// sweep as a JSON section for the telemetry RunReport.
obs::JsonValue ThreadSweep(const Flags& flags, bool quick) {
  const size_t rows = static_cast<size_t>(
      flags.GetInt("sweep_rows", quick ? 4000 : 20000));
  Dataset data = MakeData(rows, 20, 11);
  gbdt::GbdtParams params;
  params.num_trees = quick ? 10 : 30;
  params.max_depth = 6;
  params.max_bins = 256;

  std::cout << "=== Thread sweep: histogram GBDT training (" << rows
            << " rows x 20 features, " << params.num_trees
            << " trees) ===\n";
  TablePrinter table({"threads", "seconds", "speedup", "identical"},
                     {8, 9, 8, 10});
  table.PrintHeader();

  obs::JsonValue sweep = obs::JsonValue::Array();
  std::string reference_model;
  double base_seconds = 0.0;
  for (const std::string& t : flags.GetList("threads", "1,2,4,8")) {
    params.n_threads = static_cast<size_t>(std::stoul(t));
    Stopwatch watch;
    auto model = gbdt::Booster::Fit(data, nullptr, params);
    const double seconds = watch.ElapsedSeconds();
    SAFE_CHECK(model.ok()) << model.status().ToString();
    const std::string serialized = model->Serialize();
    if (reference_model.empty()) {
      reference_model = serialized;
      base_seconds = seconds;
    }
    const bool identical = serialized == reference_model;
    const double speedup = seconds > 0.0 ? base_seconds / seconds : 0.0;
    table.PrintRow({t, FormatDouble(seconds, 3), FormatDouble(speedup, 2),
                    identical ? "yes" : "NO"});
    SAFE_CHECK(identical)
        << "thread sweep: model at n_threads=" << t
        << " diverged from the 1-thread reference (determinism violation)";
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("threads", static_cast<double>(params.n_threads));
    entry.Set("seconds", seconds);
    entry.Set("speedup", speedup);
    entry.Set("identical", identical);
    sweep.Append(std::move(entry));
  }
  table.PrintSeparator();
  std::cout << "(models must be byte-identical at every thread count; "
               "speedup needs physical cores)\n\n";
  return sweep;
}

/// Thread sweep over the full SAFE pipeline: one SafeParams::n_threads
/// knob drives the miner/ranker boosters and every engine stage. Reports
/// total fit time plus the generation+selection wall-clock (the stages
/// the engine parallelizes outside GBDT training), asserts the
/// serialized FeaturePlan is byte-identical at every thread count, and
/// returns the sweep as a JSON section for the telemetry RunReport.
obs::JsonValue EngineThreadSweep(const Flags& flags, bool quick) {
  const size_t rows = static_cast<size_t>(
      flags.GetInt("engine_sweep_rows", quick ? 2000 : 8000));
  Dataset data = MakeData(rows, 16, 13);
  SafeParams params;
  params.seed = 7;
  params.miner.num_trees = quick ? 10 : 20;
  params.ranker.num_trees = quick ? 10 : 20;

  std::cout << "=== Thread sweep: full SAFE pipeline (" << rows
            << " rows x 16 features) ===\n";
  TablePrinter table(
      {"threads", "seconds", "speedup", "gensel_s", "gensel_x", "identical"},
      {8, 9, 8, 9, 9, 10});
  table.PrintHeader();

  obs::JsonValue sweep = obs::JsonValue::Array();
  std::string reference_plan;
  double base_seconds = 0.0;
  double base_gensel = 0.0;
  for (const std::string& t : flags.GetList("threads", "1,2,4,8")) {
    params.n_threads = static_cast<size_t>(std::stoul(t));
    SafeEngine engine(params);
    Stopwatch watch;
    auto fit = engine.Fit(data);
    const double seconds = watch.ElapsedSeconds();
    SAFE_CHECK(fit.ok()) << fit.status().ToString();
    const std::string serialized = fit->plan.Serialize();
    // Generation + selection wall-clock: every parallelized stage except
    // the two GBDT fits (mining trees, importance ranking), summed over
    // iterations from the engine's own stage timeline.
    double gensel = 0.0;
    obs::JsonValue stage_seconds = obs::JsonValue::Object();
    for (const auto& iter : fit->iterations) {
      for (const auto& stage : iter.stages) {
        if (stage.stage == "generate_features" ||
            stage.stage == "candidate_pool" || stage.stage == "iv_filter" ||
            stage.stage == "redundancy_filter") {
          gensel += stage.seconds;
        }
        stage_seconds.Set(stage.stage, stage.seconds);
      }
    }
    if (reference_plan.empty()) {
      reference_plan = serialized;
      base_seconds = seconds;
      base_gensel = gensel;
    }
    const bool identical = serialized == reference_plan;
    const double speedup = seconds > 0.0 ? base_seconds / seconds : 0.0;
    const double gensel_speedup = gensel > 0.0 ? base_gensel / gensel : 0.0;
    table.PrintRow({t, FormatDouble(seconds, 3), FormatDouble(speedup, 2),
                    FormatDouble(gensel, 3), FormatDouble(gensel_speedup, 2),
                    identical ? "yes" : "NO"});
    SAFE_CHECK(identical)
        << "engine thread sweep: FeaturePlan at n_threads=" << t
        << " diverged from the 1-thread reference (determinism violation)";
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("threads", static_cast<double>(params.n_threads));
    entry.Set("seconds", seconds);
    entry.Set("speedup", speedup);
    entry.Set("generation_selection_seconds", gensel);
    entry.Set("generation_selection_speedup", gensel_speedup);
    entry.Set("stage_seconds", std::move(stage_seconds));
    entry.Set("identical", identical);
    sweep.Append(std::move(entry));
  }
  table.PrintSeparator();
  std::cout << "(FeaturePlans must be byte-identical at every thread count; "
               "speedup needs physical cores)\n\n";
  return sweep;
}

// ---------------------------------------------------------------------------
// --external_memory mode
// ---------------------------------------------------------------------------

/// Ceilings for the external-memory run, committed in
/// bench/baselines/scaling.json and enforced by the bench-scaling CI job.
struct ScalingGate {
  double max_peak_rss_bytes = 0.0;       // 0 = disabled
  double min_external_rows_per_s = 0.0;  // 0 = disabled
  double max_spill_read_bytes = 0.0;     // 0 = disabled
  bool require_identical = false;
};

Result<ScalingGate> ReadScalingGate(const std::string& baseline_path) {
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
  ScalingGate gate;
  const obs::JsonValue* rss = doc.Find("max_peak_rss_bytes");
  if (rss == nullptr || rss->type() != obs::JsonValue::Type::kNumber) {
    return Status::InvalidArgument("gate baseline '" + baseline_path +
                                   "' lacks a numeric max_peak_rss_bytes");
  }
  gate.max_peak_rss_bytes = rss->number_value();
  const obs::JsonValue* rate = doc.Find("min_external_rows_per_s");
  if (rate != nullptr) {
    if (rate->type() != obs::JsonValue::Type::kNumber) {
      return Status::InvalidArgument(
          "gate baseline '" + baseline_path +
          "': min_external_rows_per_s must be a number");
    }
    gate.min_external_rows_per_s = rate->number_value();
  }
  const obs::JsonValue* read_back = doc.Find("max_spill_read_bytes");
  if (read_back != nullptr) {
    if (read_back->type() != obs::JsonValue::Type::kNumber) {
      return Status::InvalidArgument(
          "gate baseline '" + baseline_path +
          "': max_spill_read_bytes must be a number");
    }
    gate.max_spill_read_bytes = read_back->number_value();
  }
  const obs::JsonValue* identical = doc.Find("require_identical");
  if (identical != nullptr) {
    if (identical->type() != obs::JsonValue::Type::kBool) {
      return Status::InvalidArgument("gate baseline '" + baseline_path +
                                     "': require_identical must be a bool");
    }
    gate.require_identical = identical->bool_value();
  }
  return gate;
}

bool DoubleBitsEqual(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Byte-identity stage: the chunked/spilling path must reproduce the
/// monolithic path bit for bit on a small dataset — GBDT model bytes,
/// IV scores, Pearson correlations and the fitted FeaturePlan.
bool CheckOutputsIdentical() {
  Dataset dense = MakeData(3 * 4096, 8, 23);
  SpillPool::Options options;
  options.resident_budget_bytes = 4096 * sizeof(double);  // one row group
  auto pool = SpillPool::Create(options);
  SAFE_CHECK(pool.ok());
  Dataset chunked = ToChunkedDataset(dense, *pool, 4096);

  gbdt::GbdtParams gbdt_params;
  gbdt_params.num_trees = 8;
  gbdt_params.max_depth = 3;
  auto dense_model = gbdt::Booster::Fit(dense, nullptr, gbdt_params);
  auto chunked_model = gbdt::Booster::Fit(chunked, nullptr, gbdt_params);
  SAFE_CHECK(dense_model.ok()) << dense_model.status().ToString();
  SAFE_CHECK(chunked_model.ok()) << chunked_model.status().ToString();
  bool identical =
      dense_model->Serialize() == chunked_model->Serialize();

  identical = identical &&
              DoubleBitsEqual(InformationValueBatch(dense.x, *dense.y, 10),
                              InformationValueBatch(chunked.x, *chunked.y, 10));

  std::vector<size_t> others;
  for (size_t c = 1; c < dense.x.num_columns(); ++c) others.push_back(c);
  identical = identical &&
              DoubleBitsEqual(PearsonAgainst(dense.x, 0, others),
                              PearsonAgainst(chunked.x, 0, others));

  SafeParams safe_params;
  safe_params.seed = 23;
  safe_params.miner.num_trees = 8;
  safe_params.ranker.num_trees = 8;
  SafeEngine engine(safe_params);
  auto dense_fit = engine.Fit(dense);
  auto chunked_fit = engine.Fit(chunked);
  SAFE_CHECK(dense_fit.ok()) << dense_fit.status().ToString();
  SAFE_CHECK(chunked_fit.ok()) << chunked_fit.status().ToString();
  identical = identical &&
              dense_fit->plan.Serialize() == chunked_fit->plan.Serialize();
  return identical;
}

/// A small hand-built plan (pairwise {×,+,−,÷} over adjacent columns) to
/// exercise the streaming feature-generation path at scale.
FeaturePlan MakeGenerationPlan(size_t num_features, size_t num_generated) {
  std::vector<std::string> inputs;
  for (size_t c = 0; c < num_features; ++c) {
    inputs.push_back("f" + std::to_string(c));
  }
  const char* kOps[] = {"mul", "add", "sub", "div"};
  std::vector<GeneratedFeature> generated;
  std::vector<std::string> selected;
  for (size_t g = 0; g < num_generated; ++g) {
    GeneratedFeature feature;
    feature.op = kOps[g % 4];
    const size_t a = (2 * g) % num_features;
    const size_t b = (2 * g + 1) % num_features;
    feature.name = "g" + std::to_string(g);
    feature.parents = {inputs[a], inputs[b]};
    generated.push_back(feature);
    selected.push_back(feature.name);
  }
  auto plan = FeaturePlan::Create(std::move(inputs), std::move(generated),
                                  std::move(selected));
  SAFE_CHECK(plan.ok()) << plan.status().ToString();
  return *plan;
}

int ExternalMemoryMain(const Flags& flags, bool quick) {
  Stopwatch total_watch;
  const size_t budget_mb = static_cast<size_t>(
      flags.GetInt("budget_mb", quick ? 64 : 256));
  const size_t rows = static_cast<size_t>(
      flags.GetInt("rows", quick ? (1 << 20) : (1 << 23)));
  const size_t features =
      static_cast<size_t>(flags.GetInt("features", 32));
  const size_t group_rows = kDefaultRowGroupRows;
  const size_t budget_bytes = budget_mb << 20;
  const size_t dataset_bytes = rows * features * sizeof(double);

  std::cout << "=== External memory: " << rows << " rows x " << features
            << " features (" << (dataset_bytes >> 20)
            << " MiB) through a " << budget_mb
            << " MiB resident budget ===\n";

  std::cout << "byte-identity (chunked vs monolithic) ... " << std::flush;
  const bool outputs_identical = CheckOutputsIdentical();
  std::cout << (outputs_identical ? "identical\n" : "DIVERGED\n");

  SpillPool::Options options;
  options.resident_budget_bytes = budget_bytes;
  auto pool = SpillPool::Create(options);
  SAFE_CHECK(pool.ok()) << pool.status().ToString();

  data::SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_features = features;
  spec.num_informative = std::max<size_t>(3, features / 4);
  spec.num_interactions = 3;
  spec.missing_rate = 0.05;
  spec.seed = 29;

  TablePrinter table({"stage", "seconds", "rows/s"}, {18, 9, 12});
  table.PrintHeader();
  obs::JsonValue stages = obs::JsonValue::Array();
  double pipeline_seconds = 0.0;
  auto record_stage = [&](const std::string& name, double seconds) {
    pipeline_seconds += seconds;
    const double rate = seconds > 0.0 ? rows / seconds : 0.0;
    table.PrintRow({name, FormatDouble(seconds, 3),
                    FormatDouble(rate, 0)});
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("stage", name);
    entry.Set("seconds", seconds);
    entry.Set("rows_per_s", rate);
    stages.Append(std::move(entry));
  };

  Stopwatch watch;
  auto dataset = data::MakeSyntheticDatasetChunked(spec, *pool, group_rows);
  SAFE_CHECK(dataset.ok()) << dataset.status().ToString();
  record_stage("generate", watch.ElapsedSeconds());

  gbdt::GbdtParams gbdt_params;
  gbdt_params.num_trees = quick ? 4 : 8;
  gbdt_params.max_depth = 4;
  gbdt_params.max_bins = 64;
  watch.Restart();
  auto model = gbdt::Booster::Fit(*dataset, nullptr, gbdt_params);
  SAFE_CHECK(model.ok()) << model.status().ToString();
  record_stage("quantize+train", watch.ElapsedSeconds());

  watch.Restart();
  const std::vector<double> iv =
      InformationValueBatch(dataset->x, *dataset->y, 10);
  SAFE_CHECK(iv.size() == features);
  record_stage("iv_filter", watch.ElapsedSeconds());

  watch.Restart();
  std::vector<size_t> others;
  for (size_t c = 1; c < features; ++c) others.push_back(c);
  const std::vector<double> pearson =
      PearsonAgainst(dataset->x, 0, others);
  SAFE_CHECK(pearson.size() == others.size());
  record_stage("pearson", watch.ElapsedSeconds());

  watch.Restart();
  const FeaturePlan plan = MakeGenerationPlan(features, 8);
  auto generated = plan.Transform(dataset->x);
  SAFE_CHECK(generated.ok()) << generated.status().ToString();
  SAFE_CHECK(generated->HasChunkedColumns());
  record_stage("generate_features", watch.ElapsedSeconds());
  table.PrintSeparator();

  const double external_rows_per_s =
      pipeline_seconds > 0.0 ? rows / pipeline_seconds : 0.0;
  const uint64_t peak_rss = obs::PeakRssBytes();
  const SpillPoolStats spill = (*pool)->stats();
  std::cout << "pipeline: " << FormatDouble(pipeline_seconds, 2) << " s ("
            << FormatDouble(external_rows_per_s, 0) << " rows/s), peak RSS "
            << (peak_rss >> 20) << " MiB, spill wrote "
            << (spill.spill_write_bytes >> 20) << " MiB / read "
            << (spill.spill_read_bytes >> 20) << " MiB, " << spill.evictions
            << " evictions, " << spill.faults << " faults\n";
  std::cout << "dataset/budget ratio: "
            << FormatDouble(static_cast<double>(dataset_bytes) /
                                static_cast<double>(budget_bytes),
                            2)
            << "x\n\n";

  obs::JsonValue section = obs::JsonValue::Object();
  section.Set("rows", static_cast<double>(rows));
  section.Set("features", static_cast<double>(features));
  section.Set("group_rows", static_cast<double>(group_rows));
  section.Set("dataset_bytes", static_cast<double>(dataset_bytes));
  section.Set("budget_bytes", static_cast<double>(budget_bytes));
  section.Set("outputs_identical", outputs_identical);
  section.Set("stages", std::move(stages));
  section.Set("pipeline_seconds", pipeline_seconds);
  section.Set("external_rows_per_s", external_rows_per_s);
  section.Set("peak_rss_bytes", static_cast<double>(peak_rss));
  obs::JsonValue spill_json = obs::JsonValue::Object();
  spill_json.Set("evictions", static_cast<double>(spill.evictions));
  spill_json.Set("faults", static_cast<double>(spill.faults));
  spill_json.Set("write_bytes", static_cast<double>(spill.spill_write_bytes));
  spill_json.Set("read_bytes", static_cast<double>(spill.spill_read_bytes));
  spill_json.Set("file_bytes", static_cast<double>(spill.file_bytes));
  spill_json.Set("resident_bytes", static_cast<double>(spill.resident_bytes));
  spill_json.Set("num_groups", static_cast<double>(spill.num_groups));
  section.Set("spill", std::move(spill_json));

  std::vector<std::pair<std::string, obs::JsonValue>> sections;
  sections.emplace_back("external_memory", std::move(section));
  EmitRunReport(flags, "bench_scaling", total_watch.ElapsedSeconds(),
                nullptr, false, &sections);

  const std::string gate_path = flags.GetString("gate", "");
  if (!gate_path.empty()) {
    auto gate = ReadScalingGate(gate_path);
    if (!gate.ok()) {
      std::cerr << "bench_scaling: " << gate.status().ToString() << "\n";
      return 1;
    }
    bool failed = false;
    if (gate->require_identical && !outputs_identical) {
      std::cerr << "scaling gate failed: chunked outputs diverged from the "
                   "monolithic path\n";
      failed = true;
    }
    if (gate->max_peak_rss_bytes > 0 &&
        static_cast<double>(peak_rss) > gate->max_peak_rss_bytes) {
      std::cerr << "scaling gate failed: peak RSS " << peak_rss
                << " bytes exceeds ceiling "
                << FormatDouble(gate->max_peak_rss_bytes, 0) << "\n";
      failed = true;
    }
    if (gate->min_external_rows_per_s > 0 &&
        external_rows_per_s < gate->min_external_rows_per_s) {
      std::cerr << "scaling gate failed: " << FormatDouble(external_rows_per_s, 0)
                << " rows/s below floor "
                << FormatDouble(gate->min_external_rows_per_s, 0) << "\n";
      failed = true;
    }
    if (gate->max_spill_read_bytes > 0 &&
        static_cast<double>(spill.spill_read_bytes) >
            gate->max_spill_read_bytes) {
      std::cerr << "scaling gate failed: spill read-back "
                << spill.spill_read_bytes << " bytes exceeds ceiling "
                << FormatDouble(gate->max_spill_read_bytes, 0) << "\n";
      failed = true;
    }
    if (failed) return 1;
    std::cout << "scaling gate passed (" << gate_path << ")\n";
  }
  return 0;
}

int Main(int argc, char** argv) {
  Stopwatch total_watch;
  Flags flags(argc, argv);
  ArmTraceFromFlags(flags);
  const bool quick = flags.GetBool("quick", false);
  if (flags.GetBool("external_memory", false)) {
    return ExternalMemoryMain(flags, quick);
  }
  const double scale = quick ? 0.2 : 1.0;

  std::cout << "=== Scaling: SAFE fit time vs N (rows), Eq. 13 predicts "
               "~linear ===\n";
  TablePrinter rows_table({"N", "seconds", "sec/N x1e6"}, {8, 9, 11});
  rows_table.PrintHeader();
  for (size_t n : {2000, 4000, 8000, 16000, 32000}) {
    const size_t rows = static_cast<size_t>(n * scale);
    Dataset data = MakeData(rows, 12, 5);
    const double seconds = TimeSafeFit(data, 20, 3);
    rows_table.PrintRow({std::to_string(rows), FormatDouble(seconds, 3),
                         FormatDouble(1e6 * seconds / rows, 2)});
  }
  rows_table.PrintSeparator();
  std::cout << "(sec/N should stay roughly flat)\n\n";

  std::cout << "=== Scaling: SAFE fit time vs miner trees K1 ===\n";
  TablePrinter trees_table({"K1", "seconds"}, {6, 9});
  trees_table.PrintHeader();
  Dataset fixed = MakeData(static_cast<size_t>(8000 * scale), 12, 5);
  for (size_t k1 : {5, 10, 20, 40, 80}) {
    trees_table.PrintRow(
        {std::to_string(k1), FormatDouble(TimeSafeFit(fixed, k1, 3), 3)});
  }
  trees_table.PrintSeparator();
  std::cout << "(the paper: 'we can easily control ... the time complexity "
               "of the algorithm by controlling the total number of trees')\n\n";

  std::cout << "=== Scaling: SAFE vs TFC in M (features) ===\n";
  TablePrinter m_table({"M", "SAFE s", "TFC s"}, {6, 9, 9});
  m_table.PrintHeader();
  for (size_t m : {8, 16, 32, 64}) {
    Dataset data = MakeData(static_cast<size_t>(4000 * scale), m, 9);
    const double safe_seconds = TimeSafeFit(data, 20, 3);
    baselines::TfcParams tfc_params;
    baselines::TfcEngineer tfc(tfc_params);
    Stopwatch watch;
    auto plan = tfc.FitPlan(data, nullptr);
    const double tfc_seconds =
        plan.ok() ? watch.ElapsedSeconds() : -1.0;
    m_table.PrintRow({std::to_string(m), FormatDouble(safe_seconds, 3),
                      tfc_seconds < 0 ? "fail"
                                      : FormatDouble(tfc_seconds, 3)});
  }
  m_table.PrintSeparator();
  std::cout << "(TFC grows ~quadratically in M; SAFE stays governed by its "
               "tree budget)\n\n";

  obs::JsonValue sweep = ThreadSweep(flags, quick);
  obs::JsonValue engine_sweep = EngineThreadSweep(flags, quick);
  std::vector<std::pair<std::string, obs::JsonValue>> sections;
  sections.emplace_back("thread_sweep", std::move(sweep));
  sections.emplace_back("engine_thread_sweep", std::move(engine_sweep));
  EmitRunReport(flags, "bench_scaling", total_watch.ElapsedSeconds(),
                nullptr, false, &sections);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace safe

int main(int argc, char** argv) { return safe::bench::Main(argc, argv); }
