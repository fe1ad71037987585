#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/fctree.h"
#include "src/baselines/feature_engineer.h"
#include "src/baselines/tfc.h"
#include "src/common/result.h"
#include "src/data/benchmark_suite.h"
#include "src/models/classifier.h"
#include "src/obs/json.h"

namespace safe {
namespace bench {

/// \brief Minimal --key=value flag parser for the macro-benchmark
/// binaries (google-benchmark owns the micro ones).
class Flags {
 public:
  Flags(int argc, char** argv);

  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Comma-separated list flag.
  std::vector<std::string> GetList(const std::string& key,
                                   const std::string& fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// \brief Fixed-width text table matching the paper's layout.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers,
                        std::vector<int> widths);
  void PrintHeader() const;
  void PrintRow(const std::vector<std::string>& cells) const;
  void PrintSeparator() const;

 private:
  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

/// Formats 100×AUC with two decimals, the paper's table convention.
std::string FormatAuc(double auc);

/// \brief Builds the feature-engineering method `name` (ORIG, FCT, TFC,
/// RAND, IMP, SAFE, NONSPLIT, AUTOLEARN) with the paper's experimental
/// settings:
/// one iteration, {+,−,×,÷}, output capped at 2·M.
Result<std::unique_ptr<baselines::FeatureEngineer>> MakeMethod(
    const std::string& name, size_t num_original_features, uint64_t seed);

/// The paper's method lineup for the benchmark tables.
std::vector<std::string> DefaultMethods();

/// \brief Builds evaluation classifiers. `quick` shrinks ensemble /
/// epoch counts so the full 12×6×9 sweep stays single-core feasible
/// (DESIGN.md Substitution 4); `!quick` uses the library defaults that
/// mirror scikit-learn's.
std::unique_ptr<models::Classifier> MakeEvalClassifier(
    models::ClassifierKind kind, uint64_t seed, bool quick);

/// \brief AUC of `clf` trained on plan-transformed train and scored on
/// plan-transformed test.
Result<double> EvaluatePlan(const FeaturePlan& plan,
                            const DatasetSplit& split,
                            models::Classifier* clf);

/// \brief Writes a telemetry RunReport (obs/report.h) to the path named
/// by the `--report=<path>` flag; a no-op when the flag is absent.
///
/// The report captures the global metrics registry, the flight
/// recorder's span timeline (empty unless --trace armed it),
/// `wall_seconds`, and (when non-null) the SAFE per-iteration funnel
/// diagnostics under an "iterations" section. Additional caller-built
/// top-level sections (e.g. bench_scaling's "thread_sweep") ride along in
/// `sections`. With `print_table` the human-readable summary also goes to
/// stdout. Returns false only when the flag was set and the write failed
/// (already logged).
bool EmitRunReport(const Flags& flags, const std::string& tool,
                   double wall_seconds = 0.0,
                   const std::vector<IterationDiagnostics>* iterations =
                       nullptr,
                   bool print_table = false,
                   const std::vector<std::pair<std::string, obs::JsonValue>>*
                       sections = nullptr);

/// \brief Arms the global flight recorder when `--trace=<path>` is set,
/// labelling the calling thread "main". Call at the top of a bench main;
/// EmitRunReport later disarms and drains every thread's timeline to the
/// flagged path as Chrome trace-event JSON (chrome://tracing / Perfetto).
/// Returns true when the recorder was armed.
bool ArmTraceFromFlags(const Flags& flags);

}  // namespace bench
}  // namespace safe
