// The serving benchmark's gate reader (bench/serve_bench.h): bench_serving
// fails CI on the thresholds it reads from bench/baselines/serving.json,
// so a malformed or missing file must be an error, never a silent pass.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "bench/serve_bench.h"

namespace safe {
namespace {

TEST(ServeBenchTest, GateBaselineIsReadable) {
  EXPECT_FALSE(serve::ReadServingGate("/nonexistent/serving.json").ok());

  // A baseline in the committed format parses all three gate knobs; the
  // overhead budget and batch floor stay optional (0 = disabled) for
  // older baselines.
  const std::string path = ::testing::TempDir() + "/serving_gate.json";
  {
    std::ofstream out(path);
    out << R"({"min_speedup": 2.0, "min_batch_speedup": 3.5,)"
        << R"( "max_recorder_overhead_pct": 3.0})";
  }
  auto gate = serve::ReadServingGate(path);
  ASSERT_TRUE(gate.ok()) << gate.status().ToString();
  EXPECT_EQ(gate->min_speedup, 2.0);
  EXPECT_EQ(gate->min_batch_speedup, 3.5);
  EXPECT_EQ(gate->max_recorder_overhead_pct, 3.0);
  {
    std::ofstream out(path);
    out << R"({"min_speedup": 1.5})";
  }
  auto legacy = serve::ReadServingGate(path);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->min_speedup, 1.5);
  EXPECT_EQ(legacy->min_batch_speedup, 0.0);
  EXPECT_EQ(legacy->max_recorder_overhead_pct, 0.0);
  {
    std::ofstream out(path);
    out << R"({"min_speedup": 1.5, "min_batch_speedup": "high"})";
  }
  EXPECT_FALSE(serve::ReadServingGate(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace safe
