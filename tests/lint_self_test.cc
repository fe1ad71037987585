// Fixture-driven self test for safe_lint: one violating and one clean
// snippet per rule (plus the annotation escape hatches), asserting exact
// rule IDs and line numbers, and a whole-tree run that must be clean.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/lint/lint.h"

namespace safe {
namespace lint {
namespace {

/// Index over a fixture header declaring one Status and one Result
/// function — used by the SL005 cases.
DeclIndex FixtureIndex() {
  DeclIndex index;
  index.AddHeader(
      "Status SaveModel(const std::string& path);\n"
      "Result<std::vector<double>> Scores(int k);\n"
      "class Db {\n"
      " public:\n"
      "  Status Flush();\n"
      "};\n");
  return index;
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const auto& f : findings) rules.push_back(f.rule);
  return rules;
}

// ---------------------------------------------------------------- SL001

TEST(NondeterminismRule, FlagsRawEntropyOutsideCommon) {
  const DeclIndex index;
  const auto findings = AnalyzeSource("src/core/engine.cc",
                                      "int x = std::rand();\n"
                                      "std::random_device rd;\n"
                                      "long t = time(nullptr);\n",
                                      index);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, "SL001");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[1].line, 2u);
  EXPECT_EQ(findings[2].line, 3u);
}

TEST(NondeterminismRule, CleanInCommonAndOnLookalikes) {
  const DeclIndex index;
  // src/common/ hosts the seeded RNG — exempt by design.
  EXPECT_TRUE(AnalyzeSource("src/common/random.cc",
                            "std::random_device rd;\n", index)
                  .empty());
  // time_point / randomize are different tokens; time without a call is a
  // plain identifier.
  EXPECT_TRUE(AnalyzeSource("src/core/engine.cc",
                            "SteadyClock::time_point tp;\n"
                            "int randomize = 0;\n"
                            "double time_budget = time_limit;\n",
                            index)
                  .empty());
}

TEST(NondeterminismRule, AnnotationEscape) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource("src/core/engine.cc",
                            "// lint: nondeterminism-ok(wall time for the "
                            "run report only)\n"
                            "long t = time(nullptr);\n",
                            index)
                  .empty());
}

// ---------------------------------------------------------------- SL002

TEST(UnorderedRule, FlagsUnannotatedDeclaration) {
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/gbdt/trainer.cc",
      "#include <unordered_map>\n"
      "std::unordered_map<std::string, int> counts;\n",
      index);
  ASSERT_EQ(Rules(findings), std::vector<std::string>({"SL002"}));
  EXPECT_EQ(findings[0].line, 2u);  // the #include line is exempt
}

TEST(UnorderedRule, FlagsRangeForIteration) {
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/core/engine.cc",
      "std::unordered_set<int> seen;  // lint: unordered-ok(test decl)\n"
      "void F() {\n"
      "  for (int v : seen) {\n"
      "  }\n"
      "}\n",
      index);
  ASSERT_EQ(Rules(findings), std::vector<std::string>({"SL002"}));
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(UnorderedRule, ServeIsADeterministicDirectory) {
  // src/serve/ compiles plans whose instruction order is contractual, so
  // it sits inside the SL002 scan like core/stats/gbdt/baselines.
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/serve/compiled_plan.cc",
      "std::unordered_map<std::string, int> opcode_of;\n",
      index);
  ASSERT_EQ(Rules(findings), std::vector<std::string>({"SL002"}));
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_TRUE(AnalyzeSource("src/serve/scorer.cc",
                            "std::unordered_set<int> seen;  // lint: "
                            "unordered-ok(membership only)\n",
                            index)
                  .empty());
}

TEST(UnorderedRule, DataframeIsADeterministicDirectory) {
  // src/dataframe/ owns chunked storage and the spill pool; eviction
  // order and span iteration feed bit-identity guarantees, so it sits
  // inside the SL002 scan like core/stats/gbdt/baselines/serve.
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/dataframe/spill.cc",
      "std::unordered_map<uint64_t, size_t> slot_of;\n",
      index);
  ASSERT_EQ(Rules(findings), std::vector<std::string>({"SL002"}));
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_TRUE(AnalyzeSource("src/dataframe/dataframe.h",
                            "std::unordered_map<std::string, size_t> index_;"
                            "  // lint: unordered-ok(lookup only)\n",
                            index)
                  .empty());
  // SL001 covers it too: the spill pool's LRU must be insertion-ordered,
  // never clocked.
  const auto entropy = AnalyzeSource("src/dataframe/spill.cc",
                                     "long t = time(nullptr);\n", index);
  ASSERT_EQ(Rules(entropy), std::vector<std::string>({"SL001"}));
}

TEST(UnorderedRule, ServerSubtreeInheritsTheServeScan) {
  // The deterministic-directory scope keys on the first path component
  // under src/, so nested trees like src/serve/server/ (the scoring
  // server: shard routing and batch cut points must never reach the
  // outputs) are scanned without listing them separately.
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/serve/server/scoring_server.cc",
      "std::unordered_map<uint64_t, size_t> shard_of;\n",
      index);
  ASSERT_EQ(Rules(findings), std::vector<std::string>({"SL002"}));
  EXPECT_EQ(findings[0].line, 1u);
  // SL001 applies there too: the server never reads raw wall-clock time.
  const auto entropy = AnalyzeSource("src/serve/server/scoring_server.cc",
                                     "long t = time(nullptr);\n", index);
  ASSERT_EQ(Rules(entropy), std::vector<std::string>({"SL001"}));
}

TEST(UnorderedRule, CleanWhenAnnotatedOrOutOfScope) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource("src/stats/iv.cc",
                            "std::unordered_set<int> seen;  // lint: "
                            "unordered-ok(membership only)\n",
                            index)
                  .empty());
  // src/obs is outside the deterministic scope dirs.
  EXPECT_TRUE(AnalyzeSource("src/obs/metrics.cc",
                            "std::unordered_map<std::string, int> m;\n",
                            index)
                  .empty());
  // Ordered containers never trigger.
  EXPECT_TRUE(AnalyzeSource("src/core/engine.cc",
                            "std::map<std::string, int> ordered;\n"
                            "for (const auto& kv : ordered) Use(kv);\n",
                            index)
                  .empty());
}

// ---------------------------------------------------------------- SL003

TEST(StableSortRule, FlagsStableSort) {
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/core/selection.cc",
      "void F(std::vector<int>& v) {\n"
      "  std::stable_sort(v.begin(), v.end());\n"
      "}\n",
      index);
  ASSERT_EQ(Rules(findings), std::vector<std::string>({"SL003"}));
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(StableSortRule, CleanOnPlainSortAndAnnotated) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource("src/core/selection.cc",
                            "std::sort(v.begin(), v.end(), ByGainThenIdx);\n",
                            index)
                  .empty());
  EXPECT_TRUE(AnalyzeSource("src/core/selection.cc",
                            "// lint: stable-sort-ok(input order is itself "
                            "a documented total order here)\n"
                            "std::stable_sort(v.begin(), v.end());\n",
                            index)
                  .empty());
}

// ---------------------------------------------------------------- SL004

TEST(FpAtomicRule, FlagsFloatingPointAtomics) {
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/gbdt/trainer.cc",
      "std::atomic<double> sum{0.0};\n"
      "std::atomic< float > partial{0.f};\n",
      index);
  ASSERT_EQ(Rules(findings),
            std::vector<std::string>({"SL004", "SL004"}));
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[1].line, 2u);
}

TEST(FpAtomicRule, CleanOnIntegerAtomicsAndAnnotated) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource("src/gbdt/trainer.cc",
                            "std::atomic<uint64_t> rows{0};\n"
                            "std::atomic<bool> done{false};\n",
                            index)
                  .empty());
  EXPECT_TRUE(AnalyzeSource("src/obs/metrics.h",
                            "std::atomic<double> v;  // lint: "
                            "fp-atomic-ok(telemetry gauge)\n",
                            index)
                  .empty());
}

// ---------------------------------------------------------------- SL005

TEST(DiscardRule, IndexesStatusAndResultDeclarations) {
  const DeclIndex index = FixtureIndex();
  EXPECT_TRUE(index.Contains("SaveModel"));
  EXPECT_TRUE(index.Contains("Scores"));
  EXPECT_TRUE(index.Contains("Flush"));
  EXPECT_FALSE(index.Contains("Db"));
  EXPECT_EQ(index.size(), 3u);
}

TEST(DiscardRule, FlagsBareAndVoidCastDiscards) {
  const DeclIndex index = FixtureIndex();
  const auto findings = AnalyzeSource(
      "src/core/engine.cc",
      "void F(Db& db) {\n"
      "  SaveModel(\"m.bin\");\n"
      "  (void)Scores(3);\n"
      "  db.Flush();\n"
      "  if (dirty) db.Flush();\n"
      "}\n",
      index);
  ASSERT_EQ(Rules(findings),
            std::vector<std::string>({"SL005", "SL005", "SL005", "SL005"}));
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[1].line, 3u);
  EXPECT_EQ(findings[2].line, 4u);
  EXPECT_EQ(findings[3].line, 5u);
  EXPECT_NE(findings[1].message.find("(void)-discarded"), std::string::npos);
}

TEST(DiscardRule, CleanWhenConsumed) {
  const DeclIndex index = FixtureIndex();
  EXPECT_TRUE(AnalyzeSource(
                  "src/core/engine.cc",
                  "Status G(Db& db) {\n"
                  "  Status st = SaveModel(\"m.bin\");\n"
                  "  if (!st.ok()) return st;\n"
                  "  SAFE_RETURN_NOT_OK(db.Flush());\n"
                  "  auto scores = Scores(3);\n"
                  "  return SaveModel(\"again.bin\");\n"
                  "}\n",
                  index)
                  .empty());
}

TEST(DiscardRule, AnnotationEscape) {
  const DeclIndex index = FixtureIndex();
  EXPECT_TRUE(AnalyzeSource("src/core/engine.cc",
                            "void F(Db& db) {\n"
                            "  (void)db.Flush();  // lint: discard-ok("
                            "best-effort flush on shutdown path)\n"
                            "}\n",
                            index)
                  .empty());
}

// ---------------------------------------------------------------- SL006

TEST(MemoryOrderRule, FlagsEveryNonSeqCstOrder) {
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/common/queue.h",
      "a.store(1, std::memory_order_relaxed);\n"
      "b.load(std::memory_order_acquire);\n"
      "c.store(2, std::memory_order_release);\n"
      "d.fetch_add(1, std::memory_order_acq_rel);\n"
      "e.load(std::memory_order_consume);\n",
      index);
  ASSERT_EQ(Rules(findings),
            std::vector<std::string>(
                {"SL006", "SL006", "SL006", "SL006", "SL006"}));
  for (size_t i = 0; i < findings.size(); ++i) {
    EXPECT_EQ(findings[i].line, i + 1);
  }
}

TEST(MemoryOrderRule, SeqCstIsAlwaysClean) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource("src/common/queue.h",
                            "a.store(1, std::memory_order_seq_cst);\n"
                            "b.load();\n",
                            index)
                  .empty());
}

TEST(MemoryOrderRule, AnnotationEscape) {
  const DeclIndex index;
  // Trailing form covers its own line; own-line form covers the next.
  EXPECT_TRUE(AnalyzeSource(
                  "src/common/queue.h",
                  "a.store(1, std::memory_order_release);  // lint: "
                  "mo-ok(pairs with the consumer's acquire load)\n"
                  "// lint: mo-ok(pairs with the producer's release store)\n"
                  "b.load(std::memory_order_acquire);\n",
                  index)
                  .empty());
}

// ---------------------------------------------------------------- SL007

TEST(BareWaitRule, FlagsPredicatelessWaitOutsideLoop) {
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/serve/server/worker.cc",
      "void F() {\n"
      "  cv.wait(lock);\n"
      "  if (!ready) shard->cv.Wait(mutex);\n"
      "}\n",
      index);
  ASSERT_EQ(Rules(findings), std::vector<std::string>({"SL007", "SL007"}));
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[1].line, 3u);
}

TEST(BareWaitRule, LoopBodiesArePredicateForm) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource(
                  "src/serve/server/worker.cc",
                  "void F() {\n"
                  "  while (!ready) cv.wait(lock);\n"
                  "  while (queue.SizeApprox() == 0 && !stop) {\n"
                  "    shard->cv.Wait(shard->mutex);\n"
                  "  }\n"
                  "  for (; !ready;) cv.wait(lock);\n"
                  "  do { cv.wait(lock); } while (!ready);\n"
                  "}\n",
                  index)
                  .empty());
}

TEST(BareWaitRule, PredicateOverloadAndOtherTokensAreClean) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource(
                  "src/serve/server/worker.cc",
                  "void F() {\n"
                  "  cv.wait(lock, [&] { return ready; });\n"  // 2-arg form
                  "  cv.wait_until(lock, deadline);\n"         // distinct token
                  "  cv.WaitUntil(mutex, deadline);\n"
                  "  future.wait();\n"                         // zero-arg
                  "  wait(status);\n"                          // free function
                  "}\n",
                  index)
                  .empty());
}

TEST(BareWaitRule, AnnotationEscape) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource(
                  "src/common/sync.h",
                  "// lint: bare-wait-ok(primitive wrapper; callers loop)\n"
                  "cv_.wait(lock);\n",
                  index)
                  .empty());
}

// ---------------------------------------------------------------- SL008

TEST(IncludeLayeringRule, LayerRanksMatchTheDag) {
  EXPECT_EQ(LayerRank("common"), 0);
  EXPECT_EQ(LayerRank("obs"), 1);
  EXPECT_EQ(LayerRank("dataframe"), 2);
  EXPECT_EQ(LayerRank("stats"), 2);
  EXPECT_EQ(LayerRank("data"), 3);
  EXPECT_EQ(LayerRank("core"), 4);
  EXPECT_EQ(LayerRank("gbdt"), 4);
  EXPECT_EQ(LayerRank("models"), 4);
  EXPECT_EQ(LayerRank("baselines"), 4);
  EXPECT_EQ(LayerRank("serve"), 5);
  EXPECT_EQ(LayerRank("serve/server"), 6);
  // Nested unknown dirs inherit their first component; unknown roots are
  // outside the DAG.
  EXPECT_EQ(LayerRank("gbdt/kernels"), 4);
  EXPECT_EQ(LayerRank("lint"), -1);
  EXPECT_EQ(LayerRank(""), -1);
}

TEST(IncludeLayeringRule, FlagsUpwardInclude) {
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/core/engine.cc",
      "#include \"src/serve/scorer.h\"\n", index);
  ASSERT_EQ(Rules(findings), std::vector<std::string>({"SL008"}));
  EXPECT_EQ(findings[0].line, 1u);
}

TEST(IncludeLayeringRule, DownSameAndOutOfScopeAreClean) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource("src/serve/scorer.cc",
                            "#include \"src/common/status.h\"\n"
                            "#include \"src/serve/compiled_plan.h\"\n"
                            "#include <vector>\n",
                            index)
                  .empty());
  // tests/ and src/lint/ are outside the layer DAG.
  EXPECT_TRUE(AnalyzeSource("tests/some_test.cc",
                            "#include \"src/serve/server/scoring_server.h\"\n",
                            index)
                  .empty());
  EXPECT_TRUE(AnalyzeSource("src/lint/rules.cc",
                            "#include \"src/serve/scorer.h\"\n", index)
                  .empty());
  // Commented-out includes never register.
  EXPECT_TRUE(AnalyzeSource("src/core/engine.cc",
                            "// #include \"src/serve/scorer.h\"\n", index)
                  .empty());
}

TEST(IncludeLayeringRule, AnnotationEscape) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource(
                  "src/common/thread_pool.cc",
                  "// lint: layering-ok(telemetry instrumentation; acyclic "
                  "at file level)\n"
                  "#include \"src/obs/metrics.h\"\n",
                  index)
                  .empty());
}

TEST(IncludeCycles, DetectsAndReportsTheCyclePath) {
  FileSet files;
  files.emplace_back("src/common/a.h", "#include \"src/common/b.h\"\n");
  files.emplace_back("src/common/b.h", "#include \"src/common/c.h\"\n");
  files.emplace_back("src/common/c.h", "#include \"src/common/a.h\"\n");
  const auto findings = CheckIncludeCycles(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "SL008");
  EXPECT_NE(findings[0].message.find("include cycle"), std::string::npos);
  // The full path is in the message: a -> b -> c -> a.
  EXPECT_NE(findings[0].message.find("src/common/a.h -> src/common/b.h -> "
                                     "src/common/c.h -> src/common/a.h"),
            std::string::npos);
}

TEST(IncludeCycles, AcyclicGraphAndExternalTargetsAreClean) {
  FileSet files;
  files.emplace_back("src/common/a.h", "#include \"src/common/b.h\"\n");
  files.emplace_back("src/common/b.h",
                     "#include \"src/common/missing.h\"\n"  // not in set
                     "#include <vector>\n");
  EXPECT_TRUE(CheckIncludeCycles(files).empty());
}

TEST(IncludeGraph, FormatsEdgesWithRanksAndCycleReport) {
  FileSet files;
  files.emplace_back("src/serve/scorer.cc",
                     "#include \"src/common/status.h\"\n");
  const std::string graph = FormatIncludeGraph(files);
  EXPECT_NE(graph.find("src/serve(5) -> src/common(0) [1]"),
            std::string::npos);
  EXPECT_NE(graph.find("No file-level include cycles"), std::string::npos);
}

// ---------------------------------------------------------------- SL009

TEST(HotPathRule, FlagsAllocationMutexAndIo) {
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/serve/scorer.cc",
      "// lint: hot-path\n"
      "double Score(std::vector<double>& v) {\n"
      "  v.push_back(0.0);\n"
      "  double* p = new double[4];\n"
      "  std::lock_guard<std::mutex> lock(mu);\n"
      "  mu.lock();\n"
      "  std::cout << p[0];\n"
      "  return v[0];\n"
      "}\n",
      index);
  ASSERT_EQ(Rules(findings),
            std::vector<std::string>(
                {"SL009", "SL009", "SL009", "SL009", "SL009"}));
  EXPECT_EQ(findings[0].line, 3u);  // push_back
  EXPECT_EQ(findings[1].line, 4u);  // new
  EXPECT_EQ(findings[2].line, 5u);  // lock_guard
  EXPECT_EQ(findings[3].line, 6u);  // .lock()
  EXPECT_EQ(findings[4].line, 7u);  // cout
  EXPECT_NE(findings[0].message.find("allocates"), std::string::npos);
  EXPECT_NE(findings[2].message.find("takes a mutex"), std::string::npos);
  EXPECT_NE(findings[4].message.find("performs IO"), std::string::npos);
}

TEST(HotPathRule, CleanBodyAndUnmarkedFunctions) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource("src/serve/scorer.cc",
                            "// lint: hot-path\n"
                            "double Score(const double* row, double* out) {\n"
                            "  out[0] = row[0] * 2.0;\n"
                            "  return out[0];\n"
                            "}\n"
                            "void Cold(std::vector<double>& v) {\n"
                            "  v.push_back(0.0);\n"  // unmarked: fine
                            "}\n",
                            index)
                  .empty());
}

TEST(HotPathRule, ScanStopsAtTheBodyEnd) {
  const DeclIndex index;
  // The allocation after the marked function's closing brace is not its
  // problem.
  EXPECT_TRUE(AnalyzeSource("src/serve/scorer.cc",
                            "// lint: hot-path\n"
                            "double Score(const double* row) { return *row; }\n"
                            "void Setup(std::vector<double>& v) {\n"
                            "  v.resize(128);\n"
                            "}\n",
                            index)
                  .empty());
}

TEST(HotPathRule, AnnotationEscapesIndividualLines) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource(
                  "src/obs/recorder.h",
                  "// lint: hot-path\n"
                  "bool Record(std::vector<int>& ring) {\n"
                  "  if (ring.empty()) ring.resize(64);  // lint: "
                  "hot-path-ok(one-time lazy ring allocation)\n"
                  "  return true;\n"
                  "}\n",
                  index)
                  .empty());
}

TEST(HotPathRule, MarkerOnDeclarationIsANoOp) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource("src/serve/scorer.h",
                            "// lint: hot-path\n"
                            "double Score(std::vector<double>& v);\n"
                            "void Cold() { v.push_back(0.0); }\n",
                            index)
                  .empty());
}

// --------------------------------------------------------- marker grammar

TEST(MarkerGrammar, BareMarkerRegistersOnlyWhenAlone) {
  const SourceFile prose = SourceFile::Parse(
      "src/doc.h",
      "// the lint: hot-path marker forbids allocation\n"
      "int x;\n");
  EXPECT_FALSE(prose.HasMarker("hot-path", 2));

  const SourceFile marked = SourceFile::Parse("src/doc.h",
                                              "// lint: hot-path\n"
                                              "int f() { return 0; }\n");
  EXPECT_TRUE(marked.HasMarker("hot-path", 2));

  // `<key>-ok(...)` is an annotation, never a marker.
  const SourceFile ann = SourceFile::Parse(
      "src/doc.h", "// lint: hot-path-ok(lazy init)\nint x;\n");
  EXPECT_FALSE(ann.HasMarker("hot-path", 2));
  EXPECT_TRUE(ann.Allows("hot-path", 2));
}

TEST(MarkerGrammar, TrailingMarkerCoversItsOwnLine) {
  const SourceFile file = SourceFile::Parse(
      "src/doc.h", "int f() { return 0; }  // lint: hot-path\n");
  EXPECT_TRUE(file.HasMarker("hot-path", 1));
}

TEST(IncludeHarvesting, RecordsQuotedIncludesFromRawText) {
  const SourceFile file = SourceFile::Parse(
      "src/core/engine.cc",
      "#include \"src/common/status.h\"\n"
      "#include <vector>\n"
      "  #  include \"src/core/plan.h\"\n"
      "const char* fake = \"#include \\\"src/serve/scorer.h\\\"\";\n");
  ASSERT_EQ(file.includes().size(), 2u);
  EXPECT_EQ(file.includes()[0].target, "src/common/status.h");
  EXPECT_EQ(file.includes()[0].line, 1u);
  EXPECT_EQ(file.includes()[1].target, "src/core/plan.h");
  EXPECT_EQ(file.includes()[1].line, 3u);
}

// ------------------------------------------------------ annotation grammar

TEST(AnnotationGrammar, EmptyReasonDoesNotSuppress) {
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/core/selection.cc",
      "std::stable_sort(v.begin(), v.end());  // lint: stable-sort-ok()\n",
      index);
  EXPECT_EQ(Rules(findings), std::vector<std::string>({"SL003"}));
}

TEST(AnnotationGrammar, WrongKeyDoesNotSuppress) {
  const DeclIndex index;
  const auto findings = AnalyzeSource(
      "src/core/selection.cc",
      "std::stable_sort(v.begin(), v.end());  // lint: unordered-ok(nope)\n",
      index);
  EXPECT_EQ(Rules(findings), std::vector<std::string>({"SL003"}));
}

TEST(AnnotationGrammar, CommentOnlyLineCoversNextLine) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource("src/core/selection.cc",
                            "// lint: stable-sort-ok(fixture)\n"
                            "std::stable_sort(v.begin(), v.end());\n",
                            index)
                  .empty());
  // ...but not the line after next.
  const auto findings = AnalyzeSource(
      "src/core/selection.cc",
      "// lint: stable-sort-ok(fixture)\n"
      "int unrelated = 0;\n"
      "std::stable_sort(v.begin(), v.end());\n",
      index);
  EXPECT_EQ(Rules(findings), std::vector<std::string>({"SL003"}));
}

TEST(Findings, ToStringFormat) {
  Finding f{"SL003", "src/core/selection.cc", 12, "msg"};
  EXPECT_EQ(f.ToString(), "src/core/selection.cc:12: [SL003] msg");
}

TEST(Scrubbing, IgnoresCommentsAndStrings) {
  const DeclIndex index;
  EXPECT_TRUE(AnalyzeSource("src/core/engine.cc",
                            "// std::stable_sort(v.begin(), v.end());\n"
                            "const char* s = \"std::rand()\";\n"
                            "/* std::atomic<double> a; */\n",
                            index)
                  .empty());
}

// ------------------------------------------------------------- whole tree

#ifdef SAFE_REPO_ROOT
TEST(WholeTree, SrcToolsAndTestsAreClean) {
  // SL001..SL009 over the whole repo, include-cycle pass included.
  const auto findings = LintTree(SAFE_REPO_ROOT, {"src", "tools", "tests"});
  for (const auto& f : findings) {
    ADD_FAILURE() << f.ToString();
  }
  EXPECT_TRUE(findings.empty());
}

TEST(WholeTree, IncludeGraphHasNoCycles) {
  const FileSet files =
      CollectTreeFiles(SAFE_REPO_ROOT, {"src", "tools", "tests"});
  EXPECT_FALSE(files.empty());
  EXPECT_TRUE(CheckIncludeCycles(files).empty());
  EXPECT_NE(FormatIncludeGraph(files).find("No file-level include cycles"),
            std::string::npos);
}

TEST(WholeTree, IndexCoversKnownDeclarations) {
  const DeclIndex index = IndexHeaders(SAFE_REPO_ROOT);
  // Spot checks across subsystems: the SL005 rule is only as good as the
  // declaration index feeding it.
  for (const char* name :
       {"ReadCsv", "WriteCsv", "AddColumn", "Register", "Fit",
        "PredictScores", "InformationValue", "Auc", "ApplyOperator",
        "Transform", "ParseDouble", "KFoldSplit"}) {
    EXPECT_TRUE(index.Contains(name)) << name;
  }
}
#endif

}  // namespace
}  // namespace lint
}  // namespace safe
