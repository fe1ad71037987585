#include "perfbench/serve_workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "perfbench/ledger.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/serve/block_panel.h"
#include "src/serve/server/scoring_server.h"

namespace perfbench {

using safe::Result;
using safe::Status;
using safe::serve::BatchScorer;
using safe::serve::server::ScoringServer;

namespace {

constexpr size_t kBulkBatchRows = 1024;
constexpr size_t kRowGroup = 256;
/// Phases 1 and 2 cycle over this many request rows (about 1 MiB), few
/// enough to stay in a core's private cache: the rates measure the
/// kernels, not a last-level cache other tenants of the machine share.
constexpr size_t kHotRows = 4096;
/// Longest single window of the rate ladder, and the fewest passes.
constexpr double kMaxWindowSeconds = 0.1;
constexpr int kMinLadderPasses = 5;
constexpr double kInf = std::numeric_limits<double>::infinity();

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Waits until `due_ns`: sleeps until kSpinNs before it, then spins. A
/// generator that spun the whole time used up its share of a shared
/// host's CPU and was descheduled for milliseconds at a time, which
/// showed as multi-millisecond latency from the due time; the short spin
/// absorbs the sleep's wake-up delay.
void WaitUntil(uint64_t due_ns) {
  constexpr uint64_t kSpinNs = 200'000;
  const uint64_t now = NowNs();
  if (due_ns > now + kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - kSpinNs - now));
  }
  while (NowNs() < due_ns) std::this_thread::yield();
}

std::string Fixed(double value, int digits = 1) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(digits) << value;
  return out.str();
}

/// One open-loop run at a fixed arrival rate.
struct RateRun {
  double rate_qps = 0.0;
  double seconds = 0.0;
  uint64_t scheduled = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  std::vector<double> latency_us;  ///< from the due time; a reject is +inf
  std::vector<double> client_us;   ///< from the send time, accepted only
  std::vector<double> late_us;     ///< send time minus due time
  double busy_seconds = 0.0;       ///< schedule start to last completion

  double achieved_qps() const {
    return static_cast<double>(completed) / std::max(busy_seconds, seconds);
  }
  double p(double q) const {
    std::vector<double> v = latency_us;
    return Percentile(&v, q);
  }
};

/// Sends single-row requests on a fixed schedule: request k is due at
/// start + k / rate and goes out on generator k mod G, which blocks on
/// it. A generator that falls behind sends late requests immediately and
/// stops at the end of the window, so a stall shows as latency from the
/// due time, as lateness, and as missing completions.
RateRun RunRate(const ScoringServer& server, const ServingKit& kit,
                size_t generators, double rate_qps, double seconds,
                Checks* checks) {
  struct GeneratorOut {
    uint64_t completed = 0;
    uint64_t rejected = 0;
    uint64_t mismatched = 0;
    uint64_t last_done = 0;
    std::vector<double> latency_us, client_us, late_us;
  };
  // Sample buffers are sized before the schedule starts, so the timing
  // loop never calls into the allocator between requests.
  std::vector<GeneratorOut> outs(generators);
  const size_t per_generator =
      static_cast<size_t>(seconds * rate_qps / static_cast<double>(generators)) + 2;
  for (GeneratorOut& out : outs) {
    out.latency_us.reserve(per_generator);
    out.client_us.reserve(per_generator);
    out.late_us.reserve(per_generator);
  }
  const double interval_ns = 1e9 / rate_qps;
  const uint64_t start = NowNs() + 2'000'000;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  const size_t num_requests = kit.requests.size();

  std::vector<std::thread> threads;
  for (size_t g = 0; g < generators; ++g) {
    threads.emplace_back([&, g] {
      GeneratorOut& out = outs[g];
      for (uint64_t k = g;; k += generators) {
        const uint64_t due = start + static_cast<uint64_t>(k * interval_ns);
        if (due >= end || NowNs() >= end) break;
        WaitUntil(due);
        const uint64_t sent = NowNs();
        const size_t idx = k % num_requests;
        auto score = server.Score(idx, kit.requests[idx]);
        const uint64_t done = NowNs();
        out.last_done = done;
        out.late_us.push_back(static_cast<double>(sent - due) * 1e-3);
        if (!score.ok()) {
          ++out.rejected;
          out.latency_us.push_back(kInf);
          continue;
        }
        ++out.completed;
        if (!SameBits(*score, kit.reference[idx])) ++out.mismatched;
        out.latency_us.push_back(static_cast<double>(done - due) * 1e-3);
        out.client_us.push_back(static_cast<double>(done - sent) * 1e-3);
      }
    });
  }
  for (auto& t : threads) t.join();

  RateRun run;
  run.rate_qps = rate_qps;
  run.seconds = seconds;
  run.scheduled = static_cast<uint64_t>(std::ceil(seconds * rate_qps));
  for (const GeneratorOut& out : outs) {
    run.completed += out.completed;
    run.rejected += out.rejected;
    run.busy_seconds =
        std::max(run.busy_seconds, static_cast<double>(out.last_done - start) * 1e-9);
    run.latency_us.insert(run.latency_us.end(), out.latency_us.begin(),
                          out.latency_us.end());
    run.client_us.insert(run.client_us.end(), out.client_us.begin(),
                         out.client_us.end());
    run.late_us.insert(run.late_us.end(), out.late_us.begin(), out.late_us.end());
    // A rejected request is a failed operation (and missed the limit via
    // its +inf latency); a completed one must match the reference.
    checks->Record(out.completed + out.rejected, out.rejected,
                   "ScoringServer rejected requests");
    checks->Record(0, out.mismatched,
                   "server score differs from the interpreted reference");
  }
  return run;
}

[[nodiscard]] Result<std::unique_ptr<ScoringServer>> StartServer(
    const ServingKit& kit, const LoadOptions& load) {
  safe::serve::server::ServerOptions options;
  options.num_shards = load.shards;
  return ScoringServer::Create(kit.plan, kit.booster, options);
}

/// Counts rows whose score differs bitwise from `expected`.
uint64_t CountMismatches(const double* got, const double* expected, size_t n) {
  uint64_t bad = 0;
  for (size_t i = 0; i < n; ++i) bad += SameBits(got[i], expected[i]) ? 0 : 1;
  return bad;
}

using Batches = std::vector<std::vector<std::vector<double>>>;

/// The hot request rows cut into kBulkBatchRows-row batches.
Batches HotBatches(const ServingKit& kit) {
  const size_t hot_rows = std::min(kHotRows, kit.requests.size());
  Batches batches;
  for (size_t begin = 0; begin < hot_rows; begin += kBulkBatchRows) {
    const size_t end = std::min(hot_rows, begin + kBulkBatchRows);
    batches.emplace_back(kit.requests.begin() + begin, kit.requests.begin() + end);
  }
  return batches;
}

/// What one phase did over all its slices.
struct PhaseTally {
  std::vector<double> call_seconds;  ///< every timed call
  uint64_t items = 0;
  uint64_t mismatched = 0;
  double busy_seconds = 0.0;  ///< sum of call_seconds
};

/// One slice of a phase: calls score(i), timed, then check(i), untimed,
/// for i counting on from the phase's earlier calls, until `seconds` have
/// passed (at least one call). score returns the items it did; check
/// returns how many of them are wrong.
template <typename Score, typename Check>
void RunSlice(double seconds, PhaseTally* tally, const Score& score, const Check& check) {
  const double stop = NowSeconds() + seconds;
  do {
    const size_t i = tally->call_seconds.size();
    const double t0 = NowSeconds();
    tally->items += score(i);
    const double call_s = NowSeconds() - t0;
    tally->call_seconds.push_back(call_s);
    tally->busy_seconds += call_s;
    tally->mismatched += check(i);
  } while (NowSeconds() < stop);
}

/// Items per second of a phase at its median call, with the slow-tail
/// rate, the rate over all calls and the call count in the detail.
void AddRate(Report* report, bool in_result, const std::string& name,
             const PhaseTally& tally, double items_per_call) {
  const Summary s = Summarize(tally.call_seconds);
  const std::string detail =
      "slow p" + Fixed(s.tail_pct) + "=" + Fixed(items_per_call / s.tail, 0) +
      "/s, over all calls " +
      Fixed(static_cast<double>(tally.items) / tally.busy_seconds, 0) + "/s, n=" +
      std::to_string(s.n);
  report->Add(name, items_per_call / s.median, "1/s", detail, in_result);
}

/// p50 of the observations a histogram gained between two snapshots,
/// interpolated linearly inside the bucket that holds it.
double HistogramDeltaP50(const safe::obs::HistogramSnapshot& before,
                         const safe::obs::HistogramSnapshot& after) {
  std::vector<uint64_t> counts(after.counts.size(), 0);
  uint64_t total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = after.counts[i] - (i < before.counts.size() ? before.counts[i] : 0);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double target = 0.5 * static_cast<double>(total);
  double seen = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (seen + static_cast<double>(counts[i]) >= target && counts[i] > 0) {
      const double lo = i == 0 ? 0.0 : after.upper_bounds[i - 1];
      const double hi = i < after.upper_bounds.size() ? after.upper_bounds[i] : lo;
      return lo + (hi - lo) * (target - seen) / static_cast<double>(counts[i]);
    }
    seen += static_cast<double>(counts[i]);
  }
  return after.upper_bounds.back();
}

safe::obs::HistogramSnapshot ServerLatencyHistogram() {
  return safe::obs::MetricsRegistry::Global()
      ->histogram("serve.server.latency_us", safe::obs::DefaultLatencyBucketsUs())
      ->Snapshot();
}

}  // namespace

Result<ServingKit> BuildServingKit(const safe::FeaturePlan& plan,
                                   const safe::Dataset& train,
                                   const safe::Dataset& requests, size_t n_threads) {
  ServingKit kit;
  kit.plan = plan;
  SAFE_ASSIGN_OR_RETURN(safe::DataFrame transformed, plan.Transform(train.x));
  safe::Dataset booster_train;
  booster_train.x = std::move(transformed);
  booster_train.y = train.y;
  safe::gbdt::GbdtParams params;
  params.num_trees = 50;
  params.n_threads = n_threads;
  SAFE_ASSIGN_OR_RETURN(kit.booster,
                        safe::gbdt::Booster::Fit(booster_train, nullptr, params));
  SAFE_ASSIGN_OR_RETURN(kit.batch, BatchScorer::Create(plan, kit.booster));
  SAFE_ASSIGN_OR_RETURN(kit.row, safe::serve::RowScorer::Create(plan, kit.booster));
  kit.requests.reserve(requests.num_rows());
  for (size_t r = 0; r < requests.num_rows(); ++r) {
    kit.requests.push_back(requests.x.Row(r));
  }
  return kit;
}

Status ComputeReference(ServingKit* kit) {
  kit->reference.clear();
  for (const auto& row : kit->requests) {
    SAFE_ASSIGN_OR_RETURN(std::vector<double> features, kit->plan.TransformRow(row));
    kit->reference.push_back(kit->booster.PredictRowProba(features));
  }
  return Status::OK();
}

namespace {

/// Every window one ladder rung was run for. A latency statistic of the
/// rung is the first quartile, across its windows, of that statistic per
/// window: on a shared host a stretch of stolen CPU time puts a window's
/// p99 in milliseconds, and in busy hours that hit up to half the
/// windows, which made the median window swing from run to run. A change
/// to the server's own latency moves every window, the quiet ones too.
struct Rung {
  static constexpr double kQuietWindows = 25.0;
  double rate_qps = 0.0;
  std::vector<RateRun> windows;

  double Across(double q, double (*f)(const RateRun&)) const {
    std::vector<double> v;
    for (const RateRun& w : windows) v.push_back(f(w));
    return Percentile(&v, q);
  }
  double p50() const {
    return Across(kQuietWindows, [](const RateRun& w) { return w.p(50.0); });
  }
  double p99() const { return p99_across(kQuietWindows); }
  /// The q-th percentile, across windows, of the window p99.
  double p99_across(double q) const {
    return Across(q, [](const RateRun& w) { return w.p(99.0); });
  }
  double achieved_qps() const {
    return Across(50.0, [](const RateRun& w) { return w.achieved_qps(); });
  }
  double late_p99() const {
    return Across(kQuietWindows, [](const RateRun& w) {
      std::vector<double> late = w.late_us;
      return Percentile(&late, 99.0);
    });
  }
  double client_p50() const {
    return Across(kQuietWindows, [](const RateRun& w) {
      std::vector<double> client = w.client_us;
      return Percentile(&client, 50.0);
    });
  }
  /// A rung meets the limit when its p99 (as above) is within the limit,
  /// no window had a reject, and the median window completed >= 98% of
  /// the offered requests.
  bool MeetsLimit(double p99_limit_us) const {
    uint64_t rejected = 0;
    for (const RateRun& w : windows) rejected += w.rejected;
    const double completion = Across(50.0, [](const RateRun& w) {
      return static_cast<double>(w.completed) / static_cast<double>(w.scheduled);
    });
    return rejected == 0 && p99() <= p99_limit_us && completion >= 0.98;
  }
  size_t samples() const {
    size_t n = 0;
    for (const RateRun& w : windows) n += w.latency_us.size();
    return n;
  }
};

}  // namespace

void RunServePhases(const ServingKit& kit, const LoadOptions& load,
                    double seconds, bool traced_run, Report* report, Checks* checks) {
  // Phase 1 calls BatchScorer::ScoreRows on a hot batch; phase 2 scores
  // kRowGroup hot rows one at a time with RowScorer::ScoreRow.
  const Batches batches = HotBatches(kit);
  const size_t hot_rows = std::min(kHotRows, kit.requests.size());
  std::vector<double> out(kBulkBatchRows);
  safe::serve::RowScorer::Scratch row_scratch = kit.row.MakeScratch();
  auto score_batch = [&](size_t i) -> uint64_t {
    if (!kit.batch.ScoreRows(batches[i % batches.size()], &out).ok()) return 0;
    return out.size();
  };
  auto check_batch = [&](size_t i) -> uint64_t {
    const size_t which = i % batches.size();
    if (out.size() != batches[which].size()) return batches[which].size();
    return CountMismatches(out.data(), kit.reference.data() + which * kBulkBatchRows,
                           out.size());
  };
  auto first_row = [&](size_t i) { return i * kRowGroup % hot_rows; };
  auto score_rows = [&](size_t i) -> uint64_t {
    const size_t first = first_row(i);
    for (size_t r = 0; r < kRowGroup; ++r) {
      out[r] = kit.row.ScoreRow(kit.requests[(first + r) % hot_rows].data(), &row_scratch);
    }
    return kRowGroup;
  };
  auto check_rows = [&](size_t i) -> uint64_t {
    const size_t first = first_row(i);
    uint64_t bad = 0;
    for (size_t r = 0; r < kRowGroup; ++r) {
      bad += SameBits(out[r], kit.reference[(first + r) % hot_rows]) ? 0 : 1;
    }
    return bad;
  };
  PhaseTally bulk;
  PhaseTally row;

  auto server = StartServer(kit, load);
  if (!server.ok()) {
    checks->Expect(false, "ScoringServer::Create: " + server.status().ToString());
    return;
  }
  // Warm the shard workers and caches; not measured, still checked.
  RunRate(**server, kit, load.generators, load.light_qps, 0.1, checks);

  // The phases run in passes: a bulk slice, a row slice, then one short
  // window per ladder rung (the light and heavy rungs, whose p99 is
  // reported, twice as long). The speed of a core on a shared machine
  // drifts by up to 2x over seconds, so the two rates are taken over
  // slices spread across the whole run rather than one stretch of it. A
  // rung is summarized by the median over its windows, so the rare
  // multi-millisecond stalls decide no rung unless they hit most of its
  // windows.
  auto weight = [&](double rate) {
    return rate == load.light_qps || rate == load.heavy_qps ? 2.0 : 1.0;
  };
  double total_weight = 0.0;
  for (double rate : load.ladder_qps) total_weight += weight(rate);
  const double ladder_seconds = 0.8 * seconds;
  const double unit_seconds =
      std::min(kMaxWindowSeconds, ladder_seconds / (kMinLadderPasses * total_weight));
  const int passes = static_cast<int>(ladder_seconds / (unit_seconds * total_weight));
  const double slice_seconds = 0.1 * seconds / passes;
  std::vector<Rung> rungs(load.ladder_qps.size());
  for (int pass = 0; pass < passes; ++pass) {
    RunSlice(slice_seconds, &bulk, score_batch, check_batch);
    RunSlice(slice_seconds, &row, score_rows, check_rows);
    for (size_t r = 0; r < rungs.size(); ++r) {
      const double rate = load.ladder_qps[r];
      rungs[r].rate_qps = rate;
      rungs[r].windows.push_back(RunRate(**server, kit, load.generators, rate,
                                         unit_seconds * weight(rate), checks));
    }
  }
  (*server)->Stop();

  const Rung* light = nullptr;
  const Rung* heavy = nullptr;
  const Rung* best = nullptr;
  for (const Rung& rung : rungs) {
    const bool meets = rung.MeetsLimit(load.p99_limit_us);
    if (rung.rate_qps == load.light_qps) light = &rung;
    if (rung.rate_qps == load.heavy_qps) heavy = &rung;
    if (meets) best = &rung;
    std::cout << "  rung " << Fixed(rung.rate_qps, 0) << " qps: p50 "
              << Fixed(rung.p50()) << " us, p99 " << Fixed(rung.p99()) << " (median window "
              << Fixed(rung.p99_across(50.0)) << ")"
              << " us, late p99 " << Fixed(rung.late_p99()) << " us, client p50 "
              << Fixed(rung.client_p50()) << " us, achieved "
              << Fixed(rung.achieved_qps(), 0) << "/s, n=" << rung.samples()
              << (meets ? "" : "  [misses limit]") << "\n";
  }
  // A batch that failed to score did no items, so it counts as wrong.
  const uint64_t bulk_rows = bulk.call_seconds.size() * batches.front().size();
  checks->Record(bulk_rows, bulk_rows - bulk.items + bulk.mismatched,
                 "bulk ScoreRows vs the interpreted reference");
  checks->Record(row.items, row.mismatched, "RowScorer::ScoreRow vs the interpreted reference");
  // The untraced run reports the bulk and row rates and the light p50;
  // the traced run the server's tail (see NOTES.md for why).
  AddRate(report, !traced_run, "batch_rows_per_s", bulk,
          static_cast<double>(batches.front().size()));
  AddRate(report, !traced_run, "row_rows_per_s", row, static_cast<double>(kRowGroup));
  const std::string windows = "first quartile of " + std::to_string(passes) + " windows";
  report->Add("serve_p50_us", light->p50(), "us",
              "at " + Fixed(light->rate_qps, 0) + " qps, " + windows +
                  ", n=" + std::to_string(light->samples()),
              !traced_run);
  report->Add("server.p99_us", light->p99(), "us",
              "at " + Fixed(light->rate_qps, 0) + " qps, " + windows +
                  ", n=" + std::to_string(light->samples()),
              traced_run);
  report->Add("server.p99_us_heavy", heavy->p99(), "us",
              "at " + Fixed(heavy->rate_qps, 0) + " qps, " + windows +
                  ", n=" + std::to_string(heavy->samples()),
              traced_run);

  // A blocking generator offers at most one request per client round
  // trip, so G generators cap the offered rate at G / client p50. A rung
  // within 10% of that ceiling measures the generator, not the server.
  const Rung& at = best != nullptr ? *best : *light;
  const double ceiling_qps =
      static_cast<double>(load.generators) / (at.client_p50() * 1e-6);
  const bool generator_bound = at.rate_qps >= 0.9 * ceiling_qps;
  report->Add("server.max_qps", best ? best->achieved_qps() : 0.0, "1/s",
              "rung " + Fixed(best ? best->rate_qps : 0.0, 0) + ", generator ceiling " +
                  Fixed(ceiling_qps, 0) + "/s" +
                  (generator_bound ? ", GENERATOR-BOUND" : ", server-bound"),
              traced_run);
}

double RunServeTraced(const ServingKit& kit, const LoadOptions& load,
                      double seconds, Report* report, Checks* checks,
                      uint64_t* dropped_events) {
  using safe::obs::FlightRecorder;
  using safe::obs::FlightScope;
  const BatchScorer& batch = kit.batch;
  const safe::serve::CompiledPlan& plan = batch.plan();
  const size_t n = kit.requests.size();
  const size_t width = plan.num_inputs();
  constexpr size_t kStride = BatchScorer::kBlockRows;
  BatchScorer::Scratch scratch = batch.MakeScratch();
  std::vector<double> fused(n);
  std::vector<double> composed(n);
  std::vector<double> margins(kStride);

  // The fused block path, once: the bits the composition must match.
  for (size_t begin = 0; begin < n; begin += kStride) {
    batch.ScoreBlockMargin(kit.requests, begin, std::min(kStride, n - begin), &scratch,
                           fused.data() + begin);
  }

  // The same blocks as three separately spanned library calls, which must
  // reproduce ScoreBlockMargin bit for bit. Passes alternate between the
  // recorder disarmed and armed; the medians of the two sides give the
  // tracing overhead, and the armed passes the layer spans.
  std::map<std::string, SpanTotal> block_spans;
  std::vector<double> pass_s[2];
  uint64_t block_rows = 0;
  const double stop = NowSeconds() + 0.3 * seconds;
  for (size_t pass = 0; NowSeconds() < stop || pass_s[1].size() < 3; ++pass) {
    const bool traced = pass % 2 == 1;
    FlightRecorder::Global()->Clear();
    if (traced) FlightRecorder::Arm();
    const double t0 = NowSeconds();
    for (size_t begin = 0; begin < n; begin += kStride) {
      const size_t rows = std::min(kStride, n - begin);
      {
        FlightScope span("serve.panel");
        safe::serve::GatherBlock(kit.requests, begin, rows, width, kStride,
                                 scratch.panels.data());
      }
      {
        FlightScope span("serve.program");
        plan.ExecuteBlock(scratch.panels.data(), kStride, rows);
      }
      std::fill(margins.begin(), margins.begin() + rows, kit.booster.base_score());
      {
        FlightScope span("serve.forest");
        batch.forest().AccumulateMargins(scratch.panels.data(), kStride, rows,
                                         margins.data());
      }
      std::copy(margins.begin(), margins.begin() + rows, composed.begin() + begin);
    }
    pass_s[traced].push_back(NowSeconds() - t0);
    checks->Record(n, CountMismatches(composed.data(), fused.data(), n),
                   "GatherBlock->ExecuteBlock->AccumulateMargins vs ScoreBlockMargin");
    if (!traced) continue;
    FlightRecorder::Disarm();
    for (const auto& [name, total] : MainThreadSpans(dropped_events)) {
      block_spans[name].seconds += total.seconds;
      block_spans[name].count += total.count;
    }
    block_rows += n;
  }
  const double per_row_ns = 1e9 / static_cast<double>(block_rows);
  report->Add("serve.panel_ns_row", block_spans["serve.panel"].seconds * per_row_ns, "ns");
  report->Add("serve.program_ns_row", block_spans["serve.program"].seconds * per_row_ns,
              "ns");
  report->Add("serve.forest_ns_row", block_spans["serve.forest"].seconds * per_row_ns,
              "ns");

  // Row path: the compiled program alone, then the fused row score
  // (program + forest); the forest's share is the difference.
  safe::serve::RowScorer::Scratch row_scratch = kit.row.MakeScratch();
  std::vector<double> slots(plan.scratch_size());
  std::vector<double> features(plan.num_outputs());
  std::vector<double> row_margins(kRowGroup);
  std::map<std::string, SpanTotal> row_spans;
  uint64_t row_rows = 0;
  const double row_stop = NowSeconds() + 0.15 * seconds;
  while (NowSeconds() < row_stop || row_rows < n) {
    FlightRecorder::Global()->Clear();
    FlightRecorder::Arm();
    uint64_t mismatched = 0;
    for (size_t first = 0; first < n; first += kRowGroup) {
      const size_t rows = std::min(kRowGroup, n - first);
      {
        FlightScope span("serve.row_program");
        for (size_t i = 0; i < rows; ++i) {
          plan.Execute(kit.requests[first + i].data(), slots.data(), features.data());
        }
      }
      {
        FlightScope span("serve.row_fused");
        for (size_t i = 0; i < rows; ++i) {
          row_margins[i] =
              kit.row.ScoreRowMargin(kit.requests[first + i].data(), &row_scratch);
        }
      }
      mismatched += CountMismatches(row_margins.data(), fused.data() + first, rows);
    }
    FlightRecorder::Disarm();
    for (const auto& [name, total] : MainThreadSpans(dropped_events)) {
      row_spans[name].seconds += total.seconds;
      row_spans[name].count += total.count;
    }
    row_rows += n;
    checks->Record(n, mismatched, "RowScorer::ScoreRowMargin vs block margin");
  }
  const double program_s = row_spans["serve.row_program"].seconds;
  const double fused_s = row_spans["serve.row_fused"].seconds;
  report->Add("serve.row_program_ns", program_s * 1e9 / static_cast<double>(row_rows),
              "ns");
  report->Add("serve.row_forest_ns",
              (fused_s - program_s) * 1e9 / static_cast<double>(row_rows), "ns",
              "fused ScoreRowMargin minus Execute");

  // Server at the light rate with the recorder armed.
  auto server = StartServer(kit, load);
  if (!server.ok()) {
    checks->Expect(false, "ScoringServer::Create: " + server.status().ToString());
    return 0.0;
  }
  RunRate(**server, kit, load.generators, load.light_qps, 0.1, checks);
  const safe::serve::server::ServerStats stats_before = (*server)->stats();
  const safe::obs::HistogramSnapshot hist_before = ServerLatencyHistogram();
  FlightRecorder::Global()->Clear();
  FlightRecorder::Arm();
  const RateRun run = RunRate(**server, kit, load.generators, load.light_qps,
                              0.3 * seconds, checks);
  FlightRecorder::Disarm();
  MainThreadSpans(dropped_events);
  const safe::serve::server::ServerStats stats = (*server)->stats();
  const double server_p50_us =
      HistogramDeltaP50(hist_before, ServerLatencyHistogram());
  (*server)->Stop();
  const uint64_t batches = stats.batches - stats_before.batches;
  const double fill =
      batches == 0 ? 0.0
                   : static_cast<double>(stats.completed_rows - stats_before.completed_rows) /
                         static_cast<double>(batches);

  // Library block time at that fill: ScoreBlockPtrs on as many rows.
  const size_t fill_rows =
      std::clamp<size_t>(static_cast<size_t>(std::lround(fill)), 1, std::min(kStride, n));
  std::vector<const double*> ptrs;
  for (size_t i = 0; i < fill_rows; ++i) ptrs.push_back(kit.requests[i].data());
  std::vector<double> block_out(fill_rows);
  std::vector<double> block_us;
  for (int rep = 0; rep < 2000; ++rep) {
    const double t0 = NowSeconds();
    batch.ScoreBlockPtrs(ptrs.data(), fill_rows, &scratch, block_out.data());
    block_us.push_back((NowSeconds() - t0) * 1e6);
  }
  const double block_p50_us = Percentile(&block_us, 50.0);
  std::vector<double> client = run.client_us;
  const double client_p50_us = Percentile(&client, 50.0);
  std::vector<double> late = run.late_us;
  report->Add("server.batch_fill", fill, "rows");
  report->Add("server.latency_p50_us", server_p50_us, "us",
              "serve.server.latency_us histogram, enqueue to completion");
  report->Add("server.wait_us", server_p50_us - block_p50_us, "us",
              "block time at fill " + std::to_string(fill_rows) + ": " +
                  Fixed(block_p50_us, 2) + " us");
  report->Add("server.client_us", client_p50_us - server_p50_us, "us");
  report->Add("server.reject_ratio",
              static_cast<double>(run.rejected) /
                  static_cast<double>(std::max<uint64_t>(1, run.latency_us.size())),
              "ratio");
  report->Add("loadgen.late_p99_us", Percentile(&late, 99.0), "us");
  report->Add("loadgen.ceiling_qps",
              static_cast<double>(load.generators) / (client_p50_us * 1e-6), "1/s",
              "generator threads / client p50");

  const double plain_s = Summarize(pass_s[0]).median;
  return 100.0 * (Summarize(pass_s[1]).median - plain_s) / plain_s;
}

}  // namespace perfbench
