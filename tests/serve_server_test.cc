// Concurrency/determinism suite for the sharded scoring server
// (src/serve/server/): N client threads x M shards, interleaved
// single-row and batch requests, every response byte-identical to a
// serial RowScorer oracle regardless of shard count, max_batch_rows,
// or where the cuts happen to land. Also locks down the backpressure
// contract (clean kUnavailable on saturation, caller buffers
// untouched), the shutdown drain (every accepted request completes),
// the max_batch_rows cap on every cut, and the serve.server.* telemetry
// namespace being disjoint from the library-call series. The tsan
// preset re-runs the whole suite under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/gbdt/booster.h"
#include "src/obs/metrics.h"
#include "src/serve/scorer.h"
#include "src/serve/server/scoring_server.h"
#include "tests/property_util.h"

namespace safe {
namespace {

using serve::server::ScoringServer;
using serve::server::ServerOptions;
using serve::server::ServerStats;

// A probability can never be negative, so an untouched output slot is
// distinguishable from every legitimate response.
constexpr double kSentinel = -1.0;

struct Fixture {
  Dataset data;
  FeaturePlan plan;
  gbdt::Booster booster;
  serve::RowScorer scorer;
  std::vector<std::vector<double>> rows;
  /// Serial RowScorer oracle, indexed like `rows`.
  std::vector<double> oracle;
};

Fixture MakeFixture(uint64_t seed) {
  Fixture f;
  f.data = testutil::MakePropertyDataset(seed);
  SafeParams params;
  params.seed = seed;
  SafeEngine engine(params);
  auto fit = engine.Fit(f.data);
  SAFE_CHECK(fit.ok()) << fit.status().ToString();
  f.plan = std::move(fit->plan);
  auto engineered = f.plan.Transform(f.data.x);
  SAFE_CHECK(engineered.ok()) << engineered.status().ToString();
  gbdt::GbdtParams gbdt_params;
  gbdt_params.seed = seed;
  gbdt_params.num_trees = 15;
  Dataset engineered_train{std::move(*engineered), f.data.y};
  auto booster = gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params);
  SAFE_CHECK(booster.ok()) << booster.status().ToString();
  f.booster = std::move(*booster);
  auto scorer = serve::RowScorer::Create(f.plan, f.booster);
  SAFE_CHECK(scorer.ok()) << scorer.status().ToString();
  f.scorer = std::move(*scorer);
  for (size_t r = 0; r < f.data.num_rows(); ++r) {
    f.rows.push_back(f.data.x.Row(r));
  }
  f.oracle.resize(f.rows.size());
  for (size_t r = 0; r < f.rows.size(); ++r) {
    auto score = f.scorer.Score(f.rows[r]);
    SAFE_CHECK(score.ok()) << score.status().ToString();
    f.oracle[r] = *score;
  }
  return f;
}

std::unique_ptr<ScoringServer> MakeServer(const Fixture& f, size_t shards,
                                          size_t max_batch_rows,
                                          size_t queue_capacity = 1024) {
  ServerOptions options;
  options.num_shards = shards;
  options.queue_capacity = queue_capacity;
  options.max_batch_rows = max_batch_rows;
  auto server = ScoringServer::Create(f.plan, f.booster, options);
  SAFE_CHECK(server.ok()) << server.status().ToString();
  return std::move(*server);
}

bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ServeServerTest, BitIdenticalAcrossShardCountsAndBatcherSettings) {
  Fixture f = MakeFixture(31);
  const size_t n = f.rows.size();
  // One-row cuts (B=1), a small cap and a wide one: very different
  // cut-point placements that must all be invisible in the outputs.
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    for (const size_t max_rows : {size_t{1}, size_t{4}, size_t{64}}) {
      std::unique_ptr<ScoringServer> server =
          MakeServer(f, shards, max_rows);
      // Four concurrent clients striped over the rows, so batches
      // actually coalesce rows from different requests.
      const size_t clients = 4;
      std::vector<double> got(n, kSentinel);
      std::vector<int> failures(clients, 0);
      std::vector<std::thread> threads;
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (size_t r = c; r < n; r += clients) {
            auto score = server->Score(r, f.rows[r]);
            if (!score.ok()) {
              failures[c] += 1;
              return;
            }
            got[r] = *score;
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      for (size_t c = 0; c < clients; ++c) {
        ASSERT_EQ(failures[c], 0)
            << "shards=" << shards << " B=" << max_rows << " client " << c;
      }
      for (size_t r = 0; r < n; ++r) {
        ASSERT_TRUE(SameBits(f.oracle[r], got[r]))
            << "shards=" << shards << " B=" << max_rows << " row " << r;
      }
      server->Stop();
      const ServerStats stats = server->stats();
      EXPECT_EQ(stats.accepted_requests, n);
      EXPECT_EQ(stats.completed_requests, n);
      EXPECT_EQ(stats.completed_rows, n);
      EXPECT_EQ(stats.rejected_requests, 0u);
    }
  }
}

TEST(ServeServerTest, BatchRequestsBitIdenticalAtAnyChunkSize) {
  Fixture f = MakeFixture(32);
  const size_t n = f.rows.size();
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    std::unique_ptr<ScoringServer> server = MakeServer(f, shards, 64);
    // Chunk sizes straddling max_batch_rows and the scorer's block
    // size, ragged tails included.
    for (const size_t chunk : {size_t{1}, size_t{3}, size_t{17}, size_t{129},
                               n}) {
      std::vector<double> got(n, kSentinel);
      for (size_t begin = 0; begin < n; begin += chunk) {
        const size_t end = std::min(n, begin + chunk);
        const std::vector<std::vector<double>> rows(
            f.rows.begin() + static_cast<long>(begin),
            f.rows.begin() + static_cast<long>(end));
        std::vector<double> out;
        ASSERT_TRUE(server->ScoreBatch(begin, rows, &out).ok());
        ASSERT_EQ(out.size(), rows.size());
        for (size_t i = 0; i < out.size(); ++i) got[begin + i] = out[i];
      }
      for (size_t r = 0; r < n; ++r) {
        ASSERT_TRUE(SameBits(f.oracle[r], got[r]))
            << "shards=" << shards << " chunk=" << chunk << " row " << r;
      }
    }
  }
}

TEST(ServeServerTest, ConcurrentMixedLoadNoLossNoDuplication) {
  Fixture f = MakeFixture(33);
  const size_t n = f.rows.size();
  for (const size_t shards : {size_t{2}, size_t{8}}) {
    std::unique_ptr<ScoringServer> server = MakeServer(f, shards, 16);
    // 8 clients, each alternating single-row and 5-row batch requests
    // over its stripe. Every row index is owned by exactly one request,
    // so the sentinel-initialized `got` array is a sequence-numbered
    // echo check: a dropped request leaves its sentinel behind, a
    // misrouted response writes the wrong bits for its slot.
    const size_t clients = 8;
    std::vector<double> got(n, kSentinel);
    std::vector<int> failures(clients, 0);
    std::vector<std::thread> threads;
    std::atomic<uint64_t> issued_requests{0};
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        size_t r = c * (n / clients);
        const size_t stop = (c + 1 == clients) ? n : (c + 1) * (n / clients);
        bool single = (c % 2) == 0;
        while (r < stop) {
          if (single) {
            auto score = server->Score(r, f.rows[r]);
            if (!score.ok()) {
              failures[c] += 1;
              return;
            }
            got[r] = *score;
            // lint: mo-ok(standalone tally, read only after the clients join)
            issued_requests.fetch_add(1, std::memory_order_relaxed);
            r += 1;
          } else {
            const size_t end = std::min(stop, r + 5);
            const std::vector<std::vector<double>> rows(
                f.rows.begin() + static_cast<long>(r),
                f.rows.begin() + static_cast<long>(end));
            std::vector<double> out;
            if (!server->ScoreBatch(r, rows, &out).ok() ||
                out.size() != rows.size()) {
              failures[c] += 1;
              return;
            }
            for (size_t i = 0; i < out.size(); ++i) got[r + i] = out[i];
            // lint: mo-ok(standalone tally, read only after the clients join)
            issued_requests.fetch_add(1, std::memory_order_relaxed);
            r = end;
          }
          single = !single;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t c = 0; c < clients; ++c) {
      ASSERT_EQ(failures[c], 0) << "shards=" << shards << " client " << c;
    }
    for (size_t r = 0; r < n; ++r) {
      ASSERT_TRUE(SameBits(f.oracle[r], got[r]))
          << "shards=" << shards << " row " << r;
    }
    server->Stop();
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.accepted_requests,
              // lint: mo-ok(clients joined above; final tally is visible)
              issued_requests.load(std::memory_order_relaxed));
    EXPECT_EQ(stats.completed_requests, stats.accepted_requests);
    EXPECT_EQ(stats.completed_rows, stats.accepted_rows);
    EXPECT_EQ(stats.accepted_rows, n);
    EXPECT_EQ(stats.rejected_requests, 0u);
    EXPECT_GT(stats.batches, 0u);
  }
}

TEST(ServeServerTest, SaturationRejectsCleanlyWithFullAccounting) {
  Fixture f = MakeFixture(34);
  const size_t n = f.rows.size();
  // A 2-slot queue on one shard. Two clients send ~2K-row ScoreBatch
  // requests, each of which keeps the worker busy for milliseconds;
  // meanwhile six single-row clients overflow admission, so rejections
  // are the steady state rather than a timing fluke. Every rejection
  // must be a clean kUnavailable that leaves the caller's output
  // untouched. Batch clients re-submit until their requests are in, so
  // the worker stays busy; single-row clients never retry.
  std::unique_ptr<ScoringServer> server =
      MakeServer(f, /*shards=*/1, /*max_batch_rows=*/128,
                 /*queue_capacity=*/2);
  const size_t batch_clients = 2;
  const size_t batches_per_client = 6;
  const size_t batch_rows = 2048;
  const size_t single_clients = 6;
  const size_t min_singles = 50;
  std::vector<std::vector<double>> batch(batch_rows);
  for (size_t i = 0; i < batch_rows; ++i) batch[i] = f.rows[i % n];

  std::atomic<uint64_t> batch_attempts{0};
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> ok_rows{0};
  std::atomic<uint64_t> rejected_count{0};
  std::atomic<uint64_t> wrong_status{0};
  std::atomic<uint64_t> wrong_output{0};
  std::atomic<uint64_t> batch_clients_left{batch_clients};
  // Each single-row attempt: its row and its output slot, which keeps
  // the sentinel when the request is rejected.
  std::vector<std::vector<std::pair<size_t, double>>> singles(single_clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < batch_clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t accepted = 0; accepted < batches_per_client;) {
        std::vector<double> out{kSentinel};
        // lint: mo-ok(standalone tally, read only after the clients join)
        batch_attempts.fetch_add(1, std::memory_order_relaxed);
        const Status status = server->ScoreBatch(c, batch, &out);
        if (status.ok()) {
          accepted += 1;
          // lint: mo-ok(standalone tally, read only after the clients join)
          ok_count.fetch_add(1, std::memory_order_relaxed);
          // lint: mo-ok(standalone tally, read only after the clients join)
          ok_rows.fetch_add(batch_rows, std::memory_order_relaxed);
          bool same = out.size() == batch_rows;
          for (size_t i = 0; same && i < batch_rows; ++i) {
            same = SameBits(f.oracle[i % n], out[i]);
          }
          // lint: mo-ok(standalone tally, read only after the clients join)
          if (!same) wrong_output.fetch_add(1, std::memory_order_relaxed);
        } else if (status.code() == StatusCode::kUnavailable) {
          // lint: mo-ok(standalone tally, read only after the clients join)
          rejected_count.fetch_add(1, std::memory_order_relaxed);
          if (out.size() != 1 || !SameBits(out[0], kSentinel)) {
            // lint: mo-ok(standalone tally, read only after the clients join)
            wrong_output.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          // lint: mo-ok(standalone tally, read only after the clients join)
          wrong_status.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      batch_clients_left.fetch_sub(1);
    });
  }
  for (size_t c = 0; c < single_clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < min_singles || batch_clients_left.load() > 0;
           ++i) {
        const size_t r = (c * min_singles + i) % n;
        singles[c].emplace_back(r, kSentinel);
        auto score = server->Score(r, f.rows[r]);
        if (score.ok()) {
          singles[c].back().second = *score;
          // lint: mo-ok(standalone tally, read only after the clients join)
          ok_count.fetch_add(1, std::memory_order_relaxed);
          // lint: mo-ok(standalone tally, read only after the clients join)
          ok_rows.fetch_add(1, std::memory_order_relaxed);
        } else if (score.status().code() == StatusCode::kUnavailable) {
          // lint: mo-ok(standalone tally, read only after the clients join)
          rejected_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          // lint: mo-ok(standalone tally, read only after the clients join)
          wrong_status.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server->Stop();

  EXPECT_EQ(wrong_status.load(), 0u);
  EXPECT_EQ(wrong_output.load(), 0u);
  uint64_t submitted = batch_attempts.load();
  for (const auto& attempts : singles) submitted += attempts.size();
  EXPECT_EQ(ok_count.load() + rejected_count.load(), submitted);
  // The tiny queue under eight clients must actually have saturated —
  // otherwise this test is not testing backpressure.
  EXPECT_GT(rejected_count.load(), 0u);
  EXPECT_GT(ok_count.load(), 0u);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.accepted_requests, ok_count.load());
  EXPECT_EQ(stats.completed_requests, ok_count.load());
  EXPECT_EQ(stats.accepted_rows, ok_rows.load());
  EXPECT_EQ(stats.completed_rows, ok_rows.load());
  EXPECT_EQ(stats.rejected_requests, rejected_count.load());
  // Echo check: accepted slots carry the oracle bits for their row,
  // rejected slots still carry the sentinel (output untouched).
  for (size_t c = 0; c < single_clients; ++c) {
    for (size_t i = 0; i < singles[c].size(); ++i) {
      const auto& [row, value] = singles[c][i];
      if (SameBits(value, kSentinel)) continue;  // was rejected
      ASSERT_TRUE(SameBits(f.oracle[row], value))
          << "client " << c << " request " << i;
    }
  }
}

TEST(ServeServerTest, CutNeverExceedsMaxBatchRows) {
  Fixture f = MakeFixture(39);
  const size_t n = f.rows.size();
  constexpr size_t kMaxRows = 4;
  // Eight single-row clients on one shard queue up more than kMaxRows
  // requests whenever the worker is busy; each drain still takes at
  // most kMaxRows rows.
  std::unique_ptr<ScoringServer> server = MakeServer(f, 1, kMaxRows);
  // The first cut registers the serve.server.* series.
  ASSERT_TRUE(server->Score(0, f.rows[0]).ok());
  const auto fill = [] {
    return obs::MetricsRegistry::Global()
        ->Snapshot()
        .histograms.at("serve.server.batch_fill");
  };
  const ServerStats stats_before = server->stats();
  const obs::HistogramSnapshot before = fill();
  const size_t clients = 8;
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t r = c; r < n; r += clients) {
        auto score = server->Score(r, f.rows[r]);
        if (!score.ok() || !SameBits(f.oracle[r], *score)) {
          // lint: mo-ok(standalone tally, read only after the clients join)
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server->Stop();
  const obs::HistogramSnapshot after = fill();

  EXPECT_EQ(wrong.load(), 0u);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.completed_rows - stats_before.completed_rows, n);
  EXPECT_EQ(after.count - before.count, stats.batches - stats_before.batches);
  // Buckets are powers of two and hold (bound[i-1], bound[i]]; every
  // bucket above the one bounded by kMaxRows, overflow included, must
  // be unchanged.
  ASSERT_EQ(after.counts.size(), before.counts.size());
  for (size_t i = 0; i < after.counts.size(); ++i) {
    if (i < after.upper_bounds.size() &&
        after.upper_bounds[i] <= static_cast<double>(kMaxRows)) {
      continue;
    }
    EXPECT_EQ(after.counts[i], before.counts[i])
        << "cuts above " << kMaxRows << " rows in bucket " << i;
  }
}

TEST(ServeServerTest, StopDrainsAcceptedAndRejectsNew) {
  Fixture f = MakeFixture(35);
  const size_t n = f.rows.size();
  std::unique_ptr<ScoringServer> server = MakeServer(f, 2, 32);
  // Clients submit in a loop while the main thread stops the server
  // mid-flight: every response is either correct or a clean
  // kUnavailable, and afterwards accepted == completed (the drain
  // leaves nothing behind).
  const size_t clients = 6;
  std::atomic<uint64_t> wrong_status{0};
  std::atomic<uint64_t> wrong_bits{0};
  std::atomic<bool> go_stop{false};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < 400; ++i) {
        const size_t r = (c * 400 + i) % n;
        auto score = server->Score(r, f.rows[r]);
        if (score.ok()) {
          if (!SameBits(f.oracle[r], *score)) {
            // lint: mo-ok(standalone tally, read only after the clients join)
            wrong_bits.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (score.status().code() != StatusCode::kUnavailable) {
          // lint: mo-ok(standalone tally, read only after the clients join)
          wrong_status.fetch_add(1, std::memory_order_relaxed);
        }
        if (i == 50 && c == 0) go_stop.store(true);
      }
    });
  }
  while (!go_stop.load()) std::this_thread::yield();
  server->Stop();
  // Stop is idempotent and "after Stop" always means fully drained.
  server->Stop();
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong_status.load(), 0u);
  EXPECT_EQ(wrong_bits.load(), 0u);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.completed_requests, stats.accepted_requests);
  EXPECT_EQ(stats.completed_rows, stats.accepted_rows);

  // Deterministic rejection: a stopped server refuses new work with
  // kUnavailable and leaves the caller's buffers untouched.
  auto after = server->Score(0, f.rows[0]);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  std::vector<double> out{kSentinel};
  const Status batch_after =
      server->ScoreBatch(0, {f.rows[0]}, &out);
  EXPECT_EQ(batch_after.code(), StatusCode::kUnavailable);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(SameBits(out[0], kSentinel));
}

TEST(ServeServerTest, StopRacingSubmitNeverStrandsARequest) {
  // Targets the narrow shutdown window: a Submit passes its stopping_
  // check, Stop() flips stopping_, and an idle worker with an empty
  // queue evaluates its exit condition — all concurrently. If the
  // worker keyed its exit off stopping_ instead of queue.closed(), it
  // could exit before the Submit's push lands, stranding an accepted
  // request whose caller then blocks forever (this test would hang).
  // Churn the whole lifecycle many times with sparse traffic so workers
  // sit at the exit check with empty queues when Stop() races in.
  Fixture f = MakeFixture(37);
  const size_t n = f.rows.size();
#ifdef __SANITIZE_THREAD__
  const size_t lifecycles = 40;
#else
  const size_t lifecycles = 150;
#endif
  for (size_t iter = 0; iter < lifecycles; ++iter) {
    // B=1: the worker cuts every request on its own, so between
    // requests it is exactly at the exit-condition check.
    std::unique_ptr<ScoringServer> server = MakeServer(f, 2, 1);
    const size_t clients = 3;
    std::atomic<uint64_t> wrong_status{0};
    std::atomic<uint64_t> wrong_bits{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = 0; i < 8; ++i) {
          const size_t r = (iter * 31 + c * 8 + i) % n;
          auto score = server->Score(r, f.rows[r]);
          if (score.ok()) {
            if (!SameBits(f.oracle[r], *score)) {
              // lint: mo-ok(standalone tally, read only after the clients join)
            wrong_bits.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (score.status().code() != StatusCode::kUnavailable) {
            // lint: mo-ok(standalone tally, read only after the clients join)
            wrong_status.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    // No handshake: Stop() races the very first submissions, and on
    // later iterations lands anywhere inside the 24-request burst.
    server->Stop();
    for (std::thread& thread : threads) thread.join();
    ASSERT_EQ(wrong_status.load(), 0u) << "iteration " << iter;
    ASSERT_EQ(wrong_bits.load(), 0u) << "iteration " << iter;
    const ServerStats stats = server->stats();
    ASSERT_EQ(stats.completed_requests, stats.accepted_requests)
        << "iteration " << iter;
    ASSERT_EQ(stats.completed_rows, stats.accepted_rows)
        << "iteration " << iter;
  }
}

TEST(ServeServerTest, RoundRobinOverloadsAndEdgeCases) {
  Fixture f = MakeFixture(36);
  std::unique_ptr<ScoringServer> server = MakeServer(f, 2, 8);
  EXPECT_EQ(server->num_shards(), 2u);
  EXPECT_EQ(server->num_inputs(), f.rows[0].size());

  // Route-free overloads round-robin across shards; results identical.
  for (size_t r = 0; r < std::min<size_t>(f.rows.size(), 32); ++r) {
    auto score = server->Score(f.rows[r]);
    ASSERT_TRUE(score.ok());
    EXPECT_TRUE(SameBits(f.oracle[r], *score)) << "row " << r;
  }
  std::vector<std::vector<double>> some(f.rows.begin(), f.rows.begin() + 7);
  std::vector<double> out;
  ASSERT_TRUE(server->ScoreBatch(some, &out).ok());
  for (size_t r = 0; r < out.size(); ++r) {
    EXPECT_TRUE(SameBits(f.oracle[r], out[r]));
  }

  // Empty batch: OK, empty output, nothing enqueued.
  std::vector<double> empty_out{kSentinel};
  ASSERT_TRUE(server->ScoreBatch(0, {}, &empty_out).ok());
  EXPECT_TRUE(empty_out.empty());

  // Wrong-width rows are InvalidArgument, not Unavailable.
  const std::vector<double> narrow(f.rows[0].size() - 1, 0.0);
  auto bad = server->Score(0, narrow);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  const Status bad_batch = server->ScoreBatch(0, {f.rows[0], narrow}, &out);
  EXPECT_EQ(bad_batch.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server->ScoreBatch(0, {f.rows[0]}, nullptr).code(),
            StatusCode::kInvalidArgument);

  // Zero-sized configuration fails Create outright.
  ServerOptions zero;
  zero.num_shards = 0;
  EXPECT_FALSE(ScoringServer::Create(f.plan, f.booster, zero).ok());
}

TEST(ServeServerTest, TelemetryServerSeriesDisjointFromLibrarySeries) {
  Fixture f = MakeFixture(37);  // fixture oracle touches serve.latency_us
  const size_t n = f.rows.size();
  std::unique_ptr<ScoringServer> server = MakeServer(f, 2, 16);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global()->Snapshot();
  // Server traffic only between the snapshots: singles + one batch.
  const size_t singles = std::min<size_t>(n, 64);
  for (size_t r = 0; r < singles; ++r) {
    ASSERT_TRUE(server->Score(r, f.rows[r]).ok());
  }
  std::vector<std::vector<double>> batch(f.rows.begin(),
                                         f.rows.begin() + 10);
  std::vector<double> out;
  ASSERT_TRUE(server->ScoreBatch(1, batch, &out).ok());
  server->Stop();
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global()->Snapshot();

  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) -> uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const auto histogram_count = [](const obs::MetricsSnapshot& snap,
                                  const std::string& name) -> uint64_t {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0 : it->second.count;
  };

  // The serve.server.* namespace carries exactly the server traffic...
  EXPECT_EQ(counter(after, "serve.server.requests") -
                counter(before, "serve.server.requests"),
            singles + 1);
  EXPECT_EQ(counter(after, "serve.server.rows") -
                counter(before, "serve.server.rows"),
            singles + batch.size());
  const uint64_t batches_delta = counter(after, "serve.server.batches") -
                                 counter(before, "serve.server.batches");
  EXPECT_GT(batches_delta, 0u);
  EXPECT_EQ(histogram_count(after, "serve.server.latency_us") -
                histogram_count(before, "serve.server.latency_us"),
            singles + 1);
  EXPECT_EQ(histogram_count(after, "serve.server.batch_fill") -
                histogram_count(before, "serve.server.batch_fill"),
            batches_delta);
  EXPECT_EQ(histogram_count(after, "serve.server.queue_depth") -
                histogram_count(before, "serve.server.queue_depth"),
            batches_delta);

  // ...and the library-call series are untouched by server traffic: the
  // shard workers score through BatchScorer blocks, never through the
  // RowScorer entry points that feed serve.latency_us and friends.
  for (const char* name : {"serve.latency_us", "serve.batch_latency_us"}) {
    EXPECT_EQ(histogram_count(after, name), histogram_count(before, name))
        << name;
  }
  for (const char* name : {"serve.rows", "serve.batch_rows"}) {
    EXPECT_EQ(counter(after, name), counter(before, name)) << name;
  }
}

TEST(ServeServerTest, StatsWorkWithoutTelemetry) {
  // ServerStats are this server's own plain atomics, read without the
  // process-wide metrics registry: the no-loss accounting holds on them.
  Fixture f = MakeFixture(38);
  std::unique_ptr<ScoringServer> server = MakeServer(f, 1, 4);
  const size_t requests = std::min<size_t>(f.rows.size(), 40);
  for (size_t r = 0; r < requests; ++r) {
    ASSERT_TRUE(server->Score(r, f.rows[r]).ok());
  }
  server->Stop();
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.accepted_requests, requests);
  EXPECT_EQ(stats.completed_requests, requests);
  EXPECT_EQ(stats.accepted_rows, requests);
  EXPECT_EQ(stats.completed_rows, requests);
  EXPECT_GT(stats.batches, 0u);
}

}  // namespace
}  // namespace safe
