#include "src/obs/metrics.h"

#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"

namespace safe {
namespace obs {
namespace {

TEST(MetricsRegistryTest, CounterGaugeHistogramRegistration) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("test.counter");
  ASSERT_NE(counter, nullptr);
  // Same name resolves to the same object.
  EXPECT_EQ(counter, registry.counter("test.counter"));
  EXPECT_NE(counter, registry.counter("test.other"));

  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42u);

  Gauge* gauge = registry.gauge("test.gauge");
  gauge->Set(2.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 2.5);
  gauge->Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 1.5);

  Histogram* histogram = registry.histogram("test.hist", {1.0, 10.0});
  EXPECT_EQ(histogram, registry.histogram("test.hist", {999.0}));
  histogram->Observe(0.5);   // bucket le=1
  histogram->Observe(5.0);   // bucket le=10
  histogram->Observe(100.0); // overflow
  HistogramSnapshot snap = histogram->Snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 105.5);
  EXPECT_DOUBLE_EQ(snap.mean(), 105.5 / 3.0);
}

TEST(MetricsRegistryTest, SnapshotAndReset) {
  MetricsRegistry registry;
  registry.counter("a")->Increment(7);
  registry.gauge("b")->Set(3.0);
  registry.histogram("c", {1.0})->Observe(0.5);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("a"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("b"), 3.0);
  EXPECT_EQ(snap.histograms.at("c").count, 1u);

  Counter* a = registry.counter("a");
  registry.Reset();
  // Registrations (and pointers) survive a reset; values zero out.
  EXPECT_EQ(a, registry.counter("a"));
  EXPECT_EQ(registry.counter("a")->value(), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge("b")->value(), 0.0);
  EXPECT_EQ(registry.histogram("c", {})->Snapshot().count, 0u);
}

// The satellite requirement: hammer one counter and one histogram from
// ThreadPool threads and assert exact totals — increments must be atomic
// and never lost.
TEST(MetricsRegistryTest, ConcurrentHammerExactTotals) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("hammer.counter");
  Histogram* histogram =
      registry.histogram("hammer.hist", {10.0, 100.0, 1000.0});

  constexpr size_t kTasks = 16;
  constexpr size_t kPerTask = 50000;
  ThreadPool pool(8);
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (size_t t = 0; t < kTasks; ++t) {
    futures.push_back(pool.Submit([&, t] {
      for (size_t i = 0; i < kPerTask; ++i) {
        counter->Increment();
        histogram->Observe(static_cast<double>((t * kPerTask + i) % 2000));
      }
    }));
  }
  for (auto& f : futures) f.wait();

  EXPECT_EQ(counter->value(), kTasks * kPerTask);
  HistogramSnapshot snap = histogram->Snapshot();
  EXPECT_EQ(snap.count, kTasks * kPerTask);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, kTasks * kPerTask);
}

TEST(MetricsRegistryTest, GlobalRegistryIsSingleton) {
  EXPECT_EQ(MetricsRegistry::Global(), MetricsRegistry::Global());
  Counter* c = MetricsRegistry::Global()->counter("test.global_counter");
  const uint64_t before = c->value();
  c->Increment();
  EXPECT_EQ(c->value(), before + 1);
}

}  // namespace
}  // namespace obs
}  // namespace safe
