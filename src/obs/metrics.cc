#include "src/obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <ctime>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace safe {
namespace obs {

uint64_t NowNanos() {
  using SteadyClock = std::chrono::steady_clock;
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now() - epoch)
          .count());
}

uint64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(usage.ru_maxrss);  // bytes
#else
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // KiB
#endif
#else
  return 0;
#endif
}

double ProcessCpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

std::vector<double> DefaultLatencyBucketsUs() {
  // 1-2.5-5 decades from 1us to 1s; the overflow bucket catches the rest.
  return {1.0,    2.5,    5.0,    10.0,    25.0,    50.0,     100.0,
          250.0,  500.0,  1000.0, 2500.0,  5000.0,  10000.0,  25000.0,
          50000.0, 100000.0, 250000.0, 500000.0, 1000000.0};
}

namespace {
/// Process-unique sequence number for the calling thread, assigned on
/// first use (0, 1, 2, ... in first-use order).
uint64_t ThreadSequenceNumber() {
  static std::atomic<uint64_t> next{0};
  thread_local const uint64_t id = next.fetch_add(1);
  return id;
}
}  // namespace

Histogram* PerThreadHistogram(const std::string& base_name,
                              std::vector<double> upper_bounds) {
  // Per-thread cache: registry lookup (mutex) only on each thread's first
  // call for a given base name.
  thread_local std::map<std::string, Histogram*> cache;
  Histogram*& slot = cache[base_name];
  if (slot == nullptr) {
    slot = MetricsRegistry::Global()->histogram(
        base_name + ".thread" + std::to_string(ThreadSequenceNumber()),
        std::move(upper_bounds));
  }
  return slot;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  std::sort(upper_bounds_.begin(), upper_bounds_.end());
  upper_bounds_.erase(
      std::unique(upper_bounds_.begin(), upper_bounds_.end()),
      upper_bounds_.end());
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(
      upper_bounds_.size() + 1);
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) {
    // lint: mo-ok(pre-publication init; the object escapes only via the registry mutex)
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin());
  // lint: mo-ok(standalone telemetry tallies; Snapshot tolerates torn cross-bucket views)
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  // lint: mo-ok(see above)
  count_.fetch_add(1, std::memory_order_relaxed);
  // lint: mo-ok(RMW retry on the standalone sum cell)
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {  // lint: mo-ok(retry loop on the same standalone cell)
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.upper_bounds = upper_bounds_;
  snap.counts.resize(upper_bounds_.size() + 1);
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) {
    // lint: mo-ok(pairs with Observe's relaxed tallies; per-cell consistency is all Snapshot promises)
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  // lint: mo-ok(see above)
  snap.count = count_.load(std::memory_order_relaxed);
  // lint: mo-ok(see above)
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) {
    // lint: mo-ok(telemetry reset; racing Observe tallies may land on either side)
    counts_[i].store(0, std::memory_order_relaxed);
  }
  // lint: mo-ok(see above)
  count_.store(0, std::memory_order_relaxed);
  // lint: mo-ok(see above)
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->Snapshot();
  }
  return snap;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed
  return registry;
}

}  // namespace obs
}  // namespace safe
