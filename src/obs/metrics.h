#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"

namespace safe {
namespace obs {

/// Nanoseconds since the process-wide trace epoch (steady clock; the
/// epoch is pinned by the first call). Flight-recorder events and the
/// *_us latency histograms read this one clock, so every timestamp in a
/// run lines up.
uint64_t NowNanos();

/// The process's resident-set high-water mark so far, in bytes (0 where
/// the platform does not report it). It never decreases.
uint64_t PeakRssBytes();

/// CPU time the process has used so far, user plus system over every
/// thread, in seconds.
double ProcessCpuSeconds();

/// \brief Point-in-time copy of one histogram.
///
/// Buckets follow the Prometheus `le` convention: `counts[i]` is the
/// number of observations `<= upper_bounds[i]`, with one extra overflow
/// bucket at the end (`counts.size() == upper_bounds.size() + 1`).
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0.0;

  double mean() const { return count == 0 ? 0.0 : sum / count; }
};

/// \brief Point-in-time copy of every metric in a registry; safe to read,
/// serialize, and diff while the hot paths keep mutating the live metrics.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Exponential latency buckets in microseconds (1us .. 1s), the default
/// for the *_us histograms registered across the library.
std::vector<double> DefaultLatencyBucketsUs();

class Histogram;

/// \brief Histogram in the global registry named
/// `<base_name>.thread<k>`, where k is a small process-unique sequence
/// number assigned to the calling thread on first use.
///
/// Gives hot parallel stages (e.g. the GBDT per-feature histogram build)
/// per-thread timing series without any cross-thread contention: the
/// resolved pointer is cached thread-locally, so repeated calls from the
/// same thread touch only that thread's map.
Histogram* PerThreadHistogram(const std::string& base_name,
                              std::vector<double> upper_bounds);

/// \brief Monotonically increasing counter; lock-free relaxed increments.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    // lint: mo-ok(standalone telemetry tally; readers need the count, not an ordering with other data)
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  // lint: mo-ok(see Increment; value() pairs with those relaxed updates)
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  // lint: mo-ok(see Increment)
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-write-wins instantaneous value (queue depth, pool size).
class Gauge {
 public:
  // lint: mo-ok(standalone telemetry value; pairs with value()'s relaxed load only)
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    // lint: mo-ok(RMW on the standalone gauge cell; no other data ordered)
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {  // lint: mo-ok(retry loop on the same standalone cell)
    }
  }
  // lint: mo-ok(pairs with Set/Add's relaxed updates)
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};  // lint: fp-atomic-ok(telemetry gauge; feeds no deterministic output)
};

/// \brief Fixed-bucket histogram; Observe is lock-free (relaxed atomics),
/// Snapshot copies without stopping writers.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  std::vector<double> upper_bounds_;           // sorted ascending
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds + overflow
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};  // lint: fp-atomic-ok(telemetry histogram sum; diagnostics only)
};

/// \brief Named metric registry. Creation takes a mutex; the returned
/// pointers are stable for the registry's lifetime, so hot paths resolve
/// a metric once (typically into a function-local static) and then touch
/// only the atomics.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name) EXCLUDES(mutex_);
  Gauge* gauge(const std::string& name) EXCLUDES(mutex_);
  /// Returns the existing histogram when `name` is already registered
  /// (the bounds argument is then ignored).
  Histogram* histogram(const std::string& name,
                       std::vector<double> upper_bounds) EXCLUDES(mutex_);

  /// Copies every metric; values observed during the copy may or may not
  /// be included (each metric is internally consistent).
  MetricsSnapshot Snapshot() const EXCLUDES(mutex_);

  /// Zeroes all values but keeps registrations (pointers stay valid).
  void Reset() EXCLUDES(mutex_);

  /// Process-wide registry used by the built-in instrumentation.
  static MetricsRegistry* Global();

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace safe
