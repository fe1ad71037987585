#pragma once

// Small helpers shared by the benchmark driver: clocks, resource usage,
// sample summaries, the metric report and the output-check tally.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system, all threads) in seconds.
inline double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Peak resident set of the process so far, in MiB (ru_maxrss is KiB).
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

inline size_t NumCpus() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Nearest-rank percentile of `values` (q in [0, 100]); values is sorted
/// in place. Empty input gives NaN.
inline double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return std::nan("");
  std::sort(values->begin(), values->end());
  const double rank = q / 100.0 * static_cast<double>(values->size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  index = std::clamp<size_t>(index, 1, values->size());
  return (*values)[index - 1];
}

/// Median plus the highest of {50, 75, 90, 95, 99, 99.9} percentiles
/// that still has at least ten samples beyond it, with the sample count.
struct Summary {
  double median = std::nan("");
  double tail = std::nan("");
  double tail_pct = 50.0;
  size_t n = 0;
};

inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.median = Percentile(&values, 50.0);
  s.tail = s.median;
  for (double q : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(values.size()) * (1.0 - q / 100.0) >= 10.0) {
      s.tail_pct = q;
      s.tail = Percentile(&values, q);
    }
  }
  return s;
}

/// Named metrics in emission order, plus human-readable detail lines.
/// Every metric is printed in the table; one added with in_result false
/// is measured by this run but reported by the other kind of run, so the
/// result line leaves it out.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string detail;
    bool in_result = true;
  };

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& detail = "", bool in_result = true) {
    metrics_.push_back({name, value, unit, detail, in_result});
  }
  /// Adds a timing metric reported by its median, with the tail
  /// percentile and sample count in the detail column.
  void AddSummary(const std::string& name, const Summary& s,
                  const std::string& unit, double scale = 1.0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p%g=%.6g n=%zu", s.tail_pct,
                  s.tail * scale, s.n);
    Add(name, s.median * scale, unit, buf);
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Output checks, counted as attempted operations and failures.
class Checks {
 public:
  /// `attempted` operations of which `failed` produced a wrong result.
  void Record(uint64_t attempted, uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
      std::cerr << "perfbench: CHECK FAILED (" << failed << "/" << attempted
                << "): " << what << "\n";
    }
  }
  void Expect(bool ok, const std::string& what) { Record(1, ok ? 0 : 1, what); }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench
