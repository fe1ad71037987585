#pragma once

// Per-layer ledger of the traced run. Each call into a layer's public
// function is wrapped in a flight-recorder span opened here, in the
// benchmark's own code, and bracketed with getrusage and SpillPool::stats()
// deltas. Spans the library already records inside the call show up as
// children of that span; nothing is added inside the library.

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "perfbench/bench_util.h"
#include "src/dataframe/spill.h"
#include "src/obs/flight_recorder.h"

namespace perfbench {

/// Names the calling thread's recorder timeline; spans the benchmark
/// opens are read back from this timeline only.
void LabelMainThread();

/// Total duration and count of one span name.
struct SpanTotal {
  double seconds = 0.0;
  size_t count = 0;
};

/// Snapshots the recorder and sums the durations of the spans recorded
/// on the labelled main thread, by name. Adds every timeline's dropped
/// event count to `*dropped`.
std::map<std::string, SpanTotal> MainThreadSpans(uint64_t* dropped);

struct LayerTotals {
  double self_s = 0.0;  ///< span time minus nested benchmark spans
  double cpu_s = 0.0;   ///< process CPU time spent inside the span
  double read_mb = 0.0;   ///< spill bytes faulted back inside the span
  double write_mb = 0.0;  ///< spill bytes written inside the span
  uint64_t faults = 0;
  uint64_t evictions = 0;

  /// CPU seconds per wall second while the layer ran.
  double cpu_ratio() const { return self_s > 0.0 ? cpu_s / self_s : 0.0; }
};

class LayerLedger {
 public:
  /// `pool` may be null (resident data: every spill delta is zero). An
  /// untraced ledger runs the same calls with the recorder disarmed and
  /// records nothing: the base the tracing overhead is measured against.
  LayerLedger(std::shared_ptr<safe::SpillPool> pool, bool traced)
      : pool_(std::move(pool)), traced_(traced) {}

  /// Runs fn() as one call of `layer` (a string literal naming the
  /// span). The recorder is cleared and armed for exactly this call, so
  /// per-thread buffers only ever hold one call's events.
  template <typename Fn>
  auto Run(const char* layer, Fn&& fn) {
    if (!traced_) return fn();
    Begin();
    struct Guard {
      LayerLedger* ledger;
      const char* layer;
      ~Guard() { ledger->End(layer); }
    } guard{this, layer};
    safe::obs::FlightScope span(layer);
    return fn();
  }

  const LayerTotals& totals(const std::string& layer) const;

  /// Events the recorder dropped across all calls (a full buffer).
  uint64_t dropped_events() const { return dropped_; }
  /// Calls whose own span was missing from the snapshot.
  uint64_t missing_spans() const { return missing_; }

 private:
  void Begin();
  void End(const char* layer);

  std::shared_ptr<safe::SpillPool> pool_;
  bool traced_;
  std::map<std::string, LayerTotals> layers_;
  double cpu_before_ = 0.0;
  safe::SpillPoolStats spill_before_;
  uint64_t dropped_ = 0;
  uint64_t missing_ = 0;
};

}  // namespace perfbench
