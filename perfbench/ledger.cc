#include "perfbench/ledger.h"

#include <vector>

namespace perfbench {

namespace {

constexpr const char* kMainLabel = "perfbench.main";

}  // namespace

void LabelMainThread() {
  safe::obs::FlightRecorder::Global()->SetCurrentThreadLabel(kMainLabel);
}

std::map<std::string, SpanTotal> MainThreadSpans(uint64_t* dropped) {
  std::map<std::string, SpanTotal> spans;
  for (const auto& timeline :
       safe::obs::FlightRecorder::Global()->Snapshot()) {
    *dropped += timeline.dropped;
    if (timeline.label != kMainLabel) continue;
    // Events of one thread are well nested; match each end to its begin.
    std::vector<uint64_t> open;
    for (const auto& event : timeline.events) {
      if (event.type == safe::obs::TraceEventType::kBegin) {
        open.push_back(event.ts_ns);
      } else if (event.type == safe::obs::TraceEventType::kEnd &&
                 !open.empty()) {
        SpanTotal& total = spans[event.name];
        total.seconds += static_cast<double>(event.ts_ns - open.back()) * 1e-9;
        ++total.count;
        open.pop_back();
      }
    }
  }
  return spans;
}

void LayerLedger::Begin() {
  safe::obs::FlightRecorder::Global()->Clear();
  spill_before_ = pool_ ? pool_->stats() : safe::SpillPoolStats{};
  cpu_before_ = CpuSeconds();
  safe::obs::FlightRecorder::Arm();
}

void LayerLedger::End(const char* layer) {
  safe::obs::FlightRecorder::Disarm();
  const double cpu = CpuSeconds() - cpu_before_;
  const safe::SpillPoolStats spill =
      pool_ ? pool_->stats() : safe::SpillPoolStats{};
  // Layer calls are never nested, so a layer's self time is the duration
  // of its own span on the calling thread; the library's spans inside
  // the call (on this or any pool thread) are its children.
  const auto spans = MainThreadSpans(&dropped_);
  const auto it = spans.find(layer);
  if (it == spans.end() || it->second.count != 1) {
    ++missing_;
    return;
  }
  constexpr double kMb = 1024.0 * 1024.0;
  LayerTotals& totals = layers_[layer];
  totals.self_s += it->second.seconds;
  totals.cpu_s += cpu;
  totals.read_mb +=
      static_cast<double>(spill.spill_read_bytes - spill_before_.spill_read_bytes) / kMb;
  totals.write_mb +=
      static_cast<double>(spill.spill_write_bytes - spill_before_.spill_write_bytes) / kMb;
  totals.faults += spill.faults - spill_before_.faults;
  totals.evictions += spill.evictions - spill_before_.evictions;
}

const LayerTotals& LayerLedger::totals(const std::string& layer) const {
  static const LayerTotals kEmpty;
  auto it = layers_.find(layer);
  return it == layers_.end() ? kEmpty : it->second;
}

}  // namespace perfbench
