#include "src/obs/flight_recorder.h"

#include "src/obs/metrics.h"  // NowNanos: shared trace epoch

namespace safe {
namespace obs {

namespace internal {
std::atomic<bool> g_recorder_armed{false};
thread_local uint64_t g_sample_counter = 0;
}  // namespace internal

namespace {

std::atomic<uint64_t> g_next_recorder_id{1};

TraceEvent MakeEvent(const char* name, TraceEventType type, double value) {
  TraceEvent event;
  event.ts_ns = NowNanos();
  event.name = name;
  event.value = value;
  event.type = type;
  return event;
}

}  // namespace

FlightRecorder::FlightRecorder(size_t events_per_thread)
    : events_per_thread_(events_per_thread == 0 ? 1 : events_per_thread),
      // lint: mo-ok(standalone id counter; pairs only with itself)
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

void FlightRecorder::Arm() {
  // lint: mo-ok(standalone on/off flag; pairs with armed()'s relaxed load)
  internal::g_recorder_armed.store(true, std::memory_order_relaxed);
}

void FlightRecorder::Disarm() {
  // lint: mo-ok(see Arm)
  internal::g_recorder_armed.store(false, std::memory_order_relaxed);
}

internal::EventBuffer* FlightRecorder::LocalBuffer() {
  // Keyed by the recorder's process-unique id (not `this` — a destroyed
  // test instance's address can be reused) so the global recorder and
  // test instances coexist on one thread. The shared_ptr in the cache
  // and in buffers_ keeps a buffer alive past both thread exit and
  // recorder destruction.
  thread_local std::vector<
      std::pair<uint64_t, std::shared_ptr<internal::EventBuffer>>>
      cache;
  for (const auto& entry : cache) {
    if (entry.first == id_) return entry.second.get();
  }
  auto buffer = std::make_shared<internal::EventBuffer>(events_per_thread_);
  {
    MutexLock lock(mutex_);
    buffer->thread_index_ = next_thread_index_++;
    buffers_.push_back(buffer);
  }
  cache.emplace_back(id_, buffer);
  return buffer.get();
}

void FlightRecorder::SetCurrentThreadLabel(std::string label) {
  internal::EventBuffer* buffer = LocalBuffer();
  MutexLock lock(mutex_);
  buffer->label_ = std::move(label);
}

void FlightRecorder::RecordInstant(const char* name) {
  LocalBuffer()->Record(MakeEvent(name, TraceEventType::kInstant, 0.0));
}

void FlightRecorder::RecordCounter(const char* name, double value) {
  LocalBuffer()->Record(MakeEvent(name, TraceEventType::kCounter, value));
}

std::vector<ThreadTimeline> FlightRecorder::Snapshot() const {
  std::vector<ThreadTimeline> out;
  MutexLock lock(mutex_);
  out.reserve(buffers_.size());
  for (const auto& buffer : buffers_) {
    ThreadTimeline timeline;
    timeline.thread_index = buffer->thread_index_;
    timeline.label = buffer->label_;
    timeline.dropped = buffer->dropped();
    const uint64_t n = buffer->size();  // acquire: publishes events_[0, n)
    // n >= 1 also publishes the lazily allocated ring itself; with n == 0
    // the vector may be concurrently resizing in its owner — don't touch.
    if (n > 0) {
      timeline.events.assign(buffer->events_.begin(),
                             buffer->events_.begin() + static_cast<long>(n));
    }
    out.push_back(std::move(timeline));
  }
  return out;
}

void FlightRecorder::Clear() {
  MutexLock lock(mutex_);
  for (const auto& buffer : buffers_) {
    // lint: mo-ok(truncates the published prefix; pairs with size()'s acquire load like Record's release store)
    buffer->size_.store(0, std::memory_order_release);
    // lint: mo-ok(standalone drop tally reset)
    buffer->dropped_.store(0, std::memory_order_relaxed);
  }
}

FlightRecorder* FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never freed
  return recorder;
}

void FlightScope::Begin(const char* name) {
  internal::EventBuffer* buffer = FlightRecorder::Global()->LocalBuffer();
  if (!buffer->Record(MakeEvent(name, TraceEventType::kBegin, 0.0))) {
    return;  // begin dropped: skip the end too, one drop per lost span
  }
  buffer_ = buffer;
  name_ = name;
}

void FlightScope::End() {
  buffer_->Record(MakeEvent(name_, TraceEventType::kEnd, 0.0));
}

void SampledFlightScope::Begin(const char* name) {
  internal::EventBuffer* buffer = FlightRecorder::Global()->LocalBuffer();
  if (!buffer->Record(MakeEvent(name, TraceEventType::kBegin, 0.0))) {
    return;
  }
  buffer_ = buffer;
  name_ = name;
}

void SampledFlightScope::End() {
  buffer_->Record(MakeEvent(name_, TraceEventType::kEnd, 0.0));
}

}  // namespace obs
}  // namespace safe
