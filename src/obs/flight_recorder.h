#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/thread_annotations.h"

namespace safe {
namespace obs {

/// \brief Kind of one flight-recorder event.
///
/// Spans are recorded as separate begin/end events (not one completed
/// record) so the record path stays a single fixed size write with no
/// per-scope state beyond the RAII object itself; SpansFromTimelines
/// (src/obs/report.h) pairs them back into spans for run reports.
enum class TraceEventType : uint16_t {
  kBegin = 0,    ///< span opens; matched by the next kEnd at same depth
  kEnd = 1,      ///< span closes
  kInstant = 2,  ///< point event
  kCounter = 3,  ///< sampled counter value (in `value`)
};

/// \brief One POD flight-recorder event: 32 bytes, trivially copyable.
///
/// `name` must be a string literal (or otherwise outlive the recorder);
/// the record path never copies or owns it. Timestamps are
/// obs::NowNanos(), the monotonic process trace epoch the latency
/// histograms also read, so every timeline lines up on one clock.
struct TraceEvent {
  uint64_t ts_ns = 0;          ///< nanoseconds since the trace epoch
  const char* name = nullptr;  ///< static string; never owned
  double value = 0.0;          ///< counter sample payload
  TraceEventType type = TraceEventType::kInstant;
  uint16_t reserved = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(TraceEvent) <= 32,
              "TraceEvent must stay within the 32-byte record budget");
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must be POD so the record path is a plain store");

/// \brief Drained copy of one thread's event buffer.
struct ThreadTimeline {
  uint32_t thread_index = 0;  ///< dense registration order, not the OS tid
  std::string label;          ///< e.g. "main" or "pool0.worker3"; may be empty
  uint64_t dropped = 0;       ///< events rejected because the buffer was full
  std::vector<TraceEvent> events;
};

class FlightRecorder;

namespace internal {

/// \brief Fixed-capacity single-writer event buffer.
///
/// The owning thread appends with Record(); no lock, no allocation —
/// storage is preallocated at registration. When full, events are
/// dropped (not wrapped) and counted, so the drop count for a given
/// record sequence is deterministic: capacity K, K+N records => N drops.
/// Readers (Snapshot) see a consistent prefix via the release/acquire
/// pair on `size_`.
class EventBuffer {
 public:
  explicit EventBuffer(size_t capacity) : capacity_(capacity) {}

  EventBuffer(const EventBuffer&) = delete;
  EventBuffer& operator=(const EventBuffer&) = delete;

  /// Appends one event. Owning thread only. Returns false (and bumps the
  /// drop counter) when the buffer is full.
  // lint: hot-path
  bool Record(const TraceEvent& event) {
    // lint: mo-ok(single-writer cell; only this thread stores size_, so its own last store is visible)
    const uint64_t n = size_.load(std::memory_order_relaxed);
    if (n >= capacity_) {
      // lint: mo-ok(standalone drop tally; pairs with dropped()'s relaxed load)
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // The ring is allocated on first record, not at registration: a
    // thread that only ever labels itself (e.g. a scoring-server shard
    // worker in a process that never arms the recorder) costs a registry
    // entry, not `capacity * 32` bytes — server lifecycle churn would
    // otherwise retain one full ring per worker thread forever. The
    // release store of size_ below publishes the allocation along with
    // the event: readers that observe size_ >= 1 (acquire) may touch
    // events_; readers that observe 0 must not.
    if (events_.empty()) events_.resize(capacity_);  // lint: hot-path-ok(one-time lazy ring allocation, amortized to zero; published by the size_ release store below)
    events_[n] = event;
    // lint: mo-ok(release publish of events_[0, n] and the ring allocation; pairs with size()'s acquire load in Snapshot)
    size_.store(n + 1, std::memory_order_release);
    return true;
  }

  // lint: mo-ok(acquire side of Record's release publish; makes events_[0, size) safe to read)
  uint64_t size() const { return size_.load(std::memory_order_acquire); }
  uint64_t dropped() const {
    // lint: mo-ok(pairs with Record's relaxed drop tally)
    return dropped_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

 private:
  friend class ::safe::obs::FlightRecorder;

  const size_t capacity_;
  std::vector<TraceEvent> events_;  // lazily sized to capacity_ on first
                                    // Record; never resized afterwards
  std::atomic<uint64_t> size_{0};
  std::atomic<uint64_t> dropped_{0};
  uint32_t thread_index_ = 0;   // assigned at registration
  std::string label_;           // guarded by the recorder's mutex
};

/// Armed flag for the global recorder; checked inline (one relaxed load
/// and a branch) on every instrumentation site, so a disarmed recorder
/// costs effectively nothing on the hot paths.
extern std::atomic<bool> g_recorder_armed;

/// Per-thread sampling counter shared by every SampledFlightScope site,
/// advanced inline so an unsampled (armed) entry costs one increment
/// and a compare — no out-of-line call on per-row paths.
extern thread_local uint64_t g_sample_counter;

}  // namespace internal

/// \brief Low-overhead event tracer: the library's one span system.
///
/// Each thread records into its own fixed-capacity internal::EventBuffer
/// (registered on first use, kept alive past thread exit via shared_ptr).
/// The global instance is *armed* explicitly (--trace on the bench
/// harness, `safe_cli trace`, or tests); while disarmed, the SAFE_FR_*
/// instrumentation macros reduce to a relaxed atomic load. Snapshot()
/// drains every buffer into ThreadTimelines for the Chrome-trace
/// exporter (src/obs/trace_export.h) and RunReport's span section
/// (SpansFromTimelines, src/obs/report.h).
///
/// Clear() and label writes take the registry mutex; Record is
/// synchronization-free. Clearing while other threads are actively
/// recording is race-free but may interleave stale sizes — arm/clear at
/// phase boundaries, not mid-burst.
class FlightRecorder {
 public:
  /// 64Ki events/thread = 2 MiB/thread; bounds memory for long runs
  /// while holding minutes of sampled serving traffic or a full fit.
  static constexpr size_t kDefaultEventsPerThread = size_t{1} << 16;

  explicit FlightRecorder(
      size_t events_per_thread = kDefaultEventsPerThread);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Arms / disarms the *global* instrumentation sites. Instance-level
  /// Record calls (via LocalBuffer) ignore the flag.
  static void Arm();
  static void Disarm();
  static bool armed() {
    // lint: mo-ok(standalone on/off flag; Arm/Disarm store it relaxed, a stale read only delays the first event)
    return internal::g_recorder_armed.load(std::memory_order_relaxed);
  }

  /// The calling thread's buffer, registering (and preallocating) it on
  /// first use. The pointer stays valid for the process lifetime.
  internal::EventBuffer* LocalBuffer() EXCLUDES(mutex_);

  /// Names the calling thread's timeline ("main", "pool0.worker3", ...).
  void SetCurrentThreadLabel(std::string label) EXCLUDES(mutex_);

  /// Convenience single-event recorders on the calling thread's buffer.
  void RecordInstant(const char* name);
  void RecordCounter(const char* name, double value);

  /// Copies every thread's events (a consistent prefix of each buffer),
  /// ordered by registration index.
  std::vector<ThreadTimeline> Snapshot() const EXCLUDES(mutex_);

  /// Drops all recorded events and zeroes drop counters; registrations
  /// and labels are kept.
  void Clear() EXCLUDES(mutex_);

  size_t events_per_thread() const { return events_per_thread_; }

  /// Process-wide recorder used by the SAFE_FR_* macros.
  static FlightRecorder* Global();

 private:
  const size_t events_per_thread_;
  const uint64_t id_;  ///< process-unique; keys the thread-local cache
  mutable Mutex mutex_;
  std::vector<std::shared_ptr<internal::EventBuffer>> buffers_
      GUARDED_BY(mutex_);
  uint32_t next_thread_index_ GUARDED_BY(mutex_) = 0;
};

/// \brief RAII begin/end pair on the global recorder; no-op while
/// disarmed. If the begin event is dropped (buffer full), the end is
/// skipped too, so a lost span costs exactly one drop count and the
/// surviving stream stays well-nested.
class FlightScope {
 public:
  explicit FlightScope(const char* name) {
    if (FlightRecorder::armed()) Begin(name);
  }
  ~FlightScope() {
    if (buffer_ != nullptr) End();
  }

  FlightScope(const FlightScope&) = delete;
  FlightScope& operator=(const FlightScope&) = delete;

 private:
  void Begin(const char* name);
  void End();

  internal::EventBuffer* buffer_ = nullptr;
  const char* name_ = nullptr;
};

/// \brief FlightScope that records only every Nth construction on the
/// calling thread (one shared per-thread counter across all sampled
/// sites), bounding event volume on per-request paths like
/// serve::RowScorer::ScoreRow.
class SampledFlightScope {
 public:
  SampledFlightScope(const char* name, uint32_t one_in_n) {
    // The whole sampling decision stays inline: with a literal rate the
    // modulo folds to a mask, so an armed-but-unsampled construction is
    // a relaxed load, a thread-local increment and a compare.
    if (FlightRecorder::armed() &&
        (one_in_n <= 1 ||
         (internal::g_sample_counter++ % one_in_n) == 0)) {
      Begin(name);
    }
  }
  ~SampledFlightScope() {
    if (buffer_ != nullptr) End();
  }

  SampledFlightScope(const SampledFlightScope&) = delete;
  SampledFlightScope& operator=(const SampledFlightScope&) = delete;

 private:
  void Begin(const char* name);
  void End();

  internal::EventBuffer* buffer_ = nullptr;
  const char* name_ = nullptr;
};

/// Free-function instrumentation helpers with the same armed fast path.
inline void FlightRecorderInstant(const char* name) {
  if (FlightRecorder::armed()) {
    FlightRecorder::Global()->RecordInstant(name);
  }
}
inline void FlightRecorderCounter(const char* name, double value) {
  if (FlightRecorder::armed()) {
    FlightRecorder::Global()->RecordCounter(name, value);
  }
}

}  // namespace obs
}  // namespace safe

#define SAFE_FR_CONCAT_INNER(a, b) a##b
#define SAFE_FR_CONCAT(a, b) SAFE_FR_CONCAT_INNER(a, b)

/// Opens a flight-recorder span for the enclosing scope:
///   SAFE_FR_SCOPE("gbdt.build_histograms");
/// `name` must be a string literal. Records nothing while the global
/// recorder is disarmed.
#define SAFE_FR_SCOPE(name)                                         \
  ::safe::obs::FlightScope SAFE_FR_CONCAT(safe_fr_scope_, __LINE__)(name)

/// Same, but records only one in `one_in_n` entries per thread:
///   SAFE_FR_SAMPLED_SCOPE("serve.score_row", 64);
#define SAFE_FR_SAMPLED_SCOPE(name, one_in_n)                       \
  ::safe::obs::SampledFlightScope SAFE_FR_CONCAT(safe_fr_sampled_,  \
                                                 __LINE__)(name, one_in_n)

/// Point event / counter sample at the call site.
#define SAFE_FR_INSTANT(name) ::safe::obs::FlightRecorderInstant(name)
#define SAFE_FR_COUNTER(name, value) \
  ::safe::obs::FlightRecorderCounter(name, value)
