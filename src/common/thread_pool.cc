#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <string>

// lint: layering-ok(telemetry instrumentation of the pool; obs includes no common headers besides thread_annotations.h, so the dependency stays acyclic at file level — verified by SL008 cycle detection)
#include "src/obs/flight_recorder.h"
// lint: layering-ok(see above)
#include "src/obs/metrics.h"

namespace safe {

namespace {

/// Pool metrics, resolved once; Submit and the worker loop touch only
/// the atomics afterwards.
struct PoolMetrics {
  obs::Gauge* queue_depth;
  obs::Counter* tasks_submitted;
  obs::Histogram* task_wait_us;
  obs::Histogram* task_run_us;

  static const PoolMetrics& Get() {
    static const PoolMetrics metrics = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
      return PoolMetrics{
          registry->gauge("threadpool.queue_depth"),
          registry->counter("threadpool.tasks_submitted"),
          registry->histogram("threadpool.task_wait_us",
                              obs::DefaultLatencyBucketsUs()),
          registry->histogram("threadpool.task_run_us",
                              obs::DefaultLatencyBucketsUs())};
    }();
    return metrics;
  }
};

/// Identity of the pool (and slot) owning the current thread; null/-1 on
/// threads that are not pool workers. Submit consults these to detect
/// re-entrant submission from a worker of the same pool.
thread_local const ThreadPool* t_worker_pool = nullptr;
thread_local int t_worker_index = -1;

/// Dense pool ids for flight-recorder worker labels.
std::atomic<uint32_t> g_next_pool_id{0};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  // lint: mo-ok(standalone id counter; pairs only with itself, no other data published)
  pool_id_ = g_next_pool_id.fetch_add(1, std::memory_order_relaxed);
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  num_threads_ = num_threads;
  if (num_threads_ == 1) return;  // run inline, no workers
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::InWorkerThread() const { return t_worker_pool == this; }

int ThreadPool::CurrentWorkerIndex() { return t_worker_index; }

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  const PoolMetrics& metrics = PoolMetrics::Get();
  metrics.tasks_submitted->Increment();
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  // Run inline for single-thread pools and for nested submission from one
  // of this pool's own workers: queuing in the latter case can deadlock
  // once every worker blocks on futures of queued subtasks.
  if (num_threads_ == 1 || InWorkerThread()) {
    const uint64_t run_start_ns = obs::NowNanos();
    packaged();
    metrics.task_run_us->Observe(
        static_cast<double>(obs::NowNanos() - run_start_ns) / 1e3);
    return fut;
  }
  {
    MutexLock lock(mutex_);
    queue_.push(PendingTask{std::move(packaged), obs::NowNanos()});
    metrics.queue_depth->Set(static_cast<double>(queue_.size()));
  }
  cv_.NotifyOne();
  return fut;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  t_worker_pool = this;
  t_worker_index = static_cast<int>(worker_index);
  // Flight-recorder timelines carry the pool/worker identity so traces
  // attribute task grains to specific workers.
  obs::FlightRecorder::Global()->SetCurrentThreadLabel(
      "pool" + std::to_string(pool_id_) + ".worker" +
      std::to_string(worker_index));
  const PoolMetrics& metrics = PoolMetrics::Get();
  for (;;) {
    PendingTask pending;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.Wait(mutex_);
      if (stop_ && queue_.empty()) return;
      pending = std::move(queue_.front());
      queue_.pop();
      metrics.queue_depth->Set(static_cast<double>(queue_.size()));
    }
    const uint64_t run_start_ns = obs::NowNanos();
    metrics.task_wait_us->Observe(
        static_cast<double>(run_start_ns - pending.enqueue_ns) / 1e3);
    pending.task();
    metrics.task_run_us->Observe(
        static_cast<double>(obs::NowNanos() - run_start_ns) / 1e3);
  }
}

ThreadPool* ThreadPool::Global() {
  static ThreadPool pool(0);
  return &pool;
}

PoolSelection ResolvePool(size_t n_threads) {
  PoolSelection selection;
  if (n_threads == 0) {
    selection.pool = ThreadPool::Global();
  } else if (n_threads > 1) {
    selection.owned = std::make_unique<ThreadPool>(n_threads);
    selection.pool = selection.owned.get();
  }
  return selection;
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t workers = pool ? pool->num_threads() : 1;
  if (workers <= 1 || n == 1) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Static chunking: one contiguous block per worker keeps cache behaviour
  // predictable for the column-major scans that dominate this library.
  const size_t num_chunks = std::min(workers, n);
  const size_t chunk = (n + num_chunks - 1) / num_chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t lo = begin + c * chunk;
    const size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    futures.push_back(pool->Submit([lo, hi, &fn] {
      SAFE_FR_SCOPE("pool.block");
      for (size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  for (auto& f : futures) f.wait();
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn) {
  ParallelFor(ThreadPool::Global(), begin, end, fn);
}

size_t NumFixedChunks(size_t n, size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return (n + grain - 1) / grain;
}

void ParallelForChunks(ThreadPool* pool, size_t begin, size_t end,
                       size_t grain,
                       const std::function<void(size_t, size_t, size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t num_chunks = NumFixedChunks(end - begin, grain);
  const size_t workers = pool ? pool->num_threads() : 1;
  if (workers <= 1 || num_chunks == 1) {
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t lo = begin + c * grain;
      SAFE_FR_SCOPE("pool.chunk");
      fn(c, lo, std::min(end, lo + grain));
    }
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t lo = begin + c * grain;
    const size_t hi = std::min(end, lo + grain);
    futures.push_back(pool->Submit([c, lo, hi, &fn] {
      SAFE_FR_SCOPE("pool.chunk");
      fn(c, lo, hi);
    }));
  }
  for (auto& f : futures) f.wait();
}

}  // namespace safe
