#include "src/serve/server/scoring_server.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace safe {
namespace serve {
namespace server {

namespace {

std::vector<double> PowerOfTwoBuckets(double max_bound) {
  std::vector<double> bounds;
  for (double b = 1.0; b <= max_bound; b *= 2.0) bounds.push_back(b);
  return bounds;
}

/// serve.server.* metrics — a namespace disjoint from the library-call
/// series (serve.latency_us / serve.batch_latency_us), asserted by
/// serve_server_test. Resolved once; hot paths touch only the atomics.
struct ServerMetrics {
  obs::Counter* requests;
  obs::Counter* rows;
  obs::Counter* rejected;
  obs::Counter* batches;
  obs::Histogram* latency_us;   // request enqueue -> completion
  obs::Histogram* batch_fill;   // rows per cut
  obs::Histogram* queue_depth;  // shard backlog sampled at each cut

  static const ServerMetrics& Get() {
    static const ServerMetrics metrics = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
      return ServerMetrics{
          registry->counter("serve.server.requests"),
          registry->counter("serve.server.rows"),
          registry->counter("serve.server.rejected"),
          registry->counter("serve.server.batches"),
          registry->histogram("serve.server.latency_us",
                              obs::DefaultLatencyBucketsUs()),
          registry->histogram("serve.server.batch_fill",
                              PowerOfTwoBuckets(4096.0)),
          registry->histogram("serve.server.queue_depth",
                              PowerOfTwoBuckets(65536.0))};
    }();
    return metrics;
  }
};

}  // namespace

Result<std::unique_ptr<ScoringServer>> ScoringServer::Create(
    const FeaturePlan& plan, const gbdt::Booster& booster,
    const ServerOptions& options) {
  if (options.num_shards == 0 || options.queue_capacity == 0 ||
      options.max_batch_rows == 0) {
    return Status::InvalidArgument(
        "scoring server: num_shards, queue_capacity and max_batch_rows "
        "must all be > 0");
  }
  // One canonical scorer, copied per shard: replicas share nothing
  // mutable, and bit-identity across replicas is trivial (identical
  // compiled plan, identical packed forest).
  SAFE_ASSIGN_OR_RETURN(BatchScorer scorer, BatchScorer::Create(plan, booster));

  auto server = std::unique_ptr<ScoringServer>(new ScoringServer());
  server->options_ = options;
  server->num_inputs_ = scorer.num_inputs();
  server->shards_.reserve(options.num_shards);
  for (size_t s = 0; s < options.num_shards; ++s) {
    auto shard = std::make_unique<Shard>(options.queue_capacity);
    shard->scorer = scorer;
    server->shards_.push_back(std::move(shard));
  }
  for (size_t s = 0; s < options.num_shards; ++s) {
    Shard* shard = server->shards_[s].get();
    ScoringServer* raw = server.get();
    shard->worker = std::thread([raw, shard] { raw->ShardLoop(shard); });
  }
  return server;
}

ScoringServer::~ScoringServer() { Stop(); }

void ScoringServer::Stop() {
  bool expected = false;
  if (!stop_started_.compare_exchange_strong(expected, true,
                                             std::memory_order_seq_cst)) {
    // Another thread is stopping (or has stopped) the server; wait for
    // the workers to be gone before returning so "after Stop()" always
    // means fully drained. Sleep rather than spin: the drain can take as
    // long as the backlog, and this path is not latency-critical.
    while (!stop_finished_.load(std::memory_order_acquire)) {  // lint: mo-ok(acquire pairs with the release store at the end of the winning Stop)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return;
  }
  // lint: mo-ok(seq_cst, not weaker: must order against Submit's in_flight_ increment / stopping_ check pair)
  stopping_.store(true, std::memory_order_seq_cst);
  // Let in-flight submissions finish their push/reject before closing,
  // so no request can be claimed into a queue the workers have already
  // drained past (that request would never complete). Submissions spend
  // only a few instructions inside the gate, so waits here are short;
  // yield first for the common case, then back off to sleeps.
  // lint: mo-ok(acquire pairs with Submit's release decrements; zero means every gated push/reject retired)
  for (int spins = 0; in_flight_.load(std::memory_order_acquire) != 0;
       ++spins) {
    if (spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // Close() only after in_flight_ hit zero: MpscQueue::TryPush checks
  // closed_ only at the top of its claim loop, so a push racing Close
  // could otherwise land after Close returns — the in-flight gate is the
  // external quiesce Close() requires (see MpscQueue::Close docs).
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    // Ring under the lock: a worker between its predicate check and its
    // park would otherwise miss the only notify it will ever get.
    MutexLock lock(shard->mutex);
    shard->cv.NotifyOne();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // lint: mo-ok(release pairs with the acquire poll at the top of Stop; publishes the joined workers)
  stop_finished_.store(true, std::memory_order_release);
}

ServerStats ScoringServer::stats() const {
  ServerStats stats;
  // lint: mo-ok(standalone tallies; each pairs with its own relaxed increments, cross-counter skew is fine)
  stats.accepted_requests = accepted_requests_.load(std::memory_order_relaxed);
  // lint: mo-ok(see above)
  stats.accepted_rows = accepted_rows_.load(std::memory_order_relaxed);
  // lint: mo-ok(see above)
  stats.rejected_requests = rejected_requests_.load(std::memory_order_relaxed);
  stats.completed_requests =
      completed_requests_.load(std::memory_order_relaxed);  // lint: mo-ok(see above)
  // lint: mo-ok(see above)
  stats.completed_rows = completed_rows_.load(std::memory_order_relaxed);
  // lint: mo-ok(see above)
  stats.batches = batches_.load(std::memory_order_relaxed);
  return stats;
}

Status ScoringServer::Submit(uint64_t route_key, const double* const* rows,
                             size_t num_rows, double* out) const {
  if (num_rows == 0) return Status::OK();
  // The in-flight gate pairs with Stop(): a submission that passes the
  // stopping check below completes its push before the queues close.
  // lint: mo-ok(seq_cst, not weaker: the increment must order before the stopping_ load against Stop's store/wait pair)
  in_flight_.fetch_add(1, std::memory_order_seq_cst);
  if (stopping_.load(std::memory_order_seq_cst)) {  // lint: mo-ok(seq_cst half of the gate; see the fetch_add above)
    // lint: mo-ok(release pairs with Stop's acquire poll of in_flight_)
    in_flight_.fetch_sub(1, std::memory_order_release);
    // lint: mo-ok(standalone tally; pairs with stats()'s relaxed load)
    rejected_requests_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().rejected->Increment();
    return Status::Unavailable("scoring server is stopping");
  }
  Shard& shard = *shards_[route_key % shards_.size()];

  Sync sync;
  Request request;
  request.rows = rows;
  request.out = out;
  request.num_rows = num_rows;
  request.sync = &sync;
  request.enqueue_ns = obs::NowNanos();
  const bool pushed = shard.queue.TryPush(request);
  // lint: mo-ok(release pairs with Stop's acquire poll: the push outcome is settled before Stop may close the queues)
  in_flight_.fetch_sub(1, std::memory_order_release);
  if (!pushed) {
    // lint: mo-ok(standalone tally; pairs with stats()'s relaxed load)
    rejected_requests_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().rejected->Increment();
    return Status::Unavailable(
        "scoring server: shard " +
        std::to_string(route_key % shards_.size()) +
        " queue is full (" + std::to_string(shard.queue.capacity()) +
        " requests) — retry after backoff");
  }
  // lint: mo-ok(standalone tallies; pair with stats()'s relaxed loads)
  accepted_requests_.fetch_add(1, std::memory_order_relaxed);
  // lint: mo-ok(see above)
  accepted_rows_.fetch_add(num_rows, std::memory_order_relaxed);
  const ServerMetrics& metrics = ServerMetrics::Get();
  metrics.requests->Increment();
  metrics.rows->Increment(num_rows);
  // Doorbell: ring only when the worker may be parked. The seq_cst
  // TryPush claim above and this seq_cst load order against the
  // worker's waiting-store / SizeApprox-load pair, so either we see
  // `waiting` and notify, or the worker sees our push and skips the
  // wait — a lost wakeup is impossible.
  if (shard.waiting.load(std::memory_order_seq_cst)) {  // lint: mo-ok(seq_cst, not weaker: orders against the worker's waiting-store / SizeApprox-load pair)
    MutexLock lock(shard.mutex);
    shard.cv.NotifyOne();
  }
  MutexLock lock(sync.mutex);
  while (!sync.done) sync.cv.Wait(sync.mutex);
  return Status::OK();
}

Result<double> ScoringServer::Score(uint64_t route_key,
                                    const std::vector<double>& row) const {
  if (row.size() != num_inputs_) {
    return Status::InvalidArgument(
        "scoring server: expected " + std::to_string(num_inputs_) +
        " values, got " + std::to_string(row.size()));
  }
  const double* row_ptr = row.data();
  double proba = 0.0;
  SAFE_RETURN_NOT_OK(Submit(route_key, &row_ptr, 1, &proba));
  return proba;
}

Result<double> ScoringServer::Score(const std::vector<double>& row) const {
  // lint: mo-ok(standalone round-robin cursor; pairs only with itself)
  return Score(next_shard_.fetch_add(1, std::memory_order_relaxed), row);
}

Status ScoringServer::ScoreBatch(uint64_t route_key,
                                 const std::vector<std::vector<double>>& rows,
                                 std::vector<double>* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("scoring server: null output vector");
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != num_inputs_) {
      return Status::InvalidArgument(
          "scoring server: row " + std::to_string(r) + " has " +
          std::to_string(rows[r].size()) + " values, expected " +
          std::to_string(num_inputs_));
    }
  }
  if (rows.empty()) {
    out->clear();
    return Status::OK();
  }
  std::vector<const double*> row_ptrs;
  row_ptrs.reserve(rows.size());
  for (const std::vector<double>& row : rows) row_ptrs.push_back(row.data());
  // Score into a local buffer so a rejected request leaves `out`
  // untouched (the backpressure contract).
  std::vector<double> scores(rows.size(), 0.0);
  SAFE_RETURN_NOT_OK(
      Submit(route_key, row_ptrs.data(), rows.size(), scores.data()));
  *out = std::move(scores);
  return Status::OK();
}

Status ScoringServer::ScoreBatch(const std::vector<std::vector<double>>& rows,
                                 std::vector<double>* out) const {
  // lint: mo-ok(standalone round-robin cursor; pairs only with itself)
  return ScoreBatch(next_shard_.fetch_add(1, std::memory_order_relaxed), rows,
                    out);
}

void ScoringServer::CutBatch(Shard* shard, std::vector<Request>* staged,
                             size_t staged_rows,
                             std::vector<const double*>* row_ptrs,
                             std::vector<double>* outs,
                             BatchScorer::Scratch* scratch) {
  SAFE_FR_SCOPE("serve.server.batch");
  // Flatten the staged requests' row pointers; scoring runs in
  // kBlockRows blocks, so a cut larger than one block (a multi-row
  // request straddling max_batch_rows) costs extra blocks, never extra
  // allocation in steady state.
  row_ptrs->clear();
  for (const Request& request : *staged) {
    for (size_t i = 0; i < request.num_rows; ++i) {
      row_ptrs->push_back(request.rows[i]);
    }
  }
  outs->resize(staged_rows);
  for (size_t begin = 0; begin < staged_rows;
       begin += BatchScorer::kBlockRows) {
    const size_t n = std::min(BatchScorer::kBlockRows, staged_rows - begin);
    shard->scorer.ScoreBlockPtrs(row_ptrs->data() + begin, n, scratch,
                                 outs->data() + begin);
  }

  const uint64_t done_ns = obs::NowNanos();
  const ServerMetrics& metrics = ServerMetrics::Get();
  size_t offset = 0;
  for (const Request& request : *staged) {
    for (size_t i = 0; i < request.num_rows; ++i) {
      request.out[i] = (*outs)[offset + i];
    }
    offset += request.num_rows;
    metrics.latency_us->Observe(
        static_cast<double>(done_ns - request.enqueue_ns) / 1e3);
    // lint: mo-ok(standalone tallies; pair with stats()'s relaxed loads — completion itself is published by the sync mutex below)
    completed_requests_.fetch_add(1, std::memory_order_relaxed);
    // lint: mo-ok(see above)
    completed_rows_.fetch_add(request.num_rows, std::memory_order_relaxed);
    {
      // Notify while holding the sync mutex: the waiting caller owns the
      // Sync on its stack and may destroy it the moment it observes
      // `done`, so the cv must not be touched outside the lock.
      MutexLock lock(request.sync->mutex);
      request.sync->done = true;
      request.sync->cv.NotifyOne();
    }
  }
  // lint: mo-ok(standalone tally; pairs with stats()'s relaxed load)
  batches_.fetch_add(1, std::memory_order_relaxed);
  metrics.batches->Increment();
  metrics.batch_fill->Observe(static_cast<double>(staged_rows));
  metrics.queue_depth->Observe(
      static_cast<double>(shard->queue.SizeApprox()));
  SAFE_FR_COUNTER("serve.server.batch_fill",
                  static_cast<double>(staged_rows));
}

void ScoringServer::ShardLoop(Shard* shard) {
  // Label the timeline like pool workers do ("pool<id>.worker<k>"), so
  // flight-recorder traces attribute batch spans to shards.
  size_t shard_index = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].get() == shard) shard_index = s;
  }
  obs::FlightRecorder::Global()->SetCurrentThreadLabel(
      "server.shard" + std::to_string(shard_index));

  std::vector<Request> staged;
  size_t staged_rows = 0;
  std::vector<const double*> row_ptrs;
  std::vector<double> outs;
  BatchScorer::Scratch scratch = shard->scorer.MakeScratch();

  for (;;) {
    // Cut on drain: stage whatever is queued, up to max_batch_rows rows.
    // SizeApprox counts claimed slots, so a producer mid-push (claimed,
    // not yet published) makes us yield briefly instead of mistaking the
    // queue for empty.
    while (staged_rows < options_.max_batch_rows) {
      Request request;
      if (shard->queue.TryPop(&request)) {
        staged.push_back(request);
        staged_rows += request.num_rows;
        continue;
      }
      if (shard->queue.SizeApprox() == 0) break;
      std::this_thread::yield();
    }

    // Score what was staged at once: no request waits for co-riders, so
    // batches form only from a backlog queued while this worker was
    // busy. This is also the flush-on-close: Stop's drain cuts here.
    if (!staged.empty()) {
      CutBatch(shard, &staged, staged_rows, &row_ptrs, &outs, &scratch);
      staged.clear();
      staged_rows = 0;
      continue;
    }

    // Shutdown exit: keyed off queue.closed(), NOT stopping_.
    // Stop() sets stopping_ BEFORE waiting for in_flight_ submissions to
    // drain, so a racing Submit that passed its stopping check may still
    // push after stopping_ becomes visible here; exiting on stopping_
    // could strand that request (its caller would block forever). The
    // queue closes only after in_flight_ reaches zero, so once closed()
    // is true and the queue is drained, no further push can succeed and
    // it is safe to exit. stopping_ only keeps the worker from parking
    // below while Stop is under way.
    if (shard->queue.closed() && shard->queue.SizeApprox() == 0) break;

    MutexLock lock(shard->mutex);
    // lint: mo-ok(seq_cst, not weaker: the store must order before the SizeApprox below against a producer's TryPush CAS / waiting-load pair)
    shard->waiting.store(true, std::memory_order_seq_cst);
    // Park on the doorbell predicate (queue work or shutdown), re-checked
    // under the flag: a producer that missed `waiting` is guaranteed
    // (seq_cst) to be visible to SizeApprox, so re-evaluating the
    // predicate before every wait makes a lost or spurious wakeup
    // harmless.
    while (shard->queue.SizeApprox() == 0 &&
           !stopping_.load(std::memory_order_acquire)) {  // lint: mo-ok(acquire pairs with Stop's seq_cst store; only the flag itself is consumed here)
      shard->cv.Wait(shard->mutex);
    }
    // lint: mo-ok(relaxed un-park: producers that read a stale true only take one spurious notify)
    shard->waiting.store(false, std::memory_order_relaxed);
  }
}

}  // namespace server
}  // namespace serve
}  // namespace safe
