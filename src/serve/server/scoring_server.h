#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/mpsc_queue.h"
#include "src/common/thread_annotations.h"
#include "src/common/result.h"
#include "src/core/feature_plan.h"
#include "src/gbdt/booster.h"
#include "src/serve/batch_scorer.h"

namespace safe {
namespace serve {
namespace server {

/// \brief Scoring-server configuration (DESIGN.md "Scoring server").
struct ServerOptions {
  /// Independent shards: each owns a bounded MPSC request queue, one
  /// dedicated worker thread, and its own BatchScorer replica (private
  /// scratch, no cross-shard state), so shards never contend.
  size_t num_shards = 1;
  /// Per-shard queue bound in *requests* (a k-row batch request occupies
  /// one slot). A full queue rejects — admission control, not blocking.
  /// Rounded up to a power of two by the queue.
  size_t queue_capacity = 1024;
  /// Most rows one cut takes off a shard's queue. A worker scores
  /// whatever is queued as soon as it is free, so this only matters
  /// under a backlog: it bounds staging and how long the first request
  /// of a backlog waits for the rest. A multi-row request that straddles
  /// it still travels whole (the scorer splits a cut into kBlockRows
  /// blocks), so it moves batching granularity, never results.
  size_t max_batch_rows = 64;
};

/// \brief Functional counters of one server (plain atomics): the
/// no-loss/no-duplication contract is asserted on these. They belong to
/// the instance, where the process-wide `serve.server.*` registry series
/// add up every server in the process.
struct ServerStats {
  uint64_t accepted_requests = 0;
  uint64_t accepted_rows = 0;
  uint64_t rejected_requests = 0;
  uint64_t completed_requests = 0;
  uint64_t completed_rows = 0;
  uint64_t batches = 0;
};

/// \brief Multi-threaded scoring service over the vectorized batch
/// engine: the in-process front of ROADMAP item 2.
///
/// Architecture (client thread -> response):
///
///   Score()/ScoreBatch() --TryPush--> shard MPSC queue --drain--> worker
///     cut on drain: the worker pops whatever is queued (up to
///     max_batch_rows rows) and scores it at once, so no request waits
///     for co-riders; batches form only from a backlog that built up
///     while the worker was busy. BatchScorer::ScoreBlockPtrs scores the
///     staged row pointers in kBlockRows blocks, the worker writes each
///     request's output slots and rings its completion sync, and it
///     parks on the doorbell only when its queue is empty.
///
/// Contracts:
///   - Determinism: every response is bit-identical to calling
///     RowScorer::Score on the same row, for any shard count,
///     max_batch_rows, arrival interleaving, or batch cut points —
///     batch composition is invisible in the outputs (serve_server_test,
///     DESIGN.md "Vectorized batch execution" output contract).
///   - Backpressure: when a shard queue is full (or the server is
///     stopping) submission fails fast with StatusCode::kUnavailable;
///     the caller's output buffer is untouched. Nothing ever blocks on
///     admission, nothing accepted is ever dropped or scored twice.
///   - Shutdown: Stop() closes the queues (new requests rejected),
///     flushes every staged and queued request (flush-on-close), then
///     joins the workers; every accepted request completes.
///
/// Telemetry: serve.server.{requests,rows,rejected,batches} counters and
/// serve.server.{latency_us,batch_fill,queue_depth} histograms — a
/// namespace disjoint from the library-call series serve.latency_us /
/// serve.batch_latency_us, so server traffic never pollutes those.
/// Flight-recorder spans: serve.server.batch per cut on each shard
/// worker timeline ("server.shard<k>").
class ScoringServer {
 public:
  /// Builds per-shard BatchScorer replicas from the fitted plan +
  /// booster and starts the shard workers. Fails like BatchScorer::
  /// Create (plan/booster mismatch) or on zero-sized options.
  [[nodiscard]] static Result<std::unique_ptr<ScoringServer>> Create(
      const FeaturePlan& plan, const gbdt::Booster& booster,
      const ServerOptions& options);

  ~ScoringServer();

  ScoringServer(const ScoringServer&) = delete;
  ScoringServer& operator=(const ScoringServer&) = delete;

  size_t num_shards() const { return shards_.size(); }
  size_t num_inputs() const { return num_inputs_; }
  const ServerOptions& options() const { return options_; }

  /// Blocking single-row round trip on the shard `route_key` hashes to.
  /// Unavailable when that shard's queue is full or the server is
  /// stopping; InvalidArgument on a wrong-width row.
  [[nodiscard]] Result<double> Score(uint64_t route_key,
                                     const std::vector<double>& row) const;
  /// Round-robin routed variant.
  [[nodiscard]] Result<double> Score(const std::vector<double>& row) const;

  /// Blocking batch round trip: all rows travel as one request to one
  /// shard (one queue slot, all-or-nothing admission) and come back in
  /// input order in `out` (resized to rows.size()). On rejection `out`
  /// is untouched.
  [[nodiscard]] Status ScoreBatch(uint64_t route_key,
                                  const std::vector<std::vector<double>>& rows,
                                  std::vector<double>* out) const;
  [[nodiscard]] Status ScoreBatch(const std::vector<std::vector<double>>& rows,
                                  std::vector<double>* out) const;

  /// Drains every accepted request, then stops the workers. Idempotent;
  /// also run by the destructor. Submissions during and after Stop are
  /// rejected with kUnavailable.
  void Stop();

  ServerStats stats() const;

 private:
  struct Sync;

  /// One enqueued unit of work: k caller-owned row pointers plus their
  /// k output slots and the caller's completion sync. The caller blocks
  /// for the round trip, so every pointer stays valid until completion.
  struct Request {
    const double* const* rows = nullptr;
    double* out = nullptr;
    size_t num_rows = 0;
    Sync* sync = nullptr;
    uint64_t enqueue_ns = 0;
  };

  /// Per-call completion notifier on the calling thread's stack.
  struct Sync {
    Mutex mutex;
    CondVar cv;
    bool done GUARDED_BY(mutex) = false;
  };

  struct Shard {
    explicit Shard(size_t queue_capacity) : queue(queue_capacity) {}

    MpscQueue<Request> queue;
    // Doorbell: the worker parks here when idle; producers ring after a
    // successful push iff `waiting` says the worker may be asleep (the
    // seq_cst handshake with MpscQueue::TryPush/SizeApprox makes the
    // lost-wakeup window impossible — see ShardLoop). The cv predicate
    // is the lock-free queue state itself, so nothing is GUARDED_BY
    // this mutex; it exists only to make park/ring atomic.
    Mutex mutex;
    CondVar cv;
    std::atomic<bool> waiting{false};
    std::thread worker;
    BatchScorer scorer;  // replica: private compiled plan + forest
  };

  ScoringServer() = default;

  [[nodiscard]] Status Submit(uint64_t route_key, const double* const* rows,
                              size_t num_rows, double* out) const;
  void ShardLoop(Shard* shard);
  /// Scores and completes the staged requests (one cut).
  void CutBatch(Shard* shard, std::vector<Request>* staged, size_t staged_rows,
                std::vector<const double*>* row_ptrs,
                std::vector<double>* outs, BatchScorer::Scratch* scratch);

  ServerOptions options_;
  size_t num_inputs_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stop_started_{false};
  std::atomic<bool> stop_finished_{false};
  /// Submissions between their stopping-check and push outcome; Stop()
  /// waits for this to hit zero before closing the queues, so no request
  /// can be accepted into a queue the workers have drained past.
  mutable std::atomic<uint64_t> in_flight_{0};
  mutable std::atomic<uint64_t> next_shard_{0};

  // Functional counters (see ServerStats).
  mutable std::atomic<uint64_t> accepted_requests_{0};
  mutable std::atomic<uint64_t> accepted_rows_{0};
  mutable std::atomic<uint64_t> rejected_requests_{0};
  std::atomic<uint64_t> completed_requests_{0};
  std::atomic<uint64_t> completed_rows_{0};
  std::atomic<uint64_t> batches_{0};
};

}  // namespace server
}  // namespace serve
}  // namespace safe
