#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace safe {

/// \brief Point-in-time counters of one SpillPool, so tests and
/// benchmarks can read what this pool did. The pool also mirrors them
/// into the process-wide `dataframe.spill.*` registry series, which add
/// up every pool in the process.
struct SpillPoolStats {
  uint64_t evictions = 0;          ///< groups moved out of residency
  uint64_t faults = 0;             ///< groups copied back in on access
  uint64_t spill_write_bytes = 0;  ///< bytes memcpy'd into the backing file
  uint64_t spill_read_bytes = 0;   ///< bytes memcpy'd back out on fault
  size_t resident_bytes = 0;       ///< heap bytes currently resident
  size_t total_bytes = 0;          ///< payload bytes across all groups
  size_t num_groups = 0;           ///< sealed groups (resident + spilled)
  size_t file_bytes = 0;           ///< backing-file bytes in use
};

/// \brief mmap-backed spill pool for immutable row-group payloads.
///
/// Pooled columns (chunked.h) seal each row group into a pool; the pool
/// keeps groups resident on the heap until the configured resident-bytes
/// budget is exceeded, then evicts the **oldest unpinned** group to an
/// anonymous temp file (created with mkstemp and unlinked immediately, so
/// the kernel reclaims it even on a crash) and faults it back on the next
/// pin. Payloads are immutable, so a group is written to its file slot at
/// most once — re-evicting a faulted group just drops the heap copy.
///
/// Determinism contract: eviction order is insertion-order LRU — a FIFO
/// over (seal | fault) events with pinned groups skipped in place. No
/// wall-clock, no randomness, no address-dependent ordering feeds the
/// policy, so a fixed access sequence yields the same eviction/fault
/// sequence on every run. Payload round-trips are bit-lossless (raw
/// memcpy both ways: NaN payloads, -0.0 and signalling bits survive).
///
/// RSS contract: after every file write or fault read the touched mapping
/// range is released with madvise(MADV_DONTNEED), so spilled bytes live
/// in the page cache — not in this process's resident set. That is what
/// makes the bench_scaling --external_memory peak-RSS gate meaningful.
///
/// Thread safety: fully synchronized on one internal safe::Mutex; pins
/// returned to callers reference stable heap buffers that never move
/// while pinned. IO failures after construction (ftruncate/mmap on the
/// unlinked temp file) are unrecoverable mid-run and SAFE_CHECK-fail.
class SpillPool {
 public:
  struct Options {
    /// Heap bytes the pool may keep resident; 0 means unbounded (never
    /// spill). A budget smaller than one group still works: every sealed
    /// group is evicted immediately and faulted back per pin.
    size_t resident_budget_bytes = 0;
    /// Directory for the backing temp file; empty uses TMPDIR or /tmp.
    std::string dir;
  };

  /// \brief RAII read pin over one sealed group's payload. While alive,
  /// the group cannot be evicted and `data()` stays valid. Move-only;
  /// must not outlive the pool.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    const void* data() const { return data_; }
    size_t bytes() const { return bytes_; }
    bool valid() const { return pool_ != nullptr; }
    void Release();

   private:
    friend class SpillPool;
    Pin(SpillPool* pool, uint64_t id, const void* data, size_t bytes)
        : pool_(pool), id_(id), data_(data), bytes_(bytes) {}

    SpillPool* pool_ = nullptr;
    uint64_t id_ = 0;
    const void* data_ = nullptr;
    size_t bytes_ = 0;
  };

  [[nodiscard]] static Result<std::shared_ptr<SpillPool>> Create(
      const Options& options);
  ~SpillPool();

  SpillPool(const SpillPool&) = delete;
  SpillPool& operator=(const SpillPool&) = delete;

  /// Seals a new immutable group from `bytes` of payload (copied) and
  /// returns its id. May evict this or older groups if the budget is now
  /// exceeded.
  uint64_t Seal(const void* data, size_t bytes) EXCLUDES(mu_);

  /// Pins a sealed group's payload, faulting it back from the backing
  /// file if it was evicted.
  Pin PinGroup(uint64_t id) EXCLUDES(mu_);

  SpillPoolStats stats() const EXCLUDES(mu_);
  size_t resident_budget_bytes() const { return options_.resident_budget_bytes; }

  /// Ids of currently resident groups in eviction (insertion) order,
  /// oldest first. Test-only observability of the FIFO policy.
  std::vector<uint64_t> ResidentGroupIdsForTest() const EXCLUDES(mu_);

  /// Path of the directory holding the (already unlinked) backing file.
  const std::string& spill_dir() const { return spill_dir_; }

 private:
  struct Group {
    std::unique_ptr<char[]> data;  ///< resident payload; null when spilled
    size_t bytes = 0;
    /// Page-aligned offset of this group's slot in the backing file;
    /// SIZE_MAX until first eviction (spill-once: assigned exactly once).
    size_t file_offset = 0;
    bool has_file_slot = false;
    uint32_t pins = 0;
    /// Position in lru_ — valid iff in_lru.
    std::list<uint64_t>::iterator lru_it;
    bool in_lru = false;
  };

  explicit SpillPool(const Options& options);

  /// Grows the backing file and mapping to cover at least `need` bytes.
  void EnsureFileCapacityLocked(size_t need) REQUIRES(mu_);
  /// Evicts oldest unpinned groups until resident_bytes_ fits the budget
  /// (or only pinned groups remain).
  void EvictUntilUnderBudgetLocked() REQUIRES(mu_);
  void EvictGroupLocked(uint64_t id) REQUIRES(mu_);
  void FaultGroupLocked(uint64_t id) REQUIRES(mu_);
  void Unpin(uint64_t id) EXCLUDES(mu_);

  Options options_;
  std::string spill_dir_;
  int fd_ = -1;

  mutable Mutex mu_;
  std::vector<Group> groups_ GUARDED_BY(mu_);
  /// Resident, evictable group ids in insertion order (seal/fault time).
  std::list<uint64_t> lru_ GUARDED_BY(mu_);
  char* map_ GUARDED_BY(mu_) = nullptr;
  size_t map_bytes_ GUARDED_BY(mu_) = 0;
  size_t file_used_ GUARDED_BY(mu_) = 0;
  SpillPoolStats stats_ GUARDED_BY(mu_);
};

}  // namespace safe
