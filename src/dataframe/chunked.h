#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/dataframe/spill.h"

namespace safe {

/// Smallest legal row-group size. Power-of-two and no smaller than every
/// ParallelForChunks grain used by the streaming consumers (the GBDT
/// trainer's 4096-row partition chunks, the booster's 2048-row predict
/// chunks), so a fixed-grain chunk can never straddle a group boundary —
/// each per-chunk window resolves to a single pinned span and the
/// chunk-ordered FP reductions see exactly the rows a monolithic loop
/// would.
constexpr size_t kMinRowGroupRows = 4096;

/// Default row-group size for out-of-core frames (64Ki rows = 512KiB per
/// double group).
constexpr size_t kDefaultRowGroupRows = 65536;

/// True when `group_rows` is a legal row-group size (power of two, at
/// least kMinRowGroupRows).
constexpr bool ValidRowGroupRows(size_t group_rows) {
  return group_rows >= kMinRowGroupRows &&
         (group_rows & (group_rows - 1)) == 0;
}

/// \brief An immutable sequence of T partitioned into fixed-size row
/// groups: the one storage behind every column.
///
/// A pooled vector's group payloads live in a SpillPool; reads pin the
/// containing group (faulting it back from the spill file if evicted) for
/// the lifetime of the returned Span. A resident vector holds its rows in
/// memory with no pool, and its one group covers every row. All groups
/// hold exactly group_rows() elements except the last, which may be
/// shorter. Instantiated for double (feature columns) and uint16_t
/// (quantized bin columns).
template <typename T>
class ChunkedVector {
 public:
  /// \brief A pinned, contiguous view of rows [begin, end) inside one
  /// group. data()[0] is row begin().
  class Span {
   public:
    Span() = default;
    const T* data() const { return data_; }
    size_t begin() const { return begin_; }
    size_t end() const { return end_; }
    size_t size() const { return end_ - begin_; }

   private:
    friend class ChunkedVector;
    SpillPool::Pin pin_;
    const T* data_ = nullptr;
    size_t begin_ = 0;
    size_t end_ = 0;
  };

  ChunkedVector(std::shared_ptr<SpillPool> pool, size_t group_rows,
                std::vector<uint64_t> group_ids, size_t size)
      : pool_(std::move(pool)),
        group_ids_(std::move(group_ids)),
        group_rows_(group_rows),
        size_(size) {
    SAFE_CHECK(pool_ != nullptr && ValidRowGroupRows(group_rows_));
  }

  /// A resident vector: one group of bit_ceil(max(size, kMinRowGroupRows))
  /// rows, so group_rows() is valid and every fixed chunk grain divides it.
  explicit ChunkedVector(std::vector<T> values)
      : values_(std::move(values)),
        group_rows_(std::bit_ceil(std::max(values_.size(), kMinRowGroupRows))),
        size_(values_.size()) {}

  size_t size() const { return size_; }
  size_t group_rows() const { return group_rows_; }
  size_t num_groups() const { return (size_ + group_rows_ - 1) / group_rows_; }
  /// The pool holding the groups; null for a resident vector.
  const std::shared_ptr<SpillPool>& pool() const { return pool_; }
  /// The rows of a resident vector; null for a pooled one.
  const std::vector<T>* resident() const {
    return pool_ ? nullptr : &values_;
  }

  size_t GroupOf(size_t row) const { return row / group_rows_; }
  size_t GroupBegin(size_t g) const { return g * group_rows_; }
  size_t GroupEnd(size_t g) const {
    const size_t end = (g + 1) * group_rows_;
    return end < size_ ? end : size_;
  }

  /// Pins rows [lo, hi), which must lie within a single group.
  Span PinSpan(size_t lo, size_t hi) const {
    SAFE_CHECK(lo < hi && hi <= size_);
    const size_t g = GroupOf(lo);
    SAFE_CHECK(hi <= GroupEnd(g))
        << "chunked: span [" << lo << "," << hi << ") straddles group "
        << g << " ending at " << GroupEnd(g);
    Span span;
    if (pool_) {
      span.pin_ = pool_->PinGroup(group_ids_[g]);
      span.data_ =
          static_cast<const T*>(span.pin_.data()) + (lo - GroupBegin(g));
    } else {
      span.data_ = values_.data() + lo;
    }
    span.begin_ = lo;
    span.end_ = hi;
    return span;
  }

  /// Invokes fn(base_row, values, len) for each maximal in-group span
  /// covering [lo, hi), in ascending row order. `values[0]` is row
  /// base_row. Groups are pinned one at a time.
  void ForEachSpan(
      size_t lo, size_t hi,
      const std::function<void(size_t, const T*, size_t)>& fn) const {
    SAFE_CHECK(lo <= hi && hi <= size_);
    size_t pos = lo;
    while (pos < hi) {
      const size_t g = GroupOf(pos);
      const size_t stop = std::min(hi, GroupEnd(g));
      Span span = PinSpan(pos, stop);
      fn(pos, span.data(), stop - pos);
      pos = stop;
    }
  }

  /// Copies rows [lo, hi) into `out` (contiguous).
  void CopyRange(size_t lo, size_t hi, T* out) const {
    ForEachSpan(lo, hi, [&](size_t base, const T* values, size_t len) {
      std::copy(values, values + len, out + (base - lo));
    });
  }

  /// Single-element read (pins and unpins the containing group — use
  /// spans or a ChunkedCursor in loops).
  T At(size_t i) const {
    SAFE_CHECK(i < size_);
    if (!pool_) return values_[i];
    const size_t g = GroupOf(i);
    SpillPool::Pin pin = pool_->PinGroup(group_ids_[g]);
    return static_cast<const T*>(pin.data())[i - GroupBegin(g)];
  }

 private:
  std::shared_ptr<SpillPool> pool_;
  std::vector<uint64_t> group_ids_;
  std::vector<T> values_;  ///< a resident vector's rows
  size_t group_rows_ = 0;
  size_t size_ = 0;
};

/// \brief Streaming writer for a ChunkedVector: appends values in row
/// order, sealing each full group into the pool as it completes (so at
/// most one group of scratch is ever held here). Without a pool it keeps
/// every row and finishes a resident vector (`group_rows` is then
/// ignored), so `ChunkedVectorBuilder(v.pool(), v.group_rows())` builds
/// a vector stored like `v`. `expected_rows` is a capacity hint: without
/// a pool, that many rows are reserved up front, so a resident vector of
/// known length is allocated once and never copied while it grows.
template <typename T>
class ChunkedVectorBuilder {
 public:
  explicit ChunkedVectorBuilder(std::shared_ptr<SpillPool> pool = nullptr,
                                size_t group_rows = kDefaultRowGroupRows,
                                size_t expected_rows = 0)
      : pool_(std::move(pool)), group_rows_(group_rows) {
    if (!pool_) {
      scratch_.reserve(expected_rows);
      return;
    }
    SAFE_CHECK(ValidRowGroupRows(group_rows_));
    scratch_.reserve(group_rows_);
  }

  void Append(const T* values, size_t n) {
    if (!pool_) {
      scratch_.insert(scratch_.end(), values, values + n);
      return;
    }
    size_t done = 0;
    while (done < n) {
      const size_t take =
          std::min(n - done, group_rows_ - scratch_.size());
      scratch_.insert(scratch_.end(), values + done, values + done + take);
      done += take;
      if (scratch_.size() == group_rows_) SealScratch();
    }
  }

  void Push(T value) {
    scratch_.push_back(value);
    if (pool_ && scratch_.size() == group_rows_) SealScratch();
  }

  size_t size() const { return sealed_rows_ + scratch_.size(); }

  /// Seals any partial final group and returns the finished vector. The
  /// builder is exhausted afterwards.
  std::shared_ptr<const ChunkedVector<T>> Finish() {
    if (!pool_) {
      auto out = std::make_shared<const ChunkedVector<T>>(std::move(scratch_));
      scratch_.clear();
      return out;
    }
    if (!scratch_.empty()) SealScratch();
    auto out = std::make_shared<const ChunkedVector<T>>(
        pool_, group_rows_, std::move(group_ids_), sealed_rows_);
    group_ids_.clear();
    return out;
  }

 private:
  void SealScratch() {
    group_ids_.push_back(
        pool_->Seal(scratch_.data(), scratch_.size() * sizeof(T)));
    sealed_rows_ += scratch_.size();
    scratch_.clear();
  }

  std::shared_ptr<SpillPool> pool_;
  size_t group_rows_;
  std::vector<T> scratch_;
  std::vector<uint64_t> group_ids_;
  size_t sealed_rows_ = 0;
};

/// \brief Sequential-friendly reader over a ChunkedVector: At(i) is a
/// bounds check plus a pointer read while i stays inside the current
/// pinned window, re-pinning only on a group change (a resident vector's
/// one window covers every row). Mostly-ascending access patterns (the
/// trainer's row lists, RankCombinations' row scan) touch each group once.
template <typename T>
class ChunkedCursor {
 public:
  /// `chunks` must outlive the cursor.
  explicit ChunkedCursor(const ChunkedVector<T>* chunks) : chunks_(chunks) {}

  // lint: hot-path
  T At(size_t i) {
    if (i >= lo_ && i < hi_) return window_[i - lo_];
    return Refill(i);
  }

 private:
  /// Slow path: pins the group containing row i and retries.
  T Refill(size_t i) {
    SAFE_CHECK(i < chunks_->size());
    const size_t g = chunks_->GroupOf(i);
    span_ = chunks_->PinSpan(chunks_->GroupBegin(g), chunks_->GroupEnd(g));
    window_ = span_.data();
    lo_ = span_.begin();
    hi_ = span_.end();
    return window_[i - lo_];
  }

  const ChunkedVector<T>* chunks_ = nullptr;
  typename ChunkedVector<T>::Span span_;
  const T* window_ = nullptr;
  size_t lo_ = 0;
  size_t hi_ = 0;
};

}  // namespace safe
