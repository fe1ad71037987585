#pragma once

#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/dataframe/chunked.h"

namespace safe {

/// Number of NaN entries in `values`.
size_t CountMissing(std::span<const double> values);

/// True when every non-missing entry of `values` equals the first
/// non-missing one (so also when every entry is missing).
bool IsConstant(std::span<const double> values);

/// \brief An immutable, named column of doubles.
///
/// All values in this library are doubles; NaN encodes a missing value.
/// A column's storage is one shared ChunkedVector (see chunked.h): either
/// resident (one group holding every row in memory, the default) or
/// pooled (fixed-size row groups in a SpillPool that may be evicted to
/// disk under a resident budget, see spill.h). Either way the buffer is
/// shared, so selecting / reordering columns in a DataFrame is O(1) per
/// column — essential when SAFE's candidate pool holds thousands of
/// columns over millions of rows.
///
/// Readers use `ForEachSpan` / `cursor` / `chunks()->PinSpan`, which
/// serve both storages: a resident column is one maximal span, so the
/// iteration order (and therefore every FP reduction) is identical.
/// `values()` is the resident-only accessor and CHECK-fails on a pooled
/// column.
class Column {
 public:
  Column() : Column("", std::vector<double>{}) {}

  Column(std::string name, std::vector<double> values)
      : Column(std::move(name), std::make_shared<const ChunkedVector<double>>(
                                    std::move(values))) {}

  Column(std::string name,
         std::shared_ptr<const ChunkedVector<double>> chunks)
      : name_(std::move(name)), chunks_(std::move(chunks)) {
    SAFE_CHECK(chunks_ != nullptr);
  }

  const std::string& name() const { return name_; }
  size_t size() const { return chunks_->size(); }

  /// True when this column's row groups live in a SpillPool (possibly
  /// spilled); false for a resident column.
  bool chunked() const { return chunks_->resident() == nullptr; }

  /// Resident values — CHECK-fails on a pooled column (use ForEachSpan /
  /// cursor / Gather for storage-agnostic access).
  const std::vector<double>& values() const {
    const std::vector<double>* resident = chunks_->resident();
    SAFE_CHECK(resident != nullptr)
        << "Column '" << name_ << "': values() on a chunked column";
    return *resident;
  }

  /// Single-element read. On a pooled column this pins and unpins the
  /// containing row group — use spans or a cursor in loops.
  double operator[](size_t i) const { return chunks_->At(i); }

  /// Shares the underlying storage under a new name.
  Column Renamed(std::string new_name) const {
    return Column(std::move(new_name), chunks_);
  }

  /// Invokes fn(base_row, values, len) for consecutive row spans covering
  /// [lo, hi) in ascending row order, one span per row group (a resident
  /// column yields one maximal span). Serial iteration over the spans
  /// accumulates in exactly the order a contiguous loop would.
  void ForEachSpan(
      size_t lo, size_t hi,
      const std::function<void(size_t, const double*, size_t)>& fn) const {
    chunks_->ForEachSpan(lo, hi, fn);
  }

  /// Sequential-friendly element reader.
  ChunkedCursor<double> cursor() const {
    return ChunkedCursor<double>(chunks_.get());
  }

  /// Materializes all rows into one contiguous vector (faulting spilled
  /// groups as needed).
  std::vector<double> Gather() const;

  /// Number of NaN entries (safe::CountMissing over every span).
  size_t CountMissing() const;

  /// safe::IsConstant over every span.
  bool IsConstant() const;

  /// The storage, resident or pooled.
  const std::shared_ptr<const ChunkedVector<double>>& chunks() const {
    return chunks_;
  }

  /// Copy of this column re-homed into `pool`-backed row groups of
  /// `group_rows` rows (identical bits, pooled storage). A no-op share
  /// if already pooled.
  Column AsChunked(const std::shared_ptr<SpillPool>& pool,
                   size_t group_rows) const;

 private:
  std::string name_;
  std::shared_ptr<const ChunkedVector<double>> chunks_;
};

/// \brief The rows of a vector or a Column as ascending contiguous spans:
/// a vector or a resident column is one span, a pooled column one span
/// per row group. The statistics kernels (quantile cuts, IV, Pearson)
/// take this one shape, so each has one body whatever the storage; a
/// vector is read in place, never copied into a Column, and a pooled
/// column is never gathered. A view: its source must outlive it.
class RowSpans {
 public:
  explicit RowSpans(const std::vector<double>& values) : whole_(values) {}
  explicit RowSpans(const Column& column);

  size_t size() const { return chunks_ ? chunks_->size() : whole_.size(); }

  /// Invokes fn(base_row, values, len) over spans covering every row in
  /// ascending order (pinning one row group at a time), so a serial
  /// reduction over them accumulates in contiguous-loop order.
  void ForEach(
      const std::function<void(size_t, const double*, size_t)>& fn) const;

 private:
  friend void ZipSpans(
      const RowSpans& a, const RowSpans& b,
      const std::function<void(const double*, const double*, size_t)>& fn);

  /// Row `pos` and, in `*end`, the row one past its contiguous window
  /// (the next group boundary, or the end); `*pin` keeps a pooled
  /// window's group resident.
  const double* Window(size_t pos, ChunkedVector<double>::Span* pin,
                       size_t* end) const;

  std::span<const double> whole_;                  ///< contiguous rows
  const ChunkedVector<double>* chunks_ = nullptr;  ///< pooled rows
};

/// Invokes fn(pa, pb, len) over the maximal windows where both `a` and
/// `b` are contiguous, in ascending row order; pa and pb point at the
/// same row. Requires a.size() == b.size().
void ZipSpans(
    const RowSpans& a, const RowSpans& b,
    const std::function<void(const double*, const double*, size_t)>& fn);

/// \brief Lends columns to an operator as contiguous vectors, then stores
/// its output like them.
///
/// Resident columns are borrowed; pooled ones are gathered, so at most
/// one copy per lent column is resident while the loan lives, regardless
/// of frame width. The gathered bits equal the stored bits, so what an
/// operator computes does not depend on storage.
class ColumnLoan {
 public:
  ColumnLoan() = default;
  ColumnLoan(const ColumnLoan&) = delete;
  ColumnLoan& operator=(const ColumnLoan&) = delete;

  /// Appends `column` to the loan; it must outlive the loan.
  void Lend(const Column& column);

  /// One contiguous vector per lent column, in lending order.
  const std::vector<const std::vector<double>*>& vectors() const {
    return vectors_;
  }

  /// `child` re-homed like the first pooled lent column (same pool and
  /// group size), keeping a candidate pool spillable; unchanged when every
  /// lent column is resident.
  Column StoreLike(Column child) const;

 private:
  std::deque<std::vector<double>> gathered_;  // stable element addresses
  std::vector<const std::vector<double>*> vectors_;
  const ChunkedVector<double>* home_ = nullptr;
};

}  // namespace safe
