#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/dataframe/column.h"

namespace safe {

/// \brief A column-major table of features.
///
/// Columns are immutable and shared; DataFrame operations that rearrange
/// columns (Select, Concat) are zero-copy, while row operations (Take,
/// Slice) materialize new buffers. Column names are unique within a frame.
/// Columns may be resident or pooled/spillable (see column.h); a frame
/// may mix both.
class DataFrame {
 public:
  DataFrame() = default;

  /// Appends a column. Fails if the name already exists or the length
  /// disagrees with existing columns.
  [[nodiscard]] Status AddColumn(Column column);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }

  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column with `name`, or NotFound.
  [[nodiscard]] Result<size_t> ColumnIndex(const std::string& name) const;

  bool HasColumn(const std::string& name) const {
    return index_.find(name) != index_.end();
  }

  /// True if any column is pooled (possibly spilled).
  bool HasChunkedColumns() const;

  std::vector<std::string> ColumnNames() const;

  /// New frame holding the given columns (zero-copy). Indices may repeat
  /// only if renaming elsewhere prevents a duplicate-name clash; a
  /// duplicate name fails.
  [[nodiscard]] Result<DataFrame> Select(const std::vector<size_t>& indices) const;

  /// New frame with the given rows gathered (copies data; resident result).
  DataFrame TakeRows(const std::vector<size_t>& rows) const;

  /// New frame with rows [begin, end) (copies data; resident result).
  DataFrame SliceRows(size_t begin, size_t end) const;

  /// Value at (row, col). On a pooled column this pins/unpins the row
  /// group — use FrameWindow in loops.
  double at(size_t row, size_t col) const { return columns_[col][row]; }

  /// One materialized row (used by the real-time inference path).
  std::vector<double> Row(size_t row) const;

  /// Horizontally concatenates `other` onto a copy of this frame
  /// (zero-copy per column). Fails on duplicate names or row mismatch.
  [[nodiscard]] Result<DataFrame> Concat(const DataFrame& other) const;

 private:
  std::vector<Column> columns_;
  // lint: unordered-ok(name->index lookup only; never iterated)
  std::unordered_map<std::string, size_t> index_;
};

/// \brief A pinned row window [lo, hi) over some columns of a frame.
///
/// Pins the containing row group of each listed column once at
/// construction (so the window must not straddle a group boundary —
/// guaranteed when the window is a ParallelForChunks chunk whose grain
/// divides the frame's group_rows; a resident column's one group covers
/// every row) and exposes allocation-free random access inside the
/// window. Only the listed columns are pinned: a tree traversal reads its
/// split features and nothing else, so the other columns' row groups stay
/// where they are.
class FrameWindow {
 public:
  /// `columns` must be strictly ascending, which keeps the pool's fault
  /// sequence a function of the column set.
  FrameWindow(const DataFrame& frame, const std::vector<size_t>& columns,
              size_t lo, size_t hi);

  size_t lo() const { return lo_; }
  size_t hi() const { return hi_; }

  // lint: hot-path
  double at(size_t row, size_t col) const {
    SAFE_DCHECK(cols_[col] != nullptr) << "column " << col << " not pinned";
    return cols_[col][row - lo_];
  }

 private:
  size_t lo_ = 0;
  size_t hi_ = 0;
  std::vector<ChunkedVector<double>::Span> spans_;
  /// Per column, points at row lo_; null for a column not pinned.
  std::vector<const double*> cols_;
};

/// \brief A supervised dataset: features plus a binary {0,1} label vector.
/// Labels stay resident even for pooled frames — one double per row is
/// the working set every training pass touches anyway.
struct Dataset {
  DataFrame x;
  std::shared_ptr<const std::vector<double>> y;

  size_t num_rows() const { return x.num_rows(); }
  const std::vector<double>& labels() const { return *y; }
};

/// Builds a Dataset from parallel containers, validating shape and that
/// labels are binary {0,1}.
[[nodiscard]] Result<Dataset> MakeDataset(DataFrame x, std::vector<double> y);

/// Copy of `frame` with every column re-homed into `pool`-backed row
/// groups of `group_rows` rows. Bits are identical; only the storage
/// (and therefore residency) changes.
DataFrame ToChunkedFrame(const DataFrame& frame,
                         const std::shared_ptr<SpillPool>& pool,
                         size_t group_rows);

/// ToChunkedFrame over a dataset's features; labels stay resident.
Dataset ToChunkedDataset(const Dataset& dataset,
                         const std::shared_ptr<SpillPool>& pool,
                         size_t group_rows);

}  // namespace safe
