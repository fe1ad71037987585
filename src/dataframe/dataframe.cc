#include "src/dataframe/dataframe.h"

#include <utility>

namespace safe {

Status DataFrame::AddColumn(Column column) {
  if (!columns_.empty() && column.size() != num_rows()) {
    return Status::InvalidArgument(
        "column '" + column.name() + "' has " +
        std::to_string(column.size()) + " rows, frame has " +
        std::to_string(num_rows()));
  }
  if (index_.find(column.name()) != index_.end()) {
    return Status::AlreadyExists("duplicate column name '" + column.name() +
                                 "'");
  }
  index_.emplace(column.name(), columns_.size());
  columns_.push_back(std::move(column));
  return Status::OK();
}

Result<size_t> DataFrame::ColumnIndex(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("no column named '" + name + "'");
  }
  return it->second;
}

bool DataFrame::HasChunkedColumns() const {
  for (const auto& c : columns_) {
    if (c.chunked()) return true;
  }
  return false;
}

std::vector<std::string> DataFrame::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const auto& c : columns_) names.push_back(c.name());
  return names;
}

Result<DataFrame> DataFrame::Select(const std::vector<size_t>& indices) const {
  DataFrame out;
  for (size_t i : indices) {
    if (i >= columns_.size()) {
      return Status::OutOfRange("column index " + std::to_string(i) +
                                " out of range (have " +
                                std::to_string(columns_.size()) + ")");
    }
    SAFE_RETURN_NOT_OK(out.AddColumn(columns_[i]));
  }
  return out;
}

DataFrame DataFrame::TakeRows(const std::vector<size_t>& rows) const {
  DataFrame out;
  for (const auto& col : columns_) {
    ChunkedCursor<double> cursor = col.cursor();
    std::vector<double> data;
    data.reserve(rows.size());
    for (size_t r : rows) data.push_back(cursor.At(r));
    SAFE_CHECK(out.AddColumn(Column(col.name(), std::move(data))).ok());
  }
  return out;
}

DataFrame DataFrame::SliceRows(size_t begin, size_t end) const {
  SAFE_CHECK(begin <= end && end <= num_rows());
  DataFrame out;
  for (const auto& col : columns_) {
    std::vector<double> data(end - begin);
    col.ForEachSpan(begin, end,
                    [&](size_t base, const double* values, size_t len) {
                      std::copy(values, values + len,
                                data.data() + (base - begin));
                    });
    SAFE_CHECK(out.AddColumn(Column(col.name(), std::move(data))).ok());
  }
  return out;
}

std::vector<double> DataFrame::Row(size_t row) const {
  std::vector<double> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col[row]);
  return out;
}

Result<DataFrame> DataFrame::Concat(const DataFrame& other) const {
  if (num_columns() > 0 && other.num_columns() > 0 &&
      num_rows() != other.num_rows()) {
    return Status::InvalidArgument(
        "row mismatch in Concat: " + std::to_string(num_rows()) + " vs " +
        std::to_string(other.num_rows()));
  }
  DataFrame out = *this;
  for (const auto& col : other.columns()) {
    SAFE_RETURN_NOT_OK(out.AddColumn(col));
  }
  return out;
}

FrameWindow::FrameWindow(const DataFrame& frame,
                         const std::vector<size_t>& columns, size_t lo,
                         size_t hi)
    : lo_(lo), hi_(hi) {
  SAFE_CHECK(lo < hi && hi <= frame.num_rows());
  cols_.assign(frame.num_columns(), nullptr);
  spans_.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    const size_t c = columns[i];
    SAFE_CHECK(c < frame.num_columns() && (i == 0 || columns[i - 1] < c))
        << "FrameWindow: columns must be strictly ascending and in range";
    spans_.push_back(frame.column(c).chunks()->PinSpan(lo, hi));
    cols_[c] = spans_.back().data();
  }
}

Result<Dataset> MakeDataset(DataFrame x, std::vector<double> y) {
  if (x.num_rows() != y.size()) {
    return Status::InvalidArgument(
        "feature/label row mismatch: " + std::to_string(x.num_rows()) +
        " vs " + std::to_string(y.size()));
  }
  for (double v : y) {
    if (v != 0.0 && v != 1.0) {
      return Status::InvalidArgument(
          "labels must be binary {0,1}; saw " + std::to_string(v));
    }
  }
  Dataset d;
  d.x = std::move(x);
  d.y = std::make_shared<const std::vector<double>>(std::move(y));
  return d;
}

DataFrame ToChunkedFrame(const DataFrame& frame,
                         const std::shared_ptr<SpillPool>& pool,
                         size_t group_rows) {
  DataFrame out;
  for (const auto& col : frame.columns()) {
    SAFE_CHECK(out.AddColumn(col.AsChunked(pool, group_rows)).ok());
  }
  return out;
}

Dataset ToChunkedDataset(const Dataset& dataset,
                         const std::shared_ptr<SpillPool>& pool,
                         size_t group_rows) {
  Dataset out;
  out.x = ToChunkedFrame(dataset.x, pool, group_rows);
  out.y = dataset.y;
  return out;
}

}  // namespace safe
