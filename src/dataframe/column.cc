#include "src/dataframe/column.h"

namespace safe {

std::vector<double> Column::Gather() const {
  std::vector<double> out(size());
  chunks_->CopyRange(0, size(), out.data());
  return out;
}

size_t Column::CountMissing() const {
  size_t n = 0;
  ForEachSpan(0, size(), [&](size_t, const double* values, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      if (std::isnan(values[i])) ++n;
    }
  });
  return n;
}

bool Column::IsConstant() const {
  bool seen = false;
  bool constant = true;
  double first = 0.0;
  ForEachSpan(0, size(), [&](size_t, const double* values, size_t len) {
    if (!constant) return;
    for (size_t i = 0; i < len; ++i) {
      const double v = values[i];
      if (std::isnan(v)) continue;
      if (!seen) {
        first = v;
        seen = true;
      } else if (v != first) {
        constant = false;
        return;
      }
    }
  });
  return constant;
}

Column Column::AsChunked(const std::shared_ptr<SpillPool>& pool,
                         size_t group_rows) const {
  if (chunked()) return *this;
  ChunkedVectorBuilder<double> builder(pool, group_rows);
  ForEachSpan(0, size(), [&](size_t, const double* values, size_t len) {
    builder.Append(values, len);
  });
  return Column(name_, builder.Finish());
}

void ColumnLoan::Lend(const Column& column) {
  const ChunkedVector<double>& chunks = *column.chunks();
  if (const std::vector<double>* resident = chunks.resident()) {
    vectors_.push_back(resident);
    return;
  }
  if (home_ == nullptr) home_ = &chunks;
  vectors_.push_back(&gathered_.emplace_back(column.Gather()));
}

Column ColumnLoan::StoreLike(Column child) const {
  if (home_ == nullptr) return child;
  return child.AsChunked(home_->pool(), home_->group_rows());
}

}  // namespace safe
