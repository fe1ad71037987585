#include "src/dataframe/column.h"

#include <algorithm>
#include <limits>

namespace safe {

std::vector<double> Column::Gather() const {
  std::vector<double> out(size());
  chunks_->CopyRange(0, size(), out.data());
  return out;
}

namespace {

/// IsConstant over consecutive spans: `*first` is the first non-missing
/// value seen so far, NaN until there is one.
bool ContinuesConstant(std::span<const double> values, double* first) {
  for (const double v : values) {
    if (std::isnan(v)) continue;
    if (std::isnan(*first)) {
      *first = v;
    } else if (v != *first) {
      return false;
    }
  }
  return true;
}

}  // namespace

size_t CountMissing(std::span<const double> values) {
  size_t n = 0;
  for (const double v : values) {
    if (std::isnan(v)) ++n;
  }
  return n;
}

bool IsConstant(std::span<const double> values) {
  double first = std::numeric_limits<double>::quiet_NaN();
  return ContinuesConstant(values, &first);
}

size_t Column::CountMissing() const {
  size_t n = 0;
  ForEachSpan(0, size(), [&](size_t, const double* values, size_t len) {
    n += safe::CountMissing({values, len});
  });
  return n;
}

bool Column::IsConstant() const {
  double first = std::numeric_limits<double>::quiet_NaN();
  bool constant = true;
  ForEachSpan(0, size(), [&](size_t, const double* values, size_t len) {
    constant = constant && ContinuesConstant({values, len}, &first);
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

RowSpans::RowSpans(const Column& column) {
  const ChunkedVector<double>& chunks = *column.chunks();
  if (const std::vector<double>* resident = chunks.resident()) {
    whole_ = *resident;
  } else {
    chunks_ = &chunks;
  }
}

void RowSpans::ForEach(
    const std::function<void(size_t, const double*, size_t)>& fn) const {
  if (chunks_ != nullptr) {
    chunks_->ForEachSpan(0, chunks_->size(), fn);
  } else if (!whole_.empty()) {
    fn(0, whole_.data(), whole_.size());
  }
}

const double* RowSpans::Window(size_t pos, ChunkedVector<double>::Span* pin,
                               size_t* end) const {
  if (chunks_ == nullptr) {
    *end = whole_.size();
    return whole_.data() + pos;
  }
  *pin = chunks_->PinSpan(pos, chunks_->GroupEnd(chunks_->GroupOf(pos)));
  *end = pin->end();
  return pin->data();
}

void ZipSpans(
    const RowSpans& a, const RowSpans& b,
    const std::function<void(const double*, const double*, size_t)>& fn) {
  SAFE_CHECK(a.size() == b.size());
  ChunkedVector<double>::Span pin_a;
  ChunkedVector<double>::Span pin_b;
  for (size_t pos = 0; pos < a.size();) {
    size_t end_a = 0;
    size_t end_b = 0;
    const double* pa = a.Window(pos, &pin_a, &end_a);
    const double* pb = b.Window(pos, &pin_b, &end_b);
    const size_t stop = std::min(end_a, end_b);
    fn(pa, pb, stop - pos);
    pos = stop;
  }
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
