#include "src/dataframe/csv.h"

#include <cmath>
#include <fstream>

#include "src/common/string_util.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace safe {

Result<DataFrame> ReadCsv(const std::string& path,
                          const CsvReadOptions& options) {
  SAFE_FR_SCOPE("csv.read");
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::string line;
  std::vector<std::string> names;
  std::vector<std::vector<double>> data;
  size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitString(line, options.delimiter);
    if (names.empty()) {
      if (options.has_header) {
        for (auto& f : fields) {
          names.emplace_back(StripWhitespace(f));
        }
        data.resize(names.size());
        continue;
      }
      for (size_t i = 0; i < fields.size(); ++i) {
        names.push_back("c" + std::to_string(i));
      }
      data.resize(names.size());
    }
    if (fields.size() != names.size()) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_no) + ": expected " +
          std::to_string(names.size()) + " fields, got " +
          std::to_string(fields.size()));
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      auto parsed = ParseDouble(fields[i]);
      if (!parsed.ok()) {
        return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                       ": " + parsed.status().message());
      }
      data[i].push_back(*parsed);
    }
  }
  if (names.empty()) {
    return Status::InvalidArgument("'" + path + "' is empty");
  }

  DataFrame frame;
  for (size_t i = 0; i < names.size(); ++i) {
    SAFE_RETURN_NOT_OK(frame.AddColumn(Column(names[i], std::move(data[i]))));
  }
  obs::MetricsRegistry::Global()
      ->counter("csv.rows_read")
      ->Increment(frame.num_rows());
  obs::MetricsRegistry::Global()
      ->counter("csv.cells_parsed")
      ->Increment(frame.num_rows() * frame.num_columns());
  return frame;
}

Status WriteCsv(const DataFrame& frame, const std::string& path,
                char delimiter) {
  SAFE_FR_SCOPE("csv.write");
  obs::MetricsRegistry::Global()
      ->counter("csv.rows_written")
      ->Increment(frame.num_rows());
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  const auto names = frame.ColumnNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out << delimiter;
    out << names[i];
  }
  out << '\n';
  for (size_t r = 0; r < frame.num_rows(); ++r) {
    for (size_t c = 0; c < frame.num_columns(); ++c) {
      if (c > 0) out << delimiter;
      const double v = frame.at(r, c);
      if (!std::isnan(v)) out << FormatDouble(v, 9);
    }
    out << '\n';
  }
  if (!out) {
    return Status::IoError("write to '" + path + "' failed");
  }
  return Status::OK();
}

Result<Dataset> ReadCsvDataset(const std::string& path,
                               const std::string& label_column,
                               const CsvReadOptions& options) {
  SAFE_ASSIGN_OR_RETURN(DataFrame frame, ReadCsv(path, options));
  SAFE_ASSIGN_OR_RETURN(size_t label_idx, frame.ColumnIndex(label_column));
  std::vector<size_t> feature_idx;
  for (size_t i = 0; i < frame.num_columns(); ++i) {
    if (i != label_idx) feature_idx.push_back(i);
  }
  SAFE_ASSIGN_OR_RETURN(DataFrame x, frame.Select(feature_idx));
  std::vector<double> y = frame.column(label_idx).values();
  return MakeDataset(std::move(x), std::move(y));
}

}  // namespace safe
