#include "runner/csv.hpp"

#include <stdexcept>

#include "pp/trajectory.hpp"
#include "util/check.hpp"

namespace kusd::runner {

namespace {
// RFC 4180 quoting: cells containing separators, quotes, or line breaks
// (\n or \r — bare CR also breaks naive readers) are wrapped in double
// quotes with embedded quotes doubled.
std::string escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path), width_(header.size()) {
  // An unwritable path is an I/O failure, not a broken invariant.
  if (!out_.good()) throw std::runtime_error("cannot open " + path);
  write_cells(header);
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  KUSD_CHECK_MSG(cells.size() == width_, "CSV row width mismatch");
  write_cells(cells);
}

void CsvWriter::write_cells(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

void write_trajectory_csv(const pp::Trajectory& trajectory,
                          const std::string& path) {
  CsvWriter csv(path, {"t", "undecided", "xmax", "second", "sum_squares"});
  for (const auto& pt : trajectory.points()) {
    csv.write_row({std::to_string(pt.t), std::to_string(pt.undecided),
                   std::to_string(pt.xmax), std::to_string(pt.second),
                   std::to_string(pt.sum_squares)});
  }
}

}  // namespace kusd::runner
