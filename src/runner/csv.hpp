// CSV export so the benches' series can be re-plotted downstream.
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "pp/trajectory.hpp"

namespace kusd::runner {

class CsvWriter {
 public:
  /// Opens (truncates) `path` and writes the header row; throws
  /// std::runtime_error("cannot open <path>") when it cannot.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  void write_row(const std::vector<std::string>& cells);

  /// Push buffered rows to disk — call after each row when a long run's
  /// partial output must survive interruption.
  void flush() { out_.flush(); }

  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

 private:
  void write_cells(const std::vector<std::string>& cells);
  std::ofstream out_;
  std::size_t width_;
};

/// Write a recorded trajectory as t, undecided, xmax, second, sum_squares
/// rows. Lives here rather than on pp::Trajectory so the pp layer does not
/// depend upward on runner's CSV machinery.
void write_trajectory_csv(const pp::Trajectory& trajectory,
                          const std::string& path);

}  // namespace kusd::runner
