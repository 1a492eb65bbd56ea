// kusdbench_serial: the benchmark's serial baseline.
//
// Runs one plain single-threaded pass over a workload's trials (see
// common.hpp) and writes what the benchmark checks and reports:
//
//   --csv FILE     the cells as `kusd sweep --out` writes them
//   --jsonl FILE   the cells as `kusd sweep --json` writes them
//   --times FILE   one line per trial: "<create seconds> <run seconds>"
//
// The last stdout line is a JSON object with the pass's wall time
// (`serial_s`, the loop alone, without process start), the trial count
// and the number of trials that did not converge.
#include <cstdio>
#include <exception>
#include <fstream>
#include <set>
#include <string>

#include "common.hpp"
#include "runner/csv.hpp"

int main(int argc, char** argv) {
  try {
    std::set<std::string> known = kusdbench::spec_flags();
    known.insert({"csv", "jsonl", "times"});
    const auto flags = kusdbench::parse_flags(argc, argv, known);
    const auto spec = kusdbench::parse_spec(flags);
    const auto grid = kusd::runner::Sweep(spec).grid();

    const kusdbench::SerialPass pass = kusdbench::run_serial(spec, grid);

    kusd::runner::CsvWriter csv(kusdbench::required(flags, "csv"),
                                kusd::runner::Sweep::csv_header());
    std::ofstream jsonl(kusdbench::required(flags, "jsonl"));
    std::ofstream times(kusdbench::required(flags, "times"));
    times.precision(9);
    times << std::fixed;
    std::size_t trials = 0, not_converged = 0;
    for (const auto& point : pass.points) {
      csv.write_row(point.row);
      jsonl << kusd::runner::Sweep::json_line(point.row) << '\n';
      for (const auto& trial : point.trials) {
        times << static_cast<double>(trial.created_ns - trial.start_ns) * 1e-9
              << ' '
              << static_cast<double>(trial.end_ns - trial.created_ns) * 1e-9
              << '\n';
        ++trials;
        not_converged += trial.converged ? 0 : 1;
      }
    }
    csv.flush();
    jsonl.flush();
    times.flush();
    if (!csv.ok() || !jsonl || !times) {
      kusdbench::fail("writing an output file failed");
    }
    std::printf(
        "{\"serial_s\": %.9f, \"trials\": %zu, \"not_converged\": %zu}\n",
        pass.seconds(), trials, not_converged);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "kusdbench_serial: %s\n", error.what());
    return 1;
  }
}
