// E15 — sweep scheduler scaling: work-stealing execution of
// many-small-point grids.
//
// runner::Sweep schedules every grid as one work-stealing task graph of
// (point, trial-stripe) units. For grids of many tiny points the stripe
// width sets the stealing grain: wide stripes collapse each point to one
// unit (whole-point stealing, minimal overhead), narrow stripes cut each
// point into many units (fine-grained balancing). Either way the grid
// should scale near-linearly with the worker count until the hardware
// runs out, and the streamed rows must stay byte-identical to the
// single-thread run — stripe width and shuffle are pure scheduling.
//
// This bench runs one such grid — engine x k x bias, small n, a few
// trials per point — once untimed (warm-up, and the byte-identity
// reference), then kRepetitions times at each of 1, 2 and 4 threads
// (shuffled at 4), interleaving the thread counts within each repetition
// so slow drift in the host hits every count alike. Every run is checked
// against the reference. Each count reports the median and IQR of its
// wall-clock samples, and each speedup divides the 1-thread median from
// the same loop by that count's median, so warm-up never counts as
// speedup. Results and host provenance go to BENCH_sweep.json; speedups
// are only meaningful relative to the recorded host_nproc.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runner/sweep.hpp"
#include "util/stopwatch.hpp"

using namespace kusd;

namespace {

runner::SweepSpec grid_spec() {
  runner::SweepSpec spec;
  // Many small points: 2 engines x 2 n x 3 k x 4 alpha = 48 cells of a
  // few hundred agents each.
  spec.engines = {"skip", "gossip"};
  spec.ns = {runner::scaled(2000, 200), runner::scaled(4000, 400)};
  spec.ks = {2, 4, 8};
  spec.bias_kind = runner::BiasKind::kMultiplicative;
  spec.bias_values = {1.5, 2.0, 3.0, 4.0};
  spec.trials = runner::scaled_trials(8, 2);
  spec.master_seed = 0xE15;
  return spec;
}

/// Render the streamed rows into one string (the byte-identity witness).
std::string run_rendered(const runner::SweepSpec& spec, double* seconds) {
  const runner::Sweep sweep(spec);
  std::string out;
  util::Stopwatch watch;
  sweep.run([&out](const runner::SweepCell& cell) {
    for (const auto& field : runner::Sweep::csv_row(cell)) {
      out += field;
      out += ',';
    }
    out += '\n';
  });
  *seconds = watch.seconds();
  return out;
}

}  // namespace

int main() {
  bench::banner("E15", "work-stealing sweep scaling",
                "Grids of many tiny points: the (point, trial-stripe) task "
                "graph at 1, 2 and 4 threads, byte-identical output, median "
                "and IQR wall-clock per thread count.");

  constexpr int kRepetitions = 7;
  const std::vector<std::size_t> thread_counts = {1, 2, 4};
  auto spec = grid_spec();
  const std::size_t grid_cells = runner::Sweep(spec).grid().size();

  double warmup_s = 0.0;
  spec.threads = 1;
  const std::string reference = run_rendered(spec, &warmup_s);

  bool all_identical = true;
  std::vector<std::vector<double>> samples(thread_counts.size());
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      spec.threads = thread_counts[i];
      spec.shuffle_points = i + 1 == thread_counts.size();
      double seconds = 0.0;
      all_identical = run_rendered(spec, &seconds) == reference &&
                      all_identical;
      samples[i].push_back(seconds);
    }
  }

  bench::JsonResult json;
  json.add_string("bench", "bench_sweep_scaling");
  json.add("repro_scale", runner::repro_scale());
  bench::add_provenance(json);
  json.add("grid_cells", static_cast<std::uint64_t>(grid_cells));
  json.add("trials_per_cell", spec.trials);
  json.add("repetitions", kRepetitions);
  json.add("warmup_seconds", warmup_s);

  runner::Table table({"mode", "threads", "median s", "IQR s", "speedup"});
  const double t1_median = bench::spread_of(samples[0]).median;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const bench::Spread spread = bench::spread_of(samples[i]);
    const double speedup = t1_median / std::max(spread.median, 1e-9);
    const std::string suffix = "_t" + std::to_string(thread_counts[i]);
    table.add_row({i + 1 == thread_counts.size() ? "work-stealing+shuffle"
                                                 : "work-stealing",
                   std::to_string(thread_counts[i]),
                   runner::fmt(spread.median, 4), runner::fmt(spread.iqr(), 4),
                   runner::fmt(speedup, 2)});
    json.add("task_graph_seconds" + suffix, spread.median);
    json.add("task_graph_seconds_iqr" + suffix, spread.iqr());
    json.add("speedup" + suffix, speedup);
  }
  table.print();

  json.add_bool("output_byte_identical", all_identical);
  const bool json_ok = json.write("BENCH_sweep.json");
  std::printf("\noutput byte-identical across schedules: %s\n",
              all_identical ? "yes" : "NO");
  std::printf("wrote BENCH_sweep.json\n");
  // Byte-identity is a correctness contract, not a perf number: fail the
  // bench (and the bench-smoke CI run) if it breaks.
  return (all_identical && json_ok) ? 0 : 1;
}
