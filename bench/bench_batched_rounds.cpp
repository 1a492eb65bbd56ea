// E10 — batched round engine: Θ(n) interactions per O(k) draw.
//
// Three demonstrations of the BatchedUsdSimulator (chunked Poissonization):
//
//  1. Fixed-budget throughput vs StepMode::kEveryInteraction at
//     n = 10^8, k = 32: both engines advance the same interaction budget
//     from the same configuration; the batched engine must be >= 50x
//     faster (it is typically 10^4-10^6 x).
//  2. Adaptive vs fixed chunk policy at the same scale, full convergence:
//     the error-controlled ChunkController must beat the fixed 2% chunk
//     by >= 3x wall-clock at equal accuracy (accuracy is pinned by the KS
//     property tests and re-checked here at small n). Results land in
//     BENCH_adaptive.json.
//  3. Full convergence at n = 10^9, k = 64 — a population size the
//     per-interaction engines cannot touch — completing in seconds.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "core/batched_usd.hpp"
#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"
#include "util/stopwatch.hpp"

using namespace kusd;

namespace {

double time_plain_budget(const pp::Configuration& x0, std::uint64_t budget,
                         std::uint64_t seed) {
  core::UsdSimulator sim(x0, rng::Rng(seed),
                         core::StepMode::kEveryInteraction);
  util::Stopwatch watch;
  sim.run_to_consensus(budget);
  return watch.seconds();
}

double time_batched_budget(const pp::Configuration& x0, std::uint64_t budget,
                           std::uint64_t seed) {
  core::BatchedUsdSimulator sim(x0, rng::Rng(seed));
  util::Stopwatch watch;
  sim.run_to_consensus(budget);
  return watch.seconds();
}

struct PolicyRun {
  double seconds = 0.0;
  std::uint64_t chunks = 0;
  double parallel_time = 0.0;
  bool converged = false;
};

PolicyRun run_policy(const pp::Configuration& x0, core::ChunkOptions options,
                     std::uint64_t seed) {
  core::BatchedUsdSimulator sim(x0, rng::Rng(seed), options);
  util::Stopwatch watch;
  PolicyRun out;
  out.converged = sim.run_to_consensus(~std::uint64_t{0});
  out.seconds = watch.seconds();
  out.chunks = sim.chunks();
  out.parallel_time = static_cast<double>(sim.interactions()) /
                      static_cast<double>(sim.n());
  return out;
}

std::vector<double> consensus_times(const pp::Configuration& x0, int trials,
                                    std::uint64_t seed_base,
                                    const core::ChunkOptions* options) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    const auto seed =
        rng::stream_seed(seed_base, static_cast<std::uint64_t>(t));
    std::uint64_t interactions = 0;
    if (options == nullptr) {
      core::UsdSimulator sim(
          x0, rng::Rng(seed),
          core::StepMode::kEveryInteraction);
      sim.run_to_consensus(~std::uint64_t{0});
      interactions = sim.interactions();
    } else {
      core::BatchedUsdSimulator sim(x0, rng::Rng(seed), *options);
      sim.run_to_consensus(~std::uint64_t{0});
      interactions = sim.interactions();
    }
    out.push_back(static_cast<double>(interactions));
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("E10", "batched round engine",
                "Chunked-multinomial batching advances Theta(n) "
                "interactions in O(k) work: fixed-budget speedup over "
                "kEveryInteraction, the adaptive chunk controller vs the "
                "fixed 2% chunk, then n = 1e9 full convergence.");

  // ---- Part 1: fixed interaction budget, identical work for both ----
  {
    const pp::Count n = runner::scaled(100'000'000);
    const int k = 32;
    const auto x0 = pp::Configuration::uniform(n, k, 0);
    // 2n interactions ~ 2 units of parallel time: enough to be firmly in
    // the steady state, small enough that the plain engine finishes.
    const std::uint64_t budget = 2 * n;

    runner::Table table({"engine", "interactions", "seconds", "speedup"});
    const double plain_s = time_plain_budget(x0, budget, 0xE10);
    const double batched_s = time_batched_budget(x0, budget, 0xE10);
    const double speedup = plain_s / std::max(batched_s, 1e-9);
    table.add_row({"every-interaction", runner::fmt_compact(
                       static_cast<double>(budget)),
                   runner::fmt(plain_s, 4), "1.0"});
    table.add_row({"batched-rounds", runner::fmt_compact(
                       static_cast<double>(budget)),
                   runner::fmt(batched_s, 4), runner::fmt(speedup, 1)});
    table.print();
    std::printf("speedup %s >= 50x target: %s\n\n",
                runner::fmt(speedup, 1).c_str(),
                speedup >= 50.0 ? "yes" : "NO");
  }

  // ---- Part 2: adaptive vs fixed chunk policy, full convergence ----
  bool json_ok = true;
  {
    const pp::Count n = runner::scaled(100'000'000);
    const int k = 32;
    const auto x0 = pp::Configuration::uniform(n, k, 0);
    core::ChunkOptions fixed;  // 2% chunks
    core::ChunkOptions adaptive;
    adaptive.policy = core::ChunkPolicy::kAdaptive;

    const auto fixed_run = run_policy(x0, fixed, 0xE10A);
    const auto adaptive_run = run_policy(x0, adaptive, 0xE10A);
    const double speedup =
        fixed_run.seconds / std::max(adaptive_run.seconds, 1e-9);
    const double chunk_ratio =
        static_cast<double>(fixed_run.chunks) /
        std::max<double>(1.0, static_cast<double>(adaptive_run.chunks));

    runner::Table table(
        {"policy", "converged", "parallel time", "chunks", "seconds",
         "speedup"});
    table.add_row({"fixed-2%", fixed_run.converged ? "yes" : "no",
                   runner::fmt(fixed_run.parallel_time, 1),
                   runner::fmt_int(fixed_run.chunks),
                   runner::fmt(fixed_run.seconds, 4), "1.0"});
    table.add_row({"adaptive", adaptive_run.converged ? "yes" : "no",
                   runner::fmt(adaptive_run.parallel_time, 1),
                   runner::fmt_int(adaptive_run.chunks),
                   runner::fmt(adaptive_run.seconds, 4),
                   runner::fmt(speedup, 1)});
    table.print();
    std::printf("adaptive speedup %s >= 3x target: %s\n\n",
                runner::fmt(speedup, 1).c_str(),
                speedup >= 3.0 ? "yes" : "NO");

    // Equal-accuracy check at property-test scale: both chunk policies
    // must be KS-indistinguishable from the exact chain on the
    // consensus-time distribution.
    const auto x_small = pp::Configuration::uniform(400, 3, 0);
    const int trials = runner::scaled_trials(350, 60);
    const auto exact = consensus_times(x_small, trials, 0xE10B, nullptr);
    const auto with_fixed =
        consensus_times(x_small, trials, 0xE10C, &fixed);
    const auto with_adaptive =
        consensus_times(x_small, trials, 0xE10D, &adaptive);
    const double threshold =
        stats::ks_threshold(exact.size(), with_adaptive.size(), 0.001);
    const double ks_fixed = stats::ks_statistic(exact, with_fixed);
    const double ks_adaptive = stats::ks_statistic(exact, with_adaptive);
    std::printf("KS vs exact chain at n=400 (threshold %.4f, %d trials): "
                "fixed %.4f %s, adaptive %.4f %s\n\n",
                threshold, trials, ks_fixed,
                ks_fixed < threshold ? "pass" : "FAIL", ks_adaptive,
                ks_adaptive < threshold ? "pass" : "FAIL");

    bench::JsonResult json;
    json.add_string("bench", "bench_batched_rounds/adaptive_vs_fixed");
    json.add("repro_scale", runner::repro_scale());
    json.add("n", static_cast<std::uint64_t>(n));
    json.add("k", k);
    json.add("fixed_chunk_fraction", fixed.chunk_fraction);
    json.add("adaptive_drift_tolerance", adaptive.adaptive.drift_tolerance);
    json.add("adaptive_max_fraction", adaptive.adaptive.max_fraction);
    json.add("fixed_seconds", fixed_run.seconds);
    json.add("adaptive_seconds", adaptive_run.seconds);
    json.add("fixed_chunks", fixed_run.chunks);
    json.add("adaptive_chunks", adaptive_run.chunks);
    json.add("fixed_parallel_time", fixed_run.parallel_time);
    json.add("adaptive_parallel_time", adaptive_run.parallel_time);
    json.add("wall_speedup", speedup);
    json.add("chunk_ratio", chunk_ratio);
    json.add_bool("speedup_target_3x_met", speedup >= 3.0);
    json.add("ks_trials", trials);
    json.add("ks_threshold", threshold);
    json.add("ks_fixed_vs_exact", ks_fixed);
    json.add("ks_adaptive_vs_exact", ks_adaptive);
    json.add_bool("ks_pass", ks_adaptive < threshold && ks_fixed < threshold);
    json_ok = json.write("BENCH_adaptive.json") && json_ok;
    std::printf("wrote BENCH_adaptive.json\n\n");
  }

  // ---- Part 3: n = 1e9, k = 64, batched engine runs to consensus ----
  {
    const pp::Count n = runner::scaled(1'000'000'000);
    const int k = 64;
    const auto x0 = pp::Configuration::uniform(n, k, 0);
    core::BatchedUsdSimulator sim(x0, rng::Rng(0xE10B));
    util::Stopwatch watch;
    const bool converged =
        sim.run_to_consensus(~std::uint64_t{0});
    const double seconds = watch.seconds();
    runner::Table table(
        {"n", "k", "converged", "parallel time", "chunks", "seconds"});
    table.add_row({runner::fmt_compact(static_cast<double>(n)),
                   std::to_string(k), converged ? "yes" : "no",
                   runner::fmt(static_cast<double>(sim.interactions()) /
                                   static_cast<double>(n),
                               1),
                   runner::fmt_int(sim.chunks()),
                   runner::fmt(seconds, 2)});
    table.print();
  }
  return json_ok ? 0 : 1;
}
