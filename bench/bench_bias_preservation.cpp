// E6 — Lemma 2: Phase 1 preserves bias and plurality support.
//
// Through Phase 1 (until T1, when the undecided population has risen):
//   1. an additive bias of alpha sqrt(n log n) shrinks by at most a
//      constant factor (paper: to >= alpha/3 sqrt(n log n));
//   2. a multiplicative bias 1+eps stays at least 1 + eps/(6+5eps);
//   3. the plurality keeps at least a third of its support
//      (X1(T1) >= x1(0)/3).
#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "core/budget.hpp"
#include "runner/run.hpp"
#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "runner/trials.hpp"
#include "stats/summary.hpp"

using namespace kusd;

namespace {

struct AtT1 {
  double additive_ratio = 0.0;        // (x1-x2)(T1) / (x1-x2)(0)
  double multiplicative_at_t1 = 0.0;  // x1(T1)/x2(T1)
  double x1_ratio = 0.0;              // x1(T1) / x1(0)
};

AtT1 measure(const pp::Configuration& x0, std::uint64_t seed) {
  core::UsdSimulator sim(x0, rng::Rng(seed),
                         core::StepMode::kSkipUnproductive);
  const double gap0 = static_cast<double>(x0.opinion(0)) -
                      static_cast<double>(x0.opinion(1));
  const double x1_0 = static_cast<double>(x0.opinion(0));
  const pp::Count n = x0.n();
  const std::uint64_t check_every = std::max<pp::Count>(1, n / 64);
  const std::uint64_t cap = core::default_interaction_cap(n, x0.k());
  AtT1 out;
  std::uint64_t next_check = 0;
  // Step manually so the run stops at T1 instead of consensus.
  while (!sim.is_consensus() && sim.interactions() < cap) {
    sim.step();
    if (sim.interactions() < next_check) continue;
    next_check = sim.interactions() + check_every;
    const auto opinions = sim.opinions();
    const pp::Count u = sim.undecided();
    const pp::Count xmax =
        *std::max_element(opinions.begin(), opinions.end());
    if (2 * u < n - xmax) continue;  // T1 not reached yet
    // T1 reached: record the gap of the initial plurality (index 0)
    // against the best other opinion, then stop.
    const double x1 = static_cast<double>(opinions[0]);
    double best_other = 0.0;
    for (std::size_t i = 1; i < opinions.size(); ++i) {
      best_other = std::max(best_other, static_cast<double>(opinions[i]));
    }
    out.additive_ratio = gap0 > 0 ? (x1 - best_other) / gap0 : 0.0;
    out.multiplicative_at_t1 = best_other > 0 ? x1 / best_other : 1e9;
    out.x1_ratio = x1 / x1_0;
    break;
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("E6", "Lemma 2",
                "Bias preservation through Phase 1: additive bias keeps a "
                "constant fraction, multiplicative bias stays bounded away "
                "from 1, x1 keeps >= 1/3 of its support.");

  const int trials = runner::scaled_trials(24);
  const pp::Count n = runner::scaled(65536);
  runner::Table table({"start", "k", "metric", "mean", "min",
                       "paper floor"});

  for (int k : {2, 8, 32}) {
    // Additive-bias start.
    {
      const pp::Count beta = bench::additive_beta(n, 2.0);
      const auto x0 = pp::Configuration::with_additive_bias(n, k, 0, beta);
      const auto rows = runner::run_trials<AtT1>(
          trials, 0xE6000 + static_cast<std::uint64_t>(k),
          [&x0](std::uint64_t seed) { return measure(x0, seed); });
      stats::Samples add, x1r;
      for (const auto& r : rows) {
        add.add(r.additive_ratio);
        x1r.add(r.x1_ratio);
      }
      table.add_row({"additive 2*sqrt(n ln n)", std::to_string(k),
                     "gap(T1)/gap(0)", runner::fmt(add.mean(), 3),
                     runner::fmt(add.min(), 3), "1/3"});
      table.add_row({"additive 2*sqrt(n ln n)", std::to_string(k),
                     "x1(T1)/x1(0)", runner::fmt(x1r.mean(), 3),
                     runner::fmt(x1r.min(), 3), "1/3"});
    }
    // Multiplicative-bias start (eps = 1 => floor 1 + 1/11 ~ 1.091).
    {
      const auto x0 =
          pp::Configuration::with_multiplicative_bias(n, k, 0, 2.0);
      const auto rows = runner::run_trials<AtT1>(
          trials, 0xE6100 + static_cast<std::uint64_t>(k),
          [&x0](std::uint64_t seed) { return measure(x0, seed); });
      stats::Samples mult;
      for (const auto& r : rows) mult.add(r.multiplicative_at_t1);
      table.add_row({"multiplicative 2.0", std::to_string(k),
                     "x1(T1)/x2(T1)", runner::fmt(mult.mean(), 3),
                     runner::fmt(mult.min(), 3), "1.091"});
    }
  }
  table.print();
  std::printf("\nevery min must sit above its paper floor (Lemma 2 assumes\n"
              "k = O(sqrt(n)/log^2 n), so large-k rows at bench scale may\n"
              "sit closer to the floor).\n");
  return 0;
}
