// The approximate-vs-exact majority trade-off, executable.
//
// The USD solves approximate majority in O(n log n) interactions but can
// elect the minority when the initial margin is below Theta(sqrt(n log n));
// the 4-state exact majority protocol is always correct yet needs
// Theta(n^2 log n)-ish interactions when the margin is tiny. This example
// runs both on shrinking margins and prints accuracy and cost side by
// side — the design space the paper's Section 1.2 describes.
//
//   $ ./majority_tradeoff [n] [trials]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "pp/scheduler.hpp"
#include "protocols/classic.hpp"
#include "runner/table.hpp"
#include "rng/rng.hpp"

int main(int argc, char** argv) {
  using namespace kusd;

  const pp::Count n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;
  const int trials = argc > 2 ? std::atoi(argv[2]) : 30;

  std::printf("approximate (USD) vs exact majority, n=%llu, %d trials "
              "per margin\n\n",
              static_cast<unsigned long long>(n), trials);

  runner::Table table({"margin", "USD correct", "USD mean interactions",
                       "exact correct", "exact mean interactions"});

  for (const pp::Count margin :
       {pp::Count{2}, n / 100 + 1, n / 20, n / 4}) {
    const pp::Count a = n / 2 + margin / 2 + 1;
    const pp::Count b = n - a;

    int usd_correct = 0;
    double usd_cost = 0.0;
    for (int t = 0; t < trials; ++t) {
      core::UsdSimulator sim(
          pp::Configuration({a, b}, 0),
          rng::Rng(rng::stream_seed(10, static_cast<std::uint64_t>(t))),
          core::StepMode::kSkipUnproductive);
      sim.run_to_consensus(1ull << 40);
      usd_correct += sim.consensus_opinion() == 0 ? 1 : 0;
      usd_cost += static_cast<double>(sim.interactions());
    }

    protocols::ExactMajorityProtocol exact;
    int exact_correct = 0;
    double exact_cost = 0.0;
    for (int t = 0; t < trials; ++t) {
      const std::vector<std::uint64_t> init{a, b, 0, 0};
      pp::CountScheduler sched(
          exact, init,
          rng::Rng(rng::stream_seed(20, static_cast<std::uint64_t>(t))));
      sched.run_until(
          [](std::span<const std::uint64_t> c) {
            return (c[1] == 0 && c[3] == 0) || (c[0] == 0 && c[2] == 0);
          },
          1ull << 40);
      // Correct iff everyone believes A (the true majority).
      exact_correct +=
          (sched.counts()[1] == 0 && sched.counts()[3] == 0) ? 1 : 0;
      exact_cost += static_cast<double>(sched.steps());
    }

    table.add_row({std::to_string(margin),
                   std::to_string(usd_correct) + "/" +
                       std::to_string(trials),
                   runner::fmt_compact(usd_cost / trials),
                   std::to_string(exact_correct) + "/" +
                       std::to_string(trials),
                   runner::fmt_compact(exact_cost / trials)});
  }
  table.print();
  std::printf("\nUSD: cheap, but below the Theta(sqrt(n log n)) margin it\n"
              "sometimes elects the minority. Exact majority: always\n"
              "correct, but pays ~n^2 interactions on knife-edge margins.\n");
  return 0;
}
