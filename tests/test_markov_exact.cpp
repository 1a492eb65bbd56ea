// Exact Markov ground truth vs Monte Carlo: the strongest validation of the
// simulator, with no asymptotic hedging.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/markov_exact.hpp"
#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using analysis::Usd2ExactSolver;
using pp::Configuration;

TEST(MarkovExact, TrivialTwoAgents) {
  Usd2ExactSolver solver(2);
  // (2,0) and (0,2) are absorbing.
  EXPECT_DOUBLE_EQ(solver.expected_consensus_time(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(solver.win_probability(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(solver.win_probability(0, 2), 0.0);
  // (1,0): the undecided agent must adopt opinion 0; consensus certain.
  EXPECT_DOUBLE_EQ(solver.win_probability(1, 0), 1.0);
  // From (1,0) with u=1: a productive interaction happens w.p.
  // u*x0/n^2 = 1/4, so E[T] = 4.
  EXPECT_DOUBLE_EQ(solver.expected_consensus_time(1, 0), 4.0);
}

TEST(MarkovExact, SymmetricStartIsFair) {
  for (pp::Count n : {4, 8, 12}) {
    Usd2ExactSolver solver(n);
    EXPECT_NEAR(solver.win_probability(n / 2, n / 2), 0.5, 1e-9) << n;
  }
}

TEST(MarkovExact, WinProbabilityMonotoneInSupport) {
  Usd2ExactSolver solver(12);
  double prev = -1.0;
  for (pp::Count x0 = 1; x0 <= 11; ++x0) {
    const double w = solver.win_probability(x0, 12 - x0);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

TEST(MarkovExact, UndecidedAgentsPreserveFairness) {
  // Equal supports with undecided agents remain a fair race by symmetry.
  Usd2ExactSolver solver(10);
  EXPECT_NEAR(solver.win_probability(3, 3), 0.5, 1e-9);
  EXPECT_NEAR(solver.win_probability(1, 1), 0.5, 1e-9);
}

TEST(MarkovExact, RejectsAllUndecidedQuery) {
  Usd2ExactSolver solver(6);
  EXPECT_THROW(static_cast<void>(solver.win_probability(0, 0)),
               util::CheckError);
  EXPECT_THROW(Usd2ExactSolver(1), util::CheckError);
}

struct ExactVsMcCase {
  pp::Count n = 0, x0 = 0, x1 = 0;
};

class ExactVsMonteCarlo : public ::testing::TestWithParam<ExactVsMcCase> {};

TEST_P(ExactVsMonteCarlo, ExpectedTimeAndWinProbMatch) {
  const auto param = GetParam();
  Usd2ExactSolver solver(param.n);
  const double exact_time =
      solver.expected_consensus_time(param.x0, param.x1);
  const double exact_win = solver.win_probability(param.x0, param.x1);

  const Configuration start({param.x0, param.x1},
                            param.n - param.x0 - param.x1);
  const int trials = 40000;
  stats::Samples times;
  int wins = 0;
  for (int t = 0; t < trials; ++t) {
    core::UsdSimulator sim(
        start, rng::Rng(rng::stream_seed(4242, t)),
        core::StepMode::kSkipUnproductive);
    ASSERT_TRUE(sim.run_to_consensus(100'000'000));
    times.add(static_cast<double>(sim.interactions()));
    wins += sim.consensus_opinion() == 0 ? 1 : 0;
  }
  // Mean within 5 standard errors of the exact value.
  EXPECT_NEAR(times.mean(), exact_time,
              5.0 * times.stddev() / std::sqrt(trials) + 1e-9);
  const double win_se =
      std::sqrt(exact_win * (1.0 - exact_win) / trials) + 1e-6;
  EXPECT_NEAR(static_cast<double>(wins) / trials, exact_win, 5.0 * win_se);
}

INSTANTIATE_TEST_SUITE_P(SmallChains, ExactVsMonteCarlo,
                         ::testing::Values(ExactVsMcCase{6, 3, 3},
                                           ExactVsMcCase{8, 5, 2},
                                           ExactVsMcCase{10, 4, 4},
                                           ExactVsMcCase{12, 7, 3},
                                           ExactVsMcCase{14, 5, 5}));

}  // namespace
}  // namespace kusd
