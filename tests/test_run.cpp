// run_usd: the high-level entry point (integration of simulator + phase
// tracker + outcome classification).
#include <gtest/gtest.h>

#include "core/budget.hpp"
#include "runner/run.hpp"
#include "pp/configuration.hpp"
#include "util/stopwatch.hpp"

namespace kusd {
namespace {

using runner::run_usd;
using runner::RunOptions;
using pp::Configuration;

TEST(RunUsd, ConvergesAndClassifiesOutcome) {
  const auto x0 = Configuration::with_additive_bias(5000, 4, 0, 600);
  const auto result = run_usd(x0, 42);
  ASSERT_TRUE(result.converged);
  EXPECT_GE(result.winner, 0);
  EXPECT_LT(result.winner, 4);
  EXPECT_EQ(result.initial_plurality, 0);
  EXPECT_GT(result.interactions, 0u);
  EXPECT_NEAR(result.parallel_time,
              static_cast<double>(result.interactions) / 5000.0, 1e-9);
}

TEST(RunUsd, PhasesCompleteAndOrdered) {
  const auto x0 = Configuration::uniform(20000, 4, 0);
  const auto result = run_usd(x0, 7);
  ASSERT_TRUE(result.converged);
  const auto& ph = result.phases;
  ASSERT_TRUE(ph.complete());
  EXPECT_LE(*ph.t1, *ph.t2);
  EXPECT_LE(*ph.t2, *ph.t3);
  EXPECT_LE(*ph.t3, *ph.t4);
  EXPECT_LE(*ph.t4, *ph.t5);
  // T5 is the consensus time up to observation resolution.
  EXPECT_LE(*ph.t5, result.interactions);
}

TEST(RunUsd, HugeBiasMakesPluralityWin) {
  const auto x0 = Configuration({9000, 500, 500}, 0);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto result = run_usd(x0, seed);
    ASSERT_TRUE(result.converged);
    EXPECT_TRUE(result.plurality_won) << "seed " << seed;
    EXPECT_TRUE(result.winner_initially_significant);
  }
}

TEST(RunUsd, UnbiasedWinnerIsInitiallySignificant) {
  // Theorem 2's no-bias clause: the winner is a significant opinion.
  const auto x0 = Configuration::uniform(20000, 5, 0);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto result = run_usd(x0, seed);
    ASSERT_TRUE(result.converged);
    EXPECT_TRUE(result.winner_initially_significant) << "seed " << seed;
  }
}

TEST(RunUsd, DisconnectedGraphShortCircuitsAtDefaultBudget) {
  // Parity with the sweep's guard: `kusd run --engine graph --graph
  // er:<tiny p>` must consult the engine's topology_connected() at
  // construction and report the would-be timeout instead of grinding
  // through the full default cap.
  const auto x0 = Configuration::uniform(2000, 2, 0);
  RunOptions options;
  options.engine = "graph";
  options.graph = sim::GraphSpec{sim::GraphSpec::Kind::kErdosRenyi, 4, 1e-4};
  const auto result = run_usd(x0, 3, options);
  EXPECT_FALSE(result.converged);
  // The reported horizon is the engine's own default budget.
  EXPECT_EQ(result.interactions, core::default_interaction_cap(2000, 2));
  EXPECT_DOUBLE_EQ(
      result.parallel_time,
      static_cast<double>(core::default_interaction_cap(2000, 2)) / 2000.0);
  // Nothing was simulated, so no phase was ever observed.
  EXPECT_FALSE(result.phases.t1.has_value());

  // The aggregated engine short-circuits through its degree classes.
  options.engine = "graph-batched";
  const auto aggregated = run_usd(x0, 3, options);
  EXPECT_FALSE(aggregated.converged);
  EXPECT_EQ(aggregated.interactions, core::default_interaction_cap(2000, 2));
}

TEST(RunUsd, ExplicitCapRunsDisconnectedGraphHonestly) {
  // An explicit cap bounds the cost the caller chose, so the run is
  // simulated for real (parity with the sweep's --budget semantics).
  const auto x0 = Configuration::uniform(2000, 2, 0);
  RunOptions options;
  options.engine = "graph";
  options.graph = sim::GraphSpec{sim::GraphSpec::Kind::kErdosRenyi, 4, 1e-4};
  options.max_interactions = 5000;
  const auto result = run_usd(x0, 3, options);
  EXPECT_FALSE(result.converged);
  // The engine genuinely stepped to the cap instead of reporting it.
  EXPECT_EQ(result.interactions, 5000u);
}

TEST(RunUsd, ConsensusAtStartIsExemptFromTheShortCircuit) {
  // A population already at consensus is consensus on any topology.
  const auto x0 = Configuration({2000, 0}, 0);
  RunOptions options;
  options.engine = "graph";
  options.graph = sim::GraphSpec{sim::GraphSpec::Kind::kErdosRenyi, 4, 1e-4};
  const auto result = run_usd(x0, 3, options);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.winner, 0);
  EXPECT_EQ(result.interactions, 0u);
}

TEST(RunUsd, RespectsInteractionCap) {
  RunOptions opts;
  opts.max_interactions = 50;
  opts.track_phases = false;
  const auto result = run_usd(Configuration::uniform(10000, 8, 0), 3, opts);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.winner, -1);
  EXPECT_GE(result.interactions, 50u);
}

TEST(RunUsd, DeterministicAcrossCalls) {
  const auto x0 = Configuration::uniform(3000, 3, 300);
  const auto a = run_usd(x0, 123);
  const auto b = run_usd(x0, 123);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.phases.t1, b.phases.t1);
  EXPECT_EQ(a.phases.t5, b.phases.t5);
}

TEST(RunUsd, PhaseTrackingOffLeavesPhasesEmpty) {
  RunOptions opts;
  opts.track_phases = false;
  const auto result =
      run_usd(Configuration::uniform(2000, 2, 0), 5, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.phases.t1.has_value());
}

TEST(RunUsd, DefaultCapScalesWithKAndN) {
  EXPECT_GT(core::default_interaction_cap(1000, 8),
            core::default_interaction_cap(1000, 2));
  EXPECT_GT(core::default_interaction_cap(100000, 2),
            core::default_interaction_cap(1000, 2));
}

TEST(RunUsd, DefaultInteractionCapSaturatesAtHugeN) {
  // Populations reachable by the batched engine push 64*k*n*(ln n + 1)
  // past uint64 range; the cap must saturate, not overflow (UB cast).
  EXPECT_EQ(core::default_interaction_cap(1'000'000'000'000'000'000ULL, 64),
            ~std::uint64_t{0});
  // Ordinary sizes are unaffected.
  EXPECT_LT(core::default_interaction_cap(100000, 8), ~std::uint64_t{0});
  EXPECT_GT(core::default_interaction_cap(100000, 8), 0u);
}

// The two sides of the native clock's uint64 limit under the saturated
// default budget. With k = 2 consensus takes ~105 parallel time units,
// so n * T crosses 2^64 (~1.8e19) between n = 1.5e17 and n = 2e17.
TEST(RunUsd, BatchedConvergesJustBelowTheClockLimit) {
  RunOptions opts;
  opts.engine = "batched";
  const auto result =
      run_usd(Configuration::uniform(150'000'000'000'000'000ULL, 2, 0), 1,
              opts);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.phases.t5.has_value());
  EXPECT_GT(result.interactions, 10'000'000'000'000'000'000ULL);
}

TEST(RunUsd, BatchedStopsAtTheSaturatedBudgetPastTheClockLimit) {
  // Past the limit the run must end at the saturated cap and report
  // non-convergence, not spin on a wrapped observation boundary.
  RunOptions opts;
  opts.engine = "batched";
  const util::Stopwatch watch;
  const auto result =
      run_usd(Configuration::uniform(200'000'000'000'000'000ULL, 2, 0), 1,
              opts);
  EXPECT_LT(watch.seconds(), 1.0);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.winner, -1);
  EXPECT_EQ(result.interactions, ~std::uint64_t{0});
}

}  // namespace
}  // namespace kusd
