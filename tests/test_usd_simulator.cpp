// The tuned USD engine: invariants, consensus detection, and the central
// property test that the skip-unproductive engine has the same law as the
// interaction-by-interaction engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "pp/scheduler.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using core::StepMode;
using core::UsdSimulator;
using pp::Configuration;

std::uint64_t population(const UsdSimulator& sim) {
  std::uint64_t total = sim.undecided();
  for (auto c : sim.opinions()) total += c;
  return total;
}

TEST(UsdSimulator, ConservesPopulationEveryStep) {
  UsdSimulator sim(Configuration::uniform(200, 4, 20), rng::Rng(1));
  for (int i = 0; i < 2000 && !sim.is_consensus(); ++i) {
    sim.step();
    ASSERT_EQ(population(sim), 200u);
  }
}

TEST(UsdSimulator, InteractionsIncreaseMonotonically) {
  UsdSimulator sim(Configuration::uniform(100, 3, 0), rng::Rng(2),
                   StepMode::kSkipUnproductive);
  std::uint64_t prev = 0;
  for (int i = 0; i < 500 && !sim.is_consensus(); ++i) {
    sim.step();
    ASSERT_GT(sim.interactions(), prev);
    prev = sim.interactions();
  }
}

TEST(UsdSimulator, ReachesConsensusOnTinyPopulation) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    UsdSimulator sim(Configuration::uniform(10, 2, 0), rng::Rng(seed));
    ASSERT_TRUE(sim.run_to_consensus(1'000'000));
    ASSERT_TRUE(sim.is_consensus());
    const int w = sim.consensus_opinion();
    ASSERT_TRUE(w == 0 || w == 1);
    EXPECT_EQ(sim.opinion(w), 10u);
    EXPECT_EQ(sim.undecided(), 0u);
  }
}

TEST(UsdSimulator, DetectsPreexistingConsensus) {
  UsdSimulator sim(Configuration({50, 0}, 0), rng::Rng(3));
  EXPECT_TRUE(sim.is_consensus());
  EXPECT_EQ(sim.consensus_opinion(), 0);
  EXPECT_TRUE(sim.run_to_consensus(10));
  EXPECT_EQ(sim.interactions(), 0u);
}

TEST(UsdSimulator, SingleOpinionWithUndecidedConverges) {
  // k = 1: only adoptions can happen; consensus on opinion 0 is certain.
  UsdSimulator sim(Configuration({10}, 90), rng::Rng(4));
  ASSERT_TRUE(sim.run_to_consensus(1'000'000));
  EXPECT_EQ(sim.consensus_opinion(), 0);
}

TEST(UsdSimulator, RejectsAllUndecided) {
  EXPECT_THROW(UsdSimulator(Configuration({0, 0}, 10), rng::Rng(5)),
               util::CheckError);
}

TEST(UsdSimulator, HonorsInteractionCap) {
  UsdSimulator sim(Configuration::uniform(1000, 8, 0), rng::Rng(6));
  EXPECT_FALSE(sim.run_to_consensus(100));
  EXPECT_GE(sim.interactions(), 100u);
}

TEST(UsdSimulator, DeterministicForSameSeed) {
  const auto x0 = Configuration::uniform(500, 5, 50);
  UsdSimulator a(x0, rng::Rng(7)), b(x0, rng::Rng(7));
  a.run_to_consensus(10'000'000);
  b.run_to_consensus(10'000'000);
  EXPECT_EQ(a.interactions(), b.interactions());
  EXPECT_EQ(a.consensus_opinion(), b.consensus_opinion());
}

TEST(UsdSimulator, ConfigurationRoundTrip) {
  const auto x0 = Configuration::with_additive_bias(300, 3, 30, 40);
  UsdSimulator sim(x0, rng::Rng(8));
  const auto snap = sim.configuration();
  EXPECT_EQ(snap.n(), 300u);
  EXPECT_EQ(snap.opinion(0), x0.opinion(0));
  EXPECT_EQ(snap.undecided(), 30u);
}

TEST(UsdSimulator, OverwhelmingBiasWins) {
  // x0 = 90% of agents: opinion 0 must win in every trial.
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    UsdSimulator sim(Configuration({900, 50, 50}, 0), rng::Rng(seed),
                     StepMode::kSkipUnproductive);
    ASSERT_TRUE(sim.run_to_consensus(100'000'000));
    EXPECT_EQ(sim.consensus_opinion(), 0) << "seed " << seed;
  }
}

TEST(UsdSimulator, RunObservedVisitsBoundariesInOrder) {
  UsdSimulator sim(Configuration::uniform(200, 2, 0), rng::Rng(9));
  std::vector<std::uint64_t> times;
  sim.run_observed(50'000, 100,
                   [&times](std::uint64_t t, std::span<const pp::Count>,
                            pp::Count) { times.push_back(t); });
  ASSERT_GE(times.size(), 2u);
  EXPECT_EQ(times.front(), 0u);
  for (std::size_t i = 1; i + 1 < times.size(); ++i) {
    ASSERT_GT(times[i], times[i - 1]);
  }
}

TEST(UsdSimulator, RunObservedRejectsZeroInterval) {
  UsdSimulator sim(Configuration::uniform(100, 2, 0), rng::Rng(10));
  EXPECT_THROW(sim.run_observed(
                   1000, 0,
                   [](std::uint64_t, std::span<const pp::Count>, pp::Count) {
                   }),
               util::CheckError);
}

// ---- The central engine-equivalence property (design-choice ablation) ----

std::vector<double> consensus_times(const Configuration& x0, StepMode mode,
                                    int trials, std::uint64_t seed_base) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    UsdSimulator sim(
        x0, rng::Rng(rng::stream_seed(seed_base,
                                        static_cast<std::uint64_t>(t))),
        mode);
    EXPECT_TRUE(sim.run_to_consensus(50'000'000));
    out.push_back(static_cast<double>(sim.interactions()));
  }
  return out;
}

// Three 8-byte fields and no padding: gtest names each case after the
// struct's bytes, so padding would leak indeterminate bytes into them.
struct EquivalenceCase {
  pp::Count n = 0;
  std::int64_t k = 0;
  pp::Count undecided = 0;
};

class SkipEquivalenceSweep
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(SkipEquivalenceSweep, SkipEngineMatchesPlainEngineInDistribution) {
  const auto param = GetParam();
  const auto x0 = Configuration::uniform(
      param.n, static_cast<int>(param.k), param.undecided);
  const int trials = 350;
  const auto plain =
      consensus_times(x0, StepMode::kEveryInteraction, trials, 900);
  const auto skip =
      consensus_times(x0, StepMode::kSkipUnproductive, trials, 901);
  EXPECT_LT(stats::ks_statistic(plain, skip),
            stats::ks_threshold(plain.size(), skip.size(), 0.001))
      << "n=" << param.n << " k=" << param.k;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SkipEquivalenceSweep,
    ::testing::Values(EquivalenceCase{60, 2, 0}, EquivalenceCase{60, 2, 20},
                      EquivalenceCase{80, 4, 0},
                      EquivalenceCase{100, 8, 30}));

TEST(UsdSimulator, SkipAndPlainWinnerFrequenciesAgree) {
  // With a moderate bias the win frequency of opinion 0 must match across
  // engines (binomial 3-sigma band).
  const auto x0 = Configuration::two_opinion(100, 40, 20);  // 40 vs 40 + 20u
  const int trials = 2000;
  int wins_plain = 0, wins_skip = 0;
  for (int t = 0; t < trials; ++t) {
    UsdSimulator a(x0, rng::Rng(rng::stream_seed(77, t)),
                   StepMode::kEveryInteraction);
    a.run_to_consensus(10'000'000);
    wins_plain += a.consensus_opinion() == 0 ? 1 : 0;
    UsdSimulator b(x0, rng::Rng(rng::stream_seed(78, t)),
                   StepMode::kSkipUnproductive);
    b.run_to_consensus(10'000'000);
    wins_skip += b.consensus_opinion() == 0 ? 1 : 0;
  }
  // Symmetric start: both should be near 50%, and near each other.
  const double f_plain = static_cast<double>(wins_plain) / trials;
  const double f_skip = static_cast<double>(wins_skip) / trials;
  EXPECT_NEAR(f_plain, f_skip, 0.045);  // ~4 sigma of the difference
  EXPECT_NEAR(f_plain, 0.5, 0.04);
  EXPECT_NEAR(f_skip, 0.5, 0.04);
}

// ---- Byte pin of the exact chain ----

// Order-sensitive 64-bit digest of a word sequence.
void fold(std::uint64_t& digest, std::uint64_t word) {
  std::uint64_t state = digest ^ word;
  digest = rng::splitmix64(state);
}

void fold_run(std::uint64_t& digest, std::uint64_t interactions, int winner,
              std::span<const pp::Count> counts) {
  fold(digest, interactions);
  fold(digest, static_cast<std::uint64_t>(winner));
  for (pp::Count c : counts) fold(digest, c);
}

std::uint64_t simulator_digest(const Configuration& x0, StepMode mode) {
  std::uint64_t digest = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    UsdSimulator sim(x0, rng::Rng(rng::stream_seed(31, seed)), mode);
    EXPECT_TRUE(sim.run_to_consensus(sim.default_budget()));
    fold_run(digest, sim.interactions(), sim.consensus_opinion(),
             sim.opinions());
  }
  return digest;
}

std::uint64_t count_scheduler_digest(const Configuration& x0) {
  const core::UsdProtocol usd(x0.k());
  std::vector<std::uint64_t> initial(x0.opinions().begin(),
                                     x0.opinions().end());
  initial.push_back(x0.undecided());
  std::uint64_t digest = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    pp::CountScheduler sched(usd, initial,
                             rng::Rng(rng::stream_seed(32, seed)));
    int winner = -1;
    sched.run_until(
        [&](std::span<const std::uint64_t> c) {
          for (int i = 0; i < x0.k(); ++i) {
            if (c[static_cast<std::size_t>(i)] == x0.n()) winner = i;
          }
          return winner >= 0;
        },
        100'000'000);
    EXPECT_GE(winner, 0);
    fold_run(digest, sched.steps(), winner, sched.counts());
  }
  return digest;
}

// Digests of (interactions, winner, final counts) over fixed seeds, recorded
// before the exact chain's hot loop was rewritten: any change to the draw
// sequence of either step mode, either urn backend or the generic count
// scheduler moves one of them.
TEST(ExactChain, TrajectoriesPinned) {
  const auto skip = StepMode::kSkipUnproductive;
  EXPECT_EQ(simulator_digest(Configuration::uniform(500, 2, 0), skip),
            0xB5A204F42C31F27FULL);
  EXPECT_EQ(simulator_digest(Configuration::uniform(2000, 8, 200), skip),
            0x2B370BCC57510FA8ULL);
  EXPECT_EQ(simulator_digest(Configuration::uniform(1000, 16, 0), skip),
            0x40F8A0FC4D01A6E1ULL);
  static_assert(100 > urn::kLinearThreshold);  // the Fenwick backend
  EXPECT_EQ(simulator_digest(Configuration::uniform(2000, 100, 0), skip),
            0xC19F1423221CE862ULL);
  EXPECT_EQ(simulator_digest(Configuration::uniform(300, 3, 30),
                             StepMode::kEveryInteraction),
            0xC80218D89D074752ULL);
  EXPECT_EQ(count_scheduler_digest(Configuration::uniform(200, 4, 20)),
            0xA43709D9DEC16DA8ULL);
}

}  // namespace
}  // namespace kusd
