// RoundEngine primitives and the batched-round exactness properties: the
// count-based (multinomial) synchronized and gossip rounds must have the
// same law as literal per-agent simulations of the same round models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/round_engine.hpp"
#include "core/sync_usd.hpp"
#include "gossip/gossip_usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"

namespace kusd {
namespace {

using core::RoundEngine;
using pp::Configuration;
using pp::Count;

std::uint64_t sum(std::span<const Count> counts) {
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

TEST(RoundEngine, DecidedStepConservesAgents) {
  RoundEngine engine(4);
  rng::Rng rng(1);
  const std::vector<Count> opinions = {40, 30, 20, 10};
  for (int round = 0; round < 50; ++round) {
    std::vector<Count> next(4, 0);
    const Count undecided =
        engine.decided_step(opinions, 25, true, next, rng);
    EXPECT_EQ(sum(next) + undecided, 100u);
  }
}

TEST(RoundEngine, DecidedStepWithoutUndecidedKeepLosesMore) {
  // With a large undecided share, keep_on_undecided=true must preserve
  // strictly more agents on average than keep_on_undecided=false.
  RoundEngine engine(2);
  rng::Rng rng(2);
  const std::vector<Count> opinions = {50, 50};
  std::uint64_t kept_with = 0, kept_without = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<Count> next(2, 0);
    kept_with += 100 - engine.decided_step(opinions, 900, true, next, rng);
    next.assign(2, 0);
    kept_without +=
        100 - engine.decided_step(opinions, 900, false, next, rng);
  }
  EXPECT_GT(kept_with, kept_without);
}

TEST(RoundEngine, AdoptionStepConservesAndAllowsAliasing) {
  RoundEngine engine(3);
  rng::Rng rng(3);
  std::vector<Count> counts = {10, 20, 30};
  const Count before = sum(counts);
  // Partners alias the accumulation target, as in SyncUsd phase B.
  const Count remaining = engine.adoption_step(counts, 40, 40, counts, rng);
  EXPECT_EQ(sum(counts) + remaining, before + 40);
}

TEST(RoundEngine, AdoptionStepAllDecidedPartnersAdoptsEveryone) {
  RoundEngine engine(2);
  rng::Rng rng(4);
  std::vector<Count> next(2, 0);
  const std::vector<Count> partners = {60, 40};
  const Count remaining = engine.adoption_step(partners, 0, 25, next, rng);
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(sum(next), 25u);
}

TEST(RoundEngine, AsyncChunkConservesAndSucceedsAtOne) {
  RoundEngine engine(3);
  rng::Rng rng(5);
  std::vector<Count> opinions = {40, 35, 15};
  Count undecided = 10;
  for (int i = 0; i < 500; ++i) {
    // m = 1 realizes exactly one chain event and must always succeed.
    ASSERT_TRUE(engine.try_async_chunk(opinions, undecided, 100, 1, rng));
    ASSERT_EQ(sum(opinions) + undecided, 100u);
  }
}

TEST(RoundEngine, AsyncChunkRejectsOvershootWithoutMutating) {
  RoundEngine engine(2);
  rng::Rng rng(6);
  // A huge frozen-rate chunk from a state with a tiny opinion must
  // eventually propose driving it negative; state stays intact either way.
  std::vector<Count> opinions = {97, 2};
  Count undecided = 1;
  bool saw_reject = false;
  for (int i = 0; i < 200 && !saw_reject; ++i) {
    std::vector<Count> o = opinions;
    Count u = undecided;
    if (!engine.try_async_chunk(o, u, 100, 80, rng)) {
      saw_reject = true;
      EXPECT_EQ(o, opinions);
      EXPECT_EQ(u, undecided);
    } else {
      EXPECT_EQ(sum(o) + u, 100u);
    }
  }
  EXPECT_TRUE(saw_reject);
}

TEST(RoundEngine, AsyncChunkNeverLeavesZeroDecided) {
  // The exact chain preserves decided >= 1; a chunk that flips every
  // decided agent (reachable only in the aggregate draw) must be rejected,
  // not committed — otherwise all-undecided becomes an absorbing state.
  RoundEngine engine(2);
  rng::Rng rng(7);
  bool saw_reject = false;
  for (int i = 0; i < 400; ++i) {
    std::vector<Count> opinions = {1, 1};
    Count undecided = 0;
    // n = 2, both decided differently, m = 2: P(both flip) = 1/8.
    if (engine.try_async_chunk(opinions, undecided, 2, 2, rng)) {
      EXPECT_LT(undecided, 2u);
    } else {
      saw_reject = true;
      EXPECT_EQ(undecided, 0u);
    }
  }
  EXPECT_TRUE(saw_reject);
}

// ---- The class chain's event weights on each side of 2^53 ----

TEST(ClassEventWeights, UnitClassFlipWeightIsExactOnEachSideOf2To53) {
  // counts {n - 2, 2}, no undecided: the majority flips on meeting one of
  // the two minority agents, weight (n - 2) * 2. Above 2^53, n - 2 and n
  // round to the same double, so only an integer difference keeps it.
  for (const int e : {50, 60}) {
    const Count n = Count{1} << e;
    const std::vector<Count> opinions = {n - 2, 2};
    const std::vector<Count> undecided = {0};
    std::vector<double> events(5), scratch(4);
    const double total = core::class_event_weights(
        opinions, undecided, core::kUnitClass, events, scratch);
    EXPECT_EQ(total, static_cast<double>(n)) << e;
    EXPECT_EQ(events[0], 0.0) << e;  // no undecided: no adoption
    EXPECT_EQ(events[1], 0.0) << e;
    EXPECT_EQ(events[2], static_cast<double>(n - 2) * 2) << e;
    EXPECT_EQ(events[3], 2 * static_cast<double>(n - 2)) << e;
  }
}

TEST(ClassEventWeights, FlipWeightsDoNotCancelAcrossClasses) {
  // Weighted totals W_d - X_j lose the minority entirely at 2^60:
  // double(2^60 - 2) + 2 == double(2^60 - 2), so that form gives the
  // majority a flip weight of 0. Per-class integer differences keep it.
  const Count big = (Count{1} << 60) - 2;
  const std::vector<Count> opinions = {big, 0,   // class 0
                                       0, 2};    // class 1
  const std::vector<Count> undecided = {0, 0};
  const std::vector<double> weights = {1.0, 1.0};
  std::vector<double> events(9), scratch(4);
  (void)core::class_event_weights(opinions, undecided, weights, events,
                                  scratch);
  EXPECT_EQ(events[4], static_cast<double>(big) * 2);  // flip(0, 0)
  EXPECT_EQ(events[7], 2 * static_cast<double>(big));  // flip(1, 1)

  // Where W_d - X_j does not vanish it can still be off by the rounding
  // of the majority: {2^60 - 100, 100} gives 128 in place of 100.
  const Count majority = (Count{1} << 60) - 100;
  const std::vector<Count> one_class = {majority, 100};
  std::vector<double> unit_events(5);
  (void)core::class_event_weights(one_class, std::vector<Count>{0},
                                  core::kUnitClass, unit_events, scratch);
  EXPECT_EQ(unit_events[2], static_cast<double>(majority) * 100);
}

// ---- Exactness vs literal per-agent round simulations ----

/// Per-agent synchronized USD (the idealized process of Section 1.2):
/// phase A, one USD step each; phase B, undecided agents resample until
/// landing on a decided agent, one synchronous sub-round per attempt.
std::uint64_t per_agent_sync_super_rounds(std::size_t n, int k,
                                          rng::Rng& rng,
                                          std::uint64_t max_super) {
  std::vector<int> agents(n);
  for (std::size_t i = 0; i < n; ++i) {
    agents[i] = static_cast<int>(i % static_cast<std::size_t>(k));
  }
  const int undecided = k;
  const auto is_consensus = [&agents] {
    return std::all_of(agents.begin(), agents.end(),
                       [&agents](int a) { return a == agents[0]; });
  };
  std::uint64_t supers = 0;
  while (!is_consensus() && supers < max_super) {
    std::vector<int> next(n);
    bool all_undecided = true;
    do {
      all_undecided = true;
      for (std::size_t i = 0; i < n; ++i) {
        const int partner = agents[rng.bounded(n)];
        next[i] = partner == agents[i] ? agents[i] : undecided;
        all_undecided = all_undecided && next[i] == undecided;
      }
    } while (all_undecided);
    agents = next;
    bool any_undecided = true;
    while (any_undecided) {
      any_undecided = false;
      const std::vector<int> snapshot = agents;
      for (std::size_t i = 0; i < n; ++i) {
        if (snapshot[i] != undecided) continue;
        const int partner = snapshot[rng.bounded(n)];
        if (partner != undecided) {
          agents[i] = partner;
        } else {
          any_undecided = true;
        }
      }
    }
    ++supers;
  }
  return supers;
}

TEST(RoundEngine, SyncUsdMatchesPerAgentReferenceInDistribution) {
  // The acceptance property: batched (multinomial) synchronized rounds are
  // distributionally identical to a per-agent simulation — same seeds
  // derive both samples, statistics compared by two-sample KS.
  const Count n = 120;
  const int k = 3;
  const int trials = 300;
  std::vector<double> batched, reference;
  for (int t = 0; t < trials; ++t) {
    core::SyncUsd sim(Configuration::uniform(n, k, 0),
                      rng::Rng(rng::stream_seed(4100, t)));
    EXPECT_TRUE(sim.run_to_consensus(10'000));
    batched.push_back(static_cast<double>(sim.super_rounds()));
    rng::Rng rng(rng::stream_seed(4200, t));
    reference.push_back(static_cast<double>(
        per_agent_sync_super_rounds(n, k, rng, 10'000)));
  }
  EXPECT_LT(stats::ks_statistic(batched, reference),
            stats::ks_threshold(batched.size(), reference.size(), 0.001));
}

/// Per-agent gossip-model USD round: every agent samples one partner from
/// the pre-round population and applies the USD rule.
std::uint64_t per_agent_gossip_rounds(std::size_t n, int k, rng::Rng& rng,
                                      std::uint64_t max_rounds) {
  std::vector<int> agents(n);
  for (std::size_t i = 0; i < n; ++i) {
    agents[i] = static_cast<int>(i % static_cast<std::size_t>(k));
  }
  const int undecided = k;
  const auto is_consensus = [&agents] {
    return std::all_of(agents.begin(), agents.end(),
                       [&agents](int a) { return a == agents[0]; });
  };
  std::uint64_t rounds = 0;
  while (!is_consensus() && rounds < max_rounds) {
    const std::vector<int> snapshot = agents;
    for (std::size_t i = 0; i < n; ++i) {
      const int partner = snapshot[rng.bounded(n)];
      if (snapshot[i] == undecided) {
        if (partner != undecided) agents[i] = partner;
      } else if (partner != undecided && partner != snapshot[i]) {
        agents[i] = undecided;
      }
    }
    ++rounds;
  }
  return rounds;
}

TEST(RoundEngine, GossipUsdMatchesPerAgentReferenceInDistribution) {
  const Count n = 120;
  const int k = 3;
  const int trials = 300;
  std::vector<double> batched, reference;
  for (int t = 0; t < trials; ++t) {
    gossip::GossipUsd sim(Configuration::uniform(n, k, 0),
                          rng::Rng(rng::stream_seed(4300, t)));
    EXPECT_TRUE(sim.run_to_consensus(100'000));
    batched.push_back(static_cast<double>(sim.rounds()));
    rng::Rng rng(rng::stream_seed(4400, t));
    reference.push_back(
        static_cast<double>(per_agent_gossip_rounds(n, k, rng, 100'000)));
  }
  EXPECT_LT(stats::ks_statistic(batched, reference),
            stats::ks_threshold(batched.size(), reference.size(), 0.001));
}

}  // namespace
}  // namespace kusd
