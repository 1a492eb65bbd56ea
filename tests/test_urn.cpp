// Urn: linear/Fenwick engine equivalence and sampling correctness.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rng/rng.hpp"
#include "urn/urn.hpp"

namespace kusd {
namespace {

TEST(Urn, EngineSelection) {
  std::vector<std::uint64_t> small(urn::kLinearThreshold, 1);
  std::vector<std::uint64_t> large(urn::kLinearThreshold + 1, 1);
  EXPECT_FALSE(urn::Urn(small).uses_fenwick());
  EXPECT_TRUE(urn::Urn(large).uses_fenwick());
}

// Identical find() after the same adds means the two engines drive
// identical trajectories: every engine that samples through an urn maps
// one uniform position to a category with find().
TEST(Urn, FindIdenticalAcrossEngines) {
  const std::vector<std::uint64_t> counts{4, 0, 7, 1, 0, 9, 3};
  urn::LinearUrn lin(counts);
  urn::FenwickUrn fen(counts);
  rng::Rng r(29);
  for (int round = 0; round < 200; ++round) {
    ASSERT_EQ(lin.total(), fen.total());
    for (std::uint64_t pos = 0; pos < lin.total(); ++pos) {
      ASSERT_EQ(lin.find(pos), fen.find(pos))
          << "round " << round << ", position " << pos;
    }
    // A random +1/-1 update on a random category; -1 only where the count
    // is positive, so categories empty and refill along the way.
    const auto i = static_cast<std::size_t>(r.bounded(counts.size()));
    const std::int64_t delta = lin.count(i) > 0 && r.bounded(2) == 0 ? -1 : 1;
    lin.add(i, delta);
    fen.add(i, delta);
  }
}

TEST(Urn, MovePreservesTotal) {
  const std::vector<std::uint64_t> counts{5, 5, 5};
  urn::Urn u(counts);
  u.move(0, 2);
  EXPECT_EQ(u.total(), 15u);
  EXPECT_EQ(u.count(0), 4u);
  EXPECT_EQ(u.count(2), 6u);
  u.move(1, 1);  // self-move is a no-op
  EXPECT_EQ(u.count(1), 5u);
}

TEST(Urn, CountsViewReflectsMutations) {
  const std::vector<std::uint64_t> counts{1, 2, 3};
  urn::Urn u(counts);
  u.add(0, 4);
  EXPECT_EQ(u.counts()[0], 5u);
  EXPECT_EQ(u.counts()[1], 2u);
}

template <typename UrnT>
class UrnEngineSweep : public ::testing::Test {};

using UrnTypes = ::testing::Types<urn::LinearUrn, urn::FenwickUrn>;
TYPED_TEST_SUITE(UrnEngineSweep, UrnTypes);

TYPED_TEST(UrnEngineSweep, SampleFrequenciesMatchProportions) {
  const std::vector<std::uint64_t> counts{100, 300, 0, 600};
  TypeParam u(counts);
  rng::Rng r(71);
  std::vector<int> hits(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++hits[u.sample(r)];
  EXPECT_NEAR(hits[0], n * 0.1, 400);
  EXPECT_NEAR(hits[1], n * 0.3, 600);
  EXPECT_EQ(hits[2], 0);
  EXPECT_NEAR(hits[3], n * 0.6, 700);
}

TYPED_TEST(UrnEngineSweep, SamplingAfterUpdatesUsesNewWeights) {
  std::vector<std::uint64_t> counts{1, 0};
  TypeParam u(counts);
  u.add(1, 99);
  u.add(0, -1);
  rng::Rng r(73);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(u.sample(r), 1u);
  }
}

}  // namespace
}  // namespace kusd
