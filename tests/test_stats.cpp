// Statistics substrate tests.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rng/rng.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

TEST(Streaming, MeanVarianceMinMax) {
  stats::Streaming s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Streaming, AgreesWithSamples) {
  rng::Rng r(5);
  stats::Streaming st;
  stats::Samples sa;
  for (int i = 0; i < 1000; ++i) {
    const double v = r.normal() * 3.0 + 1.0;
    st.add(v);
    sa.add(v);
  }
  EXPECT_NEAR(st.mean(), sa.mean(), 1e-9);
  EXPECT_NEAR(st.variance(), sa.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(st.min(), sa.min());
  EXPECT_DOUBLE_EQ(st.max(), sa.max());
}

TEST(Samples, QuantilesInterpolate) {
  stats::Samples s({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0 / 3.0), 2.0);
}

TEST(Samples, SingleValue) {
  stats::Samples s({7.0});
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(Samples, Ci95ShrinksWithMoreData) {
  rng::Rng r(9);
  stats::Samples small, large;
  for (int i = 0; i < 100; ++i) small.add(r.normal());
  for (int i = 0; i < 10000; ++i) large.add(r.normal());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
  // The 95% CI of 10k standard normals is about 1.96/sqrt(10000) ~ 0.02.
  EXPECT_NEAR(large.ci95_halfwidth(), 0.0196, 0.004);
}

TEST(Ks, IdenticalSamplesHaveZeroDistance) {
  std::vector<double> a{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::ks_statistic(a, a), 0.0);
}

TEST(Ks, DisjointSamplesHaveDistanceOne) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{10, 11, 12};
  EXPECT_DOUBLE_EQ(stats::ks_statistic(a, b), 1.0);
}

TEST(Ks, SameDistributionPassesThreshold) {
  rng::Rng r(13);
  std::vector<double> a, b;
  for (int i = 0; i < 4000; ++i) a.push_back(r.normal());
  for (int i = 0; i < 4000; ++i) b.push_back(r.normal());
  EXPECT_LT(stats::ks_statistic(a, b),
            stats::ks_threshold(a.size(), b.size(), 0.001));
}

TEST(Ks, ShiftedDistributionFailsThreshold) {
  rng::Rng r(17);
  std::vector<double> a, b;
  for (int i = 0; i < 4000; ++i) a.push_back(r.normal());
  for (int i = 0; i < 4000; ++i) b.push_back(r.normal() + 0.3);
  EXPECT_GT(stats::ks_statistic(a, b),
            stats::ks_threshold(a.size(), b.size(), 0.001));
}

TEST(Regression, ExactLine) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{3, 5, 7, 9};  // y = 1 + 2x
  const auto fit = stats::linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Regression, NoisyLineRecoversSlope) {
  rng::Rng r(19);
  std::vector<double> xs, ys;
  for (int i = 0; i < 500; ++i) {
    const double x = static_cast<double>(i);
    xs.push_back(x);
    ys.push_back(4.0 - 0.5 * x + r.normal());
  }
  const auto fit = stats::linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, -0.5, 0.01);
}

TEST(Regression, LogLogRecoversExponent) {
  std::vector<double> xs, ys;
  for (double x : {10.0, 100.0, 1000.0, 10000.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 1.5));
  }
  const auto fit = stats::loglog_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 1.5, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept), 3.0, 1e-9);
}

TEST(Regression, RejectsDegenerateInput) {
  const std::vector<double> one{1.0};
  EXPECT_THROW(static_cast<void>(stats::linear_fit(one, one)),
               util::CheckError);
  const std::vector<double> xs{-1.0, 2.0};
  const std::vector<double> ys{1.0, 2.0};
  EXPECT_THROW(static_cast<void>(stats::loglog_fit(xs, ys)),
               util::CheckError);
}

}  // namespace
}  // namespace kusd
