#include "util/math.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace falcc {
namespace {

TEST(MathTest, MeanBasics) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
}

TEST(MathTest, VarianceAndStdDev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);
}

TEST(MathTest, VarianceDegenerate) {
  EXPECT_DOUBLE_EQ(Variance(std::vector<double>{5.0}), 0.0);
}

TEST(MathTest, PearsonPerfectPositive) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(MathTest, PearsonPerfectNegative) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(MathTest, PearsonZeroVarianceIsZero) {
  const std::vector<double> x = {1, 1, 1, 1};
  const std::vector<double> y = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(MathTest, PearsonIndependentNearZero) {
  Rng rng(3);
  std::vector<double> x(5000), y(5000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Normal();
    y[i] = rng.Normal();
  }
  EXPECT_NEAR(PearsonCorrelation(x, y), 0.0, 0.05);
}

TEST(MathTest, PearsonBounded) {
  Rng rng(4);
  std::vector<double> x(100), y(100);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Normal();
    y[i] = 0.9 * x[i] + 0.1 * rng.Normal();
  }
  const double r = PearsonCorrelation(x, y);
  EXPECT_LE(r, 1.0);
  EXPECT_GE(r, -1.0);
  EXPECT_GT(r, 0.9);
}

TEST(MathTest, PearsonPValueStrongCorrelationSignificant) {
  // |r| = 0.9 over 100 samples is overwhelmingly significant.
  EXPECT_LT(PearsonPValue(0.9, 100), 1e-6);
}

TEST(MathTest, PearsonPValueWeakCorrelationInsignificant) {
  EXPECT_GT(PearsonPValue(0.05, 20), 0.5);
}

TEST(MathTest, PearsonPValueSmallSampleIsOne) {
  EXPECT_DOUBLE_EQ(PearsonPValue(0.9, 2), 1.0);
}

TEST(MathTest, PearsonPValueSymmetric) {
  EXPECT_NEAR(PearsonPValue(0.5, 30), PearsonPValue(-0.5, 30), 1e-12);
}

TEST(MathTest, LogGammaMatchesFactorials) {
  // Gamma(n) = (n-1)!
  EXPECT_NEAR(std::exp(LogGamma(5.0)), 24.0, 1e-9);
  EXPECT_NEAR(std::exp(LogGamma(1.0)), 1.0, 1e-12);
  EXPECT_NEAR(std::exp(LogGamma(0.5)), std::sqrt(M_PI), 1e-9);
}

TEST(MathTest, IncompleteBetaBoundaries) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(MathTest, IncompleteBetaSymmetry) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  const double v = RegularizedIncompleteBeta(2.5, 1.5, 0.3);
  const double w = 1.0 - RegularizedIncompleteBeta(1.5, 2.5, 0.7);
  EXPECT_NEAR(v, w, 1e-10);
}

TEST(MathTest, IncompleteBetaUniformCase) {
  // I_x(1,1) = x.
  for (double x : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, x), x, 1e-10);
  }
}

TEST(MathTest, StudentTCdfCenterIsHalf) {
  EXPECT_NEAR(StudentTCdf(0.0, 5.0), 0.5, 1e-12);
}

TEST(MathTest, StudentTCdfKnownValue) {
  // t = 2.015 is the 95th percentile at df = 5.
  EXPECT_NEAR(StudentTCdf(2.015, 5.0), 0.95, 1e-3);
}

TEST(MathTest, StudentTCdfMonotone) {
  double prev = 0.0;
  for (double t = -5.0; t <= 5.0; t += 0.5) {
    const double c = StudentTCdf(t, 10.0);
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST(MathTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959964), 0.975, 1e-5);
  EXPECT_NEAR(NormalCdf(-1.959964), 0.025, 1e-5);
}

TEST(MathTest, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-8) << "p=" << p;
  }
}

TEST(MathTest, SigmoidProperties) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-12);
  EXPECT_NEAR(Sigmoid(2.0) + Sigmoid(-2.0), 1.0, 1e-12);
}

TEST(MathTest, ClampWorks) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(MathTest, Distances) {
  const std::vector<double> a = {0.0, 0.0};
  const std::vector<double> b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
}

TEST(MathTest, FitLineExact) {
  const std::vector<double> x = {0, 1, 2, 3};
  const std::vector<double> y = {1, 3, 5, 7};
  const LinearFit fit = FitLine(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
}

TEST(MathTest, FitLineDegenerateX) {
  const std::vector<double> x = {2, 2, 2};
  const std::vector<double> y = {1, 2, 3};
  const LinearFit fit = FitLine(x, y);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(MathTest, RoundUpPow2UpToTheLargestPowerOfTwo) {
  constexpr size_t kTop = size_t{1} << 63;
  EXPECT_EQ(RoundUpPow2(0), 1u);
  EXPECT_EQ(RoundUpPow2(1), 1u);
  EXPECT_EQ(RoundUpPow2(3), 4u);
  EXPECT_EQ(RoundUpPow2(4), 4u);
  EXPECT_EQ(RoundUpPow2(kTop - 1), kTop);
  EXPECT_EQ(RoundUpPow2(kTop), kTop);
}

TEST(MathDeathTest, RoundUpPow2PastTheLargestPowerOfTwoAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(RoundUpPow2((size_t{1} << 63) + 1), "RoundUpPow2");
}

}  // namespace
}  // namespace falcc
