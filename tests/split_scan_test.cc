// Error bound of the split scan's approximate pass (ml/tree_builder.h).
//
// The two-pass scan keeps trees bit-identical only if every finite
// ApproxSplitGains value lies within kSplitGainErrorBound of the exact
// double gain the seed trainer computes; pass 2 re-scores every
// threshold within kSplitGainMargin = 4 · kSplitGainErrorBound of the
// best approximation. Derivation (DESIGN.md §8), with u = 2^-24 the
// float unit roundoff and every side weight normalized by the node
// weight in double, so all inputs lie in [0, 1] (a + b = 1):
//
//  * narrowing a normalized double moves it by at most u relative
//    (2^-150 absolute below FLT_MIN, where every term is < 1e-35); the
//    double normalization adds ~2^-52 relative;
//  * gini: each side 2·x·n/a ≤ a/2 takes five roundings (three
//    narrowings, a multiply, a divide), ≤ 2.5u·a; with the side sum,
//    the parent narrowing and the final subtraction, ≤ 4u ≈ 2.4e-7;
//  * entropy: each side −x·log2(x/a) − n·log2(n/a). The class fraction
//    x·(1/a) carries ≤ 4u relative error, 1.443·4u ≈ 5.8u on its log;
//    the log polynomial adds ≤ 3.7e-7 (measured over every float in
//    [1, 2)); the narrowing of x and the product x·log2 add ≤ 3u·x·|log2
//    p|. Summed over a side this is ≤ a·(3.7e-7 + 8.8u), since the
//    x·|log2 p| terms add up to a·H(p) ≤ a. The side sum, the parent
//    narrowing and the final subtraction add ≤ 4u: ≈ 3.7e-7 + 12.8u ≈
//    1.1e-6 in total;
//  * a pure right side rounded up to 2^-24·b outside [0, 1] (tolerated
//    by the kernel) moves the exact impurity by ≤ 2.1·2^-24·b ≈ 1.3e-7.
//
// kSplitGainErrorBound = 2e-6 covers both criteria. The sweep below
// checks it from node weight 1 down to 1e-300, with left and positive
// fractions including 0 and 1; it prints the largest error it saw.
//
// Every kernel variant this CPU runs (SplitGainKernels: baseline, avx2,
// avx512f) must return the baseline's bits at every point of the sweep,
// in vector lanes and scalar tails alike. A variant compiled with FMA
// contraction (ml/tree_builder.cc without -ffp-contract=off) fails here.

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "ml/tree_builder.h"
#include "util/rng.h"

namespace falcc {
namespace {

struct SweepStats {
  size_t finite = 0;
  double max_error = 0.0;
};

// Lanes per variant call: more than two 512-bit float vectors plus an
// odd tail, so a threshold passes through vector bodies and scalar
// remainders.
constexpr size_t kLanes = 37;

// Every variant scores `kLanes` copies of one threshold; each lane must
// hold the bits of the baseline kernel's one-threshold call.
void CheckVariants(const SplitNode& node, double wl, double wl_pos,
                   float baseline) {
  std::array<double, kLanes> wls;
  std::array<double, kLanes> wl_poss;
  std::array<float, kLanes> out;
  wls.fill(wl);
  wl_poss.fill(wl_pos);
  for (const SplitGainKernel& kernel : SplitGainKernels()) {
    kernel.fn(node, wls.data(), wl_poss.data(), kLanes, out.data());
    for (size_t lane = 0; lane < kLanes; ++lane) {
      ASSERT_EQ(std::bit_cast<uint32_t>(out[lane]),
                std::bit_cast<uint32_t>(baseline))
          << kernel.name << " lane " << lane << " w_total=" << node.w_total
          << " w_pos=" << node.w_pos << " wl=" << wl << " wl_pos=" << wl_pos
          << " got=" << out[lane] << " baseline=" << baseline;
    }
  }
}

// Scores one threshold (prefix sums wl, wl_pos) on a node of weight
// `w_total` with positive weight `w_pos`, checks every variant against
// the baseline bit for bit, and checks the approximation against the
// exact gain.
void CheckSums(SplitCriterion criterion, double w_total, double w_pos,
               double wl, double wl_pos, SweepStats* stats) {
  const SplitNode node{w_total, w_pos,
                       SplitImpurity(w_pos, w_total, criterion), criterion};
  float approx = 0.0f;
  SplitGainKernels().front().fn(node, &wl, &wl_pos, 1, &approx);
  CheckVariants(node, wl, wl_pos, approx);
  if (::testing::Test::HasFatalFailure()) return;
  if (!std::isfinite(approx)) return;
  const double exact = ExactSplitGain(node, wl, wl_pos);
  const double error = std::fabs(static_cast<double>(approx) - exact);
  ++stats->finite;
  if (error > stats->max_error) stats->max_error = error;
  ASSERT_LE(error, kSplitGainMargin / 4.0)
      << "w_total=" << w_total << " w_pos=" << w_pos << " wl=" << wl
      << " wl_pos=" << wl_pos << " approx=" << approx << " exact=" << exact;
}

// Left fraction `left`, left and right positive fractions `left_pos`,
// `right_pos`.
void CheckOne(SplitCriterion criterion, double w_total, double left,
              double left_pos, double right_pos, SweepStats* stats) {
  const double wl = left * w_total;
  const double wl_pos = left_pos * wl;
  CheckSums(criterion, w_total, wl_pos + right_pos * (w_total - wl), wl,
            wl_pos, stats);
}

class SplitScanBound : public ::testing::TestWithParam<SplitCriterion> {};

TEST_P(SplitScanBound, ApproximationWithinBoundAcrossScales) {
  const SplitCriterion criterion = GetParam();
  ASSERT_EQ(kSplitGainErrorBound, kSplitGainMargin / 4.0f);
  const std::vector<double> fractions = {
      0.0,  1e-300, 1e-40, 1e-12, 1e-7,  1e-4,        0.01,
      0.1,  0.25,   1.0 / 3, 0.5, 0.7,   0.9,         0.99,
      1.0 - 1e-7,   1.0 - 1e-12, 1.0};
  std::vector<double> scales;
  for (int e = 0; e >= -300; e -= 10) scales.push_back(std::pow(10.0, e));
  scales.push_back(3.7e-123);
  scales.push_back(1.0 / 6000.0);

  SweepStats stats;
  for (double w_total : scales) {
    for (double left : fractions) {
      for (double left_pos : fractions) {
        for (double right_pos : fractions) {
          CheckOne(criterion, w_total, left, left_pos, right_pos, &stats);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // A pure right side whose class weight rounded just outside [0, 1], as
  // when w_pos and wl_pos sum the same rows in different orders.
  for (double w_total : scales) {
    for (double left : fractions) {
      for (double slack : {1e-16, 1e-12, 1e-9, 5e-8, 1e-6}) {
        const double wl = left * w_total;
        const double wr = w_total - wl;
        CheckSums(criterion, w_total, 0.5 * wl - slack * wr, wl, 0.5 * wl,
                  &stats);
        CheckSums(criterion, w_total, 0.5 * wl + (1.0 + slack) * wr, wl,
                  0.5 * wl, &stats);
        if (HasFatalFailure()) return;
      }
    }
  }
  // Random interior points, where the error of the smooth gain peaks.
  Rng rng(2024);
  for (int i = 0; i < 200000; ++i) {
    const double w_total = std::pow(10.0, -300.0 * rng.Uniform());
    CheckOne(criterion, w_total, rng.Uniform(), rng.Uniform(),
             rng.Uniform(), &stats);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(stats.finite, 200000u);
  std::printf("criterion=%s finite=%zu max_error=%.3g bound=%.3g "
              "variants=%zu\n",
              criterion == SplitCriterion::kGini ? "gini" : "entropy",
              stats.finite, stats.max_error,
              static_cast<double>(kSplitGainErrorBound),
              SplitGainKernels().size());
}

INSTANTIATE_TEST_SUITE_P(Criteria, SplitScanBound,
                         ::testing::Values(SplitCriterion::kGini,
                                           SplitCriterion::kEntropy));

// The baseline variant comes first and ApproxSplitGains runs the last.
TEST(SplitScan, BaselineFirstAndDispatchToWidest) {
  const std::span<const SplitGainKernel> kernels = SplitGainKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "baseline");
  for (const SplitGainKernel& kernel : kernels) {
    std::printf("split gain kernel: %s\n", kernel.name);
  }
  const SplitNode node{1.0, 0.5,
                       SplitImpurity(0.5, 1.0, SplitCriterion::kEntropy),
                       SplitCriterion::kEntropy};
  const double wl = 0.25;
  const double wl_pos = 0.125;
  float dispatched = 0.0f;
  float widest = 1.0f;
  ApproxSplitGains(node, &wl, &wl_pos, 1, &dispatched);
  kernels.back().fn(node, &wl, &wl_pos, 1, &widest);
  EXPECT_EQ(std::bit_cast<uint32_t>(dispatched),
            std::bit_cast<uint32_t>(widest));
}

// Thresholds the caller ruled out (wl = 0) score -inf and are never
// re-scored; a right side whose class weights went negative by rounding
// scores NaN and is always re-scored.
TEST(SplitScan, MarksInvalidAndOutOfRangeThresholds) {
  for (const SplitGainKernel& kernel : SplitGainKernels()) {
    SCOPED_TRACE(kernel.name);
    for (SplitCriterion criterion :
         {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
      const SplitNode node{1.0, 0.5, SplitImpurity(0.5, 1.0, criterion),
                           criterion};
      const double wl[5] = {0.25, 0.0, 0.5, 0.6, 1e-50};
      const double wl_pos[5] = {0.125, 0.0, 0.5 + 1e-6, 0.05, 0.0};
      float out[5];
      kernel.fn(node, wl, wl_pos, 5, out);
      EXPECT_TRUE(std::isfinite(out[0]));
      EXPECT_EQ(out[1], -std::numeric_limits<float>::infinity());
      EXPECT_TRUE(std::isnan(out[2]));  // right positive weight < 0
      EXPECT_TRUE(std::isnan(out[3]));  // right negative weight < 0
      // Left side underflows in float: gini divides 0 by 0, entropy's
      // weighted logs vanish; either way nothing within the bound is
      // lost.
      EXPECT_TRUE(std::isnan(out[4]) ||
                  std::fabs(out[4] - ExactSplitGain(node, wl[4],
                                                    wl_pos[4])) <=
                      kSplitGainErrorBound);
    }
  }
}

}  // namespace
}  // namespace falcc
