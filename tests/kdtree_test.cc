#include "cluster/kdtree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/math.h"
#include "util/rng.h"

namespace falcc {
namespace {

std::vector<std::vector<double>> RandomPoints(size_t n, size_t d,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points(n, std::vector<double>(d));
  for (auto& p : points) {
    for (auto& v : p) v = rng.Uniform(-10.0, 10.0);
  }
  return points;
}

// Brute-force reference: indices of the k nearest points.
std::vector<size_t> BruteForce(const std::vector<std::vector<double>>& pts,
                               std::span<const double> q, size_t k) {
  std::vector<size_t> idx(pts.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return SquaredDistance(q, pts[a]) < SquaredDistance(q, pts[b]);
  });
  idx.resize(std::min(k, idx.size()));
  return idx;
}

TEST(KdTreeTest, MatchesBruteForce) {
  const auto points = RandomPoints(500, 4, 1);
  const KdTree tree = KdTree::Build(points).value();
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> q(4);
    for (auto& v : q) v = rng.Uniform(-12.0, 12.0);
    const auto expected = BruteForce(points, q, 7);
    const auto actual = tree.Nearest(q, 7);
    EXPECT_EQ(actual, expected) << "trial " << trial;
  }
}

TEST(KdTreeTest, SingleNearest) {
  const auto points = RandomPoints(100, 3, 3);
  const KdTree tree = KdTree::Build(points).value();
  // Query exactly at a point: that point is the nearest.
  for (size_t i = 0; i < 10; ++i) {
    const auto nn = tree.Nearest(points[i], 1);
    ASSERT_EQ(nn.size(), 1u);
    EXPECT_EQ(nn[0], i);
  }
}

TEST(KdTreeTest, KLargerThanSizeReturnsAll) {
  const auto points = RandomPoints(10, 2, 4);
  const KdTree tree = KdTree::Build(points).value();
  const std::vector<double> q = {0.0, 0.0};
  EXPECT_EQ(tree.Nearest(q, 100).size(), 10u);
}

TEST(KdTreeTest, KZeroReturnsEmpty) {
  const auto points = RandomPoints(10, 2, 5);
  const KdTree tree = KdTree::Build(points).value();
  const std::vector<double> q = {0.0, 0.0};
  EXPECT_TRUE(tree.Nearest(q, 0).empty());
}

TEST(KdTreeTest, ResultsOrderedByDistance) {
  const auto points = RandomPoints(300, 3, 6);
  const KdTree tree = KdTree::Build(points).value();
  const std::vector<double> q = {1.0, 2.0, 3.0};
  const auto nn = tree.Nearest(q, 20);
  for (size_t i = 1; i < nn.size(); ++i) {
    EXPECT_LE(SquaredDistance(q, points[nn[i - 1]]),
              SquaredDistance(q, points[nn[i]]));
  }
}

TEST(KdTreeTest, NearestWhereRespectsFilter) {
  const auto points = RandomPoints(200, 2, 7);
  const KdTree tree = KdTree::Build(points).value();
  std::vector<bool> accept(200, false);
  for (size_t i = 0; i < 200; i += 3) accept[i] = true;
  const std::vector<double> q = {0.0, 0.0};
  const auto nn = tree.NearestWhere(q, 10, accept);
  ASSERT_EQ(nn.size(), 10u);
  for (size_t idx : nn) EXPECT_TRUE(accept[idx]);
}

TEST(KdTreeTest, NearestWhereMatchesFilteredBruteForce) {
  const auto points = RandomPoints(300, 3, 8);
  const KdTree tree = KdTree::Build(points).value();
  std::vector<bool> accept(300, false);
  Rng rng(9);
  for (size_t i = 0; i < 300; ++i) accept[i] = rng.Bernoulli(0.4);
  std::vector<std::vector<double>> filtered;
  std::vector<size_t> original_idx;
  for (size_t i = 0; i < 300; ++i) {
    if (accept[i]) {
      filtered.push_back(points[i]);
      original_idx.push_back(i);
    }
  }
  const std::vector<double> q = {1.0, -1.0, 0.5};
  const auto expected_local = BruteForce(filtered, q, 5);
  const auto actual = tree.NearestWhere(q, 5, accept);
  ASSERT_EQ(actual.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(actual[i], original_idx[expected_local[i]]);
  }
}

TEST(KdTreeTest, DuplicatePointsHandled) {
  std::vector<std::vector<double>> points(50, {1.0, 1.0});
  points.push_back({2.0, 2.0});
  const KdTree tree = KdTree::Build(points).value();
  const std::vector<double> q = {1.0, 1.0};
  const auto nn = tree.Nearest(q, 3);
  EXPECT_EQ(nn.size(), 3u);
  for (size_t idx : nn) EXPECT_LT(idx, 50u);  // all duplicates, not (2,2)
}

// Exact ties must go to the lower index, as in the stable brute force:
// sets with only a few distinct points repeated (every query ties) and
// small-integer points queried at midpoints (every difference, square
// and sum is exact, so ties are real). With or without a filter.
void ExpectTiesMatchBruteForce(const std::vector<std::vector<double>>& points,
                               const std::vector<double>& q, Rng* rng) {
  const KdTree tree = KdTree::Build(points).value();
  std::vector<bool> accept(points.size());
  for (size_t i = 0; i < points.size(); ++i) accept[i] = rng->Bernoulli(0.5);
  std::vector<std::vector<double>> filtered;
  std::vector<size_t> original_idx;
  for (size_t i = 0; i < points.size(); ++i) {
    if (accept[i]) {
      filtered.push_back(points[i]);
      original_idx.push_back(i);
    }
  }
  for (size_t k : {1, 2, 5}) {
    SCOPED_TRACE(::testing::Message() << "k " << k);
    EXPECT_EQ(tree.Nearest(q, k), BruteForce(points, q, k));
    std::vector<size_t> expected;
    for (size_t local : BruteForce(filtered, q, k)) {
      expected.push_back(original_idx[local]);
    }
    EXPECT_EQ(tree.NearestWhere(q, k, accept), expected);
  }
}

TEST(KdTreeTest, ExactTiesGoToTheLowestIndex) {
  for (size_t n : {2, 17, 31, 33, 64, 257}) {
    for (size_t d = 1; d <= 4; ++d) {
      const uint64_t seed = 7000 + n * 10 + d;
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " n " << n << " d " << d);
      Rng rng(seed);
      std::vector<std::vector<double>> distinct(4, std::vector<double>(d));
      for (auto& p : distinct) {
        for (double& v : p) v = rng.Normal(0.0, 2.0);
      }
      std::vector<std::vector<double>> duplicates;
      for (size_t i = 0; i < n; ++i) {
        duplicates.push_back(distinct[rng.UniformInt(distinct.size())]);
      }
      for (const auto& q : distinct) ExpectTiesMatchBruteForce(duplicates, q, &rng);

      std::vector<std::vector<double>> grid(n, std::vector<double>(d));
      for (auto& p : grid) {
        for (double& v : p) v = static_cast<double>(rng.UniformInt(8));
      }
      for (int trial = 0; trial < 10; ++trial) {
        const auto& a = grid[rng.UniformInt(n)];
        const auto& b = grid[rng.UniformInt(n)];
        std::vector<double> midpoint(d);
        for (size_t i = 0; i < d; ++i) midpoint[i] = (a[i] + b[i]) / 2.0;
        ExpectTiesMatchBruteForce(grid, midpoint, &rng);
      }
    }
  }
}

// The case that showed the bug: 31 one-dimensional points, four distinct
// values repeated. Pruning at an equal bound returned index 9 where the
// lowest equidistant index is 1.
TEST(KdTreeTest, TieAcrossASplitPlaneReturnsTheLowestIndex) {
  Rng rng(7311);
  std::vector<std::vector<double>> distinct(4, std::vector<double>(1));
  for (auto& p : distinct) p[0] = rng.Normal(0.0, 2.0);
  std::vector<std::vector<double>> points;
  for (size_t i = 0; i < 31; ++i) {
    points.push_back(distinct[rng.UniformInt(distinct.size())]);
  }
  const KdTree tree = KdTree::Build(points).value();
  for (const auto& q : distinct) {
    EXPECT_EQ(tree.Nearest(q, 1), BruteForce(points, q, 1));
  }
}

TEST(KdTreeTest, RejectsEmptyAndRagged) {
  EXPECT_FALSE(KdTree::Build({}).ok());
  EXPECT_FALSE(KdTree::Build({{1.0, 2.0}, {1.0}}).ok());
  EXPECT_FALSE(KdTree::Build({{}}).ok());
}

class KdTreeDimSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(KdTreeDimSweep, CorrectAcrossDimensionalities) {
  const size_t d = GetParam();
  const auto points = RandomPoints(200, d, 10 + d);
  const KdTree tree = KdTree::Build(points).value();
  Rng rng(20 + d);
  std::vector<double> q(d);
  for (auto& v : q) v = rng.Uniform(-10.0, 10.0);
  EXPECT_EQ(tree.Nearest(q, 5), BruteForce(points, q, 5));
}

INSTANTIATE_TEST_SUITE_P(Dims, KdTreeDimSweep,
                         ::testing::Values(1, 2, 5, 10, 25));

}  // namespace
}  // namespace falcc
