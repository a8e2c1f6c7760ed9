#include "cluster/kmeans.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "cluster/kdtree.h"
#include "util/math.h"
#include "util/rng.h"

namespace falcc {
namespace {

// Three well-separated blobs in 2D.
std::vector<std::vector<double>> MakeBlobs(size_t per_blob, uint64_t seed) {
  Rng rng(seed);
  const double centers[3][2] = {{0, 0}, {10, 10}, {-10, 10}};
  std::vector<std::vector<double>> points;
  for (int b = 0; b < 3; ++b) {
    for (size_t i = 0; i < per_blob; ++i) {
      points.push_back({rng.Normal(centers[b][0], 0.5),
                        rng.Normal(centers[b][1], 0.5)});
    }
  }
  return points;
}

TEST(KMeansTest, RecoversBlobs) {
  const auto points = MakeBlobs(100, 1);
  const KMeansResult result = RunKMeans(points, 3).value();
  // Every blob maps to a single cluster.
  for (int b = 0; b < 3; ++b) {
    std::set<size_t> ids;
    for (size_t i = 0; i < 100; ++i) ids.insert(result.assignment[b * 100 + i]);
    EXPECT_EQ(ids.size(), 1u) << "blob " << b;
  }
  // And the three blobs map to three distinct clusters.
  std::set<size_t> reps = {result.assignment[0], result.assignment[100],
                           result.assignment[200]};
  EXPECT_EQ(reps.size(), 3u);
}

TEST(KMeansTest, SseDecreasesWithK) {
  const auto points = MakeBlobs(50, 2);
  double prev = 1e300;
  for (size_t k : {1, 2, 3, 6}) {
    const KMeansResult r = RunKMeans(points, k).value();
    EXPECT_LE(r.sse, prev + 1e-9) << "k=" << k;
    prev = r.sse;
  }
}

TEST(KMeansTest, KOneIsCentroidOfAll) {
  const auto points = MakeBlobs(20, 3);
  const KMeansResult r = RunKMeans(points, 1).value();
  ASSERT_EQ(r.centroids.size(), 1u);
  double mean0 = 0.0;
  for (const auto& p : points) mean0 += p[0];
  mean0 /= static_cast<double>(points.size());
  EXPECT_NEAR(r.centroids[0][0], mean0, 1e-9);
}

TEST(KMeansTest, AssignmentIsNearestCentroid) {
  const auto points = MakeBlobs(40, 4);
  const KMeansResult r = RunKMeans(points, 3).value();
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(r.assignment[i], NearestCentroid(r.centroids, points[i]));
  }
}

TEST(KMeansTest, SseMatchesAssignment) {
  const auto points = MakeBlobs(30, 5);
  const KMeansResult r = RunKMeans(points, 2).value();
  double sse = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    sse += SquaredDistance(points[i], r.centroids[r.assignment[i]]);
  }
  EXPECT_NEAR(r.sse, sse, 1e-9);
}

TEST(KMeansTest, DeterministicForSeed) {
  const auto points = MakeBlobs(50, 6);
  KMeansOptions opt;
  opt.seed = 77;
  const KMeansResult a = RunKMeans(points, 3, opt).value();
  const KMeansResult b = RunKMeans(points, 3, opt).value();
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.sse, b.sse);
}

TEST(KMeansTest, KEqualsNIsZeroSse) {
  const auto points = MakeBlobs(5, 7);  // 15 distinct points
  const KMeansResult r = RunKMeans(points, points.size()).value();
  EXPECT_NEAR(r.sse, 0.0, 1e-9);
}

TEST(KMeansTest, HandlesDuplicatePoints) {
  std::vector<std::vector<double>> points(20, {1.0, 1.0});
  const KMeansResult r = RunKMeans(points, 3).value();
  EXPECT_NEAR(r.sse, 0.0, 1e-12);
}

TEST(KMeansTest, RejectsBadInputs) {
  const auto points = MakeBlobs(10, 8);
  EXPECT_FALSE(RunKMeans(points, 0).ok());
  EXPECT_FALSE(RunKMeans(points, points.size() + 1).ok());
  EXPECT_FALSE(RunKMeans({}, 1).ok());
  EXPECT_FALSE(RunKMeans({{1.0}, {1.0, 2.0}}, 1).ok());
  EXPECT_FALSE(RunKMeans({{}, {}}, 1).ok());
}

TEST(NearestCentroidTest, PicksClosest) {
  const std::vector<std::vector<double>> centroids = {{0, 0}, {10, 0}};
  const std::vector<double> near_first = {1.0, 0.0};
  const std::vector<double> near_second = {9.0, 0.0};
  EXPECT_EQ(NearestCentroid(centroids, near_first), 0u);
  EXPECT_EQ(NearestCentroid(centroids, near_second), 1u);
}

TEST(NearestCentroidTest, TieGoesToLowerIndex) {
  const std::vector<std::vector<double>> centroids = {{-1, 0}, {1, 0}};
  const std::vector<double> middle = {0.0, 0.0};
  EXPECT_EQ(NearestCentroid(centroids, middle), 0u);
}

// --- CentroidTable: the serving match must answer as the reference scan.

// Every centroid-set shape the properties below sweep: k straddles the
// table's 32-centroid block on both sides, d covers 1 to 9.
const size_t kTableSizes[] = {1, 2, 31, 32, 33, 64, 65, 256};
constexpr size_t kMaxDims = 9;

// One query's three answers: the table, the NearestCentroid reference
// and the kd-tree, which must all name the same index, ties included.
void ExpectTableAnswers(const CentroidTable& table, const KdTree& tree,
                        const std::vector<std::vector<double>>& centroids,
                        const std::vector<double>& query) {
  const size_t expected = NearestCentroid(centroids, query);
  ASSERT_EQ(table.Nearest(query), expected);
  EXPECT_EQ(tree.Nearest(query, 1)[0], expected);
}

TEST(CentroidTableTest, MatchesReferenceOnRandomCentroidSets) {
  for (uint64_t round = 1; round <= 3; ++round) {
    for (size_t k : kTableSizes) {
      for (size_t d = 1; d <= kMaxDims; ++d) {
        const uint64_t seed = round * 100000 + k * 10 + d;
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " k " << k << " d " << d);
        Rng rng(seed);
        std::vector<std::vector<double>> centroids(k, std::vector<double>(d));
        for (auto& c : centroids) {
          for (double& v : c) v = rng.Normal(0.0, 3.0);
        }
        const CentroidTable table = CentroidTable::Build(centroids).value();
        const KdTree tree = KdTree::Build(centroids).value();
        ASSERT_EQ(table.size(), k);
        ASSERT_EQ(table.dimensions(), d);
        for (int q = 0; q < 40; ++q) {
          std::vector<double> query(d);
          for (double& v : query) v = rng.Normal(0.0, 4.0);
          ExpectTableAnswers(table, tree, centroids, query);
        }
      }
    }
  }
}

// Duplicate centroids tie at every query: the lowest index must win.
TEST(CentroidTableTest, DuplicateCentroidsGoToTheLowestIndex) {
  for (size_t k : kTableSizes) {
    for (size_t d = 1; d <= kMaxDims; ++d) {
      const uint64_t seed = 7000 + k * 10 + d;
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " k " << k << " d " << d);
      Rng rng(seed);
      // Only four distinct points, repeated in shuffled order.
      std::vector<std::vector<double>> distinct(4, std::vector<double>(d));
      for (auto& c : distinct) {
        for (double& v : c) v = rng.Normal(0.0, 2.0);
      }
      std::vector<std::vector<double>> centroids;
      for (size_t c = 0; c < k; ++c) {
        centroids.push_back(distinct[rng.UniformInt(distinct.size())]);
      }
      const CentroidTable table = CentroidTable::Build(centroids).value();
      const KdTree tree = KdTree::Build(centroids).value();
      for (const auto& point : distinct) {
        ExpectTableAnswers(table, tree, centroids, point);
      }
      for (int q = 0; q < 20; ++q) {
        std::vector<double> query(d);
        for (double& v : query) v = rng.Normal(0.0, 2.0);
        ExpectTableAnswers(table, tree, centroids, query);
      }
    }
  }
}

// Small-integer centroids and queries on the exact midpoint of two of
// them: every difference, square and sum is exact, so ties are real
// (often among more than two centroids), not rounding accidents.
TEST(CentroidTableTest, ExactMidpointTiesGoToTheLowestIndex) {
  for (size_t k : kTableSizes) {
    for (size_t d = 1; d <= kMaxDims; ++d) {
      const uint64_t seed = 9000 + k * 10 + d;
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " k " << k << " d " << d);
      Rng rng(seed);
      std::vector<std::vector<double>> centroids(k, std::vector<double>(d));
      for (auto& c : centroids) {
        for (double& v : c) v = static_cast<double>(rng.UniformInt(8));
      }
      const CentroidTable table = CentroidTable::Build(centroids).value();
      const KdTree tree = KdTree::Build(centroids).value();
      for (int q = 0; q < 30; ++q) {
        const auto& a = centroids[rng.UniformInt(k)];
        const auto& b = centroids[rng.UniformInt(k)];
        std::vector<double> midpoint(d);
        for (size_t i = 0; i < d; ++i) midpoint[i] = (a[i] + b[i]) / 2.0;
        ExpectTableAnswers(table, tree, centroids, midpoint);
      }
    }
  }
}

// Near 1e154 a squared difference overflows to +inf; a query far from
// every centroid sees only +inf distances, and the first centroid wins
// as it does in NearestCentroid.
TEST(CentroidTableTest, OverflowingDistancesKeepTheReferenceAnswer) {
  for (size_t k : kTableSizes) {
    for (size_t d = 1; d <= kMaxDims; ++d) {
      const uint64_t seed = 11000 + k * 10 + d;
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " k " << k << " d " << d);
      Rng rng(seed);
      std::vector<std::vector<double>> centroids(k, std::vector<double>(d));
      for (auto& c : centroids) {
        for (double& v : c) v = rng.Uniform(-1.0, 1.0) * 1e154;
      }
      const CentroidTable table = CentroidTable::Build(centroids).value();
      const KdTree tree = KdTree::Build(centroids).value();
      for (int q = 0; q < 20; ++q) {
        std::vector<double> query(d);
        for (double& v : query) v = rng.Uniform(-2.0, 2.0) * 1e154;
        ExpectTableAnswers(table, tree, centroids, query);
      }
      const std::vector<double> far(d, 1.5e154);
      const std::vector<double> far_opposite(d, -1.5e154);
      ExpectTableAnswers(table, tree, centroids, far);
      ExpectTableAnswers(table, tree, centroids, far_opposite);
    }
  }
}

// Rounding depends on the order the squares are added in. From the
// query at the origin, centroid 0's squares are {2^-54, 2^-54, 2^-54, 1}:
// in feature order they sum to 1 + 2^-52, but adding the 1 any earlier
// absorbs the small terms and gives exactly 1, a tie with centroid 1
// (squares {0, 0, 0, 1}) that centroid 0 would win.
TEST(CentroidTableTest, SumsSquaresInFeatureOrder) {
  const double tiny = std::ldexp(1.0, -27);  // squares to 2^-54 exactly
  const std::vector<std::vector<double>> centroids = {{tiny, tiny, tiny, 1.0},
                                                      {0.0, 0.0, 0.0, 1.0}};
  const std::vector<double> origin(4, 0.0);
  ASSERT_EQ(NearestCentroid(centroids, origin), 1u);
  EXPECT_EQ(CentroidTable::Build(centroids).value().Nearest(origin), 1u);
}

TEST(CentroidTableTest, RejectsEmptyZeroWidthAndRaggedSets) {
  EXPECT_FALSE(CentroidTable::Build({}).ok());
  EXPECT_FALSE(CentroidTable::Build({{}}).ok());
  EXPECT_FALSE(CentroidTable::Build({{1.0, 2.0}, {1.0}}).ok());
}

}  // namespace
}  // namespace falcc
