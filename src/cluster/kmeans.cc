#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/math.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace falcc {

namespace {

// Points per task in the assignment/update steps. The chunking — and with
// it the order in which per-chunk partial sums are combined — depends
// only on n and this constant, so results are bit-identical at any
// thread count.
constexpr size_t kPointGrain = 256;

// Centroids CentroidTable::Nearest scores per block: the accumulators
// live in a fixed stack array, so any k is served without allocating.
constexpr size_t kCentroidBlock = 32;

// k-means++ seeding: first center uniform, subsequent centers sampled
// proportionally to squared distance from the nearest chosen center.
std::vector<std::vector<double>> KMeansPlusPlusInit(
    const std::vector<std::vector<double>>& points, size_t k, Rng* rng) {
  const size_t n = points.size();
  std::vector<std::vector<double>> centers;
  centers.reserve(k);
  centers.push_back(points[rng->UniformInt(n)]);

  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  while (centers.size() < k) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d2 = SquaredDistance(points[i], centers.back());
      if (d2 < dist2[i]) dist2[i] = d2;
      total += dist2[i];
    }
    size_t chosen;
    if (total <= 0.0) {
      // All points coincide with chosen centers; pick any.
      chosen = rng->UniformInt(n);
    } else {
      double target = rng->Uniform() * total;
      chosen = n - 1;
      for (size_t i = 0; i < n; ++i) {
        target -= dist2[i];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    }
    centers.push_back(points[chosen]);
  }
  return centers;
}

}  // namespace

Result<KMeansResult> RunKMeans(const std::vector<std::vector<double>>& points,
                               size_t k, const KMeansOptions& options) {
  const size_t n = points.size();
  if (n == 0) return Status::InvalidArgument("k-means: no points");
  if (k == 0 || k > n) {
    return Status::InvalidArgument("k-means: k must be in [1, n]");
  }
  const size_t dims = points[0].size();
  if (dims == 0) {
    return Status::InvalidArgument("k-means: zero-dimensional points");
  }
  for (const auto& p : points) {
    if (p.size() != dims) {
      return Status::InvalidArgument("k-means: inconsistent dimensionality");
    }
  }

  Rng rng(options.seed);
  KMeansResult result;
  result.centroids = KMeansPlusPlusInit(points, k, &rng);
  result.assignment.assign(n, 0);

  double prev_sse = std::numeric_limits<double>::max();
  std::vector<std::vector<double>> sums(k, std::vector<double>(dims, 0.0));
  std::vector<size_t> counts(k, 0);

  // Per-chunk partial reductions, combined in chunk order after each
  // parallel step (fixed combine order => deterministic floating point).
  const size_t num_chunks = NumChunks(0, n, kPointGrain);
  std::vector<double> chunk_sse(num_chunks, 0.0);
  std::vector<std::vector<double>> chunk_sums(
      num_chunks, std::vector<double>(k * dims, 0.0));
  std::vector<std::vector<size_t>> chunk_counts(
      num_chunks, std::vector<size_t>(k, 0));

  // Assigns every point to its nearest centroid and returns the SSE.
  // The match scans a CentroidTable of the current centroids, rebuilt on
  // every call since the update step moves them; it names the same
  // centroid as NearestCentroid, ties included.
  auto assign_points = [&]() {
    const CentroidTable table = CentroidTable::Build(result.centroids).value();
    ParallelFor(0, n, kPointGrain,
                [&](size_t chunk, size_t lo, size_t hi) {
                  double local = 0.0;
                  for (size_t i = lo; i < hi; ++i) {
                    const size_t c = table.Nearest(points[i]);
                    result.assignment[i] = c;
                    local += SquaredDistance(points[i], result.centroids[c]);
                  }
                  chunk_sse[chunk] = local;
                });
    double sse = 0.0;
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      sse += chunk_sse[chunk];
    }
    return sse;
  };

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Assignment step.
    const double sse = assign_points();
    result.sse = sse;

    // Update step: per-chunk centroid sums, combined in chunk order.
    ParallelFor(0, n, kPointGrain,
                [&](size_t chunk, size_t lo, size_t hi) {
                  std::vector<double>& my_sums = chunk_sums[chunk];
                  std::vector<size_t>& my_counts = chunk_counts[chunk];
                  std::fill(my_sums.begin(), my_sums.end(), 0.0);
                  std::fill(my_counts.begin(), my_counts.end(), 0);
                  for (size_t i = lo; i < hi; ++i) {
                    const size_t c = result.assignment[i];
                    ++my_counts[c];
                    for (size_t d = 0; d < dims; ++d) {
                      my_sums[c * dims + d] += points[i][d];
                    }
                  }
                });
    for (auto& s : sums) std::fill(s.begin(), s.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      for (size_t c = 0; c < k; ++c) {
        counts[c] += chunk_counts[chunk][c];
        for (size_t d = 0; d < dims; ++d) {
          sums[c][d] += chunk_sums[chunk][c * dims + d];
        }
      }
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: re-seed at the point farthest from its center.
        size_t farthest = 0;
        double worst = -1.0;
        for (size_t i = 0; i < n; ++i) {
          const double d2 =
              SquaredDistance(points[i], result.centroids[result.assignment[i]]);
          if (d2 > worst) {
            worst = d2;
            farthest = i;
          }
        }
        result.centroids[c] = points[farthest];
        continue;
      }
      for (size_t d = 0; d < dims; ++d) {
        result.centroids[c][d] =
            sums[c][d] / static_cast<double>(counts[c]);
      }
    }

    if (prev_sse - sse <= options.tolerance * std::max(prev_sse, 1e-12)) {
      break;
    }
    prev_sse = sse;
  }

  // Final assignment against the last centroid update.
  result.sse = assign_points();
  return result;
}

size_t NearestCentroid(const std::vector<std::vector<double>>& centroids,
                       std::span<const double> point) {
  FALCC_CHECK(!centroids.empty(), "NearestCentroid: no centroids");
  size_t best = 0;
  double best_d2 = SquaredDistance(point, centroids[0]);
  for (size_t c = 1; c < centroids.size(); ++c) {
    const double d2 = SquaredDistance(point, centroids[c]);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = c;
    }
  }
  return best;
}

Result<CentroidTable> CentroidTable::Build(
    const std::vector<std::vector<double>>& centroids) {
  if (centroids.empty()) {
    return Status::InvalidArgument("CentroidTable: no centroids");
  }
  const size_t dims = centroids[0].size();
  if (dims == 0) {
    return Status::InvalidArgument("CentroidTable: zero-dimensional centroids");
  }
  CentroidTable table;
  table.size_ = centroids.size();
  table.dims_ = dims;
  table.coords_.resize(table.size_ * dims);
  for (size_t c = 0; c < table.size_; ++c) {
    if (centroids[c].size() != dims) {
      return Status::InvalidArgument(
          "CentroidTable: inconsistent dimensionality");
    }
    for (size_t d = 0; d < dims; ++d) {
      table.coords_[d * table.size_ + c] = centroids[c][d];
    }
  }
  return table;
}

size_t CentroidTable::Nearest(std::span<const double> point) const {
  FALCC_CHECK(point.size() == dims_ && size_ > 0,
              "CentroidTable::Nearest: empty table or dimensionality mismatch");
  double acc[kCentroidBlock];
  // Squared distances from `point` to centroids [base, base + width),
  // summed dimension by dimension in feature order. The first term
  // initializes each sum: a square is never -0.0, so 0.0 + x == x and
  // the sums stay bit-equal to SquaredDistance's. The inner loop is a
  // unit-stride pass over one dimension's coordinates, which GCC
  // vectorizes across centroids.
  const auto score = [&](size_t base, size_t width) {
    const double* row = coords_.data() + base;
    for (size_t j = 0; j < width; ++j) {
      const double diff = point[0] - row[j];
      acc[j] = diff * diff;
    }
    for (size_t d = 1; d < dims_; ++d) {
      const double q = point[d];
      row = coords_.data() + d * size_ + base;
      for (size_t j = 0; j < width; ++j) {
        const double diff = q - row[j];
        acc[j] += diff * diff;
      }
    }
  };
  size_t best = 0;
  double best_d2 = 0.0;
  for (size_t base = 0; base < size_; base += kCentroidBlock) {
    const size_t width = std::min(kCentroidBlock, size_ - base);
    // A full block passes the constant, so its loops are fixed-length.
    if (width == kCentroidBlock) {
      score(base, kCentroidBlock);
    } else {
      score(base, width);
    }
    // The same comparisons, in the same order, as NearestCentroid.
    size_t j = 0;
    if (base == 0) {
      best_d2 = acc[0];
      j = 1;
    }
    for (; j < width; ++j) {
      if (acc[j] < best_d2) {
        best_d2 = acc[j];
        best = base + j;
      }
    }
  }
  return best;
}

}  // namespace falcc
