// k-means clustering (Lloyd's algorithm with k-means++ initialization).
//
// FALCC's offline phase clusters the validation dataset into local
// regions (paper §3.5). The framework allows any clustering algorithm;
// this implementation mirrors the paper's choice of k-means with
// automatic k selection (see logmeans.h).

#ifndef FALCC_CLUSTER_KMEANS_H_
#define FALCC_CLUSTER_KMEANS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace falcc {

/// Outcome of a k-means run.
struct KMeansResult {
  std::vector<std::vector<double>> centroids;  ///< k centers
  std::vector<size_t> assignment;              ///< cluster id per point
  double sse = 0.0;          ///< sum of squared distances to centers
  size_t iterations = 0;     ///< Lloyd iterations executed
};

/// Options for a k-means run.
struct KMeansOptions {
  size_t max_iterations = 100;
  /// Relative SSE improvement below which iteration stops.
  double tolerance = 1e-6;
  uint64_t seed = 1;
};

/// Runs k-means++ / Lloyd on `points` (all the same, positive
/// dimensionality). Each assignment step matches through a CentroidTable.
/// k must be in [1, points.size()]. Deterministic for a fixed seed.
Result<KMeansResult> RunKMeans(const std::vector<std::vector<double>>& points,
                               size_t k, const KMeansOptions& options = {});

/// Index of the centroid closest to `point` (ties: lowest index).
/// The reference for FALCC's online cluster-matching step (paper §3.7
/// step 2); serving and RunKMeans run the same scan through
/// CentroidTable.
size_t NearestCentroid(const std::vector<std::vector<double>>& centroids,
                       std::span<const double> point);

/// The centroids of a clustering, laid out for the online match: one
/// dimension-major d × k array (entry [dim * k + c]), so the scan reads
/// each dimension's k coordinates contiguously and vectorizes across
/// centroids. Nearest() returns exactly what NearestCentroid returns.
/// Immutable after Build; queries are const and allocation-free.
class CentroidTable {
 public:
  CentroidTable() = default;

  /// Fails on an empty set, zero-dimensional or ragged centroids.
  static Result<CentroidTable> Build(
      const std::vector<std::vector<double>>& centroids);

  size_t size() const { return size_; }
  size_t dimensions() const { return dims_; }

  /// Index of the centroid closest to `point`, which must have
  /// dimensions() entries. Each squared distance is summed dimension by
  /// dimension in feature order, as SquaredDistance does, so every
  /// distance is bit-equal to NearestCentroid's; the strict `<` argmin
  /// then visits centroids in index order, so ties (and +inf distances)
  /// go to the lowest index exactly as they do there.
  size_t Nearest(std::span<const double> point) const;

 private:
  std::vector<double> coords_;  // coords_[dim * size_ + c]
  size_t size_ = 0;
  size_t dims_ = 0;
};

}  // namespace falcc

#endif  // FALCC_CLUSTER_KMEANS_H_
