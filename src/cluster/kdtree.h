// k-d tree for exact k-nearest-neighbor search.
//
// Used by: the kNN classifier, FALCES's online local-region lookup, the
// consistency (individual fairness) metric and its experiment
// neighborhoods, FairBoost's situation testing, cluster gap-filling, and
// Fair-SMOTE's interpolation neighbors. Not by FALCC's online centroid
// match: at serving's k = 32 the tree's two leaves made it a linear scan
// plus indirection, and CentroidTable (cluster/kmeans.h) scans flat.
// Points are fixed at build time; queries are const and
// thread-compatible.

#ifndef FALCC_CLUSTER_KDTREE_H_
#define FALCC_CLUSTER_KDTREE_H_

#include <span>
#include <vector>

#include "util/status.h"

namespace falcc {

/// Exact nearest-neighbor index over a fixed point set.
class KdTree {
 public:
  /// Builds a tree over `points` (all must share one dimensionality,
  /// which must be positive). Median-split on the widest-spread
  /// dimension, leaf size 16.
  static Result<KdTree> Build(std::vector<std::vector<double>> points);

  size_t size() const { return points_.size(); }
  size_t dimensions() const { return dims_; }
  /// The indexed points, in their original order (for serialization).
  const std::vector<std::vector<double>>& points() const { return points_; }

  /// Indices of the k nearest points to `query` by Euclidean distance,
  /// ordered nearest first. Returns min(k, size()) indices. Ties are
  /// broken by lower index.
  std::vector<size_t> Nearest(std::span<const double> query, size_t k) const;

  /// Like Nearest, but only considers points whose index satisfies
  /// `accept`. Used to search within one sensitive group.
  std::vector<size_t> NearestWhere(
      std::span<const double> query, size_t k,
      const std::vector<bool>& accept) const;

 private:
  struct Node {
    // Leaf iff split_dim < 0; then [begin, end) indexes order_.
    int split_dim = -1;
    double split_value = 0.0;
    size_t begin = 0, end = 0;
    int left = -1, right = -1;
  };

  KdTree() = default;

  int BuildNode(size_t begin, size_t end);

  std::vector<std::vector<double>> points_;
  std::vector<size_t> order_;  // permutation of point indices
  std::vector<Node> nodes_;
  size_t dims_ = 0;
  int root_ = -1;
};

}  // namespace falcc

#endif  // FALCC_CLUSTER_KDTREE_H_
