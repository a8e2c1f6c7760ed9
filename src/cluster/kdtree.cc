#include "cluster/kdtree.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/math.h"

namespace falcc {

namespace {

constexpr size_t kLeafSize = 16;

// Max-heap entry: (distance², index). The heap keeps the k best seen.
struct HeapEntry {
  double dist2;
  size_t index;
  bool operator<(const HeapEntry& o) const {
    if (dist2 != o.dist2) return dist2 < o.dist2;
    return index < o.index;  // larger index = "worse" on ties
  }
};

}  // namespace

Result<KdTree> KdTree::Build(std::vector<std::vector<double>> points) {
  if (points.empty()) {
    return Status::InvalidArgument("KdTree: no points");
  }
  const size_t dims = points[0].size();
  if (dims == 0) {
    return Status::InvalidArgument("KdTree: zero-dimensional points");
  }
  for (const auto& p : points) {
    if (p.size() != dims) {
      return Status::InvalidArgument("KdTree: inconsistent dimensionality");
    }
  }
  KdTree tree;
  tree.points_ = std::move(points);
  tree.dims_ = dims;
  tree.order_.resize(tree.points_.size());
  for (size_t i = 0; i < tree.order_.size(); ++i) tree.order_[i] = i;
  tree.nodes_.reserve(2 * tree.points_.size() / kLeafSize + 2);
  tree.root_ = tree.BuildNode(0, tree.order_.size());
  return tree;
}

int KdTree::BuildNode(size_t begin, size_t end) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  Node& node = nodes_.back();
  node.begin = begin;
  node.end = end;
  if (end - begin <= kLeafSize) {
    return node_id;  // leaf
  }

  // Split on the dimension with the widest value spread.
  size_t best_dim = 0;
  double best_spread = -1.0;
  for (size_t d = 0; d < dims_; ++d) {
    double lo = points_[order_[begin]][d];
    double hi = lo;
    for (size_t i = begin + 1; i < end; ++i) {
      const double v = points_[order_[i]][d];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_dim = d;
    }
  }
  if (best_spread <= 0.0) {
    return node_id;  // all points identical: keep as leaf
  }

  const size_t mid = begin + (end - begin) / 2;
  std::nth_element(order_.begin() + begin, order_.begin() + mid,
                   order_.begin() + end, [&](size_t a, size_t b) {
                     return points_[a][best_dim] < points_[b][best_dim];
                   });
  // nodes_ may reallocate during recursion; don't hold `node` across it.
  const double split_value = points_[order_[mid]][best_dim];
  const int left = BuildNode(begin, mid);
  const int right = BuildNode(mid, end);
  nodes_[node_id].split_dim = static_cast<int>(best_dim);
  nodes_[node_id].split_value = split_value;
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

std::vector<size_t> KdTree::Nearest(std::span<const double> query,
                                    size_t k) const {
  static const std::vector<bool> kEmpty;
  return NearestWhere(query, k, kEmpty);
}

std::vector<size_t> KdTree::NearestWhere(
    std::span<const double> query, size_t k,
    const std::vector<bool>& accept) const {
  FALCC_CHECK(query.size() == dims_, "KdTree query dimensionality mismatch");
  if (k == 0) return {};

  std::priority_queue<HeapEntry> best;  // max-heap of current k best
  const bool filtered = !accept.empty();

  // Iterative DFS with pruning. Stack holds (node, lower-bound dist²).
  std::vector<std::pair<int, double>> stack;
  stack.emplace_back(root_, 0.0);
  while (!stack.empty()) {
    const auto [node_id, bound] = stack.back();
    stack.pop_back();
    // Prune only when the subtree is strictly farther: at an equal bound
    // it may hold a lower-index point at the k-th distance, which the
    // lowest-index tie rule must find.
    if (best.size() == k && bound > best.top().dist2) continue;
    const Node& node = nodes_[node_id];
    if (node.split_dim < 0) {
      for (size_t i = node.begin; i < node.end; ++i) {
        const size_t idx = order_[i];
        if (filtered && !accept[idx]) continue;
        const double d2 = SquaredDistance(query, points_[idx]);
        if (best.size() < k) {
          best.push({d2, idx});
        } else if (HeapEntry{d2, idx} < best.top()) {
          best.pop();
          best.push({d2, idx});
        }
      }
      continue;
    }
    const double diff = query[node.split_dim] - node.split_value;
    const int near = diff < 0.0 ? node.left : node.right;
    const int far = diff < 0.0 ? node.right : node.left;
    // Push far side first so the near side is explored first.
    stack.emplace_back(far, std::max(bound, diff * diff));
    stack.emplace_back(near, bound);
  }

  std::vector<size_t> result(best.size());
  for (size_t i = result.size(); i-- > 0;) {
    result[i] = best.top().index;
    best.pop();
  }
  return result;
}

}  // namespace falcc
