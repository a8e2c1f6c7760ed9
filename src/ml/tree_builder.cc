#include "ml/tree_builder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/rng.h"

namespace falcc {

namespace {

// log2(t) in single precision without a division, for normal t > 0:
// t = 2^e·m with m in [1, 2), and log2(m) from a degree-7 Chebyshev
// interpolant in m − 1 (|error| ≤ 3.7e-7 over every float in [1, 2),
// float rounding included). Zero and subnormal t get e = -127 and a
// wrong mantissa term, which callers multiply by a weight below
// FLT_MIN. Branch-free so the calling loop vectorizes; always inlined
// so each kernel variant below compiles it for its own instruction set.
[[gnu::always_inline]] inline float Log2(float t) {
  const uint32_t bits = std::bit_cast<uint32_t>(t);
  const float e = static_cast<float>(static_cast<int32_t>(bits >> 23) - 127);
  const float x =
      std::bit_cast<float>((bits & 0x007fffffu) | 0x3f800000u) - 1.0f;
  float p = 1.4440352495e-2f;
  p = p * x - 7.5651374686e-2f;
  p = p * x + 1.8875273774e-1f;
  p = p * x - 3.2196028546e-1f;
  p = p * x + 4.7208691624e-1f;
  p = p * x - 7.2031606436e-1f;
  p = p * x + 1.4426475487e+0f;
  p = p * x + 3.6856140976e-7f;
  return e + p;
}

// a·H(x/a) for a side of weight a = x + n: −x·log2(x/a) − n·log2(n/a).
[[gnu::always_inline]] inline float SideEntropy(float x, float n,
                                                float a) {
  const float r = 1.0f / a;
  return -(x * Log2(x * r) + n * Log2(n * r));
}

}  // namespace

double SplitImpurity(double w1, double w, SplitCriterion criterion) {
  if (w <= 0.0) return 0.0;
  const double p = w1 / w;
  if (criterion == SplitCriterion::kGini) {
    return 2.0 * p * (1.0 - p);
  }
  double h = 0.0;
  if (p > 0.0) h -= p * std::log2(p);
  if (p < 1.0) h -= (1.0 - p) * std::log2(1.0 - p);
  return h;
}

double ExactSplitGain(const SplitNode& node, double wl, double wl_pos) {
  const double wr = node.w_total - wl;
  const double wr_pos = node.w_pos - wl_pos;
  const double child_impurity =
      (wl * SplitImpurity(wl_pos, wl, node.criterion) +
       wr * SplitImpurity(wr_pos, wr, node.criterion)) /
      node.w_total;
  return node.parent_impurity - child_impurity;
}

namespace {

// ApproxSplitGains for one criterion. Each side's weight a and its
// positive and negative parts x, n are normalized by the node weight in
// double and only then narrowed, so the float work sees values in [0, 1]
// and neither the right side nor a negative part ever comes from a float
// subtraction. With p = x/a, a·Gini(p) = 2·x·n/a and
// a·H(p) = −x·log2(x/a) − n·log2(n/a).
template <SplitCriterion kCriterion>
[[gnu::always_inline]] inline void ApproxGains(const SplitNode& node,
                                               const double* wl,
                                               const double* wl_pos,
                                               size_t count, float* out) {
  const double scale = 1.0 / node.w_total;
  const float parent = static_cast<float>(node.parent_impurity);
  const float kInvalid = -std::numeric_limits<float>::infinity();
  const float kRescore = std::numeric_limits<float>::quiet_NaN();
  const float kFractionSlack = 0x1p-24f;
  for (size_t i = 0; i < count; ++i) {
    const double a_d = wl[i] * scale;
    const double x_d = wl_pos[i] * scale;
    const double b_d = (node.w_total - wl[i]) * scale;
    const double y_d = (node.w_pos - wl_pos[i]) * scale;
    const float a = static_cast<float>(a_d);
    const float x = static_cast<float>(x_d);
    const float n = static_cast<float>(a_d - x_d);
    const float b = static_cast<float>(b_d);
    const float y = static_cast<float>(y_d);
    const float m = static_cast<float>(b_d - y_d);
    float child;
    if constexpr (kCriterion == SplitCriterion::kGini) {
      child = 2.0f * (x * n / a + y * m / b);
    } else {
      child = SideEntropy(x, n, a) +
              SideEntropy(std::max(y, 0.0f), std::max(m, 0.0f), b);
    }
    const float gain = parent - child;
    // The right side's class weights come from a difference of sums
    // accumulated in different orders, so a pure right side can round
    // to a fraction just outside [0, 1]; within kFractionSlack of it the
    // exact impurity stays below 2.1·kFractionSlack·b and the formulas
    // above track it. Beyond that, only the exact code is trusted.
    const float slack = -kFractionSlack * b;
    const bool in_range = y >= slack && m >= slack;
    out[i] = wl[i] > 0.0 ? (in_range ? gain : kRescore) : kInvalid;
  }
}

[[gnu::always_inline]] inline void ApproxGainsAnyCriterion(
    const SplitNode& node, const double* wl, const double* wl_pos,
    size_t count, float* out) {
  if (node.criterion == SplitCriterion::kGini) {
    ApproxGains<SplitCriterion::kGini>(node, wl, wl_pos, count, out);
  } else {
    ApproxGains<SplitCriterion::kEntropy>(node, wl, wl_pos, count, out);
  }
}

// The kernel variants: one source, compiled per instruction set. They
// are bit-identical because the loop only does IEEE operations that
// every target rounds alike, and -ffp-contract=off on this file keeps
// the avx512f clone (which GCC lets use FMA) from fusing them
// (tests/split_scan_test.cc checks every variant against the baseline).
void ApproxGainsBaseline(const SplitNode& node, const double* wl,
                         const double* wl_pos, size_t count, float* out) {
  ApproxGainsAnyCriterion(node, wl, wl_pos, count, out);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void ApproxGainsAvx2(const SplitNode& node,
                                             const double* wl,
                                             const double* wl_pos,
                                             size_t count, float* out) {
  ApproxGainsAnyCriterion(node, wl, wl_pos, count, out);
}

[[gnu::target("avx512f")]] void ApproxGainsAvx512(const SplitNode& node,
                                                  const double* wl,
                                                  const double* wl_pos,
                                                  size_t count, float* out) {
  ApproxGainsAnyCriterion(node, wl, wl_pos, count, out);
}
#endif

std::vector<SplitGainKernel> SupportedKernels() {
  std::vector<SplitGainKernel> kernels = {{"baseline", &ApproxGainsBaseline}};
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    kernels.push_back({"avx2", &ApproxGainsAvx2});
  }
  if (__builtin_cpu_supports("avx512f")) {
    kernels.push_back({"avx512f", &ApproxGainsAvx512});
  }
#endif
  return kernels;
}

}  // namespace

std::span<const SplitGainKernel> SplitGainKernels() {
  static const std::vector<SplitGainKernel> kernels = SupportedKernels();
  return kernels;
}

void ApproxSplitGains(const SplitNode& node, const double* wl,
                      const double* wl_pos, size_t count, float* out) {
  static const auto fn = SplitGainKernels().back().fn;
  fn(node, wl, wl_pos, count, out);
}

Status TreeBuilder::Build(const FeatureColumns& columns,
                          std::span<const double> weights,
                          const DecisionTreeOptions& options,
                          std::vector<TreeNode>* nodes, size_t* max_depth) {
  const Dataset& data = columns.data();
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("DecisionTree: empty training data");
  }
  FALCC_CHECK(weights.size() == data.num_rows(),
              "TreeBuilder: one weight per row required");

  columns_ = &columns;
  data_ = &data;
  options_ = &options;
  nodes_ = nodes;
  depth_ = 0;
  rng_state_ = options.seed;
  num_rows_ = data.num_rows();
  num_features_ = data.num_features();

  // Working copies of the presorted lists — the only O(d·n) copy per fit;
  // recursion partitions them in place.
  lists_.resize(num_features_ * num_rows_);
  list_values_.resize(num_features_ * num_rows_);
  for (size_t f = 0; f < num_features_; ++f) {
    const auto rows = columns.SortedRows(f);
    const auto values = columns.SortedValues(f);
    std::copy(rows.begin(), rows.end(), lists_.begin() + f * num_rows_);
    std::copy(values.begin(), values.end(),
              list_values_.begin() + f * num_rows_);
  }
  row_weights_.resize(num_rows_);
  for (size_t row = 0; row < num_rows_; ++row) {
    row_weights_[row] = {weights[row],
                         data.Label(row) == 1 ? weights[row] : 0.0};
  }
  prefix_w_.resize(num_rows_);
  prefix_pos_.resize(num_rows_);
  approx_gain_.resize(num_rows_);
  indices_.resize(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) indices_[i] = i;
  goes_left_.resize(num_rows_);
  scratch_rows_.resize(num_rows_);
  scratch_values_.resize(num_rows_);

  nodes_->clear();
  nodes_->reserve(64);
  BuildNode(0, num_rows_, 0);
  *max_depth = depth_;
  return Status::OK();
}

int TreeBuilder::BuildNode(size_t begin, size_t end, size_t depth) {
  const int node_id = static_cast<int>(nodes_->size());
  nodes_->emplace_back();
  depth_ = std::max(depth_, depth);

  const Dataset& data = *data_;
  const DecisionTreeOptions& options = *options_;

  // Weighted class counts over this node's rows, accumulated over the
  // seed-order bookkeeping array so the sums round identically to the
  // seed trainer's.
  double w_total = 0.0, w_pos = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const std::array<double, 2>& rw = row_weights_[indices_[i]];
    w_total += rw[0];
    w_pos += rw[1];
  }
  (*nodes_)[node_id].proba = w_total > 0.0 ? w_pos / w_total : 0.5;

  const size_t n = end - begin;
  const bool pure = w_pos <= 0.0 || w_pos >= w_total;
  if (depth >= options.max_depth || n < options.min_samples_split || pure ||
      w_total <= 0.0) {
    return node_id;
  }

  // Candidate features: all, or a random subset (Random Forest mode).
  // Same RNG stream as the seed trainer: one Rng per splitting node,
  // advanced in preorder.
  candidates_.resize(num_features_);
  for (size_t f = 0; f < num_features_; ++f) candidates_[f] = f;
  if (options.max_features > 0 && options.max_features < num_features_) {
    Rng rng(rng_state_);
    rng.Shuffle(&candidates_);
    rng_state_ = rng.Next();
    candidates_.resize(options.max_features);
  }

  const SplitNode node{w_total, w_pos,
                       SplitImpurity(w_pos, w_total, options.criterion),
                       options.criterion};
  double best_gain = 1e-12;  // require strictly positive gain
  int best_feature = -1;
  double best_threshold = 0.0;
  float best_approx = std::numeric_limits<float>::lowest();

  // Thresholds i in [lo, hi) pass the leaf-size guards: i + 1 and
  // n - i - 1 rows on the two sides are both at least min_samples_leaf.
  const size_t min_leaf = options.min_samples_leaf;
  const size_t lo = min_leaf > 0 ? min_leaf - 1 : 0;
  const size_t hi = n > min_leaf ? std::min(n - 1, n - min_leaf) : 0;

  // Two-pass threshold scan per candidate feature over the node's segment
  // of its presorted column (tree_builder.h; DESIGN.md §8).
  for (const size_t f : candidates_) {
    if (lo >= hi) break;
    const uint32_t* rows = lists_.data() + f * num_rows_ + begin;
    const double* values = list_values_.data() + f * num_rows_ + begin;

    // Pass 1: the seed's prefix sums, in the seed's order, then every
    // threshold's approximate gain. The seed's invalid thresholds (equal
    // neighbours, an empty side) store wl = 0, which the kernel scores
    // -inf; pass 2 never reads them.
    double wl = 0.0, wl_pos = 0.0;
    for (size_t i = 0; i < hi; ++i) {
      const std::array<double, 2>& rw = row_weights_[rows[i]];
      wl += rw[0];
      wl_pos += rw[1];
      const bool invalid =
          values[i + 1] <= values[i] || wl <= 0.0 || wl >= w_total;
      prefix_w_[i] = invalid ? 0.0 : wl;
      prefix_pos_[i] = wl_pos;
    }
    float* approx = approx_gain_.data();
    ApproxSplitGains(node, prefix_w_.data() + lo, prefix_pos_.data() + lo,
                     hi - lo, approx + lo);
    // This feature's max goes through a local: best_approx lives across
    // the kernel call, and GCC kept it in a stack slot inside this loop,
    // a store-to-load round trip per threshold. Only the sign of a zero
    // maximum can differ, and the cut below is the same for both zeros.
    float feature_best = std::numeric_limits<float>::lowest();
    for (size_t i = lo; i < hi; ++i) {
      feature_best = std::max(feature_best, approx[i]);
    }
    best_approx = std::max(best_approx, feature_best);

    // Pass 2: exact re-score, in candidate order with the seed's strict
    // test, of every threshold that can tie or beat the best. NaN fails
    // the comparison and is re-scored; invalid thresholds (-inf) never
    // are.
    const float cut = best_approx - kSplitGainMargin;
    for (size_t i = lo; i < hi; ++i) {
      if (approx[i] < cut) continue;
      const double gain = ExactSplitGain(node, prefix_w_[i], prefix_pos_[i]);
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = (values[i] + values[i + 1]) / 2.0;
      }
    }
  }

  if (best_feature < 0) return node_id;  // no useful split found

  // Partition the bookkeeping array exactly as the seed did. This also
  // decides each row's side once — a midpoint between adjacent doubles
  // can round onto one of them, so the predicate, not the scan position,
  // is authoritative.
  const size_t best_f = static_cast<size_t>(best_feature);
  const double threshold = best_threshold;
  const auto mid_it = std::partition(
      indices_.begin() + begin, indices_.begin() + end, [&](size_t row) {
        return data.Feature(row, best_f) <= threshold;
      });
  const size_t mid = static_cast<size_t>(mid_it - indices_.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition

  // A child at max_depth or below min_samples_split is a leaf before it
  // reads a list, so the lists are partitioned only if a child may scan.
  const bool child_scans =
      depth + 1 < options.max_depth &&
      (mid - begin >= options.min_samples_split ||
       end - mid >= options.min_samples_split);
  if (child_scans) PartitionLists(begin, mid, end);

  // nodes_ may reallocate in recursion; write fields via node_id after.
  const int left = BuildNode(begin, mid, depth + 1);
  const int right = BuildNode(mid, end, depth + 1);
  (*nodes_)[node_id].feature = best_feature;
  (*nodes_)[node_id].threshold = best_threshold;
  (*nodes_)[node_id].left = left;
  (*nodes_)[node_id].right = right;
  return node_id;
}

void TreeBuilder::PartitionLists(size_t begin, size_t mid, size_t end) {
  // Stable-partition every feature's presorted segment on the chosen
  // split: value order survives into the children, so no sort ever
  // happens below the root.
  for (size_t i = begin; i < mid; ++i) goes_left_[indices_[i]] = 1;
  for (size_t i = mid; i < end; ++i) goes_left_[indices_[i]] = 0;
  uint32_t* scratch_rows = scratch_rows_.data();
  double* scratch_values = scratch_values_.data();
  for (size_t f = 0; f < num_features_; ++f) {
    uint32_t* rows = lists_.data() + f * num_rows_;
    double* values = list_values_.data() + f * num_rows_;
    // Branch-free, with two cursors: every element is written at both
    // the left cursor (never past i) and the scratch cursor, and only the
    // cursor of the row's side advances.
    size_t left = begin;
    size_t right = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t row = rows[i];
      const double value = values[i];
      const size_t goes_left = goes_left_[row];
      rows[left] = row;
      values[left] = value;
      scratch_rows[right] = row;
      scratch_values[right] = value;
      left += goes_left;
      right += 1 - goes_left;
    }
    std::copy(scratch_rows, scratch_rows + right, rows + left);
    std::copy(scratch_values, scratch_values + right, values + left);
  }
}

}  // namespace falcc
