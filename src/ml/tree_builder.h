// Presorted column-cache split engine for CART training.
//
// Replaces the seed trainer's per-candidate-feature, per-node sort with a
// single presort per dataset (data/feature_columns.h): every node scans
// its rows in each feature's presorted order via contiguous per-node
// segments, accumulating weighted prefix sums to score thresholds, and
// partitions the presorted segments *stably* on the chosen split — so the
// value order survives recursion and no sort ever happens below the root.
// Segments are partitioned only when a child can split again.
//
// Threshold scoring is one two-pass scan per candidate feature
// (DESIGN.md §8): pass 1 accumulates the exact double prefix sums and
// writes a single-precision approximation of every threshold's gain in a
// branch-free, vectorizable loop; pass 2 re-scores in double, with the
// seed's Impurity code, only the thresholds whose approximation lies
// within kSplitGainMargin of the best approximation seen so far (plus any
// NaN approximation). The approximation is within kSplitGainErrorBound
// of the exact gain and the margin is four times that (the argument
// needs two), so every threshold whose exact gain ties the node's
// maximum is re-scored.
//
// Determinism contract: the builder reproduces the seed trainer
// bit-for-bit — the same candidate-feature RNG stream, the same prefix
// sums in the same order, the same strictly-positive-gain rule with
// first-candidate-wins ties over the re-scored thresholds (a subsequence
// of the seed's candidate order holding every maximal one), the same
// midpoint thresholds, and the same std::partition bookkeeping order for
// node statistics — so models, Save() bytes, and predictions are
// identical to the pre-engine trainer at any thread count
// (tests/train_engine_golden_test.cc pins this against checked-in seed
// models and the frozen reference trainer). Both assume finite sample
// weights, which ValidateWeights enforces.

#ifndef FALCC_ML_TREE_BUILDER_H_
#define FALCC_ML_TREE_BUILDER_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "data/feature_columns.h"
#include "ml/decision_tree.h"

namespace falcc {

/// Absolute bound on |ApproxSplitGains − ExactSplitGain| wherever the
/// approximation is finite, for both criteria and any finite node weight
/// (derivation in DESIGN.md §8; tests/split_scan_test.cc checks it).
inline constexpr float kSplitGainErrorBound = 2e-6f;
/// Pass-2 filter width: thresholds whose approximate gain is at least the
/// best approximation minus this are re-scored exactly. Two bounds cover
/// the argument (one on each side of the comparison); four leave slack
/// for the float rounding of the cut itself.
inline constexpr float kSplitGainMargin = 4.0f * kSplitGainErrorBound;

/// Class totals of the node being split.
struct SplitNode {
  double w_total = 0.0;          ///< node weight, > 0
  double w_pos = 0.0;            ///< weight of positive rows
  double parent_impurity = 0.0;  ///< impurity of (w_pos, w_total)
  SplitCriterion criterion = SplitCriterion::kGini;
};

/// Impurity of a weighted binary class distribution (w1 positives out of
/// total weight w). Identical to the seed trainer's.
double SplitImpurity(double w1, double w, SplitCriterion criterion);

/// Exact gain of sending prefix weight `wl` (`wl_pos` of it positive) to
/// the left child: the seed trainer's expression, term for term.
double ExactSplitGain(const SplitNode& node, double wl, double wl_pos);

/// Pass-1 kernel. For each threshold i in [0, count) with exact prefix
/// sums wl[i] and wl_pos[i] (the left side's weight, in (0, w_total), and
/// its positive weight), writes
///  * -inf if wl[i] == 0, which the caller stores for thresholds the
///    seed trainer skips (equal neighbours, an empty side);
///  * NaN where the float evaluation breaks down — rounding put the
///    right side's class fraction more than 2^-24 outside [0, 1], or,
///    under gini, a side weight underflows in single precision: such
///    thresholds must be re-scored;
///  * otherwise a float approximation of ExactSplitGain, within
///    kSplitGainErrorBound of it.
///
/// Dispatches to the widest variant in SplitGainKernels(); every variant
/// returns the same bits.
void ApproxSplitGains(const SplitNode& node, const double* wl,
                      const double* wl_pos, size_t count, float* out);

/// One compiled variant of the pass-1 kernel: the same source built for
/// one instruction set, with ApproxSplitGains' contract.
struct SplitGainKernel {
  const char* name;
  void (*fn)(const SplitNode& node, const double* wl, const double* wl_pos,
             size_t count, float* out);
};

/// The variants this CPU runs, chosen once with __builtin_cpu_supports:
/// "baseline" first, then "avx2" and "avx512f" on x86-64 hosts that
/// support them. ApproxSplitGains calls the last one.
std::span<const SplitGainKernel> SplitGainKernels();

/// Reusable tree-building engine. One instance per thread; scratch
/// buffers (presorted working lists, masks, partition scratch) persist
/// across Build calls so repeated fits on the same dataset — AdaBoost
/// rounds, grid-search refits — skip reallocation.
class TreeBuilder {
 public:
  TreeBuilder() = default;

  /// Fits one tree over `columns` with per-row `weights` (never empty;
  /// one weight per dataset row) and writes the flat node array and depth
  /// of the result. Returns InvalidArgument for an empty dataset.
  Status Build(const FeatureColumns& columns, std::span<const double> weights,
               const DecisionTreeOptions& options,
               std::vector<TreeNode>* nodes, size_t* max_depth);

 private:
  int BuildNode(size_t begin, size_t end, size_t depth);
  // Stably partitions every feature's list segment [begin, end) so the
  // rows indices_[begin, mid) put left come first.
  void PartitionLists(size_t begin, size_t mid, size_t end);

  // Per-Build state (set by Build, read by BuildNode).
  const FeatureColumns* columns_ = nullptr;
  const Dataset* data_ = nullptr;
  const DecisionTreeOptions* options_ = nullptr;
  std::vector<TreeNode>* nodes_ = nullptr;
  size_t depth_ = 0;
  uint64_t rng_state_ = 0;
  size_t num_rows_ = 0;
  size_t num_features_ = 0;

  // Working copies of the presorted column lists, feature-major. Each
  // node owns segment [begin, end) of every feature's list; the segments
  // are partitioned stably in place as recursion descends.
  std::vector<uint32_t> lists_;
  std::vector<double> list_values_;
  // Seed-order bookkeeping: same contents and std::partition evolution as
  // the seed trainer's indices_, so node statistics accumulate weights in
  // the seed's exact floating-point order.
  std::vector<size_t> indices_;
  // Per row {weight, label ? weight : 0}: one gather per scanned row,
  // and adding 0.0 for a negative row leaves the positive sum unchanged.
  std::vector<std::array<double, 2>> row_weights_;
  // Per-feature scan scratch: exact prefix sums and approximate gains.
  std::vector<double> prefix_w_;
  std::vector<double> prefix_pos_;
  std::vector<float> approx_gain_;
  std::vector<uint8_t> goes_left_;  // per row, valid for the node being split
  // Right-side rows of a partition; num_rows long.
  std::vector<uint32_t> scratch_rows_;
  std::vector<double> scratch_values_;
  std::vector<size_t> candidates_;
};

}  // namespace falcc

#endif  // FALCC_ML_TREE_BUILDER_H_
