// CART-style decision tree for binary classification.
//
// The base estimator of the diverse-model-training component (paper §3.3,
// which boosts decision trees with AdaBoost) and of the Random Forest
// alternative. Supports weighted samples, gini/entropy split criteria,
// depth and leaf-size limits, and per-node random feature subsampling
// (used by Random Forest).

#ifndef FALCC_ML_DECISION_TREE_H_
#define FALCC_ML_DECISION_TREE_H_

#include <cstdint>

#include "ml/classifier.h"

namespace falcc {

namespace io {
class BinaryReader;
class BinaryWriter;
}  // namespace io

class FeatureColumns;
class TreeBuilder;

/// Split quality criterion (the paper's grid searches over both).
enum class SplitCriterion { kGini, kEntropy };

/// One node of a fitted tree's flat array. Leaf iff feature < 0.
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1, right = -1;
  double proba = 0.5;  // P(y=1) at this node (weighted)
};

/// Decision-tree hyperparameters.
struct DecisionTreeOptions {
  size_t max_depth = 7;
  size_t min_samples_split = 2;
  size_t min_samples_leaf = 1;
  SplitCriterion criterion = SplitCriterion::kGini;
  /// Features considered per split: 0 = all, otherwise a random subset of
  /// this size (Random Forest mode).
  size_t max_features = 0;
  uint64_t seed = 1;
};

/// Weighted CART decision tree.
class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(const DecisionTreeOptions& options = {})
      : options_(options) {}

  Status Fit(const Dataset& data,
             std::span<const double> sample_weights) override;
  using Classifier::Fit;

  /// Fits against a prebuilt presorted column cache (data/
  /// feature_columns.h), sharing the per-dataset sort across fits. When
  /// `builder` is non-null its scratch buffers are reused (AdaBoost
  /// rounds); otherwise a local engine is used. Produces exactly the same
  /// tree as Fit(columns.data(), sample_weights).
  Status Fit(const FeatureColumns& columns,
             std::span<const double> sample_weights,
             TreeBuilder* builder = nullptr);
  Status Fit(const FeatureColumns& columns) { return Fit(columns, {}); }

  double PredictProba(std::span<const double> features) const override;
  void PredictProbaBatch(const Dataset& data, std::span<const size_t> rows,
                         std::span<double> out) const override;
  Status ValidateForWidth(size_t num_features) const override;
  std::unique_ptr<Classifier> Clone() const override;
  std::string Name() const override;
  std::string TypeTag() const override { return "decision_tree"; }
  Status SerializePayload(std::ostream* out) const override;
  static Result<DecisionTree> DeserializePayload(std::istream* in);
  /// The same fields in the binary pool layout (core/model_pool.h):
  /// options and depth as u64, then the nodes as struct-of-arrays.
  void SerializeBinary(io::BinaryWriter* out) const;
  static Result<DecisionTree> DeserializeBinary(io::BinaryReader* in);

  /// Most nodes a serialized tree may declare.
  static constexpr size_t kMaxSerializedNodes = 100000000;
  /// Bytes of a binary tree record before its node arrays (a lower bound
  /// on any record's size, for count checks against the payload).
  static constexpr size_t kBinaryHeaderBytes = 8 * sizeof(uint64_t);
  /// The structural checks both readers apply to node `index` of a
  /// `num_nodes`-node tree: children in range and strictly after their
  /// parent (so prediction cannot cycle), finite threshold, proba in
  /// [0, 1].
  static Status CheckNode(const TreeNode& node, size_t index,
                          size_t num_nodes);

  bool LowerToFlat(FlatEnsembleBuilder* builder) const override;

  /// Number of nodes in the fitted tree (0 before Fit).
  size_t num_nodes() const { return nodes_.size(); }
  /// Depth of the fitted tree (0 = single leaf).
  size_t depth() const { return depth_; }
  /// Flat node array of the fitted tree (compiled-inference lowering).
  std::span<const TreeNode> nodes() const { return nodes_; }

  /// Assembles a fitted tree from externally built parts. Used by the
  /// frozen seed trainer (ml/reference_trainer.h) and by tests; normal
  /// training goes through Fit.
  static DecisionTree FromParts(const DecisionTreeOptions& options,
                                std::vector<TreeNode> nodes, size_t depth);

 private:
  using Node = TreeNode;

  DecisionTreeOptions options_;
  std::vector<Node> nodes_;
  size_t depth_ = 0;
};

}  // namespace falcc

#endif  // FALCC_ML_DECISION_TREE_H_
