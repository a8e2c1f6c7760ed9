// Compiled flat-node inference kernels for tree ensembles.
//
// The interpreted prediction path walks each model's TreeNode array with
// a data-dependent branch per node and one virtual PredictProbaBatch
// dispatch per model. This layer lowers every CART / AdaBoost /
// RandomForest, once, into one contiguous table of 16-byte nodes
// `{threshold, feature, left}` with the right child stored at left + 1,
// so one traversal step reads exactly one node — one cache line, since
// the tables always live on the heap, 16-byte aligned. Leaf
// probabilities live in a side array read once per tree. Leaves loop
// back to themselves through a comparison that is always false
// (threshold = +inf), so a walk that runs past its leaf stays put.
//
// The kernel is per model: a FALCC online phase picks one pool model per
// (cluster, group), and every cluster that picks model m serves from the
// same CompiledEnsemble. ModelPool lowers each model once, when it is
// added (core/model_pool.h), so the kernels live with the pool and are
// shared by every cluster, every refresh clone and every assessment
// that scores the pool. Kernels are derived state and never serialized:
// a pool decoded from a snapshot lowers them from its models, so no
// snapshot carries a second copy of the models and no kernel ever
// points into a file.
//
// Bit-identity contract: for every lowered model the compiled kernel
// reproduces the interpreted PredictProbaBatch output exactly — same
// traversal comparisons (`v <= threshold` goes left), same accumulation
// order (AdaBoost margins in boosting-round order, alpha_sum as the sum
// of |alpha_t| in the same order), same final arithmetic. The walk has
// one variant per instruction set (PredictKernels): the scalar
// "baseline" everywhere, and on x86-64 hosts that run them "avx2" and
// "avx512f", which walk a full 32-row block in SIMD lanes. Every variant
// returns the same bits. Every entry reads the rows it predicts as a
// row-major matrix `(features, width)` — a serving request's own span,
// a monitor window, or a Dataset's features() — never a Dataset, since
// a walk needs nothing but feature values. Models that
// are not tree ensembles (logistic regression, naive Bayes, kNN), and
// trees that share a subtree, do not lower; their pool entry is empty
// and ModelPool::PredictProbaBatch runs the interpreted path for them.

#ifndef FALCC_ML_COMPILED_ENSEMBLE_H_
#define FALCC_ML_COMPILED_ENSEMBLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ml/decision_tree.h"

namespace falcc {

/// How a lowered ensemble combines its trees' leaf probabilities.
enum class EnsembleKind {
  kTree,      ///< single tree: probability = leaf proba
  kAdaBoost,  ///< 0.5 * (Σ alpha_t sign(leaf_t) / Σ |alpha_t| + 1)
  kForest,    ///< mean of hard votes (leaf proba >= 0.5)
};

/// One node of a compiled tree. Interior: `value > threshold` selects
/// the right child (left + 1), otherwise the left child — exactly the
/// interpreted `value <= threshold ? left : right`. Leaf: left = the
/// node itself, threshold = +inf, feature = 0 (an in-bounds column the
/// comparison ignores), so a step from a leaf lands on the leaf.
struct FlatNode {
  double threshold = 0.0;
  int32_t feature = 0;
  uint32_t left = 0;
};
static_assert(sizeof(FlatNode) == 16, "one node must stay 16 bytes");

/// One lowered tree: its root slot in the model's node table and the
/// number of traversal steps (= tree depth, recomputed from the node
/// structure — never trusted from a serialized depth field) that reach
/// every leaf.
struct TreeRef {
  uint32_t root = 0;
  uint32_t steps = 0;
};

/// Owned storage of one model's kernel, filled by lowering.
struct FlatTable {
  std::vector<FlatNode> nodes;
  std::vector<double> leaf_proba;  ///< per node; 0 at interior nodes
  std::vector<TreeRef> trees;
  std::vector<double> alphas;      ///< per tree, boosting-round order
};

/// Receives one classifier's trees during lowering. Classifiers
/// implement Classifier::LowerToFlat against this interface;
/// CompiledEnsemble::Compile owns the storage and checks `status()` once
/// lowering finishes.
class FlatEnsembleBuilder {
 public:
  explicit FlatEnsembleBuilder(FlatTable* table) : table_(table) {}

  /// Declares the combination rule. Must be called exactly once per
  /// lowered model, before any AddTree.
  void SetKind(EnsembleKind kind);

  /// Appends one fitted tree, laid out breadth-first so that every
  /// interior node's two children sit side by side. `alpha` is its
  /// AdaBoost weight (ignored by the other kinds). Nodes must form a
  /// valid flat tree: every internal node's children strictly after it
  /// and in range — the shape DecisionTree::DeserializePayload enforces
  /// — and no node reachable twice (a shared subtree cannot keep its
  /// sibling adjacent to two parents). Violations (or an empty tree)
  /// poison the builder; the compiler reports them via status().
  void AddTree(std::span<const TreeNode> nodes, double alpha = 1.0);

  bool has_kind() const { return has_kind_; }
  EnsembleKind kind() const { return kind_; }
  const Status& status() const { return status_; }

 private:
  FlatTable* table_;
  EnsembleKind kind_ = EnsembleKind::kTree;
  bool has_kind_ = false;
  Status status_;
  std::vector<uint32_t> slot_scratch_;
  std::vector<uint32_t> order_scratch_;
};

/// One classifier's kernel. Immutable and cheap to copy: the arrays are
/// spans over the kernel's own FlatTable, shared by every copy.
class CompiledEnsemble {
 public:
  /// The arrays one kernel walks, as views.
  struct Parts {
    EnsembleKind kind = EnsembleKind::kTree;
    std::span<const FlatNode> nodes;
    std::span<const double> leaf_proba;
    std::span<const TreeRef> trees;
    std::span<const double> alphas;
    /// Σ |alpha_t| in round order (AdaBoost's normalizer).
    double alpha_sum = 0.0;
  };

  /// Lowers `model`. Fails with FailedPrecondition for classifier types
  /// that do not lower, Internal for structurally invalid trees.
  static Result<CompiledEnsemble> Compile(const Classifier& model);

  /// Exactly Classifier::PredictProbaBatch of the source model, bit for
  /// bit: P(y = 1) for `rows` of the row-major matrix `features` (`width`
  /// values per row), written to `out` (same length). Every row the
  /// model's feature indices reach must lie inside `features`.
  void PredictProbaBatch(std::span<const double> features, size_t width,
                         std::span<const size_t> rows,
                         std::span<double> out) const;

  const Parts& parts() const { return parts_; }
  EnsembleKind kind() const { return parts_.kind; }
  size_t num_trees() const { return parts_.trees.size(); }
  size_t num_nodes() const { return parts_.nodes.size(); }
  /// Bytes of node and leaf tables the kernel walks.
  size_t table_bytes() const {
    return num_nodes() * (sizeof(FlatNode) + sizeof(double));
  }

 private:
  CompiledEnsemble() = default;

  Parts parts_;
  std::shared_ptr<const FlatTable> table_;
};

/// One compiled variant of the kernel walk: P(y = 1) of the kernel
/// `parts` for `rows` of the row-major matrix `features` (`width` values
/// per row), written to `out` (same length), with
/// CompiledEnsemble::PredictProbaBatch's contract.
struct PredictKernel {
  const char* name;
  void (*fn)(const CompiledEnsemble::Parts& parts,
             std::span<const double> features, size_t width,
             std::span<const size_t> rows, std::span<double> out);
};

/// The variants this CPU runs, chosen once with __builtin_cpu_supports:
/// "baseline" first, then "avx2" and "avx512f" on x86-64 hosts that
/// support them. CompiledEnsemble::PredictProbaBatch calls the last one.
std::span<const PredictKernel> PredictKernels();

}  // namespace falcc

#endif  // FALCC_ML_COMPILED_ENSEMBLE_H_
