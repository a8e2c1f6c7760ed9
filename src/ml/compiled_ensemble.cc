#include "ml/compiled_ensemble.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace falcc {

namespace {

// Cursors per traversal block: enough independent walks to hide the
// dependent-load latency of the next node, small enough that the row
// pointers, node cursors, and accumulators stay in registers / L1.
constexpr size_t kCursors = 32;

constexpr double kLeafThreshold = std::numeric_limits<double>::infinity();
constexpr uint32_t kUnplaced = std::numeric_limits<uint32_t>::max();
constexpr size_t kMaxNodes = size_t{1} << 30;

// One traversal step: `v > threshold` picks the right child (left + 1),
// exactly like the interpreted `v <= threshold ? left : right`; a leaf's
// +inf threshold keeps the cursor on the leaf.
inline uint32_t Step(const FlatNode& node, const double* row) {
  return node.left + static_cast<uint32_t>(row[node.feature] > node.threshold);
}

// Walks every tree of one kernel over `rows` and combines leaves per
// kind. Rows go in blocks of up to kCursors; each walk advances a block
// of independent cursors — one per (tree, row) pair — one level per step
// with no data-dependent branch, so the cursors' node loads overlap in
// the memory system instead of queueing behind each other. A block of n
// rows walks max(1, kCursors / n) trees at once: a single row walks 32
// trees side by side, a full block one tree. A converged cursor spins on
// its leaf; the level loop stops as soon as the whole block has
// converged (real trees are unbalanced — most blocks finish well before
// the worst-case depth), which cannot change where any cursor lands.
// Leaves are then combined per row in tree order, mirroring the
// interpreted batch paths operation for operation (margins in
// boosting-round order against a precomputed alpha_sum; forest votes
// divided by the tree count), so the output is bit-identical to
// PredictProbaBatch.
void PredictFlat(const CompiledEnsemble::Parts& parts, double alpha_sum,
                 const Dataset& data, std::span<const size_t> rows,
                 std::span<double> out) {
  const FlatNode* nodes = parts.nodes.data();
  const double* leaf = parts.leaf_proba.data();
  const size_t num_trees = parts.trees.size();
  for (size_t begin = 0; begin < rows.size(); begin += kCursors) {
    const size_t n = std::min(kCursors, rows.size() - begin);
    const size_t trees_per_walk = kCursors / n;
    const double* row[kCursors];
    double acc[kCursors];
    uint32_t node[kCursors];
    for (size_t r = 0; r < n; ++r) {
      row[r] = data.Row(rows[begin + r]).data();
      acc[r] = 0.0;
    }
    for (size_t t0 = 0; t0 < num_trees; t0 += trees_per_walk) {
      const size_t m = std::min(trees_per_walk, num_trees - t0);
      uint32_t steps = 0;
      for (size_t j = 0; j < m; ++j) {
        const TreeRef& tree = parts.trees[t0 + j];
        steps = std::max(steps, tree.steps);
        for (size_t r = 0; r < n; ++r) node[j * n + r] = tree.root;
      }
      for (uint32_t step = 0; step < steps; ++step) {
        uint32_t moved = 0;
        for (size_t j = 0; j < m; ++j) {
          for (size_t r = 0; r < n; ++r) {
            const uint32_t i = node[j * n + r];
            const uint32_t next = Step(nodes[i], row[r]);
            moved |= next ^ i;
            node[j * n + r] = next;
          }
        }
        if (moved == 0) break;
      }
      for (size_t j = 0; j < m; ++j) {
        const uint32_t* at = node + j * n;
        switch (parts.kind) {
          case EnsembleKind::kTree:
            for (size_t r = 0; r < n; ++r) acc[r] = leaf[at[r]];
            break;
          case EnsembleKind::kAdaBoost: {
            const double alpha = parts.alphas[t0 + j];
            for (size_t r = 0; r < n; ++r) {
              acc[r] += alpha * (leaf[at[r]] >= 0.5 ? 1.0 : -1.0);
            }
            break;
          }
          case EnsembleKind::kForest:
            for (size_t r = 0; r < n; ++r) {
              if (leaf[at[r]] >= 0.5) acc[r] += 1.0;
            }
            break;
        }
      }
    }
    switch (parts.kind) {
      case EnsembleKind::kTree:
        for (size_t r = 0; r < n; ++r) out[begin + r] = acc[r];
        break;
      case EnsembleKind::kAdaBoost:
        if (alpha_sum <= 0.0) {
          for (size_t r = 0; r < n; ++r) out[begin + r] = 0.5;
        } else {
          for (size_t r = 0; r < n; ++r) {
            out[begin + r] = 0.5 * (acc[r] / alpha_sum + 1.0);
          }
        }
        break;
      case EnsembleKind::kForest: {
        const double count = static_cast<double>(num_trees);
        for (size_t r = 0; r < n; ++r) out[begin + r] = acc[r] / count;
        break;
      }
    }
  }
}

// |alpha| sum over the trees, in round order — the same floating-point
// sequence the interpreted AdaBoost batch accumulates, so precomputing
// it cannot change a probability bit.
double AlphaSum(std::span<const double> alphas) {
  double sum = 0.0;
  for (double alpha : alphas) sum += std::fabs(alpha);
  return sum;
}

}  // namespace

void FlatEnsembleBuilder::SetKind(EnsembleKind kind) {
  if (!status_.ok()) return;
  if (has_kind_) {
    status_ = Status::Internal("FlatEnsembleBuilder: SetKind called twice");
    return;
  }
  kind_ = kind;
  has_kind_ = true;
}

void FlatEnsembleBuilder::AddTree(std::span<const TreeNode> nodes,
                                  double alpha) {
  if (!status_.ok()) return;
  if (!has_kind_) {
    status_ = Status::Internal("FlatEnsembleBuilder: AddTree before SetKind");
    return;
  }
  if (nodes.empty()) {
    status_ = Status::Internal("FlatEnsembleBuilder: empty tree");
    return;
  }
  const size_t base = table_->nodes.size();
  if (base + nodes.size() > kMaxNodes) {
    status_ = Status::Internal("FlatEnsembleBuilder: node table overflow");
    return;
  }

  // Breadth-first relayout: order_scratch_ lists source nodes in output
  // order, slot_scratch_ maps a source node to its output position. Each
  // interior node appends its two children back to back, which is what
  // lets a node store only `left`. The walk length (the deepest level)
  // is recomputed here — a serialized depth field is never trusted.
  const size_t n = nodes.size();
  slot_scratch_.assign(n, kUnplaced);
  order_scratch_.assign(1, 0);
  slot_scratch_[0] = 0;
  uint32_t steps = 0;
  size_t level_end = 1;
  for (size_t head = 0; head < order_scratch_.size(); ++head) {
    if (head == level_end) {
      ++steps;
      level_end = order_scratch_.size();
    }
    const int i = static_cast<int>(order_scratch_[head]);
    const TreeNode& node = nodes[static_cast<size_t>(i)];
    if (node.feature < 0) continue;
    const int count = static_cast<int>(n);
    if (node.left <= i || node.left >= count || node.right <= i ||
        node.right >= count) {
      status_ = Status::Internal(
          "FlatEnsembleBuilder: tree children not strictly forward");
      return;
    }
    const size_t left = static_cast<size_t>(node.left);
    const size_t right = static_cast<size_t>(node.right);
    if (left == right || slot_scratch_[left] != kUnplaced ||
        slot_scratch_[right] != kUnplaced) {
      status_ = Status::Internal("FlatEnsembleBuilder: tree shares a subtree");
      return;
    }
    slot_scratch_[left] = static_cast<uint32_t>(order_scratch_.size());
    order_scratch_.push_back(static_cast<uint32_t>(left));
    slot_scratch_[right] = static_cast<uint32_t>(order_scratch_.size());
    order_scratch_.push_back(static_cast<uint32_t>(right));
  }

  // Unreachable source nodes are dropped: no walk can land on them.
  table_->nodes.reserve(base + order_scratch_.size());
  table_->leaf_proba.reserve(base + order_scratch_.size());
  for (size_t pos = 0; pos < order_scratch_.size(); ++pos) {
    const TreeNode& node = nodes[order_scratch_[pos]];
    FlatNode flat;
    if (node.feature >= 0) {
      flat.threshold = node.threshold;
      flat.feature = node.feature;
      flat.left = static_cast<uint32_t>(base) +
                  slot_scratch_[static_cast<size_t>(node.left)];
      table_->leaf_proba.push_back(0.0);
    } else {
      flat.threshold = kLeafThreshold;
      flat.feature = 0;
      flat.left = static_cast<uint32_t>(base + pos);
      table_->leaf_proba.push_back(node.proba);
    }
    table_->nodes.push_back(flat);
  }
  table_->trees.push_back(TreeRef{static_cast<uint32_t>(base), steps});
  table_->alphas.push_back(alpha);
}

Result<CompiledEnsemble> CompiledEnsemble::Compile(const Classifier& model) {
  auto table = std::make_shared<FlatTable>();
  FlatEnsembleBuilder builder(table.get());
  if (!model.LowerToFlat(&builder)) {
    return Status::FailedPrecondition("CompiledEnsemble: " + model.Name() +
                                      " does not lower to a flat ensemble");
  }
  FALCC_RETURN_IF_ERROR(builder.status());
  if (!builder.has_kind() || table->trees.empty()) {
    return Status::Internal("CompiledEnsemble: lowering produced no trees");
  }
  CompiledEnsemble compiled;
  compiled.parts_.kind = builder.kind();
  compiled.parts_.nodes = table->nodes;
  compiled.parts_.leaf_proba = table->leaf_proba;
  compiled.parts_.trees = table->trees;
  compiled.parts_.alphas = table->alphas;
  compiled.alpha_sum_ = AlphaSum(table->alphas);
  compiled.table_ = std::move(table);
  return compiled;
}

void CompiledEnsemble::PredictProbaBatch(const Dataset& data,
                                         std::span<const size_t> rows,
                                         std::span<double> out) const {
  FALCC_CHECK(rows.size() == out.size(),
              "CompiledEnsemble: rows/out size mismatch");
  PredictFlat(parts_, alpha_sum_, data, rows, out);
}

}  // namespace falcc
