#include "ml/compiled_ensemble.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// Walks every tree of one kernel over one block of n <= kCursors rows and
// accumulates acc[r] per row. Each walk advances a block of independent
// cursors — one per (tree, row) pair — one level per step with no
// data-dependent branch, so the cursors' node loads overlap in the
// memory system instead of queueing behind each other. A block of n rows
// walks max(1, kCursors / n) trees at once: a single row walks 32 trees
// side by side, a full block one tree. A converged cursor spins on its
// leaf; the level loop stops as soon as the whole block has converged
// (real trees are unbalanced — most blocks finish well before the
// worst-case depth), which cannot change where any cursor lands. Leaves
// are then combined per row in tree order, mirroring the interpreted
// batch paths operation for operation (AdaBoost margins in
// boosting-round order, forest hard votes, a single tree's leaf).
void PredictBlock(const CompiledEnsemble::Parts& parts,
                  const double* const* row, size_t n, double* acc) {
  const FlatNode* nodes = parts.nodes.data();
  const double* leaf = parts.leaf_proba.data();
  const size_t num_trees = parts.trees.size();
  const size_t trees_per_walk = kCursors / n;
  uint32_t node[kCursors];
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
}

// Turns a block's accumulators into probabilities with the interpreted
// models' final arithmetic (margins against the precomputed alpha_sum;
// forest votes divided by the tree count).
void FinishBlock(const CompiledEnsemble::Parts& parts, const double* acc,
                 size_t n, double* out) {
  switch (parts.kind) {
    case EnsembleKind::kTree:
      for (size_t r = 0; r < n; ++r) out[r] = acc[r];
      break;
    case EnsembleKind::kAdaBoost:
      if (parts.alpha_sum <= 0.0) {
        for (size_t r = 0; r < n; ++r) out[r] = 0.5;
      } else {
        for (size_t r = 0; r < n; ++r) {
          out[r] = 0.5 * (acc[r] / parts.alpha_sum + 1.0);
        }
      }
      break;
    case EnsembleKind::kForest: {
      const double count = static_cast<double>(parts.trees.size());
      for (size_t r = 0; r < n; ++r) out[r] = acc[r] / count;
      break;
    }
  }
}

// A SIMD variant's walk of one full block of kCursors rows: the same
// accumulators PredictBlock computes, bit for bit.
using FullBlockFn = void (*)(const CompiledEnsemble::Parts& parts,
                             const double* const* row, double* acc);

// Walks every tree of one kernel over `rows`, in blocks of up to
// kCursors rows. A full block goes to the variant's `full` walk when it
// has one. Every other block — the tail of a segment, a one-row serving
// call — walks PredictBlock: lanes over a partial block's (tree, row)
// cursors made one-row serving slower, so every variant shares it.
template <FullBlockFn full>
void PredictFlat(const CompiledEnsemble::Parts& parts,
                 std::span<const double> features, size_t width,
                 std::span<const size_t> rows, std::span<double> out) {
  for (size_t begin = 0; begin < rows.size(); begin += kCursors) {
    const size_t n = std::min(kCursors, rows.size() - begin);
    const double* row[kCursors];
    double acc[kCursors] = {};
    for (size_t r = 0; r < n; ++r) {
      row[r] = features.data() + rows[begin + r] * width;
    }
    if (full != nullptr && n == kCursors) {
      full(parts, row, acc);
    } else {
      PredictBlock(parts, row, n, acc);
    }
    FinishBlock(parts, acc, n, out.data() + begin);
  }
}

#if defined(__x86_64__)
// The SIMD variants walk a full block with its 32 rows in 64-bit lanes:
// each lane holds its row's offset from row 0 of the block, in doubles,
// and its node cursor. The row offsets and the per-row accumulators stay
// in vector registers across all trees. One step does three gathers per
// vector — the node's threshold, its {feature, left} word (feature in
// the low half, left in the high half), and row[feature] — and adds the
// `value > threshold` compare mask to `left`: the scalar Step, lane by
// lane (_CMP_GT_OQ is false on NaN, like `>`). Every lane is a live
// (tree, row) cursor, so no lane reads outside the tables or the rows,
// and the step loop keeps the scalar walk's early exit once no lane
// moved. Leaves are combined per lane in tree order: AdaBoost adds
// alpha * ±1, which is exact, so the sum has the scalar bits with or
// without FMA; a forest adds its 0/1 vote; a tree takes its leaf.

// AVX2: 4 lanes per vector, 8 vectors per block.
constexpr size_t kAvx2Vectors = kCursors / 4;

[[gnu::target("avx2")]] void FullBlockAvx2(
    const CompiledEnsemble::Parts& parts, const double* const* row,
    double* acc) {
  const double* base = row[0];
  const double* threshold_base = &parts.nodes[0].threshold;
  const long long* link_base =
      reinterpret_cast<const long long*>(&parts.nodes[0].feature);
  const double* leaf = parts.leaf_proba.data();
  const __m256i low_half = _mm256_set1_epi64x(0xffffffff);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d plus = _mm256_set1_pd(1.0);
  const __m256d minus = _mm256_set1_pd(-1.0);
  __m256i offset[kAvx2Vectors];
  __m256d sum[kAvx2Vectors];
  for (size_t v = 0; v < kAvx2Vectors; ++v) {
    const double* const* r = row + 4 * v;
    offset[v] = _mm256_setr_epi64x(r[0] - base, r[1] - base, r[2] - base,
                                   r[3] - base);
    sum[v] = _mm256_setzero_pd();
  }
  for (size_t t = 0; t < parts.trees.size(); ++t) {
    const TreeRef& tree = parts.trees[t];
    __m256i cur[kAvx2Vectors];
    for (size_t v = 0; v < kAvx2Vectors; ++v) {
      cur[v] = _mm256_set1_epi64x(tree.root);
    }
    for (uint32_t step = 0; step < tree.steps; ++step) {
      __m256i moved = _mm256_setzero_si256();
      for (size_t v = 0; v < kAvx2Vectors; ++v) {
        const __m256i at = _mm256_add_epi64(cur[v], cur[v]);  // 16-byte nodes
        const __m256d threshold = _mm256_i64gather_pd(threshold_base, at, 8);
        const __m256i link = _mm256_i64gather_epi64(link_base, at, 8);
        const __m256i feature = _mm256_and_si256(link, low_half);
        const __m256i left = _mm256_srli_epi64(link, 32);
        const __m256d value = _mm256_i64gather_pd(
            base, _mm256_add_epi64(offset[v], feature), 8);
        const __m256i right = _mm256_castpd_si256(
            _mm256_cmp_pd(value, threshold, _CMP_GT_OQ));  // true = -1
        const __m256i next = _mm256_sub_epi64(left, right);
        moved = _mm256_or_si256(moved, _mm256_xor_si256(next, cur[v]));
        cur[v] = next;
      }
      if (_mm256_testz_si256(moved, moved)) break;
    }
    for (size_t v = 0; v < kAvx2Vectors; ++v) {
      const __m256d p = _mm256_i64gather_pd(leaf, cur[v], 8);
      const __m256d positive = _mm256_cmp_pd(p, half, _CMP_GE_OQ);
      switch (parts.kind) {
        case EnsembleKind::kTree:
          sum[v] = p;
          break;
        case EnsembleKind::kAdaBoost:
          sum[v] = _mm256_add_pd(
              sum[v], _mm256_mul_pd(_mm256_set1_pd(parts.alphas[t]),
                                    _mm256_blendv_pd(minus, plus, positive)));
          break;
        case EnsembleKind::kForest:
          sum[v] = _mm256_add_pd(sum[v], _mm256_and_pd(positive, plus));
          break;
      }
    }
  }
  for (size_t v = 0; v < kAvx2Vectors; ++v) {
    _mm256_storeu_pd(acc + 4 * v, sum[v]);
  }
}

// AVX-512F: 8 lanes per vector, 4 vectors per block. The all-lanes
// masked forms spell out a zero source for the gathers and the shift,
// which the unmasked intrinsics leave undefined.
constexpr size_t kAvx512Vectors = kCursors / 8;
constexpr __mmask8 kAll = 0xff;

[[gnu::target("avx512f")]] void FullBlockAvx512(
    const CompiledEnsemble::Parts& parts, const double* const* row,
    double* acc) {
  const double* base = row[0];
  const double* threshold_base = &parts.nodes[0].threshold;
  const long long* link_base =
      reinterpret_cast<const long long*>(&parts.nodes[0].feature);
  const double* leaf = parts.leaf_proba.data();
  const __m512i low_half = _mm512_set1_epi64(0xffffffff);
  const __m512i one = _mm512_set1_epi64(1);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d plus = _mm512_set1_pd(1.0);
  const __m512d minus = _mm512_set1_pd(-1.0);
  __m512i offset[kAvx512Vectors];
  __m512d sum[kAvx512Vectors];
  for (size_t v = 0; v < kAvx512Vectors; ++v) {
    const double* const* r = row + 8 * v;
    offset[v] = _mm512_setr_epi64(r[0] - base, r[1] - base, r[2] - base,
                                  r[3] - base, r[4] - base, r[5] - base,
                                  r[6] - base, r[7] - base);
    sum[v] = _mm512_setzero_pd();
  }
  for (size_t t = 0; t < parts.trees.size(); ++t) {
    const TreeRef& tree = parts.trees[t];
    __m512i cur[kAvx512Vectors];
    for (size_t v = 0; v < kAvx512Vectors; ++v) {
      cur[v] = _mm512_set1_epi64(tree.root);
    }
    for (uint32_t step = 0; step < tree.steps; ++step) {
      __m512i moved = _mm512_setzero_si512();
      for (size_t v = 0; v < kAvx512Vectors; ++v) {
        const __m512i at = _mm512_add_epi64(cur[v], cur[v]);  // 16-byte nodes
        const __m512d threshold = _mm512_mask_i64gather_pd(
            _mm512_setzero_pd(), kAll, at, threshold_base, 8);
        const __m512i link = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), kAll, at, link_base, 8);
        const __m512i feature = _mm512_and_si512(link, low_half);
        const __m512i left = _mm512_maskz_srli_epi64(kAll, link, 32);
        const __m512d value = _mm512_mask_i64gather_pd(
            _mm512_setzero_pd(), kAll, _mm512_add_epi64(offset[v], feature),
            base, 8);
        const __mmask8 right =
            _mm512_cmp_pd_mask(value, threshold, _CMP_GT_OQ);
        const __m512i next = _mm512_mask_add_epi64(left, right, left, one);
        moved = _mm512_or_si512(moved, _mm512_xor_si512(next, cur[v]));
        cur[v] = next;
      }
      if (_mm512_test_epi64_mask(moved, moved) == 0) break;
    }
    for (size_t v = 0; v < kAvx512Vectors; ++v) {
      const __m512d p = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), kAll,
                                                 cur[v], leaf, 8);
      const __mmask8 positive = _mm512_cmp_pd_mask(p, half, _CMP_GE_OQ);
      switch (parts.kind) {
        case EnsembleKind::kTree:
          sum[v] = p;
          break;
        case EnsembleKind::kAdaBoost:
          sum[v] = _mm512_add_pd(
              sum[v], _mm512_mul_pd(_mm512_set1_pd(parts.alphas[t]),
                                    _mm512_mask_blend_pd(positive, minus,
                                                         plus)));
          break;
        case EnsembleKind::kForest:
          sum[v] = _mm512_mask_add_pd(sum[v], positive, sum[v], plus);
          break;
      }
    }
  }
  for (size_t v = 0; v < kAvx512Vectors; ++v) {
    _mm512_storeu_pd(acc + 8 * v, sum[v]);
  }
}
#endif

std::vector<PredictKernel> SupportedKernels() {
  std::vector<PredictKernel> kernels = {{"baseline", &PredictFlat<nullptr>}};
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    kernels.push_back({"avx2", &PredictFlat<FullBlockAvx2>});
  }
  if (__builtin_cpu_supports("avx512f")) {
    kernels.push_back({"avx512f", &PredictFlat<FullBlockAvx512>});
  }
#endif
  return kernels;
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
  compiled.parts_.alpha_sum = AlphaSum(table->alphas);
  compiled.table_ = std::move(table);
  return compiled;
}

void CompiledEnsemble::PredictProbaBatch(std::span<const double> features,
                                         size_t width,
                                         std::span<const size_t> rows,
                                         std::span<double> out) const {
  FALCC_CHECK(rows.size() == out.size(),
              "CompiledEnsemble: rows/out size mismatch");
  static const auto fn = PredictKernels().back().fn;
  fn(parts_, features, width, rows, out);
}

std::span<const PredictKernel> PredictKernels() {
  static const std::vector<PredictKernel> kernels = SupportedKernels();
  return kernels;
}

}  // namespace falcc
