// Tests of the compiled flat-node inference kernels: bit-identity with
// the interpreted prediction path for every lowerable model family and
// every kernel variant the CPU runs (including block-edge batch sizes,
// the one-row walk, and padding lanes at the end of a table), the 16-byte
// node layout and the validation the mmap path relies on, the pool's
// per-model kernels with an interpreted fallback model (served decisions
// equal to the sequential single-sample reference), bit-identity on the
// checked-in golden models, and classify-during-delta-hot-swap
// concurrency (the TSan target in tools/check.sh).

#include "ml/compiled_ensemble.h"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/falcc.h"
#include "core/model_pool.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "io/snapshot.h"
#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "serve/engine.h"

namespace falcc {
namespace {

Dataset MakeData(size_t n = 400, uint64_t seed = 9) {
  SyntheticConfig config;
  config.num_samples = n;
  config.seed = seed;
  return GenerateImplicitBias(config).value();
}

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

// `variant`'s probabilities and the interpreted ones over `rows` must
// be the same bits — not approximately: the kernel contract is
// bit-identity.
void ExpectVariantBitIdentical(const PredictKernel& variant,
                               const Classifier& model,
                               const CompiledEnsemble& kernel,
                               const Dataset& data,
                               std::span<const size_t> rows) {
  std::vector<double> interpreted(rows.size());
  std::vector<double> compiled(rows.size());
  model.PredictProbaBatch(data, rows, interpreted);
  variant.fn(kernel.parts(), data.features(), data.num_features(), rows,
             compiled);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(interpreted[i]),
              std::bit_cast<uint64_t>(compiled[i]))
        << variant.name << " row " << rows[i] << " of " << rows.size() << ": "
        << interpreted[i] << " vs " << compiled[i];
  }
}

// The batch sizes around the row-block boundary (kernels walk rows in
// 32-row blocks; the SIMD variants in vectors of 4 or 8 lanes).
constexpr size_t kBlockEdges[] = {1, 7, 8, 9, 31, 32, 33, 69};

// Every batch size around the row-block boundary plus an empty batch
// and a full pass, through every kernel variant and through the
// dispatched CompiledEnsemble::PredictProbaBatch.
void CheckAllBlockEdges(const Classifier& model, const Dataset& data) {
  const Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  const std::vector<size_t> all = AllRows(data.num_rows());
  std::vector<size_t> sizes = {0, 15, 16, 17, data.num_rows()};
  for (size_t n : kBlockEdges) sizes.push_back(n);
  for (size_t n : sizes) {
    const std::span<const size_t> rows =
        std::span<const size_t>(all).subspan(0, std::min(n, all.size()));
    for (const PredictKernel& variant : PredictKernels()) {
      ExpectVariantBitIdentical(variant, model, kernel.value(), data, rows);
    }
    std::vector<double> interpreted(rows.size()), dispatched(rows.size());
    model.PredictProbaBatch(data, rows, interpreted);
    kernel.value().PredictProbaBatch(data.features(), data.num_features(),
                                     rows, dispatched);
    EXPECT_EQ(interpreted, dispatched);
  }
}

TEST(CompiledEnsembleTest, DecisionTreeBitIdentity) {
  const Dataset data = MakeData();
  DecisionTreeOptions options;
  options.max_depth = 12;
  DecisionTree tree(options);
  ASSERT_TRUE(tree.Fit(data).ok());
  CheckAllBlockEdges(tree, data);
}

TEST(CompiledEnsembleTest, StumpAndConstantTreeBitIdentity) {
  const Dataset data = MakeData(200, 3);
  DecisionTreeOptions options;
  options.max_depth = 1;
  DecisionTree stump(options);
  ASSERT_TRUE(stump.Fit(data).ok());
  CheckAllBlockEdges(stump, data);

  // A dataset with one constant label trains a root-only tree — the
  // zero-step walk must still land on the (root) leaf.
  Dataset constant = MakeData(64, 4);
  for (size_t i = 0; i < constant.num_rows(); ++i) constant.SetLabel(i, 1);
  DecisionTree leaf_only(options);
  ASSERT_TRUE(leaf_only.Fit(constant).ok());
  CheckAllBlockEdges(leaf_only, constant);
}

TEST(CompiledEnsembleTest, AdaBoostBitIdentity) {
  const Dataset data = MakeData();
  AdaBoostOptions deep;
  deep.num_estimators = 40;
  deep.base.max_depth = 8;
  AdaBoost boosted(deep);
  ASSERT_TRUE(boosted.Fit(data).ok());
  CheckAllBlockEdges(boosted, data);

  AdaBoostOptions shallow;
  shallow.num_estimators = 20;
  shallow.base.max_depth = 4;
  AdaBoost stumps(shallow);
  ASSERT_TRUE(stumps.Fit(data).ok());
  CheckAllBlockEdges(stumps, data);
}

TEST(CompiledEnsembleTest, RandomForestBitIdentity) {
  const Dataset data = MakeData();
  RandomForestOptions options;
  options.num_trees = 40;
  options.base.max_depth = 10;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(data).ok());
  CheckAllBlockEdges(forest, data);
}

TEST(CompiledEnsembleTest, NonLowerableModelsFailPrecondition) {
  const Dataset data = MakeData(200, 5);
  LogisticRegression logistic;
  ASSERT_TRUE(logistic.Fit(data).ok());
  const Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(logistic);
  EXPECT_FALSE(kernel.ok());
  EXPECT_EQ(kernel.status().code(), StatusCode::kFailedPrecondition);
}

// --- Every kernel variant --------------------------------------------

// One instance per variant name the code knows; a variant this CPU does
// not run is skipped by name.
class PredictKernelTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    for (const PredictKernel& variant : PredictKernels()) {
      if (std::string_view(variant.name) == GetParam()) variant_ = &variant;
    }
    if (variant_ == nullptr) {
      GTEST_SKIP() << "kernel variant " << GetParam()
                   << " is not supported on this CPU";
    }
  }

  // All three ensemble kinds at every block-edge batch size, with rows
  // in order, reversed, and strided (row offsets far apart in one block).
  void CheckModel(const Classifier& model, const Dataset& data) {
    const Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(model);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    for (size_t n : kBlockEdges) {
      std::vector<size_t> ascending(n), reversed(n), strided(n);
      for (size_t i = 0; i < n; ++i) {
        ascending[i] = i;
        reversed[i] = data.num_rows() - 1 - i;
        strided[i] = (i * 37 + 5) % data.num_rows();
      }
      for (const auto& rows : {ascending, reversed, strided}) {
        ExpectVariantBitIdentical(*variant_, model, kernel.value(), data,
                                  rows);
      }
    }
  }

  const PredictKernel* variant_ = nullptr;
};

TEST_P(PredictKernelTest, EveryKindBitIdenticalAtBlockEdges) {
  const Dataset data = MakeData();
  DecisionTreeOptions tree_options;
  tree_options.max_depth = 12;
  DecisionTree tree(tree_options);
  ASSERT_TRUE(tree.Fit(data).ok());
  CheckModel(tree, data);

  AdaBoostOptions boost_options;
  boost_options.num_estimators = 40;
  boost_options.base.max_depth = 8;
  AdaBoost boosted(boost_options);
  ASSERT_TRUE(boosted.Fit(data).ok());
  CheckModel(boosted, data);

  RandomForestOptions forest_options;
  forest_options.num_trees = 40;
  forest_options.base.max_depth = 10;
  RandomForest forest(forest_options);
  ASSERT_TRUE(forest.Fit(data).ok());
  CheckModel(forest, data);
}

// Memory that ends exactly at an inaccessible page: reading one byte
// past the end faults.
class GuardedBuffer {
 public:
  explicit GuardedBuffer(size_t bytes) {
    page_ = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    usable_ = (bytes + page_ - 1) / page_ * page_;
    void* map = mmap(nullptr, usable_ + page_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) return;
    base_ = static_cast<char*>(map);
    if (mprotect(base_ + usable_, page_, PROT_NONE) != 0) {
      munmap(base_, usable_ + page_);
      base_ = nullptr;
    }
  }
  ~GuardedBuffer() {
    if (base_ != nullptr) munmap(base_, usable_ + page_);
  }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  bool ok() const { return base_ != nullptr; }
  // `count` Ts ending at the guard page.
  template <typename T>
  std::span<T> Tail(size_t count) {
    return {reinterpret_cast<T*>(base_ + usable_) - count, count};
  }

 private:
  size_t page_ = 0;
  size_t usable_ = 0;
  char* base_ = nullptr;
};

// ASan does not instrument gathers, so the rule that no lane reads
// outside a table is tested directly: the node and leaf tables end at an
// inaccessible page, and every live cursor ends on the table's last node.
// A lane that reads past a live cursor's node — as an uninitialized or
// advanced padding lane of a partial block would — faults the test.
TEST_P(PredictKernelTest, PaddingLanesStayInsideTheTables) {
  // Two stumps: root at 0 (resp. 3) splits feature 0 at 0.0; every probe
  // row has feature 0 = 1, so both walks end on the right leaf, the
  // second at node 5 — the last of the table.
  const double inf = std::numeric_limits<double>::infinity();
  const FlatNode table[] = {{0.0, 0, 1}, {inf, 0, 1}, {inf, 0, 2},
                            {0.0, 0, 4}, {inf, 0, 4}, {inf, 0, 5}};
  const double leaves[] = {0.0, 0.25, 0.75, 0.0, 0.1, 0.9};
  const TreeRef trees[] = {{0, 1}, {3, 1}};
  const double alphas[] = {0.5, 1.5};
  GuardedBuffer node_memory(sizeof(table));
  GuardedBuffer leaf_memory(sizeof(leaves));
  ASSERT_TRUE(node_memory.ok() && leaf_memory.ok());
  const std::span<FlatNode> nodes = node_memory.Tail<FlatNode>(6);
  const std::span<double> leaf_proba = leaf_memory.Tail<double>(6);
  std::copy(std::begin(table), std::end(table), nodes.begin());
  std::copy(std::begin(leaves), std::end(leaves), leaf_proba.begin());

  const size_t n = 40;
  const std::vector<double> features(n * 2, 1.0);
  CompiledEnsemble::Parts parts;
  parts.nodes = nodes;
  parts.leaf_proba = leaf_proba;
  parts.trees = trees;
  parts.alphas = alphas;
  parts.alpha_sum = 2.0;
  const std::vector<size_t> all = AllRows(n);
  for (EnsembleKind kind :
       {EnsembleKind::kTree, EnsembleKind::kAdaBoost, EnsembleKind::kForest}) {
    parts.kind = kind;
    // kTree takes the last tree's leaf; AdaBoost sums +0.5 + 1.5 of 2.0;
    // the forest counts two votes of two.
    const double expected = kind == EnsembleKind::kTree ? 0.9 : 1.0;
    for (size_t rows : {size_t{1}, size_t{5}, size_t{17}, size_t{31},
                        size_t{32}, size_t{33}}) {
      std::vector<double> out(rows);
      variant_->fn(parts, features, 2,
                   std::span<const size_t>(all).subspan(0, rows), out);
      for (size_t i = 0; i < rows; ++i) {
        EXPECT_EQ(out[i], expected) << "rows " << rows << " row " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, PredictKernelTest,
                         ::testing::Values("baseline", "avx2", "avx512f"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// --- Layout and the mmap validation contract ---------------------------

// Every node is one 16-byte record; an interior node's children are the
// adjacent pair (left, left + 1) after it, and a leaf loops back to
// itself through a +inf threshold.
TEST(CompiledLayoutTest, SixteenByteNodesWithAdjacentChildren) {
  const Dataset data = MakeData();
  DecisionTreeOptions options;
  options.max_depth = 10;
  DecisionTree tree(options);
  ASSERT_TRUE(tree.Fit(data).ok());
  const Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(tree);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  const CompiledEnsemble::Parts& parts = kernel.value().parts();
  ASSERT_EQ(parts.nodes.size(), tree.nodes().size());
  size_t leaves = 0;
  for (size_t i = 0; i < parts.nodes.size(); ++i) {
    const FlatNode& node = parts.nodes[i];
    if (node.left == i) {
      ++leaves;
      EXPECT_EQ(node.threshold, std::numeric_limits<double>::infinity());
      EXPECT_EQ(node.feature, 0);
    } else {
      EXPECT_GT(node.left, i);
      EXPECT_LT(node.left + 1, parts.nodes.size());
      EXPECT_EQ(parts.leaf_proba[i], 0.0);
    }
  }
  EXPECT_GT(leaves, 1u);
  EXPECT_EQ(kernel.value().table_bytes(), parts.nodes.size() * 24);
}

// A subtree reachable from two parents cannot keep a sibling adjacent to
// both: lowering rejects it instead of expanding it.
TEST(CompiledLayoutTest, SharedSubtreeIsRejected) {
  std::vector<TreeNode> nodes(4);
  nodes[0] = {0, 0.5, 1, 2, 0.5};
  nodes[1] = {1, 0.5, 3, 3, 0.5};  // both children are node 3
  nodes[2].proba = 0.25;
  nodes[3].proba = 0.75;
  const DecisionTree dag = DecisionTree::FromParts({}, nodes, 2);
  const Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(dag);
  ASSERT_FALSE(kernel.ok());
  EXPECT_EQ(kernel.status().code(), StatusCode::kInternal);
}

// --- The compiled pool -------------------------------------------------

TrainValTest MakeSplits() {
  SyntheticConfig cfg;
  cfg.num_samples = 1500;
  cfg.seed = 7;
  const Dataset d = GenerateImplicitBias(cfg).value();
  return SplitDatasetDefault(d, 11).value();
}

FalccOptions FastOptions() {
  FalccOptions opt;
  opt.seed = 42;
  opt.trainer.estimator_grid = {5};
  opt.trainer.depth_grid = {1, 4};
  opt.trainer.pool_size = 3;
  return opt;
}

// The batch path's decision for `row` must equal, field by field, what
// the single-sample entry points give: they route the same way but
// predict through the interpreted model, never a kernel.
void ExpectMatchesSequential(const FalccModel& model,
                             std::span<const double> row,
                             const SampleDecision& got, size_t i) {
  const size_t cluster = model.MatchCluster(row);
  const size_t group = model.GroupOf(row).value();
  EXPECT_EQ(got.probability, model.ClassifyProba(row)) << i;
  EXPECT_EQ(got.label, model.Classify(row)) << i;
  EXPECT_EQ(got.cluster, cluster) << i;
  EXPECT_EQ(got.group, group) << i;
  EXPECT_EQ(got.model, model.selected_combinations()[cluster][group]) << i;
}

// Each pool model compiles once, when the pool adds it; a model that does
// not lower keeps an empty entry and its rows take the interpreted path.
// ModelPool::PredictProbaBatch equals each interpreted model, and whole
// served decisions equal the sequential single-sample reference, at every
// batch size around the row-block boundary, with rows of both kinds
// interleaved in one batch.
TEST(CompiledPoolTest, PerModelKernelsWithInterpretedFallback) {
  const TrainValTest s = MakeSplits();
  ModelPool pool;
  AdaBoostOptions boost;
  boost.num_estimators = 12;
  boost.base.max_depth = 6;
  auto boosted = std::make_unique<AdaBoost>(boost);
  ASSERT_TRUE(boosted->Fit(s.train).ok());
  auto logistic = std::make_unique<LogisticRegression>();
  ASSERT_TRUE(logistic->Fit(s.train).ok());
  RandomForestOptions forest_options;
  forest_options.num_trees = 8;
  auto forest = std::make_unique<RandomForest>(forest_options);
  ASSERT_TRUE(forest->Fit(s.train).ok());
  pool.Add(std::move(boosted));
  pool.Add(std::move(logistic));
  pool.Add(std::move(forest));

  FalccOptions options = FastOptions();
  options.fixed_k = 3;
  FalccModel trained =
      FalccModel::TrainWithPool(std::move(pool), s.validation, options)
          .value();
  ASSERT_GE(trained.num_groups(), 2u);
  // Route group 0 of every cluster through the logistic model so the
  // fallback path carries real traffic next to the kernels.
  std::vector<ClusterRefresh> refreshes;
  for (size_t c = 0; c < trained.num_clusters(); ++c) {
    ClusterRefresh refresh;
    refresh.cluster = c;
    refresh.combination.assign(trained.num_groups(), c % 2 == 0 ? 0 : 2);
    refresh.combination[0] = 1;
    refresh.baseline_loss = 0.0;
    refreshes.push_back(refresh);
  }
  FalccModel model = trained.CloneWithRefreshes(refreshes).value();

  const ModelPool& served_pool = model.pool();
  ASSERT_EQ(&served_pool, &trained.pool());  // the clone shares the pool
  ASSERT_EQ(served_pool.size(), 3u);
  ASSERT_NE(served_pool.kernel(0), nullptr);
  EXPECT_EQ(served_pool.kernel(1), nullptr);  // logistic: interpreted
  ASSERT_NE(served_pool.kernel(2), nullptr);
  EXPECT_EQ(served_pool.kernel(0)->kind(), EnsembleKind::kAdaBoost);
  EXPECT_EQ(served_pool.kernel(2)->kind(), EnsembleKind::kForest);

  const size_t width = s.test.num_features();
  const std::vector<size_t> all = AllRows(s.test.num_rows());
  for (size_t n : {size_t{1}, size_t{15}, size_t{16}, size_t{17},
                   size_t{31}, size_t{32}, size_t{33}, size_t{200}}) {
    SCOPED_TRACE(n);
    const std::span<const size_t> rows =
        std::span<const size_t>(all).subspan(0, n);
    for (size_t m = 0; m < served_pool.size(); ++m) {
      std::vector<double> pooled(n), interpreted(n);
      served_pool.PredictProbaBatch(m, s.test.features(), width, rows,
                                    pooled);
      served_pool.model(m).PredictProbaBatch(s.test, rows, interpreted);
      EXPECT_EQ(pooled, interpreted) << "model " << m;
    }
    const ClassifyRequest request{s.test.features().first(n * width), width};
    const ClassifyResponse a = model.ClassifyBatch(request).value();
    ASSERT_EQ(a.decisions.size(), n);
    std::set<size_t> models;
    for (size_t i = 0; i < n; ++i) {
      ExpectMatchesSequential(model, s.test.Row(i), a.decisions[i], i);
      models.insert(a.decisions[i].model);
    }
    if (n == 200) {
      EXPECT_GE(models.size(), 2u);
    }
  }
}

// The deserializers accept a tree whose nodes share a subtree (they only
// require forward children), but such a tree has no 16-byte layout. A
// snapshot carrying one still loads from bytes and from a mapping: that
// model serves interpreted, the rest of the pool from kernels, and every
// decision equals the sequential single-sample reference. The same
// artifact with a text pool section is rejected.
TEST(CompiledPoolTest, SharedSubtreeModelLoadsAndServesInterpreted) {
  const TrainValTest s = MakeSplits();
  std::vector<TreeNode> nodes(4);
  nodes[0] = {0, s.train.Row(0)[0], 1, 2, 0.5};
  nodes[1] = {1, s.train.Row(0)[1], 3, 3, 0.5};  // both children: node 3
  nodes[2].proba = 0.25;
  nodes[3].proba = 0.75;
  AdaBoostOptions boost;
  boost.num_estimators = 6;
  boost.base.max_depth = 4;
  auto boosted = std::make_unique<AdaBoost>(boost);
  ASSERT_TRUE(boosted->Fit(s.train).ok());
  ModelPool pool;
  pool.Add(std::move(boosted));
  pool.Add(std::make_unique<DecisionTree>(
      DecisionTree::FromParts({}, std::move(nodes), 2)));

  FalccOptions options = FastOptions();
  options.fixed_k = 3;
  const FalccModel trained =
      FalccModel::TrainWithPool(std::move(pool), s.validation, options)
          .value();
  std::vector<ClusterRefresh> refreshes;
  for (size_t c = 0; c < trained.num_clusters(); ++c) {
    ClusterRefresh refresh;
    refresh.cluster = c;
    refresh.combination.assign(trained.num_groups(), 0);
    refresh.combination[0] = 1;  // group 0 → the shared-subtree tree
    refresh.baseline_loss = 0.0;
    refreshes.push_back(refresh);
  }
  const FalccModel model = trained.CloneWithRefreshes(refreshes).value();
  const size_t n = 200;
  const ClassifyRequest request{
      s.test.features().first(n * s.test.num_features()),
      s.test.num_features()};
  size_t dag_rows = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto row = s.test.Row(i);
    const size_t cluster = model.MatchCluster(row);
    if (model.selected_combinations()[cluster][model.GroupOf(row).value()] ==
        1) {
      ++dag_rows;
    }
  }
  ASSERT_GT(dag_rows, 0u);
  ASSERT_LT(dag_rows, n);

  auto expect_serves = [&](const Result<FalccModel>& loaded) {
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const ModelPool& pool = loaded.value().pool();
    ASSERT_EQ(pool.size(), 2u);
    EXPECT_NE(pool.kernel(0), nullptr);
    EXPECT_EQ(pool.kernel(1), nullptr);
    const ClassifyResponse got =
        loaded.value().ClassifyBatch(request).value();
    ASSERT_EQ(got.decisions.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ExpectMatchesSequential(model, s.test.Row(i), got.decisions[i], i);
    }
  };
  std::ostringstream saved;
  ASSERT_TRUE(model.Save(&saved).ok());
  const std::string bytes = saved.str();
  expect_serves(FalccModel::LoadBytes(bytes));
  {
    // The same artifact with its pool section rewritten as text
    // classifier records, as older versions wrote it: the loader reads
    // binary pools only and says so.
    const io::SnapshotReader reader =
        io::SnapshotReader::ParseView(bytes).value();
    std::ostringstream text_pool;
    for (size_t m = 0; m < model.pool().size(); ++m) {
      ASSERT_TRUE(SerializeClassifier(model.pool().model(m), &text_pool).ok());
    }
    std::ostringstream legacy;
    io::SnapshotWriter writer(&legacy);
    for (const io::SectionInfo& section : reader.manifest().sections) {
      std::string payload =
          section.name == "pool"
              ? text_pool.str()
              : std::string(reader.ReadSection(section.name).value());
      ASSERT_TRUE(writer.AddSection(section.name, std::move(payload)).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    const Result<FalccModel> text_loaded = FalccModel::LoadBytes(legacy.str());
    ASSERT_FALSE(text_loaded.ok());
    EXPECT_NE(text_loaded.status().message().find("falcc-p1"),
              std::string::npos)
        << text_loaded.status().message();
  }
  const std::string path = ::testing::TempDir() + "/falcc-shared-subtree.falcc";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  expect_serves(FalccModel::LoadMapped(path));
  std::remove(path.c_str());
}

// --- Golden models -----------------------------------------------------

// The checked-in reference models (tests/golden/) pin the trainers'
// exact behaviour; the compiled kernels must reproduce each of them bit
// for bit on a deterministic probe grid.
TEST(CompiledGoldenTest, GoldenModelsCompileBitIdentical) {
  const std::string kGolden[] = {
      "adaboost_weighted.txt",      "random_forest_bootstrap.txt",
      "tree_entropy_weighted.txt",  "tree_gini_duplicates.txt",
      "tree_max_features.txt",      "tree_min_leaf.txt",
  };
  for (const std::string& name : kGolden) {
    SCOPED_TRACE(name);
    std::ifstream in(std::string(FALCC_GOLDEN_DIR) + "/" + name);
    ASSERT_TRUE(in.good()) << "missing golden file";
    Result<std::unique_ptr<Classifier>> model = DeserializeClassifier(&in);
    ASSERT_TRUE(model.ok()) << model.status().ToString();

    // Recover the model's input width by probing the validator.
    size_t width = 0;
    for (size_t w = 1; w <= 64; ++w) {
      if (model.value()->ValidateForWidth(w).ok()) {
        width = w;
        break;
      }
    }
    ASSERT_GT(width, 0u) << "no width in 1..64 validates";

    // Deterministic probe grid crossing the row-block boundary.
    const size_t n = 45;
    std::vector<double> features(n * width);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < width; ++j) {
        features[i * width + j] =
            static_cast<double>((i * 7 + j * 3) % 23) * 0.25 - 2.0;
      }
    }
    std::vector<std::string> names(width);
    for (size_t j = 0; j < width; ++j) names[j] = "f" + std::to_string(j);
    const Dataset probe =
        Dataset::Create(std::move(names), std::move(features), width,
                        std::vector<int>(n, 0), {})
            .value();
    CheckAllBlockEdges(*model.value(), probe);
  }
}

// --- Concurrency (TSan target) -----------------------------------------

// Readers classify continuously while the main thread hot-swaps the
// engine's snapshot: delta applies that flip cluster 0 between two
// combinations (sharing the pool and its kernels, compiling nothing),
// and full installs of freshly loaded models, each with its own pool
// and kernels. Under TSan this is the "concurrent classify during
// hot-swap" check.
TEST(CompiledConcurrencyTest, ClassifyDuringDeltaHotSwap) {
  const TrainValTest s = MakeSplits();
  FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  ASSERT_TRUE(model.EnsureManifest().ok());
  std::ostringstream buffer;
  ASSERT_TRUE(model.Save(&buffer).ok());
  const std::string bytes = buffer.str();

  // Two deltas that undo each other: A → B re-picks cluster 0's model
  // for group 0, B → A restores it.
  ClusterRefresh forward;
  forward.cluster = 0;
  forward.combination = model.selected_combinations()[0];
  forward.combination[0] = (forward.combination[0] + 1) % model.pool().size();
  forward.baseline_loss = model.baseline_losses()[0];
  ClusterRefresh back = forward;
  back.combination = model.selected_combinations()[0];
  const FalccModel refreshed = model.CloneWithRefreshes({&forward, 1}).value();
  const size_t clusters[] = {0};
  std::ostringstream to_b, to_a;
  ASSERT_TRUE(refreshed
                  .SaveDelta(&to_b, clusters, model.ContentHash().value())
                  .ok());
  ASSERT_TRUE(model.CloneWithRefreshes({&back, 1})
                  .value()
                  .SaveDelta(&to_a, clusters, refreshed.ContentHash().value())
                  .ok());

  serve::FalccEngine engine;
  engine.Install(std::move(model));

  const size_t width = s.test.num_features();
  ClassifyRequest request{s.test.features().first(64 * width), width};

  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const Result<ClassifyResponse> response = engine.ClassifyBatch(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      served.fetch_add(response.value().decisions.size(),
                       std::memory_order_relaxed);
    }
  });

  // Let the reader serve once before the first swap, so the swaps below
  // race a running classification loop however fast they are.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (served.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  for (int swap = 0; swap < 8; ++swap) {
    const ModelPool* pool = &engine.snapshot()->pool();
    ASSERT_TRUE(engine.ApplyDeltaBytes(to_b.str()).ok());
    ASSERT_TRUE(engine.ApplyDeltaBytes(to_a.str()).ok());
    EXPECT_EQ(&engine.snapshot()->pool(), pool);

    engine.Install(FalccModel::LoadBytes(bytes).value());
    EXPECT_NE(&engine.snapshot()->pool(), pool);
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(served.load(), 0u);
  EXPECT_NE(engine.snapshot()->pool().kernel(0), nullptr);
}

}  // namespace
}  // namespace falcc
