#include "ml/decision_tree.h"

#include "ml/compiled_ensemble.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "data/feature_columns.h"
#include "ml/tree_builder.h"
#include "util/binary.h"
#include "util/serialize.h"

namespace falcc {

Status DecisionTree::Fit(const Dataset& data,
                         std::span<const double> sample_weights) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("DecisionTree: empty training data");
  }
  FALCC_RETURN_IF_ERROR(ValidateWeights(data, sample_weights));
  const FeatureColumns columns(data);
  return Fit(columns, sample_weights);
}

Status DecisionTree::Fit(const FeatureColumns& columns,
                         std::span<const double> sample_weights,
                         TreeBuilder* builder) {
  const Dataset& data = columns.data();
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("DecisionTree: empty training data");
  }
  FALCC_RETURN_IF_ERROR(ValidateWeights(data, sample_weights));

  std::vector<double> uniform;
  std::span<const double> weights = sample_weights;
  if (weights.empty()) {
    uniform.assign(data.num_rows(), 1.0);
    weights = uniform;
  }

  TreeBuilder local;
  TreeBuilder& engine = builder != nullptr ? *builder : local;
  return engine.Build(columns, weights, options_, &nodes_, &depth_);
}

DecisionTree DecisionTree::FromParts(const DecisionTreeOptions& options,
                                     std::vector<TreeNode> nodes,
                                     size_t depth) {
  DecisionTree tree(options);
  tree.nodes_ = std::move(nodes);
  tree.depth_ = depth;
  return tree;
}

double DecisionTree::PredictProba(std::span<const double> features) const {
  FALCC_CHECK(!nodes_.empty(), "DecisionTree::PredictProba before Fit");
  int node = 0;
  while (nodes_[node].feature >= 0) {
    const Node& n = nodes_[node];
    node = features[static_cast<size_t>(n.feature)] <= n.threshold ? n.left
                                                                   : n.right;
  }
  return nodes_[node].proba;
}

void DecisionTree::PredictProbaBatch(const Dataset& data,
                                     std::span<const size_t> rows,
                                     std::span<double> out) const {
  FALCC_CHECK(!nodes_.empty(), "DecisionTree::PredictProba before Fit");
  FALCC_CHECK(rows.size() == out.size(),
              "PredictProbaBatch: rows/out size mismatch");
  const Node* nodes = nodes_.data();
  for (size_t j = 0; j < rows.size(); ++j) {
    const std::span<const double> features = data.Row(rows[j]);
    int node = 0;
    while (nodes[node].feature >= 0) {
      const Node& n = nodes[node];
      node = features[static_cast<size_t>(n.feature)] <= n.threshold ? n.left
                                                                     : n.right;
    }
    out[j] = nodes[node].proba;
  }
}

bool DecisionTree::LowerToFlat(FlatEnsembleBuilder* builder) const {
  if (nodes_.empty()) return false;
  builder->SetKind(EnsembleKind::kTree);
  builder->AddTree(nodes_);
  return true;
}

std::unique_ptr<Classifier> DecisionTree::Clone() const {
  return std::make_unique<DecisionTree>(*this);
}

Status DecisionTree::SerializePayload(std::ostream* out) const {
  io::PrepareStream(out);
  *out << options_.max_depth << ' ' << options_.min_samples_split << ' '
       << options_.min_samples_leaf << ' '
       << (options_.criterion == SplitCriterion::kGini ? 0 : 1) << ' '
       << options_.max_features << ' ' << options_.seed << '\n';
  *out << depth_ << ' ' << nodes_.size() << '\n';
  for (const Node& n : nodes_) {
    *out << n.feature << ' ' << n.threshold << ' ' << n.left << ' '
         << n.right << ' ' << n.proba << '\n';
  }
  if (!*out) return Status::IOError("DecisionTree serialization failed");
  return Status::OK();
}

Result<DecisionTree> DecisionTree::DeserializePayload(std::istream* in) {
  DecisionTreeOptions opt;
  int criterion = 0;
  FALCC_RETURN_IF_ERROR(io::Read(in, &opt.max_depth));
  FALCC_RETURN_IF_ERROR(io::Read(in, &opt.min_samples_split));
  FALCC_RETURN_IF_ERROR(io::Read(in, &opt.min_samples_leaf));
  FALCC_RETURN_IF_ERROR(io::Read(in, &criterion));
  FALCC_RETURN_IF_ERROR(io::Read(in, &opt.max_features));
  FALCC_RETURN_IF_ERROR(io::Read(in, &opt.seed));
  opt.criterion =
      criterion == 0 ? SplitCriterion::kGini : SplitCriterion::kEntropy;

  DecisionTree tree(opt);
  size_t num_nodes = 0;
  FALCC_RETURN_IF_ERROR(io::Read(in, &tree.depth_));
  FALCC_RETURN_IF_ERROR(io::Read(in, &num_nodes));
  if (num_nodes == 0 || num_nodes > kMaxSerializedNodes) {
    return Status::InvalidArgument("implausible node count");
  }
  // Incremental growth: a corrupted count over a truncated stream fails
  // at the first missing token instead of allocating num_nodes up front.
  tree.nodes_.reserve(std::min<size_t>(num_nodes, 4096));
  for (size_t i = 0; i < num_nodes; ++i) {
    Node n;
    FALCC_RETURN_IF_ERROR(io::Read(in, &n.feature));
    FALCC_RETURN_IF_ERROR(io::Read(in, &n.threshold));
    FALCC_RETURN_IF_ERROR(io::Read(in, &n.left));
    FALCC_RETURN_IF_ERROR(io::Read(in, &n.right));
    FALCC_RETURN_IF_ERROR(io::Read(in, &n.proba));
    FALCC_RETURN_IF_ERROR(CheckNode(n, i, num_nodes));
    tree.nodes_.push_back(n);
  }
  return tree;
}

Status DecisionTree::CheckNode(const TreeNode& n, size_t index,
                               size_t num_nodes) {
  const int limit = static_cast<int>(num_nodes);
  if (n.left >= limit || n.right >= limit ||
      (n.feature >= 0 && (n.left < 0 || n.right < 0))) {
    return Status::InvalidArgument("corrupt decision tree node");
  }
  // Both builders emit children strictly after their parent, so any
  // backward (or self) edge is corruption — and would make the
  // prediction loop cycle forever if admitted.
  const int self = static_cast<int>(index);
  if (n.feature >= 0 && (n.left <= self || n.right <= self)) {
    return Status::InvalidArgument("decision tree node cycle");
  }
  if (!std::isfinite(n.threshold) || !std::isfinite(n.proba) ||
      n.proba < 0.0 || n.proba > 1.0) {
    return Status::InvalidArgument("non-finite decision tree parameters");
  }
  return Status::OK();
}

namespace {

// Encoded bytes per node: threshold and proba (f64), feature, left and
// right (i32).
constexpr size_t kNodeBytes = 2 * sizeof(double) + 3 * sizeof(int32_t);

template <typename Field>
void PutNodeField(io::BinaryWriter* out, std::span<const TreeNode> nodes,
                  Field TreeNode::*field) {
  char* at = out->Extend(nodes.size() * sizeof(Field));
  for (const TreeNode& node : nodes) {
    std::memcpy(at, &(node.*field), sizeof(Field));
    at += sizeof(Field);
  }
}

template <typename Field>
void GetNodeField(const char* at, std::span<TreeNode> nodes,
                  Field TreeNode::*field) {
  for (TreeNode& node : nodes) {
    std::memcpy(&(node.*field), at, sizeof(Field));
    at += sizeof(Field);
  }
}

}  // namespace

void DecisionTree::SerializeBinary(io::BinaryWriter* out) const {
  static_assert(sizeof(int) == sizeof(int32_t), "node fields are i32");
  out->U64(options_.max_depth);
  out->U64(options_.min_samples_split);
  out->U64(options_.min_samples_leaf);
  out->U64(options_.criterion == SplitCriterion::kGini ? 0 : 1);
  out->U64(options_.max_features);
  out->U64(options_.seed);
  out->U64(depth_);
  out->U64(nodes_.size());
  PutNodeField(out, nodes_, &Node::threshold);
  PutNodeField(out, nodes_, &Node::proba);
  PutNodeField(out, nodes_, &Node::feature);
  PutNodeField(out, nodes_, &Node::left);
  PutNodeField(out, nodes_, &Node::right);
  out->Align8();
}

Result<DecisionTree> DecisionTree::DeserializeBinary(io::BinaryReader* in) {
  DecisionTreeOptions opt;
  uint64_t criterion = 0;
  uint64_t depth = 0;
  uint64_t num_nodes = 0;
  if (!in->U64(&opt.max_depth) || !in->U64(&opt.min_samples_split) ||
      !in->U64(&opt.min_samples_leaf) || !in->U64(&criterion) ||
      !in->U64(&opt.max_features) || !in->U64(&opt.seed) ||
      !in->U64(&depth) || !in->U64(&num_nodes)) {
    return Status::InvalidArgument("DecisionTree: truncated header");
  }
  if (criterion > 1) {
    return Status::InvalidArgument("DecisionTree: unknown split criterion");
  }
  opt.criterion =
      criterion == 0 ? SplitCriterion::kGini : SplitCriterion::kEntropy;
  if (num_nodes == 0 || num_nodes > kMaxSerializedNodes) {
    return Status::InvalidArgument("implausible node count");
  }
  const char* at;
  if (!in->Fits(num_nodes, kNodeBytes) ||
      !in->Take(num_nodes * kNodeBytes, &at) || !in->Align8()) {
    return Status::InvalidArgument("DecisionTree: truncated node arrays");
  }
  DecisionTree tree(opt);
  tree.depth_ = depth;
  tree.nodes_.resize(num_nodes);
  const std::span<Node> nodes(tree.nodes_);
  GetNodeField(at, nodes, &Node::threshold);
  at += num_nodes * sizeof(double);
  GetNodeField(at, nodes, &Node::proba);
  at += num_nodes * sizeof(double);
  GetNodeField(at, nodes, &Node::feature);
  at += num_nodes * sizeof(int32_t);
  GetNodeField(at, nodes, &Node::left);
  at += num_nodes * sizeof(int32_t);
  GetNodeField(at, nodes, &Node::right);
  for (size_t i = 0; i < num_nodes; ++i) {
    FALCC_RETURN_IF_ERROR(CheckNode(nodes[i], i, num_nodes));
  }
  return tree;
}

Status DecisionTree::ValidateForWidth(size_t num_features) const {
  for (const Node& n : nodes_) {
    if (n.feature >= 0 && static_cast<size_t>(n.feature) >= num_features) {
      return Status::InvalidArgument(
          "DecisionTree: split on feature " + std::to_string(n.feature) +
          " but samples have " + std::to_string(num_features) + " features");
    }
  }
  return Status::OK();
}

std::string DecisionTree::Name() const {
  std::string name = "DecisionTree(depth=" + std::to_string(options_.max_depth);
  name += options_.criterion == SplitCriterion::kGini ? ",gini" : ",entropy";
  name += ")";
  return name;
}

}  // namespace falcc
