#include "ml/adaboost.h"

#include "ml/compiled_ensemble.h"

#include <algorithm>
#include <cmath>

#include "data/feature_columns.h"
#include "ml/tree_builder.h"
#include "util/binary.h"
#include "util/math.h"
#include "util/serialize.h"

namespace falcc {

Status AdaBoost::Fit(const Dataset& data,
                     std::span<const double> sample_weights) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("AdaBoost: empty training data");
  }
  FALCC_RETURN_IF_ERROR(ValidateWeights(data, sample_weights));
  const FeatureColumns columns(data);
  return Fit(columns, sample_weights);
}

Status AdaBoost::Fit(const FeatureColumns& columns,
                     std::span<const double> sample_weights) {
  const Dataset& data = columns.data();
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("AdaBoost: empty training data");
  }
  if (options_.num_estimators == 0) {
    return Status::InvalidArgument("AdaBoost: num_estimators must be > 0");
  }
  FALCC_RETURN_IF_ERROR(ValidateWeights(data, sample_weights));

  const size_t n = data.num_rows();
  std::vector<double> weights;
  if (sample_weights.empty()) {
    weights.assign(n, 1.0 / static_cast<double>(n));
  } else {
    weights.assign(sample_weights.begin(), sample_weights.end());
    double sum = 0.0;
    for (double w : weights) sum += w;
    for (double& w : weights) w /= sum;
  }

  trees_.clear();
  alphas_.clear();
  std::vector<int> predictions(n);
  std::vector<double> round_proba(n);
  std::vector<size_t> all_rows(n);
  for (size_t i = 0; i < n; ++i) all_rows[i] = i;
  TreeBuilder builder;  // scratch shared across all boosting rounds

  for (size_t t = 0; t < options_.num_estimators; ++t) {
    DecisionTreeOptions base = options_.base;
    base.seed = options_.base.seed + t;  // vary RF-style subsampling streams
    DecisionTree tree(base);
    FALCC_RETURN_IF_ERROR(tree.Fit(columns, weights, &builder));

    tree.PredictProbaBatch(data, all_rows, round_proba);
    double err = 0.0;
    for (size_t i = 0; i < n; ++i) {
      predictions[i] = round_proba[i] >= 0.5 ? 1 : 0;
      if (predictions[i] != data.Label(i)) err += weights[i];
    }

    if (err >= 0.5) {
      // Weak learner no better than chance: stop, but make sure the
      // ensemble is non-empty.
      if (trees_.empty()) {
        trees_.push_back(std::move(tree));
        alphas_.push_back(1.0);
      }
      break;
    }

    // Cap near-zero error so alpha stays finite.
    const double eps = std::max(err, 1e-10);
    const double alpha =
        options_.learning_rate * std::log((1.0 - eps) / eps);
    trees_.push_back(std::move(tree));
    alphas_.push_back(alpha);

    if (err <= 0.0) break;  // perfect fit: further rounds are no-ops

    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (predictions[i] != data.Label(i)) {
        weights[i] *= std::exp(alpha);
      }
      sum += weights[i];
    }
    for (double& w : weights) w /= sum;
  }

  return Status::OK();
}

double AdaBoost::PredictProba(std::span<const double> features) const {
  FALCC_CHECK(!trees_.empty(), "AdaBoost::PredictProba before Fit");
  double margin = 0.0;  // Σ alpha_t * (2 h_t - 1), normalized below
  double alpha_sum = 0.0;
  for (size_t t = 0; t < trees_.size(); ++t) {
    const int h = trees_[t].Predict(features);
    margin += alphas_[t] * (h == 1 ? 1.0 : -1.0);
    alpha_sum += std::fabs(alphas_[t]);
  }
  if (alpha_sum <= 0.0) return 0.5;
  // Map the normalized margin in [-1, 1] to a probability in [0, 1].
  return 0.5 * (margin / alpha_sum + 1.0);
}

void AdaBoost::PredictProbaBatch(const Dataset& data,
                                 std::span<const size_t> rows,
                                 std::span<double> out) const {
  FALCC_CHECK(!trees_.empty(), "AdaBoost::PredictProba before Fit");
  FALCC_CHECK(rows.size() == out.size(),
              "PredictProbaBatch: rows/out size mismatch");
  // Tree-major traversal: each tree's flat array is walked for the whole
  // batch while it is hot, and every row still accumulates its margin in
  // t-ascending order — the same floating-point order as the per-row
  // PredictProba loop, so results are bit-identical.
  std::vector<double> margins(rows.size(), 0.0);
  std::vector<double> proba(rows.size());
  double alpha_sum = 0.0;
  for (size_t t = 0; t < trees_.size(); ++t) {
    trees_[t].PredictProbaBatch(data, rows, proba);
    const double alpha = alphas_[t];
    for (size_t j = 0; j < rows.size(); ++j) {
      margins[j] += alpha * (proba[j] >= 0.5 ? 1.0 : -1.0);
    }
    alpha_sum += std::fabs(alpha);
  }
  if (alpha_sum <= 0.0) {
    for (size_t j = 0; j < rows.size(); ++j) out[j] = 0.5;
    return;
  }
  for (size_t j = 0; j < rows.size(); ++j) {
    out[j] = 0.5 * (margins[j] / alpha_sum + 1.0);
  }
}

bool AdaBoost::LowerToFlat(FlatEnsembleBuilder* builder) const {
  if (trees_.empty()) return false;
  builder->SetKind(EnsembleKind::kAdaBoost);
  // Boosting-round order: the compiled kernel accumulates margins (and
  // the precomputed alpha_sum) in exactly this sequence.
  for (size_t t = 0; t < trees_.size(); ++t) {
    builder->AddTree(trees_[t].nodes(), alphas_[t]);
  }
  return true;
}

AdaBoost AdaBoost::FromParts(const AdaBoostOptions& options,
                             std::vector<DecisionTree> trees,
                             std::vector<double> alphas) {
  AdaBoost model(options);
  model.trees_ = std::move(trees);
  model.alphas_ = std::move(alphas);
  return model;
}

bool AdaBoost::SharesRounds(const AdaBoostOptions& a,
                            const AdaBoostOptions& b) {
  const DecisionTreeOptions& x = a.base;
  const DecisionTreeOptions& y = b.base;
  return a.learning_rate == b.learning_rate && x.max_depth == y.max_depth &&
         x.min_samples_split == y.min_samples_split &&
         x.min_samples_leaf == y.min_samples_leaf &&
         x.criterion == y.criterion && x.max_features == y.max_features &&
         (x.max_features == 0 || x.seed == y.seed);
}

AdaBoost AdaBoost::Prefix(const AdaBoostOptions& options) const {
  FALCC_CHECK(SharesRounds(options_, options) && options.num_estimators > 0,
              "AdaBoost::Prefix: options do not share this fit's rounds");
  const size_t count = std::min(options.num_estimators, trees_.size());
  std::vector<DecisionTree> trees;
  trees.reserve(count);
  for (size_t t = 0; t < count; ++t) {
    DecisionTreeOptions base = options.base;
    base.seed = options.base.seed + t;  // as Fit tags round t
    const std::span<const TreeNode> nodes = trees_[t].nodes();
    trees.push_back(DecisionTree::FromParts(
        base, std::vector<TreeNode>(nodes.begin(), nodes.end()),
        trees_[t].depth()));
  }
  return FromParts(options, std::move(trees),
                   std::vector<double>(alphas_.begin(),
                                       alphas_.begin() + count));
}

std::unique_ptr<Classifier> AdaBoost::Clone() const {
  return std::make_unique<AdaBoost>(*this);
}

Status AdaBoost::SerializePayload(std::ostream* out) const {
  io::PrepareStream(out);
  *out << options_.num_estimators << ' ' << options_.learning_rate << '\n';
  io::WriteVector(out, alphas_);
  *out << trees_.size() << '\n';
  for (const DecisionTree& tree : trees_) {
    FALCC_RETURN_IF_ERROR(tree.SerializePayload(out));
  }
  if (!*out) return Status::IOError("AdaBoost serialization failed");
  return Status::OK();
}

Result<AdaBoost> AdaBoost::DeserializePayload(std::istream* in) {
  AdaBoostOptions opt;
  FALCC_RETURN_IF_ERROR(io::Read(in, &opt.num_estimators));
  FALCC_RETURN_IF_ERROR(io::Read(in, &opt.learning_rate));
  AdaBoost model(opt);
  FALCC_RETURN_IF_ERROR(io::ReadVector(in, &model.alphas_));
  for (const double alpha : model.alphas_) {
    if (!std::isfinite(alpha)) {
      return Status::InvalidArgument("AdaBoost: non-finite alpha");
    }
  }
  size_t num_trees = 0;
  FALCC_RETURN_IF_ERROR(io::Read(in, &num_trees));
  if (num_trees != model.alphas_.size()) {
    return Status::InvalidArgument("AdaBoost: alpha/tree count mismatch");
  }
  model.trees_.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    Result<DecisionTree> tree = DecisionTree::DeserializePayload(in);
    if (!tree.ok()) return tree.status();
    model.trees_.push_back(std::move(tree).value());
  }
  return model;
}

void AdaBoost::SerializeBinary(io::BinaryWriter* out) const {
  out->U64(options_.num_estimators);
  out->F64(options_.learning_rate);
  out->U64(trees_.size());
  for (double alpha : alphas_) out->F64(alpha);
  for (const DecisionTree& tree : trees_) tree.SerializeBinary(out);
}

Result<AdaBoost> AdaBoost::DeserializeBinary(io::BinaryReader* in) {
  AdaBoostOptions opt;
  uint64_t num_trees = 0;
  if (!in->U64(&opt.num_estimators) || !in->F64(&opt.learning_rate) ||
      !in->U64(&num_trees)) {
    return Status::InvalidArgument("AdaBoost: truncated header");
  }
  // The text reader cannot produce a non-finite rate either.
  if (!std::isfinite(opt.learning_rate)) {
    return Status::InvalidArgument("AdaBoost: non-finite learning rate");
  }
  if (!in->Fits(num_trees,
                sizeof(double) + DecisionTree::kBinaryHeaderBytes)) {
    return Status::InvalidArgument("AdaBoost: tree count exceeds the payload");
  }
  AdaBoost model(opt);
  model.alphas_.resize(num_trees);
  for (double& alpha : model.alphas_) {
    in->F64(&alpha);
    if (!std::isfinite(alpha)) {
      return Status::InvalidArgument("AdaBoost: non-finite alpha");
    }
  }
  model.trees_.reserve(num_trees);
  for (uint64_t t = 0; t < num_trees; ++t) {
    Result<DecisionTree> tree = DecisionTree::DeserializeBinary(in);
    if (!tree.ok()) return tree.status();
    model.trees_.push_back(std::move(tree).value());
  }
  return model;
}

Status AdaBoost::ValidateForWidth(size_t num_features) const {
  for (const DecisionTree& tree : trees_) {
    FALCC_RETURN_IF_ERROR(tree.ValidateForWidth(num_features));
  }
  return Status::OK();
}

std::string AdaBoost::Name() const {
  std::string name = "AdaBoost(T=" + std::to_string(options_.num_estimators);
  name += ",depth=" + std::to_string(options_.base.max_depth);
  name +=
      options_.base.criterion == SplitCriterion::kGini ? ",gini" : ",entropy";
  name += ")";
  return name;
}

}  // namespace falcc
