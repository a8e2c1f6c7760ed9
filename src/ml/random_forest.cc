#include "ml/random_forest.h"

#include "ml/compiled_ensemble.h"

#include <cmath>

#include "data/feature_columns.h"
#include "ml/tree_builder.h"
#include "util/binary.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace falcc {

namespace {
constexpr size_t kMaxSerializedTrees = 1000000;
}  // namespace

Status RandomForest::Fit(const Dataset& data,
                         std::span<const double> sample_weights) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("RandomForest: empty training data");
  }
  FALCC_RETURN_IF_ERROR(ValidateWeights(data, sample_weights));
  const FeatureColumns columns(data);
  return Fit(columns, sample_weights);
}

Status RandomForest::Fit(const FeatureColumns& columns,
                         std::span<const double> sample_weights) {
  const Dataset& data = columns.data();
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("RandomForest: empty training data");
  }
  if (options_.num_trees == 0) {
    return Status::InvalidArgument("RandomForest: num_trees must be > 0");
  }
  FALCC_RETURN_IF_ERROR(ValidateWeights(data, sample_weights));

  const size_t n = data.num_rows();
  Rng rng(options_.seed);
  trees_.clear();
  trees_.reserve(options_.num_trees);

  const size_t max_features =
      options_.max_features > 0
          ? options_.max_features
          : static_cast<size_t>(
                std::max(1.0, std::floor(std::sqrt(
                                  static_cast<double>(data.num_features())))));

  // Bootstrap resampling implemented via multiplicity weights, composed
  // with any caller-provided weights. All random draws happen here, on
  // the single forest-level stream and in tree order — exactly the
  // sequence the serial implementation produced — so the parallel fits
  // below consume fixed inputs and the ensemble is independent of the
  // thread count.
  std::vector<std::vector<double>> boot_weights(options_.num_trees,
                                                std::vector<double>(n, 0.0));
  for (size_t t = 0; t < options_.num_trees; ++t) {
    std::vector<double>& weights = boot_weights[t];
    for (size_t i = 0; i < n; ++i) {
      weights[rng.UniformInt(n)] += 1.0;
    }
    if (!sample_weights.empty()) {
      for (size_t i = 0; i < n; ++i) weights[i] *= sample_weights[i];
    }
    double sum = 0.0;
    for (double w : weights) sum += w;
    if (sum <= 0.0) {
      // Degenerate draw (possible with sparse caller weights): fall back
      // to the caller weights / uniform.
      for (size_t i = 0; i < n; ++i) {
        weights[i] = sample_weights.empty() ? 1.0 : sample_weights[i];
      }
    }

    DecisionTreeOptions base = options_.base;
    base.max_features = max_features;
    base.seed = rng.Next();
    trees_.emplace_back(base);
  }

  // Tree fits are independent; each writes its own pre-constructed slot.
  // All fits share the presorted columns; each chunk reuses one builder's
  // scratch for its trees.
  std::vector<Status> fit_status(options_.num_trees);
  ParallelFor(0, options_.num_trees, 1,
              [&](size_t /*chunk*/, size_t lo, size_t hi) {
                TreeBuilder builder;
                for (size_t t = lo; t < hi; ++t) {
                  fit_status[t] =
                      trees_[t].Fit(columns, boot_weights[t], &builder);
                }
              });
  for (const Status& status : fit_status) {
    if (!status.ok()) {
      trees_.clear();
      return status;
    }
  }
  return Status::OK();
}

double RandomForest::PredictProba(std::span<const double> features) const {
  FALCC_CHECK(!trees_.empty(), "RandomForest::PredictProba before Fit");
  double votes = 0.0;
  for (const DecisionTree& tree : trees_) {
    votes += tree.Predict(features);
  }
  return votes / static_cast<double>(trees_.size());
}

void RandomForest::PredictProbaBatch(const Dataset& data,
                                     std::span<const size_t> rows,
                                     std::span<double> out) const {
  FALCC_CHECK(!trees_.empty(), "RandomForest::PredictProba before Fit");
  FALCC_CHECK(rows.size() == out.size(),
              "PredictProbaBatch: rows/out size mismatch");
  // Tree-major: one flat-array traversal of each tree over the whole
  // batch. Vote counts are small integers, so the accumulation order
  // cannot change the result.
  std::vector<double> votes(rows.size(), 0.0);
  std::vector<double> proba(rows.size());
  for (const DecisionTree& tree : trees_) {
    tree.PredictProbaBatch(data, rows, proba);
    for (size_t j = 0; j < rows.size(); ++j) {
      if (proba[j] >= 0.5) votes[j] += 1.0;
    }
  }
  for (size_t j = 0; j < rows.size(); ++j) {
    out[j] = votes[j] / static_cast<double>(trees_.size());
  }
}

bool RandomForest::LowerToFlat(FlatEnsembleBuilder* builder) const {
  if (trees_.empty()) return false;
  builder->SetKind(EnsembleKind::kForest);
  for (const DecisionTree& tree : trees_) {
    builder->AddTree(tree.nodes());
  }
  return true;
}

RandomForest RandomForest::FromParts(const RandomForestOptions& options,
                                     std::vector<DecisionTree> trees) {
  RandomForest model(options);
  model.trees_ = std::move(trees);
  return model;
}

std::unique_ptr<Classifier> RandomForest::Clone() const {
  return std::make_unique<RandomForest>(*this);
}

Status RandomForest::SerializePayload(std::ostream* out) const {
  io::PrepareStream(out);
  *out << options_.num_trees << ' ' << options_.max_features << ' '
       << options_.seed << '\n';
  *out << trees_.size() << '\n';
  for (const DecisionTree& tree : trees_) {
    FALCC_RETURN_IF_ERROR(tree.SerializePayload(out));
  }
  if (!*out) return Status::IOError("RandomForest serialization failed");
  return Status::OK();
}

Result<RandomForest> RandomForest::DeserializePayload(std::istream* in) {
  RandomForestOptions opt;
  FALCC_RETURN_IF_ERROR(io::Read(in, &opt.num_trees));
  FALCC_RETURN_IF_ERROR(io::Read(in, &opt.max_features));
  FALCC_RETURN_IF_ERROR(io::Read(in, &opt.seed));
  RandomForest model(opt);
  size_t num_trees = 0;
  FALCC_RETURN_IF_ERROR(io::Read(in, &num_trees));
  if (num_trees == 0 || num_trees > kMaxSerializedTrees) {
    return Status::InvalidArgument("RandomForest: implausible tree count");
  }
  model.trees_.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    Result<DecisionTree> tree = DecisionTree::DeserializePayload(in);
    if (!tree.ok()) return tree.status();
    model.trees_.push_back(std::move(tree).value());
  }
  return model;
}

void RandomForest::SerializeBinary(io::BinaryWriter* out) const {
  out->U64(options_.num_trees);
  out->U64(options_.max_features);
  out->U64(options_.seed);
  out->U64(trees_.size());
  for (const DecisionTree& tree : trees_) tree.SerializeBinary(out);
}

Result<RandomForest> RandomForest::DeserializeBinary(io::BinaryReader* in) {
  RandomForestOptions opt;
  uint64_t num_trees = 0;
  if (!in->U64(&opt.num_trees) || !in->U64(&opt.max_features) ||
      !in->U64(&opt.seed) || !in->U64(&num_trees)) {
    return Status::InvalidArgument("RandomForest: truncated header");
  }
  if (num_trees == 0 || num_trees > kMaxSerializedTrees) {
    return Status::InvalidArgument("RandomForest: implausible tree count");
  }
  if (!in->Fits(num_trees, DecisionTree::kBinaryHeaderBytes)) {
    return Status::InvalidArgument(
        "RandomForest: tree count exceeds the payload");
  }
  RandomForest model(opt);
  model.trees_.reserve(num_trees);
  for (uint64_t t = 0; t < num_trees; ++t) {
    Result<DecisionTree> tree = DecisionTree::DeserializeBinary(in);
    if (!tree.ok()) return tree.status();
    model.trees_.push_back(std::move(tree).value());
  }
  return model;
}

Status RandomForest::ValidateForWidth(size_t num_features) const {
  for (const DecisionTree& tree : trees_) {
    FALCC_RETURN_IF_ERROR(tree.ValidateForWidth(num_features));
  }
  return Status::OK();
}

std::string RandomForest::Name() const {
  std::string name = "RandomForest(B=" + std::to_string(options_.num_trees);
  name += ",depth=" + std::to_string(options_.base.max_depth);
  name +=
      options_.base.criterion == SplitCriterion::kGini ? ",gini" : ",entropy";
  name += ")";
  return name;
}

}  // namespace falcc
