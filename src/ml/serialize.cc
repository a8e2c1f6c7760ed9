#include "ml/serialize.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/knn_classifier.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "util/binary.h"
#include "util/serialize.h"

namespace falcc {

Status SerializeClassifier(const Classifier& model, std::ostream* out) {
  const std::string tag = model.TypeTag();
  if (tag.empty()) {
    return Status::FailedPrecondition("serialization not supported for " +
                                      model.Name());
  }
  *out << tag << '\n';
  return model.SerializePayload(out);
}

namespace {

template <typename T>
Result<std::unique_ptr<Classifier>> Own(Result<T> model) {
  if (!model.ok()) return model.status();
  return std::unique_ptr<Classifier>(
      std::make_unique<T>(std::move(model).value()));
}

template <typename T>
Result<std::unique_ptr<Classifier>> Load(std::istream* in) {
  return Own(T::DeserializePayload(in));
}

// Binary record kinds.
enum class BinaryKind : uint32_t { kTree, kAdaBoost, kForest, kText };

}  // namespace

Result<std::unique_ptr<Classifier>> DeserializeClassifier(std::istream* in) {
  std::string tag;
  FALCC_RETURN_IF_ERROR(io::Read(in, &tag));
  if (tag == "decision_tree") return Load<DecisionTree>(in);
  if (tag == "adaboost") return Load<AdaBoost>(in);
  if (tag == "random_forest") return Load<RandomForest>(in);
  if (tag == "logistic_regression") return Load<LogisticRegression>(in);
  if (tag == "gaussian_nb") return Load<GaussianNaiveBayes>(in);
  if (tag == "knn") return Load<KnnClassifier>(in);
  return Status::InvalidArgument("unknown classifier type tag '" + tag +
                                 "'");
}

Status SerializeClassifierBinary(const Classifier& model,
                                 io::BinaryWriter* out) {
  const auto header = [out](BinaryKind kind) {
    out->U32(static_cast<uint32_t>(kind));
    out->U32(0);
  };
  if (const auto* tree = dynamic_cast<const DecisionTree*>(&model)) {
    header(BinaryKind::kTree);
    tree->SerializeBinary(out);
  } else if (const auto* boost = dynamic_cast<const AdaBoost*>(&model)) {
    header(BinaryKind::kAdaBoost);
    boost->SerializeBinary(out);
  } else if (const auto* forest = dynamic_cast<const RandomForest*>(&model)) {
    header(BinaryKind::kForest);
    forest->SerializeBinary(out);
  } else {
    std::ostringstream text;
    io::PrepareStream(&text);
    FALCC_RETURN_IF_ERROR(SerializeClassifier(model, &text));
    header(BinaryKind::kText);
    out->U64(text.view().size());
    out->Bytes(text.view());
    out->Align8();
  }
  return Status::OK();
}

Result<std::unique_ptr<Classifier>> DeserializeClassifierBinary(
    io::BinaryReader* in) {
  uint32_t kind = 0;
  uint32_t pad = 0;
  if (!in->U32(&kind) || !in->U32(&pad) || pad != 0) {
    return Status::InvalidArgument("truncated or corrupt classifier header");
  }
  switch (static_cast<BinaryKind>(kind)) {
    case BinaryKind::kTree:
      return Own(DecisionTree::DeserializeBinary(in));
    case BinaryKind::kAdaBoost:
      return Own(AdaBoost::DeserializeBinary(in));
    case BinaryKind::kForest:
      return Own(RandomForest::DeserializeBinary(in));
    case BinaryKind::kText:
      break;
    default:
      return Status::InvalidArgument("unknown classifier record kind " +
                                     std::to_string(kind));
  }
  uint64_t length = 0;
  const char* bytes = nullptr;
  if (!in->U64(&length) || !in->Fits(length, 1) ||
      !in->Take(length, &bytes) || !in->Align8()) {
    return Status::InvalidArgument("truncated classifier text record");
  }
  std::istringstream text{std::string(bytes, length)};
  Result<std::unique_ptr<Classifier>> model = DeserializeClassifier(&text);
  if (!model.ok()) return model;
  std::string extra;
  if (text >> extra) {
    return Status::InvalidArgument("trailing bytes in classifier text record");
  }
  return model;
}

}  // namespace falcc
