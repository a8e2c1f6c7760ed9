// Polymorphic classifier serialization.
//
// Text format: the classifier's type tag on one line, followed by the
// type's payload. Supported types: decision_tree, adaboost,
// random_forest, logistic_regression, gaussian_nb, knn. Serialization
// preserves prediction behaviour exactly (doubles round-trip through 17
// significant digits); training-only state (RNG streams, scratch
// buffers) is not preserved.

#ifndef FALCC_ML_SERIALIZE_H_
#define FALCC_ML_SERIALIZE_H_

#include <iosfwd>
#include <memory>

#include "ml/classifier.h"

namespace falcc {

/// Writes `model` (tag + payload). Fails for unsupported types.
Status SerializeClassifier(const Classifier& model, std::ostream* out);

/// Reads one classifier written by SerializeClassifier.
Result<std::unique_ptr<Classifier>> DeserializeClassifier(std::istream* in);

namespace io {
class BinaryReader;
class BinaryWriter;
}  // namespace io

/// Appends `model` in the binary format. Fails for unsupported types.
Status SerializeClassifierBinary(const Classifier& model,
                                 io::BinaryWriter* out);

/// Reads one classifier written by SerializeClassifierBinary.
Result<std::unique_ptr<Classifier>> DeserializeClassifierBinary(
    io::BinaryReader* in);

}  // namespace falcc

#endif  // FALCC_ML_SERIALIZE_H_
