#include "ml/classifier.h"

#include <cmath>
#include <ostream>

#include "util/parallel.h"

namespace falcc {

namespace {
// Rows per batch-inference task: predictions are cheap, so chunks are
// sizable to keep scheduling overhead negligible.
constexpr size_t kPredictGrain = 256;
}  // namespace

Status Classifier::SerializePayload(std::ostream* /*out*/) const {
  return Status::FailedPrecondition("serialization not supported for " +
                                    Name());
}

void Classifier::PredictProbaBatch(const Dataset& data,
                                   std::span<const size_t> rows,
                                   std::span<double> out) const {
  FALCC_CHECK(rows.size() == out.size(),
              "PredictProbaBatch: rows/out size mismatch");
  for (size_t j = 0; j < rows.size(); ++j) {
    out[j] = PredictProba(data.Row(rows[j]));
  }
}

std::vector<int> PredictAll(const Classifier& model, const Dataset& data) {
  const size_t n = data.num_rows();
  std::vector<int> out(n);
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  ParallelFor(0, n, kPredictGrain,
              [&](size_t /*chunk*/, size_t lo, size_t hi) {
                double proba[kPredictGrain];
                const std::span<double> chunk_out(proba, hi - lo);
                model.PredictProbaBatch(
                    data, std::span<const size_t>(rows).subspan(lo, hi - lo),
                    chunk_out);
                for (size_t i = lo; i < hi; ++i) {
                  out[i] = chunk_out[i - lo] >= 0.5 ? 1 : 0;
                }
              });
  return out;
}

double Accuracy(const Classifier& model, const Dataset& data) {
  if (data.num_rows() == 0) return 0.0;
  const std::vector<int> predictions = PredictAll(model, data);
  size_t correct = 0;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    if (predictions[i] == data.Label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.num_rows());
}

Status ValidateWeights(const Dataset& data, std::span<const double> weights) {
  if (weights.empty()) return Status::OK();
  if (weights.size() != data.num_rows()) {
    return Status::InvalidArgument("sample_weights size != num_rows");
  }
  double sum = 0.0;
  for (double w : weights) {
    if (!std::isfinite(w)) {
      return Status::InvalidArgument("non-finite sample weight");
    }
    if (w < 0.0) return Status::InvalidArgument("negative sample weight");
    sum += w;
  }
  if (!std::isfinite(sum)) {
    return Status::InvalidArgument("sample weights overflow when summed");
  }
  if (sum <= 0.0) {
    return Status::InvalidArgument("sample weights sum to zero");
  }
  return Status::OK();
}

}  // namespace falcc
